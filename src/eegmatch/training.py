"""Subject-independent training with early stopping and per-subject scoring.

One model is trained on the pooled train partition of all subjects; the
validation partition drives early stopping (the returned parameters are the
snapshot with minimum validation loss, not the last epoch) and the test
partition is scored per subject over both orderings of every triple.
"""

from __future__ import annotations

import csv
import logging
import time
import warnings
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, TrainingDivergedError, refused_as
from .model import (
    ModelParams,
    backward_batch,
    forward_triples,
    forward_windows,
    loss,
    loss_grad,
)
from .tensors import atomic_path
from .windows import DecisionWindowSet

logger = logging.getLogger(__name__)

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    rng_seed: int
    # samples per training step (scoring runs in fixed blocks): a step runs
    # batch_size // 2 triples in the matched order, whose gradient is the
    # both-order mean by antisymmetry; an epoch visits each triple once
    batch_size: int = 64
    learning_rate: float = 1e-3
    max_epochs: int = 100
    patience: int = 5

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise InvalidInputError("batch_size, max_epochs and patience must be >= 1")
        if self.learning_rate <= 0:
            raise InvalidInputError("learning_rate must be positive")


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_loss: float
    val_acc: float


@dataclass
class TrainResult:
    params: ModelParams
    log: list[EpochLog]
    best_epoch: int


@dataclass
class SubjectResult:
    subject_id: str
    test_accuracy: float
    n_windows: int
    feature_name: str = ""


class AdamState:
    """Adaptive-moment estimates per parameter tensor."""

    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.cfg = cfg
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.tensors.items()}

    def update(self, params: ModelParams, grads: dict[str, np.ndarray]) -> None:
        self.step += 1
        b1c = 1.0 - ADAM_BETA1**self.step
        b2c = 1.0 - ADAM_BETA2**self.step
        for key, g in grads.items():
            m = self.m[key]
            v = self.v[key]
            m += (1.0 - ADAM_BETA1) * (g - m)
            v += (1.0 - ADAM_BETA2) * (g * g - v)
            params.tensors[key] -= (
                self.cfg.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
            ).astype(params.tensors[key].dtype)


def evaluate_set(params: ModelParams, ws: DecisionWindowSet) -> tuple[float, float, np.ndarray]:
    """(mean loss, accuracy, per-sample correctness) over both orderings.

    The EEG path and the frame-wise speech fronts run once per recording,
    over the frames its triples cover, and each window is sliced from them
    with its edge frames recomputed from its own inputs; the LSTM and head
    run on blocks of at most :data:`~eegmatch.model.SCORE_BLOCK_ROWS`
    distinct segments, pooled across recordings (see :func:`forward_windows`).
    Each probability is bit for bit what :func:`forward_batch`, the per-window
    reference on the same fronts and tail, gives its sample among others.
    Scoring builds no trace.
    """
    if ws.n_samples == 0:
        raise InvalidInputError("cannot evaluate an empty window set")
    p_match, p_swapped = forward_windows(params, ws)
    losses = np.empty(ws.n_samples)
    losses[0::2] = loss(p_match, 1.0)
    losses[1::2] = loss(p_swapped, 0.0)
    correct = np.empty(ws.n_samples, dtype=bool)
    correct[0::2] = p_match >= 0.5
    correct[1::2] = p_swapped < 0.5
    return float(losses.mean()), float(correct.mean()), correct


def _step(params: ModelParams, adam: AdamState, train_set: DecisionWindowSet,
          triples: np.ndarray, where: str) -> float:
    """One Adam step on ``triples``; the sum of their losses in the (match, mismatch) order.

    Nothing of a step outlives it: its arrays change size with its runs of
    windows, and held into the next step they fragment the heap for good.
    """
    p, trace = forward_triples(params, train_set, triples)
    losses = loss(p, 1.0)
    if not np.isfinite(np.mean(losses)):
        raise TrainingDivergedError(f"non-finite loss at {where}")
    adam.update(params, backward_batch(params, trace, loss_grad(p, 1.0) / triples.size))
    return float(losses.sum())


def train(
    init: ModelParams,
    train_set: DecisionWindowSet,
    val_set: DecisionWindowSet,
    cfg: TrainConfig,
) -> TrainResult:
    """Minimize balanced-order BCE; reproducible from the config seed.

    An epoch visits each train triple once. A step takes ``batch_size // 2``
    shuffled triples (at least one) and runs them once, in the (match,
    mismatch) order. The head is exactly antisymmetric and has no bias, so
    the swapped order has the same loss and the same parameter gradient:
    the step's gradient is the mean over both orders of its triples, and
    the logged ``train_loss`` is the mean over all samples. Drawing the two
    orders as separate samples would visit each triple twice per epoch, in
    different steps; an epoch here takes as many steps, of half as many
    triples each, and so does half that training.

    A step (:func:`~eegmatch.model.forward_triples`) runs the frame-wise
    fronts once over the frames its windows cover, recomputes a window's
    edge frames inside a run, and runs a shared segment through the LSTM
    once; its probabilities are bit for bit those of its windows alone.
    """
    if train_set.n_samples == 0 or val_set.n_samples == 0:
        raise InvalidInputError("train and validation partitions must be non-empty")
    rng = np.random.default_rng(cfg.rng_seed)
    params = init.copy()
    adam = AdamState(params, cfg)
    log: list[EpochLog] = []
    best_val = np.inf
    best_params = params.copy()
    best_epoch = 0
    stale = 0
    per_step = max(1, cfg.batch_size // 2)  # triples
    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(train_set.n_triples)
        total = 0.0
        for batch_no, lo in enumerate(range(0, train_set.n_triples, per_step)):
            total += 2.0 * _step(params, adam, train_set, order[lo : lo + per_step],
                                 f"epoch {epoch}, batch {batch_no}")
        train_loss = total / train_set.n_samples
        val_loss, val_acc, _ = evaluate_set(params, val_set)
        log.append(EpochLog(epoch, float(train_loss), val_loss, val_acc))
        logger.info("epoch %d: train loss %.4f, val loss %.4f, val acc %.3f, %.1f s",
                    *astuple(log[-1]), time.perf_counter() - started)
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return TrainResult(params=best_params, log=log, best_epoch=best_epoch)


def evaluate_per_subject(
    params: ModelParams, test_set: DecisionWindowSet, feature_name: str = ""
) -> list[SubjectResult]:
    """Per-subject accuracy over both orderings of every test triple."""
    _, _, correct = evaluate_set(params, test_set)
    subjects, code = np.unique([r.subject_id for r in test_set.recordings], return_inverse=True)
    # samples 2i and 2i + 1 are the two orders of triple i
    of_sample = np.repeat(code[test_set.rec_index], 2)
    n_windows = np.bincount(of_sample, minlength=len(subjects))
    n_correct = np.bincount(of_sample, weights=correct, minlength=len(subjects))
    for subject in subjects[n_windows == 0]:
        warnings.warn(f"subject {subject} has zero test windows; excluded")
    return [SubjectResult(str(subject), float(c / n), int(n), feature_name)
            for subject, c, n in zip(subjects, n_correct, n_windows) if n]


def write_training_log(path: str | Path, log: list[EpochLog]) -> None:
    with atomic_path(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "val_acc"])
        for row in log:
            writer.writerow([row.epoch, f"{row.train_loss:.8f}", f"{row.val_loss:.8f}", f"{row.val_acc:.6f}"])


def write_subject_results(path: str | Path, results: list[SubjectResult]) -> None:
    with atomic_path(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "accuracy", "n_windows", "feature"])
        for r in results:
            writer.writerow([r.subject_id, f"{r.test_accuracy:.6f}", r.n_windows, r.feature_name])


def read_subject_results(path: str | Path) -> list[SubjectResult]:
    """The results CSV at ``path``; a missing column, a value out of range or a subject
    listed twice is refused by name."""
    results = []
    with open(path, newline="", encoding="utf-8") as fh, refused_as(path):
        reader = csv.DictReader(fh)
        missing = {"subject", "accuracy", "n_windows"} - set(reader.fieldnames or ())
        if missing:
            raise InvalidInputError(f"not a results CSV: no {sorted(missing)} column")
        for row in reader:
            r = SubjectResult(row["subject"], float(row["accuracy"]), int(row["n_windows"]),
                              row.get("feature", ""))
            if not 0.0 <= r.test_accuracy <= 1.0:
                raise InvalidInputError(f"subject {r.subject_id}: accuracy {row['accuracy']} "
                                        "outside [0, 1]")
            if r.n_windows < 1:
                raise InvalidInputError(f"subject {r.subject_id}: n_windows {r.n_windows} below 1")
            results.append(r)
        if len({r.subject_id for r in results}) != len(results):
            raise InvalidInputError("a subject is listed twice")
    return results
