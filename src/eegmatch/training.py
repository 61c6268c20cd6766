"""Subject-independent training with early stopping and per-subject scoring.

One model is trained on the pooled train partition of all subjects; the
validation partition drives early stopping (the returned parameters are the
snapshot with minimum validation loss, not the last epoch) and the test
partition is scored per subject over both orderings of every triple.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, TrainingDivergedError
from .model import (
    ModelParams,
    backward_batch,
    forward_batch,
    forward_segments,
    loss,
    loss_grad,
)
from .tensors import atomic_path
from .windows import DecisionWindowSet


@dataclass(frozen=True)
class TrainConfig:
    rng_seed: int
    batch_size: int = 64
    learning_rate: float = 1e-3
    max_epochs: int = 100
    patience: int = 5
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

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
        cfg = self.cfg
        self.step += 1
        b1c = 1.0 - cfg.beta1**self.step
        b2c = 1.0 - cfg.beta2**self.step
        for key, g in grads.items():
            m = self.m[key]
            v = self.v[key]
            m += (1.0 - cfg.beta1) * (g - m)
            v += (1.0 - cfg.beta2) * (g * g - v)
            params.tensors[key] -= (
                cfg.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + cfg.adam_eps)
            ).astype(params.tensors[key].dtype)


def _batched(n: int, size: int):
    for lo in range(0, n, size):
        yield np.arange(lo, min(lo + size, n))


def evaluate_set(
    params: ModelParams, ws: DecisionWindowSet, batch_size: int = 256
) -> tuple[float, float, np.ndarray]:
    """(mean loss, accuracy, per-sample correctness) over both orderings.

    Each forward pass covers ``batch_size // 2`` triples and scores both of
    their samples, running the speech branch once per distinct segment of
    those triples (see :func:`forward_segments`).
    """
    if ws.n_samples == 0:
        raise InvalidInputError("cannot evaluate an empty window set")
    losses = np.empty(ws.n_samples)
    correct = np.empty(ws.n_samples, dtype=bool)
    for idx in _batched(ws.n_triples, max(1, batch_size // 2)):
        eeg, segments, match_row, mismatch_row = ws.gather_segments(idx, params.config.np_dtype)
        p_match, p_swapped = forward_segments(params, eeg, segments, match_row, mismatch_row)
        losses[2 * idx] = loss(p_match, np.ones(idx.size))
        losses[2 * idx + 1] = loss(p_swapped, np.zeros(idx.size))
        correct[2 * idx] = p_match >= 0.5
        correct[2 * idx + 1] = p_swapped < 0.5
    return float(losses.mean()), float(correct.mean()), correct


def train(
    init: ModelParams,
    train_set: DecisionWindowSet,
    val_set: DecisionWindowSet,
    cfg: TrainConfig,
) -> TrainResult:
    """Minimize balanced-order BCE; reproducible from the config seed."""
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
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(train_set.n_samples)
        total = 0.0
        for batch_no, idx in enumerate(_batched(train_set.n_samples, cfg.batch_size)):
            sample_idx = order[idx]
            eeg, a, b, labels = train_set.gather_samples(sample_idx, params.config.np_dtype)
            p, trace = forward_batch(params, eeg, a, b)
            batch_losses = loss(p, labels)
            batch_loss = float(np.mean(batch_losses))
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            total += batch_losses.sum()
            dloss = loss_grad(p, labels) / labels.size
            grads = backward_batch(params, trace, dloss)
            adam.update(params, grads)
        train_loss = total / train_set.n_samples
        val_loss, val_acc, _ = evaluate_set(params, val_set, cfg.batch_size)
        log.append(EpochLog(epoch, float(train_loss), val_loss, val_acc))
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
    params: ModelParams,
    test_set: DecisionWindowSet,
    feature_name: str = "",
    batch_size: int = 256,
) -> list[SubjectResult]:
    """Per-subject accuracy over both orderings of every test triple."""
    _, _, correct = evaluate_set(params, test_set, batch_size)
    subjects = sorted({r.subject_id for r in test_set.recordings})
    by_subject = {s: [] for s in subjects}
    for sample in range(test_set.n_samples):
        by_subject[test_set.subject_of_sample(sample)].append(correct[sample])
    results = []
    for subject in subjects:
        hits = by_subject[subject]
        if not hits:
            warnings.warn(f"subject {subject} has zero test windows; excluded")
            continue
        results.append(
            SubjectResult(
                subject_id=subject,
                test_accuracy=float(np.mean(hits)),
                n_windows=len(hits),
                feature_name=feature_name,
            )
        )
    return results


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
    results = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            results.append(
                SubjectResult(
                    subject_id=row["subject"],
                    test_accuracy=float(row["accuracy"]),
                    n_windows=int(row["n_windows"]),
                    feature_name=row.get("feature", ""),
                )
            )
    return results
