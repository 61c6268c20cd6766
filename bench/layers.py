"""Which eegmatch functions are traced, and the per-layer metrics they give.

Every ``*_s`` and ``*_ms`` figure but ``training.step_ms`` is a self time:
the time spent in a layer's own calls minus the time of the traced calls
they made. A step's time is all of it, its forward, backward, gather and
Adam update included. Totals and counts are given per cycle of the workload,
one set-up plus one measured round, so a run's value does not depend on how
many rounds fitted into it; ``*_ms`` figures are means per call.
"""

from __future__ import annotations

import os

import numpy as np

from spans import Tracer

FEATURES = ("envelope", "mel", "vad", "env+bpc", "wordemb")


def metric_feature(name: str) -> str:
    """A feature name as it may appear inside a metric name."""
    return name.replace("+", "_")


def _nbytes(arrays) -> int:
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def _train_samples(args, kwargs, result) -> int:
    train_set = args[1] if len(args) > 1 else kwargs["train_set"]
    return len(result.log) * train_set.n_samples


def install_meter(tracer: Tracer) -> None:
    """The one span kept with tracing off: samples/s inside ``training.train``."""
    from eegmatch import training

    tracer.install(training, "train", "training.train", work_of=_train_samples)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions of every module where callers look them up."""
    from eegmatch import (
        acoustic, categorical, checkpoint, features, model, pipeline, preproc,
        stats, synth, tensors, training, windows,
    )

    install_meter(tracer)
    t = tracer.install
    t(synth, "generate_story", "synth.story")
    t(synth, "generate_eeg", "synth.eeg")
    t(preproc, "preprocess_eeg", "preproc")
    t(acoustic, "envelope_powerlaw", "acoustic.envelope")
    t(acoustic, "mel_spectrogram", "acoustic.mel")
    t(acoustic, "vad", "acoustic.vad")
    for fn in ("phoneme_onehot", "map_bpc", "map_vowel_consonant", "map_anyphoneme",
               "onset_variant", "word_embedding_sequence", "concat_features"):
        t(categorical, fn, "categorical")
    t(features, "extract_feature", "features.extract")
    t(pipeline, "file_sha256", "pipeline.hash",
      work_of=lambda a, k, r: os.path.getsize(a[0]))
    t(pipeline, "preprocess_recording_cached", "pipeline.preproc_cache")
    t(pipeline.AssetLoader, "feature_cached", "pipeline.feature_cache")
    t(pipeline, "run_feature_cell", "pipeline.cell", feature_of=lambda a, k: a[3])
    t(pipeline, "run_stats", "stats")
    t(tensors, "read_tensor", "tensors.read")
    t(tensors, "write_tensor", "tensors.write",
      work_of=lambda a, k, r: np.asarray(a[1]).nbytes)
    t(checkpoint, "save_checkpoint", "checkpoint.save")
    t(checkpoint, "load_checkpoint", "checkpoint.load")
    t(windows, "assemble_dataset", "windows.assemble")
    t(windows, "make_windows", "windows.assemble")
    gathered = lambda a, k, r: _nbytes(r)  # noqa: E731
    t(windows.DecisionWindowSet, "gather_triples", "windows.gather", work_of=gathered)
    t(windows.DecisionWindowSet, "gather_samples", "windows.gather", work_of=gathered)
    t(model, "forward_batch", "model.forward")
    t(model, "backward_batch", "model.backward")
    t(training, "evaluate_set", "training.evaluate")
    t(training, "evaluate_per_subject", "training.evaluate")
    t(training.AdamState, "update", "training.adam")
    for fn in ("summarize", "emit_figure_data", "wilcoxon_signed_rank"):
        t(stats, fn, "stats")


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the recorded spans, per set-up plus round.

    Spans under a ``bench.setup`` root count once per set-up made, spans
    under a ``bench.round`` root once per round; per-call figures are means
    over every call.
    """
    spans = tracer.spans
    own = tracer.self_times()
    kids = tracer.children()
    root = []
    for i, s in enumerate(spans):
        root.append(i if s.parent < 0 else root[s.parent])
    phases = ("bench.setup", "bench.round")
    n_phase = {p: sum(1 for s in spans if s.parent < 0 and s.name == p) for p in phases}

    def select(name: str, feature: str | None = None):
        return [i for i, s in enumerate(spans)
                if s.name == name and (feature is None or s.feature == feature)]

    def per_cycle(values) -> float:
        """Sum of (span index, value) pairs per set-up plus per round."""
        sums = dict.fromkeys(phases, 0.0)
        for i, v in values:
            phase = spans[root[i]].name
            if phase in sums:
                sums[phase] += v
        return sum(sums[p] / n_phase[p] for p in phases if n_phase[p])

    def total(name: str) -> float:
        return per_cycle((i, own[i]) for i in select(name))

    def count(name: str) -> float:
        return per_cycle((i, 1) for i in select(name))

    def work(name: str, outermost: bool = False) -> float:
        return per_cycle((i, spans[i].work) for i in select(name)
                         if not (outermost and spans[i].parent >= 0
                                 and spans[spans[i].parent].name == name))

    def has_descendant(i: int, name: str) -> bool:
        todo = list(kids[i])
        while todo:
            j = todo.pop()
            if spans[j].name == name:
                return True
            todo.extend(kids[j])
        return False

    def per_call_ms(name: str, feature: str) -> float:
        calls = select(name, feature)
        return 1e3 * sum(own[i] for i in calls) / len(calls) if calls else 0.0

    def step_ms(feature: str) -> float:
        # a step is everything train() does outside its per-epoch validation
        busy, steps = 0.0, 0
        for i in select("training.train", feature):
            busy += spans[i].end - spans[i].start - sum(
                spans[j].end - spans[j].start for j in kids[i]
                if spans[j].name == "training.evaluate")
            steps += sum(1 for j in kids[i] if spans[j].name == "training.adam")
        return 1e3 * busy / steps if steps else 0.0

    m = {
        "synth.story_s": total("synth.story"),
        "synth.eeg_s": total("synth.eeg"),
        "preproc.s": total("preproc"),
        "preproc.calls": count("preproc"),
        "acoustic.envelope_s": total("acoustic.envelope"),
        "acoustic.mel_s": total("acoustic.mel"),
        "acoustic.vad_s": total("acoustic.vad"),
        "categorical.s": total("categorical"),
        "features.extract_s": total("features.extract"),
        "features.extract_calls": count("features.extract"),
        "pipeline.hash_s": total("pipeline.hash"),
        "pipeline.hash_mb": work("pipeline.hash") / 1e6,
    }
    for cache, span, inner in (("preproc", "pipeline.preproc_cache", "preproc"),
                               ("feature", "pipeline.feature_cache", "features.extract"),
                               ("cell", "pipeline.cell", "training.train")):
        misses = per_cycle((i, 1) for i in select(span) if has_descendant(i, inner))
        m[f"pipeline.{cache}_hits"] = count(span) - misses
        m[f"pipeline.{cache}_misses"] = misses
    m.update({
        "tensors.read_s": total("tensors.read"),
        "tensors.write_s": total("tensors.write"),
        "tensors.write_mb": work("tensors.write") / 1e6,
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.load_s": total("checkpoint.load"),
        "windows.assemble_s": total("windows.assemble"),
        "windows.gather_s": total("windows.gather"),
        "windows.gather_mb": work("windows.gather", outermost=True) / 1e6,
    })
    for kind in ("forward", "backward"):
        for f in FEATURES:
            m[f"model.{kind}_ms.{metric_feature(f)}"] = per_call_ms(f"model.{kind}", f)
    m["model.forward_calls"] = count("model.forward")
    m["model.backward_calls"] = count("model.backward")
    for f in FEATURES:
        m[f"training.step_ms.{metric_feature(f)}"] = step_ms(f)
    adam = select("training.adam")
    m["training.adam_ms"] = 1e3 * sum(own[i] for i in adam) / len(adam) if adam else 0.0
    m["training.evaluate_s"] = total("training.evaluate")
    m["training.steps"] = count("training.adam")
    m["stats.s"] = total("stats")
    return m
