"""The two workloads: the paper's feature grid and the scoring of new listeners.

Each workload makes its inputs from the seed in ``setup`` and then runs whole
rounds of the same operations; ``check`` verifies a round's outputs.
"""

from __future__ import annotations

import shutil
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml
from scipy import signal

from eegmatch import (
    acoustic, alignments, checkpoint, features, model, pipeline, synth, tensors, training, windows,
)
from eegmatch.preproc import PreprocConfig

import checks
from spans import Tracer, cpu_time

GRID_FEATURES = ["envelope", "mel", "vad", "env+bpc", "wordemb"]
SCORED_FEATURES = ["mel", "envelope"]
Recording = namedtuple("Recording", "eeg feature")


def write_dataset(root: Path, seed: int, subjects: list[tuple[str, str, float]],
                  story_s: float, eeg_fs: float) -> Path:
    """Mel-coupled synthetic recordings; returns the manifest.

    ``subjects`` lists (subject id, story id, SNR in dB): one recording each.
    The head model (the mixing of the 28 mel bands into 64 channels) depends
    on the seed alone, so datasets written with one seed share it and a
    model trained on one can score listeners of another. EEG is written at
    ``eeg_fs``, upsampled from the 64 Hz forward model.
    """
    shutil.rmtree(root, ignore_errors=True)
    for sub in ("audio", "alignments", "eeg"):
        (root / sub).mkdir(parents=True)
    inv = synth.default_inventory()
    lexicon = synth.default_lexicon(inv)
    alignments.write_inventory(root / "inventory.yaml", inv)
    rng = np.random.default_rng([seed, 0])
    alignments.write_embeddings(root / "embeddings.txt",
                                synth.synth_embeddings(list(lexicon), seed=int(rng.integers(2**31))))
    mixing = rng.standard_normal((synth.EEG_CHANNELS, 28)) / np.sqrt(28)
    couplings = {}
    manifest = {"version": 1, "inventory": "inventory.yaml", "embeddings": "embeddings.txt",
                "subjects": {}}
    for subject_id, story_id, snr_db in subjects:
        if story_id not in couplings:
            story = synth.generate_story(story_s, seed=int(rng.integers(2**31)), inv=inv,
                                         lexicon=lexicon, story_id=story_id)
            stem = root / "alignments" / story_id
            acoustic.write_wav(root / "audio" / f"{story_id}.wav", story.audio)
            alignments.write_alignment(stem.with_suffix(".phonemes.tsv"), story.phonemes)
            alignments.write_alignment(stem.with_suffix(".words.tsv"), story.words)
            couplings[story_id] = features.extract_feature(
                "mel", features.StoryAssets(story.audio, story.phonemes, story.words, inv))
        cfg = synth.ForwardModelConfig(rng_seed=int(rng.integers(2**31)), mixing=mixing,
                                       snr_db=snr_db)
        eeg = synth.generate_eeg(couplings[story_id], cfg)
        if eeg_fs != eeg.fs:
            up = int(round(eeg_fs / eeg.fs))
            eeg = tensors.TimeSeriesTensor(signal.resample_poly(eeg.data, up, 1, axis=1), eeg_fs)
        rec_id = f"{subject_id}_{story_id}"
        tensors.write_timeseries(root / "eeg" / f"{rec_id}.ndmm", eeg)
        manifest["subjects"][subject_id] = [{
            "recording_id": rec_id, "story_id": story_id, "eeg": f"eeg/{rec_id}.ndmm",
            "audio": f"audio/{story_id}.wav",
            "phonemes": f"alignments/{story_id}.phonemes.tsv",
            "words": f"alignments/{story_id}.words.tsv",
        }]
    path = root / "manifest.yaml"
    path.write_text(yaml.safe_dump(manifest, sort_keys=True, allow_unicode=True), encoding="utf-8")
    return path


def recordings_of(manifest: Path) -> list[dict]:
    raw = yaml.safe_load(manifest.read_text(encoding="utf-8"))
    return [dict(entry, subject=s) for s, entries in sorted(raw["subjects"].items())
            for entry in entries]


def cached_recording(out: Path, rec: dict, feature: str) -> Recording:
    """A recording's preprocessed EEG and feature, read from the run's caches."""
    (eeg_path,) = (out / "cache" / "preproc").glob(f"{rec['recording_id']}_*.ndmm")
    (feat_path,) = (out / "cache" / "features").glob(f"{rec['story_id']}_{feature}_*.ndmm")
    eeg, feat = checks.read_ndmm(eeg_path)[2], checks.read_ndmm(feat_path)[2]
    n = min(eeg.shape[1], feat.shape[1])
    return Recording(eeg[:, :n], feat[:, :n])


def train_config(size) -> dict:
    # patience equal to the epoch count: every run takes the same steps
    return {"batch_size": 128, "learning_rate": size.learning_rate,
            "max_epochs": size.epochs, "patience": size.epochs}


@dataclass(frozen=True)
class GridSize:
    # SNRs spread over subjects as EEG quality does: the clean subjects let
    # mel show it decodes, the noisy ones keep accuracies off the ceiling
    snr_db: tuple[float, ...] = (20.0, 10.0, 0.0, -15.0, -20.0, -25.0)
    stories: int = 3
    duration_s: float = 90.0
    epochs: int = 2
    learning_rate: float = 1e-2
    split: tuple[float, float, float] = (0.5, 0.125, 0.375)
    warm_reruns: int = 3


class PaperGrid:
    """A cold five-feature grid, then warm re-runs of the same grid."""

    name = "paper-grid"

    def __init__(self, work: Path, seed: int, tracer: Tracer, size: GridSize = GridSize()):
        self.work, self.seed, self.tracer, self.size = work, seed, tracer, size
        self.ops_per_round = 1 + size.warm_reruns
        self.manifest = work / "data" / "manifest.yaml"

    def setup(self) -> None:
        # stories shared by few subjects: a model that ignores the EEG scores
        # alike on one story, and two such features must not tie on every
        # subject (the Wilcoxon stage raises on all-zero differences)
        n = self.size.stories
        subjects = [(f"sub{i:02d}", f"story{i % n:02d}", snr)
                    for i, snr in enumerate(self.size.snr_db)]
        write_dataset(self.work / "data", self.seed, subjects, self.size.duration_s, 64.0)

    def spec(self, out: Path) -> pipeline.ExperimentSpec:
        train_frac, val_frac, test_frac = self.size.split
        return pipeline.ExperimentSpec(
            features=list(GRID_FEATURES), manifest=self.manifest, out_dir=out,
            seed=self.seed, dtype="float32", train=train_config(self.size),
            split={"train_frac": train_frac, "val_frac": val_frac, "test_frac": test_frac},
        )

    def round(self, k: int) -> dict:
        out = self.work / f"round{k}"
        shutil.rmtree(self.work / f"round{k - 1}", ignore_errors=True)
        spec = self.spec(out)
        t0 = cpu_time()
        pipeline.run_pipeline(spec)
        cold = cpu_time() - t0
        before = checks.tree_digest(out)
        trained = self.tracer.count("training.train")
        warm = []
        for _ in range(self.size.warm_reruns):
            t0 = cpu_time()
            pipeline.run_pipeline(spec)
            warm.append(cpu_time() - t0)
        self._warm = (self.tracer.count("training.train") - trained,
                      before == checks.tree_digest(out))
        return {"cold_s": [cold], "rerun_s": warm}

    def describe(self, k: int) -> str:
        out = self.work / f"round{k}"
        means = {f: np.mean([a for a, _ in checks.read_accuracies(out / "results" / f"{f}.csv").values()])
                 for f in GRID_FEATURES}
        return "mean accuracy " + ", ".join(f"{f} {a:.3f}" for f, a in means.items())

    def check(self, k: int) -> list[str]:
        out = self.work / f"round{k}"
        retrained, identical = self._warm
        errors = [f"warm re-run trained {retrained} cells"] if retrained else []
        if not identical:
            errors.append("warm re-run changed the grid's outputs")
        errors += checks.check_artifacts(out)
        errors += checks.check_comparisons(out, GRID_FEATURES)
        errors += checks.check_preprocessed(out / "cache" / "preproc")
        recs = recordings_of(self.manifest)
        for feature in GRID_FEATURES:
            accs = checks.read_accuracies(out / "results" / f"{feature}.csv")
            for rec in recs:
                length = min(checks.frames(out / "cache" / "preproc", rec["recording_id"]),
                             checks.frames(out / "cache" / "features", f"{rec['story_id']}_{feature}"))
                want = 2 * checks.test_triples(length, self.size.split)
                got = accs[rec["subject"]][1]
                if got != want:
                    errors.append(f"{feature} {rec['subject']}: n_windows {got}, expected {want}")
        # mel must decode where the EEG carries it; at -15 dB and below
        # accuracy sits near chance by design
        mel_acc = checks.read_accuracies(out / "results" / "mel.csv")
        mel = np.mean([mel_acc[f"sub{i:02d}"][0] for i, snr in enumerate(self.size.snr_db)
                       if snr >= 0])
        if mel < 0.5 + checks.MEL_MARGIN:
            errors.append(f"mel mean accuracy {mel:.3f} at SNR >= 0 dB not above chance "
                          f"by {checks.MEL_MARGIN}")
        params = checkpoint.load_checkpoint(out / "models" / "mel")
        errors += checks.check_swap(model.forward_batch, params,
                                    [cached_recording(out, r, "mel") for r in recs],
                                    np.random.default_rng(self.seed))
        return errors


@dataclass(frozen=True)
class ListenerSize:
    train_snr_db: tuple[float, ...] = (5.0, 0.0, -5.0, -10.0)
    train_duration_s: float = 90.0
    listener_snr_db: tuple[float, ...] = (0.0, -5.0)
    story_s: float = 240.0
    eeg_fs: float = 512.0
    epochs: int = 2
    learning_rate: float = 3e-3
    split: tuple[float, float, float] = (0.6, 0.15, 0.25)


class ListenerScoring:
    """Checkpoints trained in set-up score new listeners' whole recordings."""

    name = "listener-scoring"
    # two warm scorings per cold one: a warm scoring takes a third of the
    # time, and its median needs the samples more
    warm_scorings = 2

    def __init__(self, work: Path, seed: int, tracer: Tracer, size: ListenerSize = ListenerSize()):
        self.work, self.seed, self.tracer, self.size = work, seed, tracer, size
        self.ops_per_round = ((1 + self.warm_scorings) * len(SCORED_FEATURES)
                              * len(size.listener_snr_db))
        self.manifest = work / "listeners" / "manifest.yaml"
        self.models = work / "training" / "models"

    def setup(self) -> None:
        size = self.size
        train_manifest = write_dataset(
            self.work / "train", self.seed,
            [(f"sub{i:02d}", "story00", snr) for i, snr in enumerate(size.train_snr_db)],
            size.train_duration_s, 64.0)
        shutil.rmtree(self.work / "training", ignore_errors=True)
        train_frac, val_frac, test_frac = size.split
        pipeline.run_pipeline(pipeline.ExperimentSpec(
            features=list(SCORED_FEATURES), manifest=train_manifest,
            out_dir=self.work / "training", seed=self.seed, dtype="float32",
            train=train_config(size),
            split={"train_frac": train_frac, "val_frac": val_frac, "test_frac": test_frac},
        ))
        write_dataset(self.work / "listeners", self.seed,
                      [(f"new{i:02d}", "story90", snr) for i, snr in enumerate(size.listener_snr_db)],
                      size.story_s, size.eeg_fs)

    def score(self, out: Path) -> dict[str, dict[str, tuple[float, int]]]:
        """Raw files to per-subject accuracy, for every scored checkpoint."""
        manifest = pipeline.load_manifest(self.manifest)
        loader = pipeline.AssetLoader(manifest)
        spec = windows.WindowingSpec()
        scores = {}
        for feature in SCORED_FEATURES:
            with self.tracer.span("bench.score", feature=feature):
                params = checkpoint.load_checkpoint(self.models / feature)
                recs = pipeline.build_recordings(manifest, feature, loader, PreprocConfig(), out)
                scores[feature] = {}
                for rec in recs:
                    ws = windows.make_windows(
                        tensors.TimeSeriesTensor(rec.eeg, spec.fs),
                        tensors.TimeSeriesTensor(rec.feature, spec.fs),
                        spec, rec.subject_id, rec.recording_id)
                    for r in training.evaluate_per_subject(params, ws, feature_name=feature):
                        scores[feature][r.subject_id] = (r.test_accuracy, r.n_windows)
        return scores

    def round(self, k: int) -> dict:
        out = self.work / f"round{k}"
        shutil.rmtree(self.work / f"round{k - 1}", ignore_errors=True)
        t0 = cpu_time()
        self._cold = self.score(out)
        cold = cpu_time() - t0
        warm = []
        self._warm = []
        for _ in range(self.warm_scorings):
            t0 = cpu_time()
            self._warm.append(self.score(out))
            warm.append(cpu_time() - t0)
        return {"cold_s": [cold], "rerun_s": warm}

    def describe(self, k: int) -> str:
        return "accuracy " + ", ".join(f"{f} {s} {a:.3f}" for f, by_subject in self._cold.items()
                                       for s, (a, _) in by_subject.items())

    def check(self, k: int) -> list[str]:
        out = self.work / f"round{k}"
        errors = checks.check_preprocessed(out / "cache" / "preproc")
        if any(w != self._cold for w in self._warm):
            errors.append("scoring from the caches changed the accuracies")
        recs = recordings_of(self.manifest)
        rng = np.random.default_rng(self.seed)
        for feature in SCORED_FEATURES:
            for rec in recs:
                length = min(checks.frames(out / "cache" / "preproc", rec["recording_id"]),
                             checks.frames(out / "cache" / "features", f"{rec['story_id']}_{feature}"))
                got = self._cold[feature][rec["subject"]][1]
                if got != 2 * checks.triples(length):
                    errors.append(f"{feature} {rec['subject']}: n_windows {got}, "
                                  f"expected {2 * checks.triples(length)}")
            params = checkpoint.load_checkpoint(self.models / feature)
            errors += checks.check_swap(model.forward_batch, params,
                                        [cached_recording(out, r, feature) for r in recs], rng)
        mel = np.mean([acc for acc, _ in self._cold["mel"].values()])
        if mel < 0.5 + checks.MEL_MARGIN:
            errors.append(f"mel mean accuracy {mel:.3f} of the new listeners not above "
                          f"chance by {checks.MEL_MARGIN}")
        return errors


WORKLOADS = {w.name: w for w in (PaperGrid, ListenerScoring)}
