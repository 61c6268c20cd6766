"""End-to-end experiment orchestration with content-hash caching.

A run executes preprocess -> featurize -> build -> train -> evaluate ->
stats for every feature condition in the experiment config, writes one
subject-results CSV per feature plus figure data, and records an artifact
manifest with a hash of every file. Cached stages are keyed by input and
config hashes, so re-running a grid recomputes only missing cells.
"""

from __future__ import annotations

import csv
import hashlib
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from .acoustic import read_wav
from .alignments import read_alignment, read_embeddings, read_inventory
from .checkpoint import save_checkpoint
from .errors import DegenerateSampleError, InvalidInputError
from .features import StoryAssets, canonical_parts, extract_feature, feature_dims, join_parts
from .model import ModelParams, config_for_feature, init_params
from .preproc import PreprocConfig, preprocess_eeg
from .stats import (
    PairedSample,
    emit_figure_data,
    summarize,
    wilcoxon_signed_rank,
)
from .tensors import TimeSeriesTensor, atomic_path, read_timeseries, write_timeseries
from .training import (
    TrainConfig,
    evaluate_per_subject,
    train,
    write_subject_results,
    write_training_log,
)
from .windows import DecisionWindowSet, RecordingData, SplitSpec, WindowingSpec, assemble_dataset

logger = logging.getLogger(__name__)

# libyaml's parser where PyYAML was built with it: a cell stamp, which carries
# its cell's description, parses about 10x faster, and a warm re-run reads one
# stamp per cell.
_SafeLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class RecordingEntry:
    subject_id: str
    recording_id: str
    story_id: str
    eeg_path: Path
    audio_path: Path
    phonemes_path: Path
    words_path: Path


@dataclass
class DatasetManifest:
    root: Path
    inventory_path: Path
    embeddings_path: Path | None
    recordings: list[RecordingEntry]

    @property
    def story_ids(self) -> list[str]:
        return sorted({r.story_id for r in self.recordings})


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse and validate a dataset manifest; missing files fail fast by name."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    root = path.parent
    recordings = []
    for subject_id, entries in sorted(raw["subjects"].items()):
        for entry in entries:
            rec = RecordingEntry(
                subject_id=subject_id,
                recording_id=entry["recording_id"],
                story_id=entry["story_id"],
                eeg_path=root / entry["eeg"],
                audio_path=root / entry["audio"],
                phonemes_path=root / entry["phonemes"],
                words_path=root / entry["words"],
            )
            for attr in ("eeg_path", "audio_path", "phonemes_path", "words_path"):
                p = getattr(rec, attr)
                if not p.exists():
                    raise InvalidInputError(
                        f"manifest entry {rec.recording_id}: missing {attr[:-5]} file {p}"
                    )
            recordings.append(rec)
    inventory_path = root / raw["inventory"]
    if not inventory_path.exists():
        raise InvalidInputError(f"manifest inventory file missing: {inventory_path}")
    embeddings_path = None
    if raw.get("embeddings"):
        embeddings_path = root / raw["embeddings"]
        if not embeddings_path.exists():
            raise InvalidInputError(f"manifest embeddings file missing: {embeddings_path}")
    return DatasetManifest(
        root=root,
        inventory_path=inventory_path,
        embeddings_path=embeddings_path,
        recordings=recordings,
    )


@dataclass
class ExperimentSpec:
    """One experiment grid: feature conditions x fixed data and seeds."""

    features: list[str]
    manifest: Path
    out_dir: Path
    seed: int = 0
    dtype: str = "float32"
    train: dict = field(default_factory=dict)
    arch: dict = field(default_factory=dict)
    windowing: dict = field(default_factory=dict)
    split: dict = field(default_factory=dict)
    preproc: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.features:
            raise InvalidInputError("experiment needs at least one feature")
        for name in self.features:
            feature_dims(name)  # raises for unregistered names


def load_experiment(path: str | Path) -> ExperimentSpec:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    base = path.parent
    return ExperimentSpec(
        features=list(raw["features"]),
        manifest=(base / raw["manifest"]).resolve(),
        out_dir=(base / raw["out"]).resolve(),
        seed=int(raw.get("seed", 0)),
        dtype=str(raw.get("dtype", "float32")),
        train=dict(raw.get("train", {})),
        arch=dict(raw.get("arch", {})),
        windowing=dict(raw.get("windowing", {})),
        split=dict(raw.get("split", {})),
        preproc=dict(raw.get("preproc", {})),
    )


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_hash(obj) -> str:
    return hashlib.sha256(
        yaml.safe_dump(obj, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]


def feature_slug(name: str) -> str:
    return name.replace("/", "_")


def preprocess_recording_cached(
    entry: RecordingEntry,
    cfg: PreprocConfig,
    cache_dir: Path,
    file_hash: Callable[[Path], str] | None = None,
) -> TimeSeriesTensor:
    """Preprocessed EEG, cached under the config and the input's hash.

    ``file_hash`` defaults to ``file_sha256``; a run passes its loader's
    memo so that each EEG file is read for hashing once.
    """
    digest = (file_hash or file_sha256)(entry.eeg_path)
    key = config_hash({"cfg": asdict(cfg), "input": digest})
    cache_dir.mkdir(parents=True, exist_ok=True)
    target = cache_dir / f"{entry.recording_id}_{key}.ndmm"
    if target.exists():
        return read_timeseries(target)
    raw = read_timeseries(entry.eeg_path)
    out = preprocess_eeg(raw, cfg)
    write_timeseries(target, out)
    return out


class AssetLoader:
    """Loads story assets once per run (stories are shared across subjects).

    It also hashes each input file at most once, so every cache key of a run
    reads a file's bytes once.
    """

    def __init__(self, manifest: DatasetManifest):
        self.manifest = manifest
        self.inventory = read_inventory(manifest.inventory_path)
        self.embeddings = (
            read_embeddings(manifest.embeddings_path) if manifest.embeddings_path else None
        )
        self._assets: dict[str, StoryAssets] = {}
        self._by_story = {}
        self._sha256: dict[Path, str] = {}
        for rec in manifest.recordings:
            self._by_story.setdefault(rec.story_id, rec)

    def file_hash(self, path: Path) -> str:
        """SHA-256 of an input file, read on the first request only."""
        if path not in self._sha256:
            self._sha256[path] = file_sha256(path)
        return self._sha256[path]

    def assets(self, story_id: str) -> StoryAssets:
        if story_id not in self._assets:
            rec = self._by_story[story_id]
            self._assets[story_id] = StoryAssets(
                audio=read_wav(rec.audio_path),
                phonemes=read_alignment(rec.phonemes_path),
                words=read_alignment(rec.words_path),
                inventory=self.inventory,
                embeddings=self.embeddings,
            )
        return self._assets[story_id]

    def feature_cached(self, story_id: str, name: str, cache_dir: Path) -> TimeSeriesTensor:
        """A story's feature, read from or written to ``cache_dir``.

        The key covers every input file a feature can read. A ``+`` name that
        misses is joined from its parts' own entries, so a part shared by
        several features is extracted once.
        """
        rec = self._by_story[story_id]
        embeddings = self.manifest.embeddings_path
        key = config_hash(
            {
                "feature": name,
                "audio": self.file_hash(rec.audio_path),
                "phonemes": self.file_hash(rec.phonemes_path),
                "words": self.file_hash(rec.words_path),
                "inventory": self.file_hash(self.manifest.inventory_path),
                "embeddings": self.file_hash(embeddings) if embeddings else None,
            }
        )
        cache_dir.mkdir(parents=True, exist_ok=True)
        target = cache_dir / f"{story_id}_{feature_slug(name)}_{key}.ndmm"
        if target.exists():
            return read_timeseries(target)
        parts = canonical_parts(name)
        if len(parts) == 1:
            out = extract_feature(name, self.assets(story_id))
        else:
            out = join_parts([self.feature_cached(story_id, p, cache_dir) for p in parts])
        write_timeseries(target, out)
        return out


def build_recordings(
    manifest: DatasetManifest,
    feature_name: str,
    loader: AssetLoader,
    preproc_cfg: PreprocConfig,
    out_dir: Path,
) -> list[RecordingData]:
    """Preprocessed EEG paired with the named feature for every recording."""
    recordings = []
    for entry in manifest.recordings:
        eeg = preprocess_recording_cached(
            entry, preproc_cfg, out_dir / "cache" / "preproc", loader.file_hash
        )
        feat = loader.feature_cached(entry.story_id, feature_name, out_dir / "cache" / "features")
        if eeg.fs != feat.fs:
            raise InvalidInputError(
                f"{entry.recording_id}: EEG at {eeg.fs} Hz but feature at {feat.fs} Hz"
            )
        length = min(eeg.n_samples, feat.n_samples)
        recordings.append(
            RecordingData(
                subject_id=entry.subject_id,
                recording_id=entry.recording_id,
                eeg=eeg.data[:, :length],
                feature=feat.data[:, :length],
            )
        )
    return recordings


def child_seed(seed: int, name: str) -> int:
    return int(
        np.frombuffer(
            hashlib.sha256(f"{seed}:{name}".encode()).digest()[:8], dtype=np.uint64
        )[0]
        % (2**31)
    )


def build_cell(
    spec: ExperimentSpec,
    manifest: DatasetManifest,
    loader: AssetLoader,
    feature_name: str,
) -> tuple[dict[str, DecisionWindowSet], ModelParams, TrainConfig]:
    """Window sets, initial parameters and training config of one feature cell.

    Every command that trains or scores a cell builds it here, so one spec
    gives the same data, architecture and seeds wherever it is used.
    """
    win = WindowingSpec(**spec.windowing)
    recordings = build_recordings(
        manifest, feature_name, loader, PreprocConfig(**spec.preproc), spec.out_dir
    )
    seed = child_seed(spec.seed, feature_name)
    sets = assemble_dataset(recordings, win, SplitSpec(**spec.split), seed=seed)
    dims, flags = feature_dims(feature_name)
    arch_kwargs = {
        "dtype": spec.dtype,
        "frames": win.window_frames,
        "eeg_channels": recordings[0].eeg.shape[0],
        **spec.arch,
    }
    arch = config_for_feature(dims, flags, **arch_kwargs)
    params0 = init_params(arch, np.random.default_rng(seed))
    return sets, params0, TrainConfig(rng_seed=seed, **spec.train)


def run_feature_cell(
    spec: ExperimentSpec,
    manifest: DatasetManifest,
    loader: AssetLoader,
    feature_name: str,
) -> Path:
    """Train and evaluate one feature condition; returns its results CSV."""
    slug = feature_slug(feature_name)
    out = spec.out_dir
    results_path = out / "results" / f"{slug}.csv"
    cell_cfg = {
        "feature": feature_name,
        "seed": spec.seed,
        "dtype": spec.dtype,
        "train": spec.train,
        "arch": spec.arch,
        "windowing": spec.windowing,
        "split": spec.split,
        "preproc": spec.preproc,
        "inputs": sorted(loader.file_hash(r.eeg_path) for r in manifest.recordings),
    }
    key = config_hash(cell_cfg)
    stamp = out / "models" / slug / "cell.yaml"
    if results_path.exists() and stamp.exists():
        with open(stamp, "r", encoding="utf-8") as fh:
            if yaml.load(fh, Loader=_SafeLoader).get("key") == key:
                logger.info("cell %s cached, skipping", feature_name)
                return results_path

    sets, params0, tcfg = build_cell(spec, manifest, loader, feature_name)
    logger.info(
        "training %s: %d train / %d val / %d test samples",
        feature_name, sets["train"].n_samples, sets["val"].n_samples, sets["test"].n_samples,
    )
    result = train(params0, sets["train"], sets["val"], tcfg)
    model_dir = out / "models" / slug
    save_checkpoint(model_dir, result.params)
    write_training_log(model_dir / "train_log.csv", result.log)
    subject_results = evaluate_per_subject(result.params, sets["test"], feature_name=feature_name)
    results_path.parent.mkdir(parents=True, exist_ok=True)
    write_subject_results(results_path, subject_results)
    with atomic_path(stamp) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        yaml.safe_dump({"key": key, "best_epoch": result.best_epoch, "cell": cell_cfg}, fh)
    return results_path


def trained_cell(model_dir: Path, manifest: Path, out_dir: Path) -> ExperimentSpec:
    """The one-feature experiment that ``model_dir``'s ``cell.yaml`` records, over ``manifest``.

    Building its cell with :func:`build_cell` gives the windowing, split,
    preprocessing and seed that the model was trained with.
    """
    path = model_dir / "cell.yaml"
    stamp = yaml.safe_load(path.read_text(encoding="utf-8")) if path.exists() else None
    cell = stamp.get("cell") if isinstance(stamp, dict) else None
    if not isinstance(cell, dict):
        raise InvalidInputError(f"{path} does not record the cell its model was trained as")
    settings = {k: v for k, v in cell.items() if k not in ("feature", "inputs")}
    return ExperimentSpec(features=[cell["feature"]], manifest=manifest, out_dir=out_dir,
                          **settings)


def run_stats(spec: ExperimentSpec, results: dict[str, list]) -> None:
    """Summaries, violin figure data and pairwise Wilcoxon comparisons."""
    out = spec.out_dir
    summaries = []
    for name in spec.features:
        rows = results[name]
        summaries.append(
            summarize(
                feature_slug(name),
                [r.subject_id for r in rows],
                np.array([r.test_accuracy for r in rows]),
            )
        )
    emit_figure_data(out / "figures", summaries)
    comp_path = out / "stats"
    comp_path.mkdir(parents=True, exist_ok=True)
    with (atomic_path(comp_path / "comparisons.csv") as tmp,
          open(tmp, "w", newline="", encoding="utf-8") as fh):
        writer = csv.writer(fh)
        writer.writerow(["feature_a", "feature_b", "z", "p", "n_effective", "note"])
        for i, name_a in enumerate(spec.features):
            for name_b in spec.features[i + 1 :]:
                map_a = {r.subject_id: r.test_accuracy for r in results[name_a]}
                map_b = {r.subject_id: r.test_accuracy for r in results[name_b]}
                try:
                    pair = PairedSample.from_maps(map_a, map_b)
                    res = wilcoxon_signed_rank(pair.a, pair.b)
                    writer.writerow(
                        [name_a, name_b, f"{res.z:.4f}", f"{res.p:.6g}", res.n_effective, ""]
                    )
                except (InvalidInputError, DegenerateSampleError) as exc:
                    writer.writerow([name_a, name_b, "", "", "", str(exc)])


def write_artifact_manifest(out_dir: Path) -> Path:
    entries = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "artifacts.yaml":
            entries[str(path.relative_to(out_dir))] = file_sha256(path)
    target = out_dir / "artifacts.yaml"
    with atomic_path(target) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        yaml.safe_dump(entries, fh, sort_keys=True)
    return target


def run_pipeline(spec: ExperimentSpec) -> Path:
    """Execute the full grid; returns the artifact manifest path."""
    from .training import read_subject_results

    spec.out_dir.mkdir(parents=True, exist_ok=True)
    manifest = load_manifest(spec.manifest)
    loader = AssetLoader(manifest)
    results = {}
    for feature_name in spec.features:
        csv_path = run_feature_cell(spec, manifest, loader, feature_name)
        results[feature_name] = read_subject_results(csv_path)
    run_stats(spec, results)
    return write_artifact_manifest(spec.out_dir)
