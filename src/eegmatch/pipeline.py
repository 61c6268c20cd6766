"""End-to-end experiment orchestration with content-hash caching.

A run executes preprocess -> featurize -> train -> evaluate -> stats for
every feature condition in the experiment config, writes one
subject-results CSV per feature plus a violin figure, and records an
artifact manifest with a hash of every file; a file that has not changed
since its recorded hash is not read again. Cached stages are keyed by
input and config hashes, so re-running a grid recomputes only missing
cells.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import time
from collections import Counter
from contextlib import suppress
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from .acoustic import read_wav
from .alignments import read_alignment, read_embeddings, read_inventory
from .categorical import concat_features
from .checkpoint import save_checkpoint
from .errors import (
    DegenerateSampleError, InvalidInputError, check_keys, check_types, read_yaml, refused_as,
)
from .features import (
    StoryAssets, canonical_parts, extract_feature, feature_versions, speech_parts,
)
from .model import ArchitectureConfig, ModelParams, init_params
from .preproc import CHAIN_VERSION, PreprocConfig, preprocess_eeg
from .stats import compare, violin
from .tensors import (
    TimeSeriesFile,
    TimeSeriesTensor,
    atomic_path,
    frame_count,
    read_timeseries,
    write_timeseries,
)
from .training import (
    TrainConfig,
    evaluate_per_subject,
    read_subject_results,
    train,
    write_subject_results,
    write_training_log,
)
from .windows import (
    DecisionWindowSet,
    RecordingData,
    SplitSpec,
    WindowingSpec,
    assemble_dataset,
    split_recording,
    window_set,
)

logger = logging.getLogger(__name__)

# libyaml's emitter where PyYAML was built with it: it writes artifacts.yaml
# about 8x faster, in the same bytes for every key that a file path can be.
_SafeDumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# Where an experiment's ``out`` keeps preprocessed EEG and story features;
# every command that reads or fills them names them here.
PREPROC_CACHE = Path("cache", "preproc")
FEATURE_CACHE = Path("cache", "features")
# The SHA-256 that a run last read of each file under ``out`` and of each input
# file, with the file's stat at that moment (:class:`HashRecord`).
HASH_RECORD = Path("cache", "artifact_hashes.json")

# A recorded hash stands for a file only if the file's last change came this
# long before the hash was taken: a later write then moves its timestamps,
# however coarse the clock that stamps them. Whole-second timestamps, as FAT's
# 2 s ones, get the longer interval.
SETTLE_NS = 100_000_000
COARSE_SETTLE_NS = 2_000_000_000
_STAT_FIELDS = ("size", "mtime_ns", "ctime_ns", "inode")
_ENTRY_FIELDS = frozenset(_STAT_FIELDS + ("hashed_at", "sha256"))


@dataclass
class RecordingEntry:
    subject_id: str
    recording_id: str
    story_id: str
    eeg_path: Path


@dataclass(frozen=True)
class StoryFiles:
    """The files of one story, which every recording of it shares."""

    audio: Path
    phonemes: Path
    words: Path


@dataclass
class DatasetManifest:
    inventory_path: Path
    embeddings_path: Path | None
    recordings: list[RecordingEntry]
    stories: dict[str, StoryFiles]


def load_manifest(path: str | Path) -> DatasetManifest:
    """The dataset manifest at ``path``; a malformed entry or a missing file is refused by name.

    Every recording of a story must name the same audio and alignment files.
    """
    path = Path(path)
    raw = read_yaml(path, ("subjects", "inventory"))
    root = path.parent
    recordings, stories = [], {}
    with refused_as(path):
        subjects = check_keys(raw["subjects"], (), where="subjects")
        for subject_id, entries in sorted(subjects.items()):
            for entry in entries:
                check_keys(entry, ("recording_id", "story_id", "eeg", "audio", "phonemes", "words"),
                           where=f"a recording of subject {subject_id}")
                story_id = entry["story_id"]
                files = StoryFiles(root / entry["audio"], root / entry["phonemes"],
                                   root / entry["words"])
                if stories.setdefault(story_id, files) != files:
                    raise InvalidInputError(f"recording {entry['recording_id']} names other files "
                                            f"for story {story_id} than an earlier recording")
                recordings.append(RecordingEntry(subject_id, entry["recording_id"], story_id,
                                                 root / entry["eeg"]))
        inventory_path = root / raw["inventory"]
        embeddings_path = root / raw["embeddings"] if raw.get("embeddings") else None
        for file in (*(r.eeg_path for r in recordings),
                     *(p for files in stories.values() for p in astuple(files)),
                     inventory_path, embeddings_path):
            if file is not None and not file.exists():
                raise InvalidInputError(f"missing file {file}")
    return DatasetManifest(inventory_path, embeddings_path, recordings, stories)


def _settable_arch(arch: dict) -> dict:
    """``arch``, refused if it sets what a cell derives: frames, EEG channels, dtype or parts."""
    derived = [repr(key) for key in ("frames", "eeg_channels", "dtype", "parts") if key in arch]
    if derived:
        raise ValueError(f"{', '.join(derived)} derived by the cell, not a setting")
    return arch


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
        if not (isinstance(self.features, list) and all(isinstance(n, str) for n in self.features)):
            raise InvalidInputError(f"features must be a list of names, got {self.features!r}")
        if not self.features:
            raise InvalidInputError("experiment needs at least one feature")
        named = {}  # two features of one slug or one list of parts would share a cell
        for i, name in enumerate(self.features):  # an unregistered name raises here
            for key in (feature_slug(name), tuple(canonical_parts(name))):
                if named.setdefault(key, i) != i:
                    raise InvalidInputError(
                        f"features {self.features[named[key]]!r} and {name!r} name one cell")
        check_types(ExperimentSpec, {key: getattr(self, key) for key in CELL_SETTINGS})
        with refused_as("dtype"):
            ArchitectureConfig(dtype=self.dtype)
        # build each block once, so that a typo or a bad value is refused before
        # anything is written; what is built is not a field, so no cell key moves
        with refused_as("windowing"):
            self.windowing_spec = WindowingSpec(**check_types(WindowingSpec, self.windowing))
        with refused_as("split"):
            self.split_spec = SplitSpec(**check_types(SplitSpec, self.split))
        with refused_as("preproc"):
            self.preproc_config = PreprocConfig(**check_types(PreprocConfig, self.preproc))
        with refused_as("train"):
            TrainConfig(rng_seed=0, **check_types(TrainConfig, self.train))
        with refused_as("arch"):
            arch = check_types(ArchitectureConfig, _settable_arch(self.arch))
            ArchitectureConfig(dtype=self.dtype, **arch, frames=self.windowing_spec.window_frames)

    def cell(self, feature: str, inputs: dict) -> dict:
        """What ``feature``'s cell key hashes and its ``cell.yaml`` records.

        That is the feature, the versions of the preprocessing chain and of
        the feature's parts, every setting (see :data:`CELL_SETTINGS`) and the
        ``inputs``: the hashes of the EEG files and each story's feature
        cache key (:meth:`AssetLoader.feature_key`).
        """
        return {"feature": feature, "chain": CHAIN_VERSION, "version": feature_versions(feature),
                **{k: getattr(self, k) for k in CELL_SETTINGS}, "inputs": inputs}

    def loader(self, manifest: DatasetManifest) -> AssetLoader:
        """An asset loader over ``manifest`` that reads this experiment's hash record."""
        return AssetLoader(manifest, HashRecord(self.out_dir / HASH_RECORD))


# Every field of an experiment but its grid's features, manifest and output
# describes each of its cells, so a changed setting can never reuse a cell.
CELL_SETTINGS = tuple(f.name for f in fields(ExperimentSpec)
                      if f.name not in ("features", "manifest", "out_dir"))


def load_experiment(path: str | Path) -> ExperimentSpec:
    """The experiment that ``path`` describes; a malformed description is refused by name."""
    path = Path(path)
    raw = read_yaml(path, ("features", "manifest", "out"), CELL_SETTINGS)
    base = path.parent
    with refused_as(path):
        return ExperimentSpec(
            features=raw["features"],
            manifest=(base / raw["manifest"]).resolve(),
            out_dir=(base / raw["out"]).resolve(),
            **{key: raw[key] for key in CELL_SETTINGS if key in raw},
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


def _read_or_make(target: Path, make: Callable[[], TimeSeriesTensor]) -> TimeSeriesTensor:
    """The cache entry ``target``, or ``make()``'s tensor, written there."""
    if target.exists():
        return read_timeseries(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    out = make()
    write_timeseries(target, out)
    return out


def preprocess_recording_cached(
    entry: RecordingEntry,
    cfg: PreprocConfig,
    cache_dir: Path,
    file_hash: Callable[[Path], str],
) -> TimeSeriesTensor:
    """Preprocessed EEG, cached under the config, the chain's version and the input's hash.

    ``file_hash`` is the command's :meth:`AssetLoader.file_hash`.
    """
    digest = file_hash(entry.eeg_path)
    key = config_hash({"cfg": asdict(cfg), "chain": CHAIN_VERSION, "input": digest})
    return _read_or_make(cache_dir / f"{entry.recording_id}_{key}.ndmm",
                         lambda: preprocess_eeg(TimeSeriesFile.open(entry.eeg_path), cfg))


class AssetLoader:
    """Loads story assets once per command (stories are shared across subjects).

    It takes each input file's digest from ``record``, the experiment's
    :class:`HashRecord`, or an in-memory one: a file is read for hashing at
    most once per command, and not at all while the record holds it unchanged.
    """

    def __init__(self, manifest: DatasetManifest, record: HashRecord | None = None):
        self.manifest = manifest
        self.record = record or HashRecord()
        self._assets: dict[str, StoryAssets] = {}

    @cached_property
    def inventory(self):
        """Parsed on first use, as are the embeddings: a run of cached features needs neither."""
        return read_inventory(self.manifest.inventory_path)

    @cached_property
    def embeddings(self):
        path = self.manifest.embeddings_path
        return read_embeddings(path) if path else None

    def file_hash(self, path: Path) -> str:
        """SHA-256 of an input file, recorded under its absolute path."""
        return self.record.sha256(path)

    def assets(self, story_id: str) -> StoryAssets:
        if story_id not in self._assets:
            files = self.manifest.stories[story_id]
            self._assets[story_id] = StoryAssets(
                audio=read_wav(files.audio),
                phonemes=read_alignment(files.phonemes),
                words=read_alignment(files.words),
                inventory=self.inventory,
                embeddings=self.embeddings,
            )
        return self._assets[story_id]

    def feature_key(self, story_id: str, name: str, cfg: PreprocConfig) -> str:
        """The cache key of a story's feature under the ``cfg`` band.

        It covers the band, the versions of the chain and of the feature's
        parts, and every input file a feature can read.
        """
        files = self.manifest.stories[story_id]
        embeddings = self.manifest.embeddings_path
        return config_hash(
            {
                "feature": name,
                "band": [cfg.low_hz, cfg.high_hz, cfg.stop_atten_db],
                "chain": CHAIN_VERSION,
                "version": feature_versions(name),
                "audio": self.file_hash(files.audio),
                "phonemes": self.file_hash(files.phonemes),
                "words": self.file_hash(files.words),
                "inventory": self.file_hash(self.manifest.inventory_path),
                "embeddings": self.file_hash(embeddings) if embeddings else None,
            }
        )

    def feature_cached(
        self, story_id: str, name: str, cache_dir: Path, cfg: PreprocConfig
    ) -> TimeSeriesTensor:
        """A story's feature under the ``cfg`` band, read from or written to ``cache_dir``.

        The entry is named by its :meth:`feature_key`. A ``+`` name that
        misses is joined from its parts' own entries, so a part shared by
        several features is extracted once.
        """
        key, parts = self.feature_key(story_id, name, cfg), canonical_parts(name)
        return _read_or_make(cache_dir / f"{story_id}_{feature_slug(name)}_{key}.ndmm", lambda: (
            extract_feature(name, self.assets(story_id), cfg) if len(parts) == 1 else
            concat_features([self.feature_cached(story_id, p, cache_dir, cfg) for p in parts])))


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
            entry, preproc_cfg, out_dir / PREPROC_CACHE, loader.file_hash
        )
        feat = loader.feature_cached(
            entry.story_id, feature_name, out_dir / FEATURE_CACHE, preproc_cfg
        )
        if eeg.fs != feat.fs:
            raise InvalidInputError(
                f"{entry.recording_id}: EEG at {eeg.fs} Hz but feature at {feat.fs} Hz"
            )
        recordings.append(RecordingData(entry.subject_id, entry.recording_id, eeg.data, feat.data))
    return recordings


def _check_lengths(manifest: DatasetManifest, ranges: Callable[[RecordingEntry, int], object],
                   channels: int | None = None) -> None:
    """Refuse by name, before any cache is written, a recording whose frames ``ranges`` refuses
    or whose EEG channels are not ``channels`` (by default, the first recording's)."""
    want = None if channels is None else ("the model takes", channels)
    for entry in manifest.recordings:
        eeg, name = TimeSeriesFile.open(entry.eeg_path), f"{entry.subject_id}/{entry.recording_id}"
        want = want or (f"{name} has", eeg.n_channels)
        if eeg.n_channels != want[1]:
            raise InvalidInputError(f"{name} has {eeg.n_channels} EEG channels, but {want[0]} "
                                    f"{want[1]}: one model takes one channel count")
        with refused_as(name):
            ranges(entry, frame_count(eeg.n_samples, eeg.fs))


def scoring_set(spec: ExperimentSpec, trained_eeg: list[str], channels: int) -> DecisionWindowSet:
    """The triples that ``evaluate`` scores over ``spec.manifest`` with the cell ``spec``.

    A recording whose EEG hash is in ``trained_eeg`` is scored on its test
    partition only: more would score triples the cell was trained or stopped
    on. Any other recording is scored on all its triples, or refused if none,
    and so is one without the model's ``channels`` EEG channels.
    """
    manifest = load_manifest(spec.manifest)
    loader, win = spec.loader(manifest), spec.windowing_spec

    def ranges(entry: RecordingEntry, length: int) -> list[tuple[int, int]]:
        if loader.file_hash(entry.eeg_path) in trained_eeg:
            return [split_recording(length, spec.split_spec, win)[2]]
        if length < win.span_frames:
            raise InvalidInputError(f"recording of {length} frames holds no triple: "
                                    f"a triple spans {win.span_frames} frames")
        return [(0, length)]

    _check_lengths(manifest, ranges, channels)
    recordings = build_recordings(manifest, spec.features[0], loader, spec.preproc_config,
                                  spec.out_dir)
    scored = []
    for entry, rec in zip(manifest.recordings, recordings):
        with refused_as(f"{entry.subject_id}/{entry.recording_id}"):
            scored.append(ranges(entry, rec.eeg.shape[1]))
    return window_set(recordings, scored, win)


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

    ``run`` and ``train`` build a cell here, so one spec gives the same data,
    architecture and seeds wherever it is trained.
    """
    win, split = spec.windowing_spec, spec.split_spec
    _check_lengths(manifest, lambda _, length: split_recording(length, split, win))
    recordings = build_recordings(manifest, feature_name, loader, spec.preproc_config,
                                  spec.out_dir)
    seed = child_seed(spec.seed, feature_name)
    sets = assemble_dataset(recordings, win, split, seed=seed)
    arch = ArchitectureConfig(parts=speech_parts(feature_name), dtype=spec.dtype,
                              frames=win.window_frames, eeg_channels=recordings[0].eeg.shape[0],
                              **spec.arch)
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
    cell_cfg = spec.cell(feature_name, {
        "eeg": sorted(loader.file_hash(r.eeg_path) for r in manifest.recordings),
        "features": {story: loader.feature_key(story, feature_name, spec.preproc_config)
                     for story in sorted(manifest.stories)},
    })
    key = config_hash(cell_cfg)
    model_dir = out / "models" / slug
    stamp = model_dir / "cell.yaml"
    with suppress(FileNotFoundError, InvalidInputError):  # a stamp missing or refused: train
        if results_path.exists() and read_stamp(stamp)["key"] == key:
            logger.info("cell %s cached, skipping", feature_name)
            return results_path

    sets, params0, tcfg = build_cell(spec, manifest, loader, feature_name)
    logger.info("training %s: %d train / %d val / %d test samples", feature_name,
                *(s.n_samples for s in sets.values()))
    result = train(params0, sets["train"], sets["val"], tcfg)
    save_checkpoint(model_dir, result.params)
    write_training_log(model_dir / "train_log.csv", result.log)
    subject_results = evaluate_per_subject(result.params, sets["test"], feature_name=feature_name)
    results_path.parent.mkdir(parents=True, exist_ok=True)
    write_subject_results(results_path, subject_results)
    with atomic_path(stamp) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        yaml.safe_dump({"key": key, "best_epoch": result.best_epoch, "cell": cell_cfg}, fh)
    return results_path


def read_stamp(path: Path) -> dict:
    """The cell stamp at ``path``, refused by name unless it records its key and its cell.

    ``run`` retrains a cell whose stamp is refused; ``evaluate`` refuses its model.
    """
    stamp = read_yaml(path, ("key", "cell"), ("best_epoch",))
    with refused_as(path):
        check_keys(stamp["cell"], ("feature",), ("chain", "version", "inputs", *CELL_SETTINGS),
                   where="cell")
    return stamp


def trained_cell(model_dir: Path, manifest: Path) -> tuple[ExperimentSpec, list[str]]:
    """The one-feature experiment that ``model_dir``'s ``cell.yaml`` records, over
    ``manifest``, and the hashes of the EEG files that the cell was trained on.

    Its ``out_dir`` is the experiment that holds ``<out>/models/<feature>``,
    so scoring reads and fills that experiment's caches. A model directory
    that is not in the ``models/`` of a directory holding ``artifacts.yaml``
    or ``cache/`` belongs to no experiment, and is refused. So is a model
    trained on features of another version of the preprocessing chain or of
    the feature's parts, or in a cell that recorded no such version or no
    training EEG.
    """
    model_dir = Path(model_dir).resolve()
    path = model_dir / "cell.yaml"
    stamp = read_stamp(path)
    out = model_dir.parents[1]
    if model_dir.parent.name != "models" or not (
        (out / "artifacts.yaml").is_file() or (out / "cache").is_dir()
    ):
        raise InvalidInputError(f"{model_dir} is not in an experiment's models/ directory")
    cell = stamp["cell"]
    with refused_as(path):
        spec = ExperimentSpec(features=[cell["feature"]], manifest=manifest, out_dir=out,
                              **{key: cell[key] for key in CELL_SETTINGS if key in cell})
    for key, what, now in (("chain", "chain version", CHAIN_VERSION),
                           ("version", "feature version", feature_versions(cell["feature"]))):
        recorded = cell.get(key)
        if recorded != now:
            made_by = f"no {what}" if recorded is None else f"{what} {recorded!r}"
            raise InvalidInputError(f"{path} records {made_by}, but features are now made by "
                                    f"{what} {now!r}: train the model again")
    inputs = cell.get("inputs")
    if not isinstance(inputs, dict) or not isinstance(inputs.get("eeg"), list):
        raise InvalidInputError(f"{path} records no training EEG (inputs: eeg), so it cannot "
                                "tell a new listener from a trained one: train the model again")
    return spec, inputs["eeg"]


def run_stats(spec: ExperimentSpec, results: dict[str, list]) -> None:
    """The violin figure (:func:`stats.violin`) and pairwise Wilcoxon comparisons.

    A feature scored on fewer than 2 subjects has no violin, and its
    comparisons are notes.
    """
    out = spec.out_dir
    by_subject = {name: {r.subject_id: r.test_accuracy for r in results[name]}
                  for name in spec.features}
    violin(out / "figures" / "violin.svg",
           {feature_slug(name): by_subject[name] for name in spec.features})
    comp_path = out / "stats"
    comp_path.mkdir(parents=True, exist_ok=True)
    with (atomic_path(comp_path / "comparisons.csv") as tmp,
          open(tmp, "w", newline="", encoding="utf-8") as fh):
        writer = csv.writer(fh)
        writer.writerow(["feature_a", "feature_b", "z", "p", "n_effective", "note"])
        for i, name_a in enumerate(spec.features):
            for name_b in spec.features[i + 1 :]:
                try:
                    res = compare(by_subject[name_a], by_subject[name_b])
                    writer.writerow(
                        [name_a, name_b, f"{res.z:.4f}", f"{res.p:.6g}", res.n_effective, ""]
                    )
                except (InvalidInputError, DegenerateSampleError) as exc:
                    writer.writerow([name_a, name_b, "", "", "", str(exc)])


def _stat_fields(path: Path) -> dict:
    st = path.stat()
    return {"size": st.st_size, "mtime_ns": st.st_mtime_ns, "ctime_ns": st.st_ctime_ns,
            "inode": st.st_ino}


def _settled(entry: dict) -> bool:
    """Whether ``entry``'s file had last changed a settle interval before its hash was taken."""
    coarse = entry["mtime_ns"] % 10**9 == 0 and entry["ctime_ns"] % 10**9 == 0
    wait = COARSE_SETTLE_NS if coarse else SETTLE_NS
    return max(entry["mtime_ns"], entry["ctime_ns"]) <= entry["hashed_at"] - wait


def _read_hash_record(path: Path) -> tuple[bytes, dict]:
    """The record's bytes and entries; a missing, truncated or malformed one has none."""
    try:
        text = path.read_bytes()
        record = json.loads(text)
    except (OSError, ValueError):
        return b"", {}
    if isinstance(record, dict) and all(
        isinstance(e, dict) and set(e) == _ENTRY_FIELDS and isinstance(e["sha256"], str)
        and all(type(e[k]) is int for k in _ENTRY_FIELDS - {"sha256"})
        for e in record.values()
    ):
        return text, record
    return b"", {}


class HashRecord:
    """The SHA-256 of files, each recorded with the file's stat when it was read.

    A recorded hash stands for a file while its size, mtime, ctime and inode
    are as recorded and the file had settled when the hash was taken (see
    :data:`SETTLE_NS`); otherwise the file is read again. A hash is recorded
    only if the file's stat did not move while it was read, and an entry
    whose hash a new read confirms is kept as it was. The artifacts are
    named by their path under ``out``, the inputs by their absolute path.
    Each digest is returned again from memory, without a stat, to a later
    request for the same file in the same command. Without a ``path`` the
    record starts empty and is not saved.
    """

    def __init__(self, path: Path | None = None):
        self.path = path
        self._text, self._old = _read_hash_record(path) if path else (b"", {})
        self._entries: dict[str, dict] = {}
        self._given: dict[str | Path, str] = {}  # by name, or by path for an input
        self.read: list[tuple[str, int]] = []  # (name, size) of each file read

    def sha256(self, path: Path, name: str | None = None) -> str:
        """The digest of ``path``, recorded under ``name`` or, for an input, its absolute path."""
        key = name or path
        if key not in self._given:
            self._given[key] = self._hash(path, name or str(path.resolve()))
        return self._given[key]

    def _hash(self, path: Path, name: str) -> str:
        hashed_at = time.time_ns()
        seen = _stat_fields(path)
        entry = self._old.get(name)
        if entry and all(entry[k] == seen[k] for k in _STAT_FIELDS) and _settled(entry):
            self._entries[name] = entry
            return entry["sha256"]
        digest = file_sha256(path)
        self.read.append((name, seen["size"]))
        if entry and entry["sha256"] == digest:
            self._entries[name] = entry
        elif _stat_fields(path) == seen:
            self._entries[name] = {**seen, "hashed_at": hashed_at, "sha256": digest}
        return digest

    def save(self) -> bytes:
        """The entries of the files named since the record was read, written unless unchanged."""
        text = json.dumps(self._entries, sort_keys=True, indent=1).encode("utf-8")
        if text != self._text:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with atomic_path(self.path) as tmp:
                tmp.write_bytes(text)
        return text


def write_artifact_manifest(out_dir: Path, record: HashRecord | None = None) -> Path:
    """List the SHA-256 of every file under ``out_dir`` in its ``artifacts.yaml``.

    Each file is hashed through ``record``, the run's :class:`HashRecord` at
    :data:`HASH_RECORD`, read anew if none is given; so a run that changes
    no file's content leaves the record's bytes as they were. The record is
    saved and hashed last.
    """
    record = record or HashRecord(out_dir / HASH_RECORD)
    read_before = len(record.read)
    listed = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path != record.path and path.name != "artifacts.yaml":
            rel = str(path.relative_to(out_dir))
            listed[rel] = record.sha256(path, rel)
    read = record.read[read_before:]
    text = record.save()
    listed[str(HASH_RECORD)] = hashlib.sha256(text).hexdigest()
    hashed_in = Counter(str(Path(rel).parent) for rel, _ in read)
    logger.info("artifacts.yaml: %d files listed, %d hashed (%.1f MB%s), %d from the hash record",
                len(listed), len(read), sum(size for _, size in read) / 1e6,
                "".join(f", {n} in {d}" for d, n in sorted(hashed_in.items())),
                len(listed) - 1 - len(read))
    target = out_dir / "artifacts.yaml"
    with atomic_path(target) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        yaml.dump(listed, fh, Dumper=_SafeDumper, sort_keys=True)
    return target


def run_pipeline(spec: ExperimentSpec) -> Path:
    """Execute the full grid; returns the artifact manifest path."""
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    manifest = load_manifest(spec.manifest)
    loader = spec.loader(manifest)
    results = {}
    for feature_name in spec.features:
        csv_path = run_feature_cell(spec, manifest, loader, feature_name)
        results[feature_name] = read_subject_results(csv_path)
    run_stats(spec, results)
    return write_artifact_manifest(spec.out_dir, loader.record)
