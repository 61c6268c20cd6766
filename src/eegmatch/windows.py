"""Decision-window construction and the train/validation/test partition.

Each triple pairs a 5 s EEG window with the matched feature segment (same
start frame) and a mismatched segment starting one second after the matched
segment ends. Windows hop by 10 % of their length; a triple is emitted only
when its full 11 s footprint fits. Validation and test are cut from the
middle of each recording and windowing runs inside each partition, so no
triple straddles a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import InvalidInputError, InvalidSpecError, SampleRateMismatchError, refused_as
from .tensors import FRAME_RATE, TimeSeriesTensor

PARTITIONS = ("train", "val", "test")


@dataclass(frozen=True)
class WindowingSpec:
    window_s: float = 5.0
    overlap_frac: float = 0.9
    gap_s: float = 1.0
    fs: ClassVar[float] = FRAME_RATE  # not a setting: every stream it windows is at this rate

    def __post_init__(self) -> None:
        if not (0.0 <= self.overlap_frac < 1.0):
            raise InvalidSpecError(f"overlap_frac must be in [0, 1), got {self.overlap_frac}")
        if self.window_s <= 0 or self.gap_s <= 0:
            raise InvalidSpecError("window_s and gap_s must be positive")

    @property
    def window_frames(self) -> int:
        return int(round(self.window_s * self.fs))

    @property
    def hop_frames(self) -> int:
        return max(1, int(round(self.window_frames * (1.0 - self.overlap_frac))))

    @property
    def gap_frames(self) -> int:
        return int(round(self.gap_s * self.fs))

    @property
    def span_frames(self) -> int:
        """Full footprint of one triple: window + gap + mismatch window."""
        return 2 * self.window_frames + self.gap_frames


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.8
    val_frac: float = 0.1
    test_frac: float = 0.1

    def __post_init__(self) -> None:
        if abs(self.train_frac + self.val_frac + self.test_frac - 1.0) > 1e-9:
            raise InvalidSpecError("partition fractions must sum to 1")


def window_starts(length: int, spec: WindowingSpec) -> np.ndarray:
    """Start frames of all triples fitting in ``length`` frames."""
    if length < spec.span_frames:
        return np.empty(0, dtype=np.int64)
    n = (length - spec.span_frames) // spec.hop_frames + 1
    return np.arange(n, dtype=np.int64) * spec.hop_frames


def split_recording(
    length: int, spec: SplitSpec = SplitSpec(), win: WindowingSpec = WindowingSpec()
) -> tuple[list[tuple[int, int]], tuple[int, int], tuple[int, int]]:
    """Frame ranges (train pieces, val, test); val and test sit mid-recording."""
    a = int(np.floor(length * spec.train_frac / 2.0))
    b = a + int(np.floor(length * spec.val_frac))
    c = b + int(np.floor(length * spec.test_frac))
    val, test = (a, b), (b, c)
    train = [(0, a), (c, length)]
    span = win.span_frames
    lengths = {"longest train piece": max(a, length - c), "val": b - a, "test": c - b}
    short = [f"{name} has {n} frames" for name, n in lengths.items() if n < span]
    if short:
        raise InvalidInputError(
            f"recording of {length} frames too short to window every partition: "
            f"{', '.join(short)}, but a triple spans {span} frames"
        )
    return train, val, test


def gather_windows(arrays, rec_idx: np.ndarray, starts: np.ndarray, width: int,
                   dtype) -> np.ndarray:
    """(N, C, width) stack of ``arrays[rec_idx[j]][:, starts[j]:][:, :width]`` in ``dtype``."""
    out = np.empty((len(starts), arrays[0].shape[0], width), dtype=dtype)
    for j, (r, s) in enumerate(zip(rec_idx.tolist(), starts.tolist())):
        out[j] = arrays[r][:, s : s + width]
    return out


@dataclass
class RecordingData:
    """A recording's EEG and feature arrays at the window rate, cut to one length when built."""

    subject_id: str
    recording_id: str
    eeg: np.ndarray      # (C, L)
    feature: np.ndarray  # (F, L)

    def __post_init__(self) -> None:
        length = min(self.eeg.shape[1], self.feature.shape[1])
        self.eeg, self.feature = self.eeg[:, :length], self.feature[:, :length]


@dataclass
class DecisionWindowSet:
    """Triples referenced lazily into their recordings.

    ``start_frame[i]`` is both the EEG and matched-feature start of triple
    ``i``; the mismatch segment starts ``window + gap`` frames later. Each
    triple yields two order-balanced samples: sample ``2i`` presents
    (match, mismatch) with label 1, sample ``2i + 1`` the swap with label 0.
    """

    spec: WindowingSpec
    recordings: list[RecordingData]
    rec_index: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    start_frame: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        self.rec_index = np.asarray(self.rec_index, dtype=np.int64)
        self.start_frame = np.asarray(self.start_frame, dtype=np.int64)
        if self.rec_index.shape != self.start_frame.shape:
            raise InvalidInputError("rec_index and start_frame must have equal length")

    @property
    def n_triples(self) -> int:
        return int(self.rec_index.size)

    @property
    def n_samples(self) -> int:
        return 2 * self.n_triples

    @property
    def feature_dim(self) -> int:
        return self.recordings[0].feature.shape[0] if self.recordings else 0

    @property
    def eeg_channels(self) -> int:
        return self.recordings[0].eeg.shape[0] if self.recordings else 0

    @property
    def mismatch_offset(self) -> int:
        """Frames from a triple's matched segment to its mismatched one."""
        return self.spec.window_frames + self.spec.gap_frames

    def _eeg_windows(self, rec_idx: np.ndarray, starts: np.ndarray, dtype) -> np.ndarray:
        eeg = [r.eeg for r in self.recordings]
        return gather_windows(eeg, rec_idx, starts, self.spec.window_frames, dtype)

    def _feature_windows(self, rec_idx: np.ndarray, starts: np.ndarray, dtype) -> np.ndarray:
        feature = [r.feature for r in self.recordings]
        return gather_windows(feature, rec_idx, starts, self.spec.window_frames, dtype)

    def gather_triples(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialize float64 (eeg, match, mismatch) stacks for triple indices."""
        idx = np.asarray(idx, dtype=np.int64)
        rec, start = self.rec_index[idx], self.start_frame[idx]
        return (
            self._eeg_windows(rec, start, np.float64),
            self._feature_windows(rec, start, np.float64),
            self._feature_windows(rec, start + self.mismatch_offset, np.float64),
        )

    def gather_samples(
        self, sample_idx: np.ndarray, dtype
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Materialize (eeg, speech_a, speech_b, labels) for sample indices."""
        sample_idx = np.asarray(sample_idx, dtype=np.int64)
        triples = sample_idx // 2
        swapped = (sample_idx % 2).astype(bool)
        rec, start = self.rec_index[triples], self.start_frame[triples]
        other = start + self.mismatch_offset
        a = self._feature_windows(rec, np.where(swapped, other, start), dtype)
        b = self._feature_windows(rec, np.where(swapped, start, other), dtype)
        labels = (~swapped).astype(np.float64)
        return self._eeg_windows(rec, start, dtype), a, b, labels


def make_windows(
    eeg: TimeSeriesTensor,
    feat: TimeSeriesTensor,
    spec: WindowingSpec = WindowingSpec(),
    subject_id: str = "",
    recording_id: str = "",
) -> DecisionWindowSet:
    """All decision-window triples of one recording (no partitioning)."""
    if eeg.fs != spec.fs or feat.fs != spec.fs:
        raise SampleRateMismatchError(
            f"windowing expects {spec.fs} Hz streams, got eeg={eeg.fs}, feat={feat.fs}"
        )
    rec = RecordingData(subject_id, recording_id, eeg.data, feat.data)
    starts = window_starts(rec.eeg.shape[1], spec)
    return DecisionWindowSet(
        spec=spec,
        recordings=[rec],
        rec_index=np.zeros(starts.size, dtype=np.int64),
        start_frame=starts,
    )


def assemble_dataset(
    recordings: list[RecordingData],
    win: WindowingSpec = WindowingSpec(),
    split: SplitSpec = SplitSpec(),
    seed: int = 0,
) -> dict[str, DecisionWindowSet]:
    """Pool per-partition triples across subjects; train order is shuffled.

    Windowing runs independently inside every partition range so no triple
    (including its mismatch segment) crosses a partition boundary.
    """
    if not recordings:
        raise InvalidInputError("no recordings to assemble")
    per_partition: dict[str, tuple[list[np.ndarray], list[np.ndarray]]] = {
        p: ([], []) for p in PARTITIONS
    }
    for r_i, rec in enumerate(recordings):
        with refused_as(f"{rec.subject_id}/{rec.recording_id}"):
            train_ranges, val_range, test_range = split_recording(rec.eeg.shape[1], split, win)
        ranges = {"train": train_ranges, "val": [val_range], "test": [test_range]}
        for part, rngs in ranges.items():
            for lo, hi in rngs:
                starts = window_starts(hi - lo, win) + lo
                per_partition[part][0].append(np.full(starts.size, r_i, dtype=np.int64))
                per_partition[part][1].append(starts)
    out = {}
    rng = np.random.default_rng(seed)
    for part in PARTITIONS:
        rec_idx = np.concatenate(per_partition[part][0]) if per_partition[part][0] else np.empty(0, dtype=np.int64)
        starts = np.concatenate(per_partition[part][1]) if per_partition[part][1] else np.empty(0, dtype=np.int64)
        if part == "train" and rec_idx.size:
            order = rng.permutation(rec_idx.size)
            rec_idx, starts = rec_idx[order], starts[order]
        out[part] = DecisionWindowSet(
            spec=win, recordings=recordings, rec_index=rec_idx, start_frame=starts
        )
    return out

