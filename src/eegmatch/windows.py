"""Decision-window construction and the train/validation/test partition.

Each triple pairs a 5 s EEG window with the matched feature segment (same
start frame) and a mismatched segment starting one second after the matched
segment ends. Windows hop by 10 % of their length; a triple is emitted only
when its full 11 s footprint fits. Validation and test are cut from the
middle of each recording and windowing runs inside each partition, so no
triple straddles a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        if self.window_frames < 1 or self.gap_frames < 1:
            raise InvalidSpecError(f"window_s and gap_s must each round to at least one frame at "
                                   f"{self.fs:g} Hz, got {self.window_s} and {self.gap_s}")

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
    channels = len(arrays[0]) if len(arrays) else np.shape(arrays)[1]  # an empty (B, C, T) batch
    out = np.empty((len(starts), channels, width), dtype=dtype)
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
    :func:`window_set` builds every such set.
    """

    spec: WindowingSpec
    recordings: list[RecordingData]
    rec_index: np.ndarray    # (N,) int64: the recording of each triple
    start_frame: np.ndarray  # (N,) int64

    @property
    def n_triples(self) -> int:
        return int(self.rec_index.size)

    @property
    def n_samples(self) -> int:
        return 2 * self.n_triples

    @property
    def mismatch_offset(self) -> int:
        """Frames from a triple's matched segment to its mismatched one."""
        return self.spec.window_frames + self.spec.gap_frames

    def gather_triples(self, idx: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialize (eeg, match, mismatch) stacks of triple indices in ``dtype``."""
        idx = np.asarray(idx, dtype=np.int64)
        rec, start = self.rec_index[idx], self.start_frame[idx]
        eeg, feature = [r.eeg for r in self.recordings], [r.feature for r in self.recordings]
        width = self.spec.window_frames
        return (
            gather_windows(eeg, rec, start, width, dtype),
            gather_windows(feature, rec, start, width, dtype),
            gather_windows(feature, rec, start + self.mismatch_offset, width, dtype),
        )

    def gather_samples(
        self, sample_idx: np.ndarray, dtype
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Materialize (eeg, speech_a, speech_b, labels) for sample indices."""
        sample_idx = np.asarray(sample_idx, dtype=np.int64)
        eeg, match, mismatch = self.gather_triples(sample_idx // 2, dtype)
        swapped = (sample_idx % 2 == 1)[:, None, None]
        labels = 1.0 - sample_idx % 2
        return eeg, np.where(swapped, mismatch, match), np.where(swapped, match, mismatch), labels


def window_set(
    recordings: list[RecordingData], ranges: list[list[tuple[int, int]]], spec: WindowingSpec
) -> DecisionWindowSet:
    """Every triple inside each recording's frame ``ranges``, in recording order.

    ``ranges[r]`` lists the (start, end) frame ranges of ``recordings[r]``;
    windowing runs inside each range, so no triple straddles its edge.
    """
    starts = [window_starts(hi - lo, spec) + lo for rngs in ranges for lo, hi in rngs]
    owner = np.array([r for r, rngs in enumerate(ranges) for _ in rngs], dtype=np.int64)
    return DecisionWindowSet(spec, recordings, np.repeat(owner, [s.size for s in starts]),
                             np.concatenate([np.empty(0, dtype=np.int64), *starts]))


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
    return window_set([rec], [[(0, rec.eeg.shape[1])]], spec)


def assemble_dataset(
    recordings: list[RecordingData],
    win: WindowingSpec = WindowingSpec(),
    split: SplitSpec = SplitSpec(),
    seed: int = 0,
) -> dict[str, DecisionWindowSet]:
    """Each partition's triples (:func:`window_set`) pooled across subjects; train's shuffled."""
    if not recordings:
        raise InvalidInputError("no recordings to assemble")
    splits = []
    for rec in recordings:
        with refused_as(f"{rec.subject_id}/{rec.recording_id}"):
            pieces, val, test = split_recording(rec.eeg.shape[1], split, win)
        splits.append((pieces, [val], [test]))
    sets = {part: window_set(recordings, [ranges[k] for ranges in splits], win)
            for k, part in enumerate(PARTITIONS)}
    train = sets["train"]
    order = np.random.default_rng(seed).permutation(train.n_triples)
    train.rec_index, train.start_frame = train.rec_index[order], train.start_frame[order]
    return sets
