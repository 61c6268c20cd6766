"""Alignment-derived categorical features and the word-embedding sequence.

Frames live on the 64 Hz grid, as many as the story's audio has
(:func:`~eegmatch.tensors.frame_count`); frame ``t`` carries the label active
at time ``t / 64`` s, with half-open intervals so a frame exactly on a boundary
belongs to the later interval. Categorical features are not band-limited.
"""

from __future__ import annotations

import numpy as np

from .alignments import EMBEDDING_DIM, AlignmentTrack, EmbeddingTable, PhonemeInventory
from .errors import InvalidInputError, InvalidSpecError
from .tensors import FRAME_RATE, TimeSeriesTensor

# Broad phonetic classes: the five paper categories (nasals and approximants
# merged) plus silence as the last row.
BPC_ROWS = ("short_vowel", "long_vowel", "plosive", "fricative", "nasal_approximant", "silence")
VC_ROWS = ("vowel", "consonant", "silence")
ANYPH_ROWS = ("phoneme", "silence")

_CLASS_TO_BPC = {
    "short_vowel": 0,
    "long_vowel": 1,
    "plosive": 2,
    "fricative": 3,
    "nasal": 4,
    "approximant": 4,
}
_CLASS_TO_VC = {
    "short_vowel": 0,
    "long_vowel": 0,
    "plosive": 1,
    "fricative": 1,
    "nasal": 1,
    "approximant": 1,
}


def _frame_span(start_s: float, end_s: float, n_frames: int, fs: float) -> tuple[int, int]:
    """Frames whose sample time t/fs falls in [start, end)."""
    first = int(np.ceil(start_s * fs - 1e-9))
    last = int(np.ceil(end_s * fs - 1e-9))  # exclusive
    return max(first, 0), min(last, n_frames)


def phoneme_onehot(
    track: AlignmentTrack, inv: PhonemeInventory, n_frames: int
) -> TimeSeriesTensor:
    """Phoneme one-hot, a row per inventory symbol, ``n_frames`` long; silence is all-zero."""
    if track.kind != "phoneme":
        raise InvalidSpecError(f"expected a phoneme track, got kind={track.kind!r}")
    out = np.zeros((len(inv.symbols), n_frames))
    for iv in track.intervals:
        row = inv.index_of(iv.label)
        a, b = _frame_span(iv.start_s, iv.end_s, n_frames, FRAME_RATE)
        out[row, a:b] = 1.0
    return TimeSeriesTensor(out, FRAME_RATE)


def _regroup(ph: TimeSeriesTensor, inv: PhonemeInventory, row_map: dict[str, int], n_rows: int) -> TimeSeriesTensor:
    if ph.n_channels != len(inv.symbols):
        raise InvalidInputError(
            f"phoneme frames have {ph.n_channels} rows, inventory holds {len(inv.symbols)}"
        )
    out = np.zeros((n_rows, ph.n_samples))
    for i, sym in enumerate(inv.symbols):
        out[row_map[inv.class_map[sym]]] += ph.data[i]
    out[-1] = 1.0 - np.minimum(out[:-1].sum(axis=0), 1.0)
    return TimeSeriesTensor(out, ph.fs)


def map_bpc(ph: TimeSeriesTensor, inv: PhonemeInventory) -> TimeSeriesTensor:
    """Six-row broad phonetic classes; last row flags silence."""
    return _regroup(ph, inv, _CLASS_TO_BPC, len(BPC_ROWS))


def map_vowel_consonant(ph: TimeSeriesTensor, inv: PhonemeInventory) -> TimeSeriesTensor:
    """Three rows: vowel, consonant, silence."""
    return _regroup(ph, inv, _CLASS_TO_VC, len(VC_ROWS))


def map_anyphoneme(ph: TimeSeriesTensor) -> TimeSeriesTensor:
    """Two rows: any phoneme vs silence."""
    speech = np.minimum(ph.data.sum(axis=0), 1.0)
    return TimeSeriesTensor(np.stack([speech, 1.0 - speech]), ph.fs)


def onset_variant(feature: TimeSeriesTensor, track: AlignmentTrack) -> TimeSeriesTensor:
    """Single-frame pulses at each alignment interval's start frame.

    The pulse lands in the row the non-onset feature assigns at that frame;
    all other class-row frames are zeroed. The silence row (last) is kept
    exactly as in the non-onset feature.
    """
    if track.kind != "phoneme":
        raise InvalidSpecError("onset variants are derived from phoneme tracks")
    out = np.zeros_like(feature.data)
    out[-1] = feature.data[-1]
    n = feature.n_samples
    for iv in track.intervals:
        t = int(np.ceil(iv.start_s * feature.fs - 1e-9))
        if not 0 <= t < n or t / feature.fs >= iv.end_s:
            continue
        row = int(np.argmax(feature.data[:-1, t]))
        if feature.data[row, t] > 0:
            out[row, t] = 1.0
    return TimeSeriesTensor(out, feature.fs)


def word_embedding_sequence(
    track: AlignmentTrack, table: EmbeddingTable, n_frames: int
) -> TimeSeriesTensor:
    """``n_frames`` word vectors; silence and out-of-vocabulary frames are zero vectors."""
    if track.kind != "word":
        raise InvalidSpecError(f"expected a word track, got kind={track.kind!r}")
    out = np.zeros((EMBEDDING_DIM, n_frames))
    for iv in track.intervals:
        vec = table.lookup(iv.label)
        if vec is None:
            continue
        a, b = _frame_span(iv.start_s, iv.end_s, n_frames, FRAME_RATE)
        out[:, a:b] = vec[:, None]
    return TimeSeriesTensor(out, FRAME_RATE)


def concat_features(parts: list[TimeSeriesTensor]) -> TimeSeriesTensor:
    """Channel-stack equal-length 64 Hz streams in argument order."""
    if not parts:
        raise InvalidInputError("nothing to concatenate")
    fs = parts[0].fs
    n = parts[0].n_samples
    for p in parts[1:]:
        if p.fs != fs:
            raise InvalidInputError(f"rate mismatch: {p.fs} vs {fs}")
        if p.n_samples != n:
            raise InvalidInputError(f"length mismatch: {p.n_samples} vs {n}")
    return TimeSeriesTensor(np.concatenate([p.data for p in parts], axis=0), fs)
