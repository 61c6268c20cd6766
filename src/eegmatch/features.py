"""Named feature extraction and the concatenation grammar.

A feature name is one registered extractor or several joined with ``+``
(``env+bpc``); each part keeps its own channels and the model gives each its
own front, so part dimensions are reported alongside the stacked tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .acoustic import envelope_powerlaw, mel_spectrogram, vad
from .alignments import EMBEDDING_DIM, AlignmentTrack, EmbeddingTable, PhonemeInventory
from .categorical import (
    concat_features,
    map_anyphoneme,
    map_bpc,
    map_vowel_consonant,
    onset_variant,
    phoneme_onehot,
    word_embedding_sequence,
)
from .errors import InvalidSpecError
from .preproc import PreprocConfig
from .tensors import TimeSeriesTensor, frame_count

PART_DIMS = {
    "envelope": 1,
    "mel": 28,
    "vad": 1,
    "phoneme": 40,
    "bpc": 6,
    "vowel_consonant": 3,
    "anyphoneme": 2,
    "bpc_onset": 6,
    "vowel_consonant_onset": 3,
    "anyphoneme_onset": 2,
    "wordemb": EMBEDDING_DIM,
}
_ALIASES = {
    "env": "envelope",
    "vc": "vowel_consonant",
    "vowel/consonant": "vowel_consonant",
    "vowel/consonant_onset": "vowel_consonant_onset",
    "word_embedding": "wordemb",
}


@dataclass
class StoryAssets:
    """Everything needed to extract any registered feature for one story."""

    audio: TimeSeriesTensor
    phonemes: AlignmentTrack
    words: AlignmentTrack
    inventory: PhonemeInventory
    embeddings: EmbeddingTable | None = None

    @property
    def n_frames(self) -> int:
        """Frames of every feature of the story: the 64 Hz frames of its audio."""
        return frame_count(self.audio.n_samples, self.audio.fs)


def canonical_parts(name: str) -> list[str]:
    """Split a feature name on '+' and resolve aliases."""
    parts = []
    for raw in name.split("+"):
        part = raw.strip().lower()
        part = _ALIASES.get(part, part)
        if part not in PART_DIMS:
            raise InvalidSpecError(f"unknown feature {raw!r}")
        parts.append(part)
    if not parts:
        raise InvalidSpecError("empty feature name")
    return parts


def feature_dims(name: str) -> tuple[list[int], list[bool]]:
    """Per-part channel counts and word-embedding flags for the model config."""
    parts = canonical_parts(name)
    return [PART_DIMS[p] for p in parts], [p == "wordemb" for p in parts]


def extract_part(part: str, assets: StoryAssets, cfg: PreprocConfig) -> TimeSeriesTensor:
    """One feature part; the acoustic parts are band-limited to the ``cfg`` band."""
    inv = assets.inventory
    if part == "envelope":
        return envelope_powerlaw(assets.audio, cfg)
    if part == "mel":
        return mel_spectrogram(assets.audio, cfg)
    if part == "vad":
        return vad(assets.audio)
    ph = None
    if part in ("phoneme", "bpc", "vowel_consonant", "anyphoneme",
                "bpc_onset", "vowel_consonant_onset", "anyphoneme_onset"):
        ph = phoneme_onehot(assets.phonemes, inv, assets.n_frames)
    if part == "phoneme":
        return ph
    if part == "bpc":
        return map_bpc(ph, inv)
    if part == "vowel_consonant":
        return map_vowel_consonant(ph, inv)
    if part == "anyphoneme":
        return map_anyphoneme(ph)
    if part == "bpc_onset":
        return onset_variant(map_bpc(ph, inv), assets.phonemes)
    if part == "vowel_consonant_onset":
        return onset_variant(map_vowel_consonant(ph, inv), assets.phonemes)
    if part == "anyphoneme_onset":
        return onset_variant(map_anyphoneme(ph), assets.phonemes)
    if part == "wordemb":
        if assets.embeddings is None:
            raise InvalidSpecError("wordemb requested but no embedding table loaded")
        return word_embedding_sequence(assets.words, assets.embeddings, assets.n_frames)
    raise InvalidSpecError(f"unknown feature part {part!r}")


def extract_feature(
    name: str, assets: StoryAssets, cfg: PreprocConfig = PreprocConfig()
) -> TimeSeriesTensor:
    """Stacked 64 Hz tensor for a (possibly concatenated) feature name.

    ``cfg`` is the experiment's preprocessing, whose band the acoustic parts
    share with the EEG. Every part has the story's :attr:`~StoryAssets.n_frames`
    frames, so the parts stack as they are.
    """
    parts = [extract_part(p, assets, cfg) for p in canonical_parts(name)]
    return parts[0] if len(parts) == 1 else concat_features(parts)
