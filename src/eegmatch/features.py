"""Named feature extraction and the concatenation grammar.

A feature name is one part of :data:`PARTS` or several joined with ``+``
(``env+bpc``); each part keeps its own channels and the model gives each its
own front, the one its entry names (:func:`speech_parts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .acoustic import MEL_BANDS, envelope_powerlaw, mel_spectrogram, vad
from .alignments import (
    EMBEDDING_DIM, INVENTORY_SIZE, AlignmentTrack, EmbeddingTable, PhonemeInventory,
)
from .categorical import (
    ANYPH_ROWS,
    BPC_ROWS,
    VC_ROWS,
    concat_features,
    map_anyphoneme,
    map_bpc,
    map_vowel_consonant,
    onset_variant,
    phoneme_onehot,
    word_embedding_sequence,
)
from .errors import InvalidSpecError
from .model import SpeechPart
from .preproc import PreprocConfig
from .tensors import TimeSeriesTensor, frame_count

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


class Part(NamedTuple):
    """A feature part: its channel count, its extractor of (assets, band), its version and front.

    The front is the model's speech-path variant for the part. The version
    counts the part's definitions: feature cache keys and trained cells record
    it, so a changed definition misses the cache once and a model refuses
    features of a definition it was not trained on.
    """

    channels: int
    extract: Callable[[StoryAssets, PreprocConfig], TimeSeriesTensor]
    version: int = 1
    front: str = "conv"


def _phonemes(assets: StoryAssets) -> TimeSeriesTensor:
    """The story's phoneme one-hot, from which every phoneme-derived part is made."""
    return phoneme_onehot(assets.phonemes, assets.inventory, assets.n_frames)


def _word_embeddings(assets: StoryAssets, cfg: PreprocConfig) -> TimeSeriesTensor:
    if assets.embeddings is None:
        raise InvalidSpecError("wordemb requested but no embedding table loaded")
    return word_embedding_sequence(assets.words, assets.embeddings, assets.n_frames)


def _onset(base: Part) -> Part:
    """The onset variant of a phoneme-derived part: its channels, pulses at phoneme starts."""
    return base._replace(extract=lambda a, cfg: onset_variant(base.extract(a, cfg), a.phonemes))


# Each extractor looks its acoustic or categorical function up by name when
# it runs, so a replacement bound in this module's namespace sees every call.
# The acoustic parts are band-limited to the experiment's band ``cfg``. The
# envelope's version 2 runs each gammatone band at a rate below the audio's.
PARTS = {
    "envelope": Part(1, lambda a, cfg: envelope_powerlaw(a.audio, cfg), version=2,
                     front="no-conv"),
    "mel": Part(MEL_BANDS, lambda a, cfg: mel_spectrogram(a.audio, cfg)),
    "vad": Part(1, lambda a, cfg: vad(a.audio), front="no-conv"),
    "phoneme": Part(INVENTORY_SIZE, lambda a, cfg: _phonemes(a)),
    "bpc": Part(len(BPC_ROWS), lambda a, cfg: map_bpc(_phonemes(a), a.inventory)),
    "vowel_consonant": Part(len(VC_ROWS),
                            lambda a, cfg: map_vowel_consonant(_phonemes(a), a.inventory)),
    "anyphoneme": Part(len(ANYPH_ROWS), lambda a, cfg: map_anyphoneme(_phonemes(a))),
    "wordemb": Part(EMBEDDING_DIM, _word_embeddings, front="maxpool"),
}
PARTS.update({f"{b}_onset": _onset(PARTS[b]) for b in ("bpc", "vowel_consonant", "anyphoneme")})


def canonical_parts(name: str) -> list[str]:
    """Split a feature name on '+' and resolve aliases."""
    parts = []
    for raw in name.split("+"):
        part = raw.strip().lower()
        part = _ALIASES.get(part, part)
        if part not in PARTS:
            raise InvalidSpecError(f"unknown feature {raw!r}")
        parts.append(part)
    if not parts:
        raise InvalidSpecError("empty feature name")
    return parts


def speech_parts(name: str) -> tuple[SpeechPart, ...]:
    """The channels and model front of each part of a feature, in the order of its name."""
    return tuple(SpeechPart(PARTS[p].channels, PARTS[p].front) for p in canonical_parts(name))


def feature_versions(name: str) -> list[int]:
    """The version of each part of a feature, in the order of its name."""
    return [PARTS[p].version for p in canonical_parts(name)]


def extract_feature(
    name: str, assets: StoryAssets, cfg: PreprocConfig = PreprocConfig()
) -> TimeSeriesTensor:
    """Stacked 64 Hz tensor for a (possibly concatenated) feature name.

    ``cfg`` is the experiment's preprocessing, whose band the acoustic parts
    share with the EEG. Every part has the story's :attr:`~StoryAssets.n_frames`
    frames, so the parts stack as they are.
    """
    parts = [PARTS[p].extract(assets, cfg) for p in canonical_parts(name)]
    return parts[0] if len(parts) == 1 else concat_features(parts)
