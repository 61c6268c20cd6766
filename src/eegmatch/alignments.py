"""Forced-alignment tracks, the phoneme inventory and word embeddings.

Alignment files are UTF-8 TSV with a ``#kind=phoneme|word`` header line and
one ``start_s<TAB>end_s<TAB>label`` interval per line. The inventory is a
YAML file listing the 40 symbols and their phonetic classes. Embeddings use
the common text distribution format: one ``word v1 ... v300`` line per word.
Each writer leaves its file whole or as it was (:func:`~eegmatch.tensors.atomic_path`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import InvalidInputError, InvalidSpecError, UnknownLabelError, read_yaml, refused_as
from .tensors import atomic_path

# entries per word vector, as in the pretrained 300-dimensional embeddings
EMBEDDING_DIM = 300
# symbols of a phoneme inventory, as in the 40-phoneme set of the alignments
INVENTORY_SIZE = 40

PHONETIC_CLASSES = (
    "short_vowel",
    "long_vowel",
    "plosive",
    "fricative",
    "nasal",
    "approximant",
)


@dataclass(frozen=True)
class Interval:
    start_s: float
    end_s: float
    label: str


@dataclass
class AlignmentTrack:
    """Timed sequence of labeled intervals (phonemes or words) over a story."""

    intervals: list[Interval]
    kind: str  # "phoneme" | "word"
    story_id: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("phoneme", "word"):
            raise InvalidSpecError(f"kind must be phoneme|word, got {self.kind!r}")
        prev_end = -np.inf
        for iv in self.intervals:
            if not -np.inf < iv.start_s < iv.end_s < np.inf:
                raise InvalidInputError(
                    f"interval {iv.label!r}: start {iv.start_s} !< end {iv.end_s}, or not finite"
                )
            if iv.start_s < prev_end:
                raise InvalidInputError(
                    f"interval {iv.label!r} at {iv.start_s}s overlaps its predecessor"
                )
            prev_end = iv.end_s

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def end_s(self) -> float:
        return self.intervals[-1].end_s if self.intervals else 0.0


def read_alignment(path: str | Path, story_id: str = "") -> AlignmentTrack:
    kind = None
    intervals = []
    with open(path, "r", encoding="utf-8") as fh, refused_as(path):
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                if key.strip() == "kind":
                    kind = value.strip()
                continue
            with refused_as(f"line {lineno}"):
                start, end, label = line.split("\t")
                intervals.append(Interval(float(start), float(end), label))
        if kind is None:
            raise InvalidInputError("missing '#kind=' header")
        return AlignmentTrack(intervals, kind, story_id=story_id or Path(path).stem)


def write_alignment(path: str | Path, track: AlignmentTrack) -> None:
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"#kind={track.kind}\n")
        for iv in track.intervals:
            fh.write(f"{iv.start_s:.6f}\t{iv.end_s:.6f}\t{iv.label}\n")


@dataclass
class PhonemeInventory:
    """Ordered ``INVENTORY_SIZE``-symbol phoneme set with a symbol -> phonetic-class map."""

    symbols: list[str]
    class_map: dict[str, str]
    _index: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if len(self.symbols) != INVENTORY_SIZE:
            raise InvalidSpecError(
                f"inventory must hold {INVENTORY_SIZE} symbols, got {len(self.symbols)}"
            )
        if len(set(self.symbols)) != len(self.symbols):
            raise InvalidSpecError("inventory symbols must be unique")
        for sym in self.symbols:
            cls = self.class_map.get(sym)
            if cls is None:
                raise InvalidSpecError(f"symbol {sym!r} has no phonetic class")
            if cls not in PHONETIC_CLASSES:
                raise InvalidSpecError(f"symbol {sym!r} has unknown class {cls!r}")
        self._index = {s: i for i, s in enumerate(self.symbols)}

    def index_of(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownLabelError(
                f"phoneme {symbol!r} not in the declared inventory"
            ) from None


def read_inventory(path: str | Path) -> PhonemeInventory:
    raw = read_yaml(path, ("symbols", "classes"))
    with refused_as(path):
        return PhonemeInventory(symbols=list(raw["symbols"]), class_map=dict(raw["classes"]))


def write_inventory(path: str | Path, inv: PhonemeInventory) -> None:
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        yaml.safe_dump(
            {"symbols": inv.symbols, "classes": inv.class_map},
            fh,
            allow_unicode=True,
            sort_keys=False,
        )


class EmbeddingTable:
    """Case-folded word -> ``EMBEDDING_DIM``-vector lookup."""

    def __init__(self, vectors: dict[str, np.ndarray]):
        self._vectors: dict[str, np.ndarray] = {}
        for word, vec in vectors.items():
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (EMBEDDING_DIM,):
                raise InvalidSpecError(
                    f"embedding for {word!r} has shape {vec.shape}, expected ({EMBEDDING_DIM},)"
                )
            self._vectors[word.casefold()] = vec

    def __len__(self) -> int:
        return len(self._vectors)

    def lookup(self, word: str) -> np.ndarray | None:
        return self._vectors.get(word.casefold())


def read_embeddings(path: str | Path) -> EmbeddingTable:
    vectors = {}
    with open(path, "r", encoding="utf-8") as fh, refused_as(path):
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                continue
            vectors[parts[0]] = np.array([float(v) for v in parts[1:]])
        return EmbeddingTable(vectors)


def write_embeddings(path: str | Path, table: EmbeddingTable) -> None:
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        for word, vec in table._vectors.items():
            fh.write(word + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")
