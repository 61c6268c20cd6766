"""Correctness checks on a workload's outputs.

Each check recomputes what it compares against apart from the program (its
own tensor-header reader, window arithmetic, hashing and Wilcoxon test) or
tests a property the method must have. Each returns a list of failures.
"""

from __future__ import annotations

import csv
import hashlib
import struct
from pathlib import Path

import numpy as np
import scipy.stats
import yaml

# the paper's decision windows: 5 s at 64 Hz, 90 % overlap, 1 s gap
FS = 64.0
WINDOW = 320
HOP = 32
GAP = 64
SPAN = 2 * WINDOW + GAP
# mel must decode on mel-coupled EEG at least this far above chance
MEL_MARGIN = 0.1

_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def read_ndmm(path: Path, header_only: bool = False) -> tuple[tuple[int, ...], float, np.ndarray | None]:
    """(dims, fs, data) of a tensor file, read by the documented layout."""
    raw = path.read_bytes()
    if raw[:4] != b"NDMM":
        raise ValueError(f"{path}: not a tensor file")
    _, code, rank = struct.unpack_from("<III", raw, 4)
    dims = struct.unpack_from(f"<{rank}Q", raw, 16)
    (fs,) = struct.unpack_from("<d", raw, 16 + 8 * rank)
    if header_only:
        return dims, fs, None
    data = np.frombuffer(raw, dtype=_DTYPES[code], offset=24 + 8 * rank).reshape(dims)
    return dims, fs, data


def triples(length: int) -> int:
    """Decision-window triples that fit in ``length`` frames."""
    return 0 if length < SPAN else (length - SPAN) // HOP + 1


def test_triples(length: int, split: tuple[float, float, float]) -> int:
    """Triples of the test range, which follows validation mid-recording."""
    train_frac, val_frac, test_frac = split
    a = int(np.floor(length * train_frac / 2.0))
    b = a + int(np.floor(length * val_frac))
    c = b + int(np.floor(length * test_frac))
    return triples(c - b)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): sha256(p) for p in sorted(root.rglob("*")) if p.is_file()}


def read_accuracies(path: Path) -> dict[str, tuple[float, int]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {r["subject"]: (float(r["accuracy"]), int(r["n_windows"])) for r in csv.DictReader(fh)}


def check_artifacts(out: Path) -> list[str]:
    """artifacts.yaml lists every file with its SHA-256."""
    listed = yaml.safe_load((out / "artifacts.yaml").read_text(encoding="utf-8"))
    present = {str(p.relative_to(out)) for p in out.rglob("*")
               if p.is_file() and p.name != "artifacts.yaml"}
    errors = [f"artifacts.yaml misses {name}" for name in sorted(present - set(listed))]
    errors += [f"artifacts.yaml lists absent {name}" for name in sorted(set(listed) - present)]
    errors += [f"artifacts.yaml hash of {name} is wrong" for name in sorted(present & set(listed))
               if listed[name] != sha256(out / name)]
    return errors


def check_comparisons(out: Path, features: list[str]) -> list[str]:
    """z and p of each pair agree with scipy's normal approximation."""
    acc = {f: read_accuracies(out / "results" / f"{f}.csv") for f in features}
    errors = []
    with open(out / "stats" / "comparisons.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(features) * (len(features) - 1) // 2:
        errors.append(f"comparisons.csv has {len(rows)} rows")
    for row in rows:
        fa, fb = row["feature_a"], row["feature_b"]
        subjects = sorted(acc[fa])
        a = np.array([acc[fa][s][0] for s in subjects])
        b = np.array([acc[fb][s][0] for s in subjects])
        d = a - b
        if not np.any(d != 0):
            if not row["note"]:
                errors.append(f"{fa} vs {fb}: no non-zero difference but no note")
            continue
        if row["note"] or not row["z"]:
            errors.append(f"{fa} vs {fb}: note {row['note']!r} despite non-zero differences")
            continue
        ref = scipy.stats.wilcoxon(a, b, zero_method="wilcox", correction=True, method="approx")
        nz = d[d != 0]
        ranks = scipy.stats.rankdata(np.abs(nz))
        sign = np.sign(ranks[nz > 0].sum() - nz.size * (nz.size + 1) / 4.0)
        z, p = float(row["z"]), float(row["p"])
        if abs(z - sign * abs(ref.zstatistic)) > 1e-4 or abs(p - ref.pvalue) > 1e-5 * ref.pvalue:
            errors.append(f"{fa} vs {fb}: z={z} p={p}, scipy gives "
                          f"z={sign * abs(ref.zstatistic):.4f} p={ref.pvalue:.6g}")
        if int(row["n_effective"]) != nz.size:
            errors.append(f"{fa} vs {fb}: n_effective {row['n_effective']} != {nz.size}")
    return errors


def check_preprocessed(cache: Path) -> list[str]:
    """Preprocessed EEG is at 64 Hz with zero mean and unit variance per channel."""
    errors = []
    files = sorted(cache.glob("*.ndmm"))
    if not files:
        return [f"no preprocessed EEG in {cache}"]
    for path in files:
        _, fs, data = read_ndmm(path)
        tol = 1e-4 if data.dtype.itemsize == 4 else 1e-8
        x = data.astype(np.float64)
        if fs != FS:
            errors.append(f"{path.name}: {fs} Hz")
        if np.abs(x.mean(axis=1)).max() > tol or np.abs(x.std(axis=1) - 1.0).max() > tol:
            errors.append(f"{path.name}: channels not zero-mean unit-variance")
    return errors


def frames(cache: Path, prefix: str) -> int:
    """Frame count of the one cached tensor whose name starts with ``prefix``."""
    found = sorted(cache.glob(f"{prefix}_*.ndmm"))
    if len(found) != 1:
        raise ValueError(f"expected one {prefix}_*.ndmm in {cache}, found {len(found)}")
    return read_ndmm(found[0], header_only=True)[0][1]


def check_swap(forward_batch, params, recordings, rng: np.random.Generator, n: int = 16) -> list[str]:
    """Swapping the two speech inputs turns p into 1 - p on sampled triples."""
    eeg, match, mismatch = [], [], []
    for _ in range(n):
        rec = recordings[int(rng.integers(len(recordings)))]
        s = int(rng.integers(triples(rec.eeg.shape[1]))) * HOP
        eeg.append(rec.eeg[:, s:s + WINDOW])
        match.append(rec.feature[:, s:s + WINDOW])
        mismatch.append(rec.feature[:, s + WINDOW + GAP:s + 2 * WINDOW + GAP])
    eeg, match, mismatch = np.stack(eeg), np.stack(match), np.stack(mismatch)
    p, _ = forward_batch(params, eeg, match, mismatch)
    q, _ = forward_batch(params, eeg, mismatch, match)
    tol = 1e-6 if params.config.dtype == "float32" else 1e-12
    worst = float(np.abs(q - (1.0 - p)).max())
    return [] if worst <= tol else [f"swapped pass differs from 1 - p by {worst:.3g}"]
