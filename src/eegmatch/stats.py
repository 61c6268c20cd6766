"""Paired nonparametric comparison and figure-data emission.

The Wilcoxon signed-rank statistic uses the classical zero-discard rule,
average ranks for ties, tie-corrected variance, a continuity correction and
a two-sided normal p. An exact-enumeration computation over all sign
assignments is exposed for verification at small n.
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from .errors import DegenerateSampleError, InvalidInputError
from .tensors import atomic_path


@dataclass(frozen=True)
class WilcoxonResult:
    z: float
    p: float
    n_effective: int
    w_plus: float


@dataclass
class PairedSample:
    """Per-subject accuracy pairs aligned by subject id."""

    subjects: list[str]
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if not (len(self.subjects) == self.a.size == self.b.size):
            raise InvalidInputError("subjects and both accuracy arrays must align")
        if self.a.size < 5:
            raise InvalidInputError(f"need >= 5 paired subjects, got {self.a.size}")
        if np.isnan(self.a).any() or np.isnan(self.b).any():
            raise InvalidInputError("missing accuracies in paired sample")

    @classmethod
    def from_maps(cls, cond_a: dict[str, float], cond_b: dict[str, float]) -> "PairedSample":
        missing = set(cond_a) ^ set(cond_b)
        if missing:
            raise InvalidInputError(f"subjects missing from one condition: {sorted(missing)}")
        subjects = sorted(cond_a)
        return cls(subjects, [cond_a[s] for s in subjects], [cond_b[s] for s in subjects])


def _signed_ranks(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidInputError("paired samples must be equal-length 1-D arrays")
    d = a - b
    d = d[d != 0.0]
    if d.size == 0:
        raise DegenerateSampleError("all paired differences are zero")
    return rankdata(np.abs(d)), d


def wilcoxon_signed_rank(a: np.ndarray, b: np.ndarray) -> WilcoxonResult:
    """Normal-approximation Wilcoxon signed-rank test on pairs (a_i, b_i)."""
    ranks, d = _signed_ranks(a, b)
    n = d.size
    w_plus = float(ranks[d > 0].sum())
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(ranks, return_counts=True)
    var -= float((counts**3 - counts).sum()) / 48.0
    if var <= 0:
        raise DegenerateSampleError("zero variance: every |difference| is tied")
    delta = w_plus - mu
    correction = 0.5 * np.sign(delta)
    z = (delta - correction) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))  # two-sided normal tail
    return WilcoxonResult(z=float(z), p=float(p), n_effective=n, w_plus=w_plus)


def wilcoxon_exact(a: np.ndarray, b: np.ndarray, max_n: int = 20) -> WilcoxonResult:
    """Exact two-sided p by enumerating all 2^n sign assignments of the ranks."""
    ranks, d = _signed_ranks(a, b)
    n = d.size
    if n > max_n:
        raise InvalidInputError(f"exact enumeration limited to n <= {max_n}, got {n}")
    w_plus = float(ranks[d > 0].sum())
    mu = n * (n + 1) / 4.0
    observed = abs(w_plus - mu)
    hits = 0
    for signs in range(1 << n):
        w = sum(ranks[i] for i in range(n) if signs >> i & 1)
        if abs(w - mu) >= observed - 1e-12:
            hits += 1
    return WilcoxonResult(
        z=float("nan"), p=hits / float(1 << n), n_effective=n, w_plus=w_plus
    )


@dataclass
class ConditionSummary:
    """Distribution summary of per-subject accuracies for one condition."""

    name: str
    subjects: list[str]
    accuracies: np.ndarray
    median: float
    q1: float
    q3: float
    kde_grid: np.ndarray
    kde_density: np.ndarray


def _scott_bandwidth(x: np.ndarray) -> float:
    sigma = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
    if sigma == 0.0:
        sigma = 1e-3  # constant sample: draw a narrow spike
    return sigma * x.size ** (-0.2)


def summarize(
    name: str,
    subjects: list[str],
    accuracies: np.ndarray,
    grid_points: int = 512,
) -> ConditionSummary:
    """Median, quartiles and Gaussian-KDE density (Scott's rule bandwidth)."""
    x = np.asarray(accuracies, dtype=np.float64)
    if x.size < 2:
        raise InvalidInputError("summaries need at least 2 subjects")
    h = _scott_bandwidth(x)
    grid = np.linspace(x.min() - 5 * h, x.max() + 5 * h, grid_points)
    density = np.exp(-0.5 * ((grid[:, None] - x[None, :]) / h) ** 2).mean(axis=1)
    density /= h * math.sqrt(2.0 * math.pi)
    q1, med, q3 = np.percentile(x, [25, 50, 75])
    return ConditionSummary(
        name=name,
        subjects=list(subjects),
        accuracies=x,
        median=float(med),
        q1=float(q1),
        q3=float(q3),
        kde_grid=grid,
        kde_density=density,
    )


def write_condition_csv(path: str | Path, summary: ConditionSummary) -> None:
    with atomic_path(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "accuracy"])
        for subject, acc in zip(summary.subjects, summary.accuracies):
            writer.writerow([subject, f"{acc:.6f}"])


def read_condition_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    subjects, accs = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            subjects.append(row["subject"])
            accs.append(float(row["accuracy"]))
    return subjects, np.asarray(accs)


def violin_svg(summaries: list[ConditionSummary], width: int = 640, height: int = 420) -> str:
    """Static per-condition violin chart as a standalone SVG document."""
    if not summaries:
        raise InvalidInputError("nothing to plot")
    margin = 50
    lo = min(float(s.accuracies.min()) for s in summaries)
    hi = max(float(s.accuracies.max()) for s in summaries)
    pad = 0.05 * max(hi - lo, 1e-3)
    lo, hi = lo - pad, hi + pad

    def y_of(value: float) -> float:
        return height - margin - (value - lo) / (hi - lo) * (height - 2 * margin)

    slot = (width - 2 * margin) / len(summaries)
    half = 0.38 * slot
    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                     width=str(width), height=str(height))
    ET.SubElement(svg, "rect", x="0", y="0", width=str(width), height=str(height),
                  fill="white")
    axis = ET.SubElement(svg, "g", stroke="black")
    ET.SubElement(axis, "line", x1=str(margin), y1=str(margin),
                  x2=str(margin), y2=str(height - margin))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        value = lo + frac * (hi - lo)
        y = y_of(value)
        ET.SubElement(axis, "line", x1=str(margin - 4), y1=f"{y:.2f}",
                      x2=str(margin), y2=f"{y:.2f}")
        label = ET.SubElement(svg, "text", x=str(margin - 8), y=f"{y + 4:.2f}",
                              fill="black")
        label.set("text-anchor", "end")
        label.set("font-size", "11")
        label.text = f"{value:.2f}"
    for i, s in enumerate(summaries):
        cx = margin + (i + 0.5) * slot
        inside = (s.kde_grid >= s.accuracies.min()) & (s.kde_grid <= s.accuracies.max())
        grid = s.kde_grid[inside]
        dens = s.kde_density[inside]
        if grid.size < 2:
            grid = np.array([s.accuracies.min(), s.accuracies.max()])
            dens = np.ones(2)
        scale = half / max(dens.max(), 1e-12)
        right = [(cx + d * scale, y_of(v)) for v, d in zip(grid, dens)]
        left = [(cx - d * scale, y_of(v)) for v, d in zip(grid[::-1], dens[::-1])]
        points = " ".join(f"{px:.2f},{py:.2f}" for px, py in right + left)
        ET.SubElement(svg, "polygon", points=points, fill="#7f9fcf",
                      stroke="#2b4b7f", **{"fill-opacity": "0.7"})
        for value, sw in ((s.q1, 1), (s.median, 2), (s.q3, 1)):
            y = y_of(value)
            ET.SubElement(svg, "line", x1=f"{cx - half:.2f}", y1=f"{y:.2f}",
                          x2=f"{cx + half:.2f}", y2=f"{y:.2f}",
                          stroke="black", **{"stroke-width": str(sw)})
        label = ET.SubElement(svg, "text", x=f"{cx:.2f}", y=str(height - margin + 18),
                              fill="black")
        label.set("text-anchor", "middle")
        label.set("font-size", "12")
        label.text = s.name
    return ET.tostring(svg, encoding="unicode")


def emit_figure_data(out_dir: str | Path, summaries: list[ConditionSummary]) -> dict[str, Path]:
    """Per-condition accuracy CSVs plus one violin SVG; returns written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for s in summaries:
        path = out_dir / f"{s.name}.csv"
        write_condition_csv(path, s)
        written[s.name] = path
    svg_path = out_dir / "violin.svg"
    with atomic_path(svg_path) as tmp:
        tmp.write_text(violin_svg(summaries), encoding="utf-8")
    written["violin"] = svg_path
    return written
