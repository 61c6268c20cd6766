"""Paired nonparametric comparison and the violin figure.

:func:`violin` and :func:`compare` are the statistics of ``run`` and of
the ``stats`` commands alike. The Wilcoxon signed-rank statistic uses the
classical zero-discard rule, average ranks for ties, tie-corrected
variance, a continuity correction and a two-sided normal p. The tests
check it against exact enumeration over all sign assignments at small n.
"""

from __future__ import annotations

import logging
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from .errors import DegenerateSampleError, InvalidInputError
from .tensors import atomic_path

logger = logging.getLogger(__name__)

# points of the density grid of a summary, and the violin figure's size in px
KDE_GRID_POINTS = 512
FIGURE_WIDTH = 640
FIGURE_HEIGHT = 420

@dataclass(frozen=True)
class WilcoxonResult:
    z: float
    p: float
    n_effective: int
    w_plus: float


def wilcoxon_signed_rank(a: np.ndarray, b: np.ndarray) -> WilcoxonResult:
    """Normal-approximation Wilcoxon signed-rank test on pairs (a_i, b_i)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidInputError("paired samples must be equal-length 1-D arrays")
    d = a - b
    d = d[d != 0.0]
    if d.size == 0:
        raise DegenerateSampleError("all paired differences are zero")
    ranks = rankdata(np.abs(d))
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


def summarize(name: str, subjects: list[str], accuracies: np.ndarray) -> ConditionSummary:
    """Median, quartiles and Gaussian-KDE density (Scott's rule bandwidth)."""
    x = np.asarray(accuracies, dtype=np.float64)
    if x.size < 2:
        raise InvalidInputError("summaries need at least 2 subjects")
    h = _scott_bandwidth(x)
    grid = np.linspace(x.min() - 5 * h, x.max() + 5 * h, KDE_GRID_POINTS)
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


def violin_svg(summaries: list[ConditionSummary]) -> str:
    """Static per-condition violin chart as a standalone SVG document."""
    if not summaries:
        raise InvalidInputError("nothing to plot")
    width, height = FIGURE_WIDTH, FIGURE_HEIGHT
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


def emit_figure_data(path: str | Path, summaries: list[ConditionSummary]) -> Path:
    """Write the violin chart of ``summaries`` to ``path``, whole or not at all."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(violin_svg(summaries))
    return path


def violin(path: str | Path, conditions: dict[str, dict[str, float]]) -> Path | None:
    """The violin figure of each condition's accuracy by subject, written to ``path``.

    A condition scored on fewer than 2 subjects gets a warning and no violin;
    with no violin to draw, no figure is written and None is returned.
    """
    summaries = []
    for name, by_subject in conditions.items():
        if len(by_subject) < 2:
            logger.warning("%s scored on %d subject(s): no violin", name, len(by_subject))
            continue
        summaries.append(summarize(name, list(by_subject), list(by_subject.values())))
    return emit_figure_data(path, summaries) if summaries else None


def compare(a: dict[str, float], b: dict[str, float]) -> WilcoxonResult:
    """Wilcoxon signed-rank test of two conditions' accuracies on the same 5 or more subjects."""
    missing = set(a) ^ set(b)
    if missing:
        raise InvalidInputError(f"subjects missing from one condition: {sorted(missing)}")
    if len(a) < 5:
        raise InvalidInputError(f"need >= 5 paired subjects, got {len(a)}")
    x, y = (np.array([c[s] for s in sorted(a)], dtype=np.float64) for c in (a, b))
    if np.isnan(x).any() or np.isnan(y).any():
        raise InvalidInputError("missing accuracies in paired sample")
    return wilcoxon_signed_rank(x, y)
