import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import wilcoxon_exact
from eegmatch.errors import DegenerateSampleError, InvalidInputError
from eegmatch.stats import (
    compare,
    emit_figure_data,
    summarize,
    violin,
    violin_svg,
    wilcoxon_signed_rank,
)


class TestWilcoxon:
    def test_all_equal_pairs_rejected(self):
        x = np.array([0.5, 0.6, 0.7, 0.8, 0.9])
        with pytest.raises(DegenerateSampleError):
            wilcoxon_signed_rank(x, x.copy())

    def test_all_positive_n8_matches_exact(self):
        a = np.array([0.81, 0.77, 0.85, 0.9, 0.72, 0.8, 0.84, 0.79])
        b = a - np.array([0.05, 0.02, 0.04, 0.07, 0.01, 0.03, 0.06, 0.08])
        approx = wilcoxon_signed_rank(a, b)
        exact = wilcoxon_exact(a, b)
        assert approx.w_plus == 36.0  # most extreme statistic
        assert exact.p == pytest.approx(2.0 / 256.0)
        assert abs(approx.p - exact.p) < 0.01

    def test_antisymmetry_exact_sign_flip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(0.4, 1.0, size=9)
            b = rng.uniform(0.4, 1.0, size=9)
            if np.all(a == b):
                continue
            fwd = wilcoxon_signed_rank(a, b)
            rev = wilcoxon_signed_rank(b, a)
            assert fwd.z == -rev.z
            assert fwd.p == rev.p

    def test_zero_differences_discarded(self):
        a = np.array([0.5, 0.6, 0.7, 0.8, 0.9, 0.95])
        b = np.array([0.5, 0.55, 0.65, 0.85, 0.8, 0.9])  # one tie at index 0
        res = wilcoxon_signed_rank(a, b)
        assert res.n_effective == 5

    def test_paper_scale_z_magnitude(self):
        # 86 subjects with a consistent small improvement: |z| lands in the
        # single digits, the same regime as the reported comparisons
        rng = np.random.default_rng(1)
        b = rng.uniform(0.7, 0.9, size=86)
        a = b + rng.uniform(0.005, 0.03, size=86)
        res = wilcoxon_signed_rank(a, b)
        assert res.z > 6.0
        assert res.p < 0.001

    @settings(max_examples=25, deadline=None)
    @given(st.integers(5, 11), st.integers(0, 10_000))
    def test_normal_approx_close_to_exact(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 1.0, size=n)
        b = rng.uniform(0.0, 1.0, size=n)
        if np.any(a == b):
            a = a + 1e-6
        approx = wilcoxon_signed_rank(a, b)
        exact = wilcoxon_exact(a, b)
        assert abs(approx.p - exact.p) < 0.05

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_invariant_under_rank_preserving_transform(self, seed):
        # the statistic depends on the data only through difference signs and
        # |difference| ranks, so any strictly increasing affine map (which
        # leaves both untouched) must reproduce z and p exactly; nonlinear
        # monotone maps can reorder |difference| ranks and are not invariant
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.1, 0.9, size=10)
        b = rng.uniform(0.1, 0.9, size=10)
        plain = wilcoxon_signed_rank(a, b)
        affine = wilcoxon_signed_rank(2.0 * a + 1.0, 2.0 * b + 1.0)
        assert plain.z == pytest.approx(affine.z, abs=1e-12)
        assert plain.p == pytest.approx(affine.p, abs=1e-12)
        assert plain.w_plus == affine.w_plus


class TestCompare:
    def test_alignment_by_subject(self):
        """Accuracies are paired by subject, whatever order each condition lists them in."""
        a = {"s1": 0.8, "s0": 0.7, "s2": 0.95, "s3": 0.6, "s4": 0.5}
        b = {"s4": 0.4, "s0": 0.6, "s1": 0.75, "s2": 0.8, "s3": 0.58}
        subjects = sorted(a)
        assert compare(a, b) == wilcoxon_signed_rank(np.array([a[s] for s in subjects]),
                                                     np.array([b[s] for s in subjects]))
        assert compare(b, a).w_plus == 0.0

    def test_missing_subject_rejected(self):
        with pytest.raises(InvalidInputError, match="s4"):
            compare(
                {"s0": 1, "s1": 1, "s2": 1, "s3": 1, "s4": 1},
                {"s0": 1, "s1": 1, "s2": 1, "s3": 1},
            )

    def test_too_few_rejected(self):
        with pytest.raises(InvalidInputError, match="got 2"):
            compare({"a": 0.5, "b": 0.6}, {"a": 0.4, "b": 0.7})

    def test_missing_accuracy_rejected(self):
        with pytest.raises(InvalidInputError, match="missing accuracies"):
            compare({f"s{i}": 0.7 for i in range(5)},
                    {f"s{i}": float("nan") if i == 3 else 0.6 for i in range(5)})


class TestSummarize:
    def test_median_quartiles(self):
        s = summarize("env", ["a", "b", "c"], np.array([0.5, 0.7, 0.9]))
        assert s.median == pytest.approx(0.7)
        assert s.q1 == pytest.approx(0.6)
        assert s.q3 == pytest.approx(0.8)

    def test_constant_sample_zero_width(self):
        s = summarize("vad", ["a", "b", "c"], np.array([0.75, 0.75, 0.75]))
        assert s.q1 == s.median == s.q3 == 0.75

    def test_kde_integrates_to_one(self):
        rng = np.random.default_rng(2)
        s = summarize("mel", [f"s{i}" for i in range(30)], rng.uniform(0.6, 0.95, 30))
        integral = np.trapezoid(s.kde_density, s.kde_grid)
        assert abs(integral - 1.0) < 1e-3

    def test_single_subject_rejected(self):
        with pytest.raises(InvalidInputError):
            summarize("x", ["a"], np.array([0.5]))


class TestFigureData:
    @pytest.fixture()
    def summaries(self):
        rng = np.random.default_rng(3)
        return [
            summarize("vad", [f"s{i}" for i in range(12)], rng.uniform(0.6, 0.8, 12)),
            summarize("envelope", [f"s{i}" for i in range(12)], rng.uniform(0.7, 0.9, 12)),
        ]

    def test_writes_only_the_svg(self, tmp_path, summaries):
        path = emit_figure_data(tmp_path / "figures" / "violin.svg", summaries)
        assert list((tmp_path / "figures").iterdir()) == [path]
        assert path.read_text() == violin_svg(summaries)

    def test_svg_is_well_formed_xml(self, summaries):
        doc = violin_svg(summaries)
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")

    def test_violin_extents_match_data(self, tmp_path, summaries):
        root = ET.fromstring(emit_figure_data(tmp_path / "violin.svg", summaries).read_text())
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polygons = root.findall(".//svg:polygon", ns)
        assert len(polygons) == 2
        height, margin = 420, 50
        for poly, summary in zip(polygons, summaries):
            accs = summary.accuracies
            lo_all = min(float(s.accuracies.min()) for s in summaries)
            hi_all = max(float(s.accuracies.max()) for s in summaries)
            pad = 0.05 * max(hi_all - lo_all, 1e-3)
            lo_axis, hi_axis = lo_all - pad, hi_all + pad

            def y_of(v):
                return height - margin - (v - lo_axis) / (hi_axis - lo_axis) * (height - 2 * margin)

            ys = [float(pt.split(",")[1]) for pt in poly.get("points").split()]
            assert min(ys) == pytest.approx(y_of(accs.max()), abs=1.0)
            assert max(ys) == pytest.approx(y_of(accs.min()), abs=1.0)


class TestViolin:
    def test_draws_each_condition_from_its_accuracies(self, tmp_path):
        rng = np.random.default_rng(5)
        conditions = {name: {f"s{i}": float(rng.uniform(0.6, 0.9)) for i in range(6)}
                      for name in ("vad", "mel")}
        path = violin(tmp_path / "figures" / "violin.svg", conditions)
        assert path.read_text() == violin_svg(
            [summarize(name, list(acc), list(acc.values())) for name, acc in conditions.items()])

    def test_a_condition_on_one_subject_gets_a_warning_and_no_violin(self, tmp_path, caplog):
        conditions = {"vad": {"s0": 0.7}, "mel": {"s0": 0.8, "s1": 0.9, "s2": 0.6}}
        path = violin(tmp_path / "violin.svg", conditions)
        assert "vad scored on 1 subject(s): no violin" in caplog.text
        assert path.read_text() == violin_svg([summarize("mel", ["s0", "s1", "s2"],
                                                         [0.8, 0.9, 0.6])])

    def test_no_violin_writes_no_figure(self, tmp_path, caplog):
        assert violin(tmp_path / "violin.svg", {"vad": {"s0": 0.7}, "mel": {}}) is None
        assert "mel scored on 0 subject(s)" in caplog.text
        assert not list(tmp_path.iterdir())
