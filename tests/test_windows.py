import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegmatch.errors import InvalidInputError, InvalidSpecError, SampleRateMismatchError
from eegmatch.tensors import TimeSeriesTensor
from eegmatch.windows import (
    DecisionWindowSet,
    RecordingData,
    SplitSpec,
    WindowingSpec,
    assemble_dataset,
    make_windows,
    split_recording,
    window_set,
    window_starts,
)

SPEC = WindowingSpec()


def brute_force_count(length, spec=SPEC):
    """Enumeration oracle for the closed-form triple count."""
    count = 0
    s = 0
    while s + spec.span_frames <= length:
        count += 1
        s += spec.hop_frames
    return count


def recording(length, channels=4, feat_dim=2, seed=0, subject="s0", rec_id="r0"):
    rng = np.random.default_rng(seed)
    return RecordingData(
        subject_id=subject,
        recording_id=rec_id,
        eeg=rng.standard_normal((channels, length)),
        feature=rng.standard_normal((feat_dim, length)),
    )


class TestWindowingSpec:
    def test_derived_frame_counts(self):
        assert SPEC.window_frames == 320
        assert SPEC.hop_frames == 32
        assert SPEC.gap_frames == 64
        assert SPEC.span_frames == 704

    def test_invalid_overlap(self):
        with pytest.raises(InvalidSpecError):
            WindowingSpec(overlap_frac=1.0)

    @pytest.mark.parametrize("setting", [{"window_s": 0.005}, {"gap_s": 0.001}, {"gap_s": 0.0},
                                         {"window_s": -5.0}])
    def test_a_window_or_gap_under_one_frame_is_refused(self, setting):
        with pytest.raises(InvalidSpecError, match="at least one frame"):
            WindowingSpec(**setting)
        assert WindowingSpec(gap_s=1 / 64).gap_frames == 1


class TestWindowSet:
    def test_every_triple_of_each_range_in_recording_order(self):
        recs = [recording(2000, seed=1), recording(1500, seed=2), recording(900, seed=3)]
        ranges = [[(0, 800), (1000, 2000)], [], [(100, 900)]]
        ws = window_set(recs, ranges, SPEC)
        want = [(r, s) for r, rngs in enumerate(ranges) for lo, hi in rngs
                for s in range(lo, hi - 703, 32)]
        assert list(zip(ws.rec_index.tolist(), ws.start_frame.tolist())) == want
        assert ws.rec_index.dtype == ws.start_frame.dtype == np.int64

    def test_no_range_gives_an_empty_set(self):
        ws = window_set([recording(2000)], [[]], SPEC)
        assert ws.n_triples == 0 and ws.rec_index.dtype == ws.start_frame.dtype == np.int64


class TestWindowStarts:
    @pytest.mark.parametrize(
        "length,expected",
        [(703, 0), (704, 1), (736, 2), (10000, 291)],
    )
    def test_formula_cases(self, length, expected):
        starts = window_starts(length, SPEC)
        assert starts.size == expected
        assert starts.size == max(0, (length - 704) // 32 + 1) if length >= 704 else starts.size == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 20000))
    def test_formula_matches_enumeration(self, length):
        assert window_starts(length, SPEC).size == brute_force_count(length)


class TestMakeWindows:
    def test_single_triple_geometry(self):
        length = 704
        rec = recording(length)
        ws = make_windows(
            TimeSeriesTensor(rec.eeg, 64.0), TimeSeriesTensor(rec.feature, 64.0), SPEC
        )
        assert ws.n_triples == 1
        eeg, match, mismatch = ws.gather_triples(np.array([0]), np.float64)
        np.testing.assert_array_equal(eeg[0], rec.eeg[:, :320])
        np.testing.assert_array_equal(match[0], rec.feature[:, :320])
        np.testing.assert_array_equal(mismatch[0], rec.feature[:, 384:704])

    def test_mismatch_disjoint_with_64_frame_gap(self):
        rec = recording(2000)
        ws = make_windows(
            TimeSeriesTensor(rec.eeg, 64.0), TimeSeriesTensor(rec.feature, 64.0), SPEC
        )
        for i in range(ws.n_triples):
            s = int(ws.start_frame[i])
            assert s + 320 + 64 == s + 384  # gap exactly one second
            assert s + 704 <= 2000

    def test_rate_mismatch_rejected(self):
        rec = recording(704)
        with pytest.raises(SampleRateMismatchError):
            make_windows(
                TimeSeriesTensor(rec.eeg, 128.0), TimeSeriesTensor(rec.feature, 64.0), SPEC
            )

    def test_order_balanced_samples(self):
        rec = recording(704)
        ws = make_windows(
            TimeSeriesTensor(rec.eeg, 64.0), TimeSeriesTensor(rec.feature, 64.0), SPEC
        )
        eeg, a, b, labels = ws.gather_samples(np.array([0, 1]), np.float64)
        np.testing.assert_array_equal(labels, [1.0, 0.0])
        np.testing.assert_array_equal(a[0], b[1])
        np.testing.assert_array_equal(b[0], a[1])
        np.testing.assert_array_equal(eeg[0], eeg[1])


class TestSplitRecording:
    def test_middle_split_arithmetic(self):
        train, val, test = split_recording(10000)
        assert val == (4000, 5000)
        assert test == (5000, 6000)
        assert train == [(0, 4000), (6000, 10000)]

    def test_train_frame_count_within_rounding(self):
        for length in (7040, 9999, 12345):
            train, _, _ = split_recording(length)
            n_train = sum(hi - lo for lo, hi in train)
            assert abs(n_train - 0.8 * length) <= 2.0

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError):
            split_recording(7000)

    def test_no_triple_straddles_boundary(self):
        length = 10000
        train, val, test = split_recording(length)
        pieces = train + [val, test]
        for lo, hi in pieces:
            for s in window_starts(hi - lo, SPEC) + lo:
                assert s >= lo and s + SPEC.span_frames <= hi
        # brute-force: every emitted footprint sits inside exactly one piece
        rec = recording(length)
        sets = assemble_dataset([rec])
        for part, bounds in (("val", val), ("test", test)):
            ws = sets[part]
            for s in ws.start_frame:
                assert bounds[0] <= s and s + SPEC.span_frames <= bounds[1]
        for s in sets["train"].start_frame:
            inside = [lo <= s and s + SPEC.span_frames <= hi for lo, hi in train]
            assert any(inside)


class TestAssembleDataset:
    def test_pools_across_subjects(self):
        recs = [
            recording(7040, seed=1, subject="s1", rec_id="s1_story0"),
            recording(7040, seed=2, subject="s2", rec_id="s2_story0"),
        ]
        sets = assemble_dataset(recs)
        per_piece = (2816 - 704) // 32 + 1
        assert sets["train"].n_triples == 2 * 2 * per_piece
        train = sets["train"]
        subjects = {train.recordings[r].subject_id for r in train.rec_index}
        assert subjects == {"s1", "s2"}

    def test_provenance_recovers_counts(self):
        recs = [
            recording(7040, seed=1, subject="s1"),
            recording(8000, seed=2, subject="s2"),
        ]
        sets = assemble_dataset(recs)
        test = sets["test"]
        test_subjects = [test.recordings[r].subject_id for r in test.rec_index]
        assert test_subjects.count("s1") == window_starts(704, SPEC).size
        assert test_subjects.count("s2") == window_starts(800, SPEC).size

    def test_seeded_shuffle_reproducible(self):
        recs = [recording(7040, seed=3)]
        a = assemble_dataset(recs, seed=42)
        b = assemble_dataset(recs, seed=42)
        np.testing.assert_array_equal(a["train"].start_frame, b["train"].start_frame)
        c = assemble_dataset(recs, seed=43)
        assert not np.array_equal(a["train"].start_frame, c["train"].start_frame)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            assemble_dataset([])

    def test_leaves_the_callers_arrays_as_they_were(self):
        rng = np.random.default_rng(3)
        recs = [RecordingData("s1", "r1", rng.standard_normal((4, 7100)),
                              rng.standard_normal((2, 7040))),
                RecordingData("s2", "r2", rng.standard_normal((4, 8000)),
                              rng.standard_normal((2, 8064)))]
        arrays = [(r.eeg, r.feature) for r in recs]
        assemble_dataset(recs)
        for rec, (eeg, feature) in zip(recs, arrays):
            assert rec.eeg is eeg and rec.feature is feature


class TestRecordingData:
    @pytest.mark.parametrize("eeg_len, feat_len", [(7100, 7040), (7040, 7100), (7040, 7040)])
    def test_cut_to_the_shorter_stream_when_built(self, eeg_len, feat_len):
        rng = np.random.default_rng(4)
        eeg, feature = rng.standard_normal((4, eeg_len)), rng.standard_normal((2, feat_len))
        rec = RecordingData("s0", "r0", eeg, feature)
        assert rec.eeg.shape == (4, 7040) and rec.feature.shape == (2, 7040)
        assert np.shares_memory(rec.eeg, eeg) and np.shares_memory(rec.feature, feature)
        np.testing.assert_array_equal(rec.eeg, eeg[:, :7040])
        np.testing.assert_array_equal(rec.feature, feature[:, :7040])
        sets = assemble_dataset([rec])
        assert rec.eeg.shape[1] == rec.feature.shape[1] == 7040
        assert sets["test"].n_triples == window_starts(704, SPEC).size


def where_gather(ws, sample_idx):
    """Reference gather: float64 triple stacks, then the order swap by np.where."""
    w = ws.spec.window_frames
    off = w + ws.spec.gap_frames
    triples = sample_idx // 2
    swapped = (sample_idx % 2).astype(bool)
    eeg = np.empty((len(triples), len(ws.recordings[0].eeg), w))
    match = np.empty((len(triples), len(ws.recordings[0].feature), w))
    mismatch = np.empty_like(match)
    for j, i in enumerate(triples):
        rec = ws.recordings[ws.rec_index[i]]
        s = int(ws.start_frame[i])
        eeg[j] = rec.eeg[:, s : s + w]
        match[j] = rec.feature[:, s : s + w]
        mismatch[j] = rec.feature[:, s + off : s + off + w]
    a = np.where(swapped[:, None, None], mismatch, match)
    b = np.where(swapped[:, None, None], match, mismatch)
    return eeg, a, b, (~swapped).astype(np.float64)


class TestGather:
    @pytest.fixture(scope="class")
    def sets(self):
        recs = [recording(12000, seed=k, subject=f"s{k}", rec_id=f"r{k}") for k in range(3)]
        recs[1].feature = recs[1].feature.astype(np.float32)
        return assemble_dataset(recs, seed=5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_direct_gather_matches_where_then_cast(self, sets, dtype):
        train_set = sets["train"]
        sample_idx = np.random.default_rng(6).permutation(train_set.n_samples)[:97]
        assert len(set(train_set.rec_index[sample_idx // 2])) == 3
        got = train_set.gather_samples(sample_idx, dtype)
        want = where_gather(train_set, sample_idx)
        for g, w in zip(got[:3], want[:3]):
            assert g.dtype == dtype
            np.testing.assert_array_equal(g, w.astype(dtype))
        np.testing.assert_array_equal(got[3], want[3])
