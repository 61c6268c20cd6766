import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegmatch.alignments import (
    AlignmentTrack,
    EmbeddingTable,
    Interval,
    PhonemeInventory,
    read_alignment,
    read_embeddings,
    read_inventory,
    write_alignment,
    write_embeddings,
    write_inventory,
)
from eegmatch.categorical import (
    concat_features,
    map_anyphoneme,
    map_bpc,
    map_vowel_consonant,
    onset_variant,
    phoneme_onehot,
    word_embedding_sequence,
)
from eegmatch.errors import InvalidInputError, InvalidSpecError, UnknownLabelError
from eegmatch.synth import default_inventory
from eegmatch.tensors import TimeSeriesTensor, frame_count

INV = default_inventory()


def track_of(intervals, kind="phoneme"):
    return AlignmentTrack([Interval(*iv) for iv in intervals], kind)


@st.composite
def random_tracks(draw):
    """Non-overlapping phoneme intervals with >= one-frame duration."""
    n = draw(st.integers(1, 12))
    cursor = 0.0
    intervals = []
    for _ in range(n):
        gap = draw(st.floats(0.0, 0.2))
        dur = draw(st.floats(1.0 / 64.0, 0.3))
        symbol = draw(st.sampled_from(INV.symbols))
        start = cursor + gap
        intervals.append(Interval(start, start + dur, symbol))
        cursor = start + dur
    return AlignmentTrack(intervals, "phoneme")


class TestInventory:
    def test_default_inventory_is_valid(self):
        assert len(INV.symbols) == 40
        assert INV.index_of(INV.symbols[7]) == 7

    def test_unknown_symbol(self):
        with pytest.raises(UnknownLabelError, match="zz"):
            INV.index_of("zz")

    def test_wrong_size_rejected(self):
        with pytest.raises(InvalidSpecError):
            PhonemeInventory(symbols=["a", "b"], class_map={"a": "plosive", "b": "nasal"})

    def test_yaml_roundtrip(self, tmp_path):
        write_inventory(tmp_path / "inv.yaml", INV)
        back = read_inventory(tmp_path / "inv.yaml")
        assert back.symbols == INV.symbols
        assert back.class_map == INV.class_map


class TestAlignmentIO:
    def test_tsv_roundtrip(self, tmp_path):
        track = track_of([(0.0, 0.5, INV.symbols[0]), (0.5, 0.8, INV.symbols[3])])
        write_alignment(tmp_path / "a.tsv", track)
        back = read_alignment(tmp_path / "a.tsv")
        assert back.kind == "phoneme"
        assert len(back) == 2
        assert back.intervals[1].label == INV.symbols[3]
        assert back.intervals[0].end_s == pytest.approx(0.5)

    def test_missing_header_rejected(self, tmp_path):
        (tmp_path / "b.tsv").write_text("0.0\t1.0\tx\n")
        with pytest.raises(InvalidInputError, match="kind"):
            read_alignment(tmp_path / "b.tsv")

    def test_overlap_rejected(self):
        with pytest.raises(InvalidInputError):
            track_of([(0.0, 0.5, "a"), (0.4, 0.8, "b")])

    @pytest.mark.parametrize("row", ["0.0\tinf\tp", "-inf\t0.5\tp", "nan\t0.5\tp",
                                     "0.0\tnan\tp"])
    def test_non_finite_time_refused_by_file(self, tmp_path, row):
        """A time that is not a finite number is refused with the file's name, not left
        for the features to overflow on."""
        path = tmp_path / "c.tsv"
        path.write_text(f"#kind=phoneme\n{row}\n")
        with pytest.raises(InvalidInputError, match="not finite") as refusal:
            read_alignment(path)
        assert str(refusal.value).startswith(f"{path}: ")


class TestPhonemeOnehot:
    def test_single_interval(self):
        sym = INV.symbols[3]
        track = track_of([(0.0, 1.0, sym)])
        out = phoneme_onehot(track, INV, n_frames=96)
        assert out.data.shape == (40, 96)
        np.testing.assert_array_equal(out.data[3, :64], 1.0)
        assert out.data[:, 64:].sum() == 0
        assert out.data[:3].sum() + out.data[4:].sum() == 0

    def test_empty_track(self):
        out = phoneme_onehot(AlignmentTrack([], "phoneme"), INV, n_frames=128)
        assert out.data.shape == (40, 128)
        assert out.data.sum() == 0

    def test_unknown_label_named(self):
        track = track_of([(0.0, 0.5, "nope")])
        with pytest.raises(UnknownLabelError, match="nope"):
            phoneme_onehot(track, INV, n_frames=64)

    def test_word_track_rejected(self):
        with pytest.raises(InvalidSpecError):
            phoneme_onehot(AlignmentTrack([], "word"), INV, n_frames=64)

    @settings(max_examples=40, deadline=None)
    @given(random_tracks())
    def test_column_sums_zero_or_one(self, track):
        out = phoneme_onehot(track, INV, n_frames=round((track.end_s + 0.1) * 64))
        sums = out.data.sum(axis=0)
        assert set(np.unique(sums)) <= {0.0, 1.0}


class TestDerivedMaps:
    def test_nasal_frame(self):
        nasal = next(s for s in INV.symbols if INV.class_map[s] == "nasal")
        ph = phoneme_onehot(track_of([(0.0, 0.25, nasal)]), INV, 32)
        bpc = map_bpc(ph, INV)
        assert bpc.data.shape[0] == 6
        np.testing.assert_array_equal(bpc.data[4, :16], 1.0)

    def test_silence_rows(self):
        ph = phoneme_onehot(AlignmentTrack([], "phoneme"), INV, 16)
        np.testing.assert_array_equal(map_bpc(ph, INV).data[5], 1.0)
        np.testing.assert_array_equal(map_vowel_consonant(ph, INV).data[2], 1.0)
        np.testing.assert_array_equal(map_anyphoneme(ph).data[1], 1.0)

    def test_vowel_and_consonant_rows(self):
        vowel = next(s for s in INV.symbols if INV.class_map[s] == "short_vowel")
        cons = next(s for s in INV.symbols if INV.class_map[s] == "plosive")
        ph = phoneme_onehot(track_of([(0.0, 0.25, vowel), (0.25, 0.5, cons)]), INV, 32)
        vc = map_vowel_consonant(ph, INV)
        np.testing.assert_array_equal(vc.data[0, :16], 1.0)
        np.testing.assert_array_equal(vc.data[1, 16:32], 1.0)
        anyp = map_anyphoneme(ph)
        np.testing.assert_array_equal(anyp.data[0, :32], 1.0)

    @settings(max_examples=30, deadline=None)
    @given(random_tracks())
    def test_exactly_one_hot_per_frame(self, track):
        ph = phoneme_onehot(track, INV, n_frames=round((track.end_s + 0.05) * 64))
        for mapped in (map_bpc(ph, INV), map_vowel_consonant(ph, INV), map_anyphoneme(ph)):
            np.testing.assert_array_equal(mapped.data.sum(axis=0), 1.0)
            assert set(np.unique(mapped.data)) <= {0.0, 1.0}


class TestOnsets:
    def test_single_interval_single_pulse(self):
        cons = next(s for s in INV.symbols if INV.class_map[s] == "fricative")
        track = track_of([(0.1, 0.4, cons)])
        ph = phoneme_onehot(track, INV, 32)
        onset = onset_variant(map_vowel_consonant(ph, INV), track)
        assert onset.data[1].sum() == 1.0
        assert onset.data[0].sum() == 0.0
        pulse_frame = int(onset.data[1].argmax())
        assert pulse_frame == int(np.ceil(0.1 * 64))

    def test_consecutive_consonants_get_separate_pulses(self):
        c1, c2 = [s for s in INV.symbols if INV.class_map[s] == "plosive"][:2]
        track = track_of([(0.0, 0.2, c1), (0.2, 0.4, c2)])
        ph = phoneme_onehot(track, INV, 32)
        vc = map_vowel_consonant(ph, INV)
        # the plain feature shows one unbroken consonant run
        assert np.all(vc.data[1, : int(0.4 * 64)] == 1.0)
        onset = onset_variant(vc, track)
        assert onset.data[1].sum() == 2.0

    def test_silence_row_kept(self):
        sym = INV.symbols[0]
        track = track_of([(0.25, 0.5, sym)])
        ph = phoneme_onehot(track, INV, 48)
        base = map_anyphoneme(ph)
        onset = onset_variant(base, track)
        np.testing.assert_array_equal(onset.data[1], base.data[1])

    def test_onset_before_the_first_frame_is_dropped(self):
        """A phone that starts before 0 s has no onset in the story: no pulse, at frame 0
        or wrapped to the story's end."""
        fric = next(s for s in INV.symbols if INV.class_map[s] == "fricative")
        vowel = next(s for s in INV.symbols if INV.class_map[s] == "long_vowel")
        track = track_of([(-0.5, 0.3, fric), (0.3, 10.0, vowel)])
        onset = onset_variant(map_bpc(phoneme_onehot(track, INV, 640), INV), track)
        assert np.flatnonzero(onset.data[:-1].sum(axis=0)).tolist() == [int(np.ceil(0.3 * 64))]

    @settings(max_examples=30, deadline=None)
    @given(random_tracks())
    def test_pulse_count_equals_interval_count(self, track):
        ph = phoneme_onehot(track, INV, n_frames=round((track.end_s + 0.05) * 64))
        onset = onset_variant(map_bpc(ph, INV), track)
        assert onset.data[:5].sum() == len(track)


class TestWordEmbeddings:
    @pytest.fixture()
    def table(self):
        rng = np.random.default_rng(11)
        return EmbeddingTable({w: rng.standard_normal(300) for w in ("Huis", "boom", "kat")})

    def test_word_vector_span(self, table):
        track = track_of([(0.0, 0.5, "huis")], kind="word")
        out = word_embedding_sequence(track, table, n_frames=64)
        assert out.data.shape == (300, 64)
        expected = table.lookup("huis")
        np.testing.assert_array_equal(out.data[:, :32], np.tile(expected[:, None], 32))
        assert out.data[:, 32:].sum() == 0

    def test_case_folded_lookup(self, table):
        assert table.lookup("HUIS") is not None

    def test_empty_track(self, table):
        out = word_embedding_sequence(AlignmentTrack([], "word"), table, 32)
        assert out.data.sum() == 0

    def test_boundary_frame_belongs_to_later_word(self, table):
        track = track_of([(0.0, 0.5, "huis"), (0.5, 1.0, "boom")], kind="word")
        out = word_embedding_sequence(track, table, n_frames=64)
        np.testing.assert_array_equal(out.data[:, 32], table.lookup("boom"))

    def test_oov_word_is_zero(self, table):
        track = track_of([(0.0, 0.5, "zebra")], kind="word")
        out = word_embedding_sequence(track, table, 32)
        assert out.data.sum() == 0

    def test_embedding_file_roundtrip(self, tmp_path, table):
        write_embeddings(tmp_path / "emb.txt", table)
        back = read_embeddings(tmp_path / "emb.txt")
        assert len(back) == 3
        np.testing.assert_allclose(back.lookup("kat"), table.lookup("kat"), atol=1e-5)

    def test_non_numeric_value_is_refused_by_name(self, tmp_path, table):
        path = tmp_path / "emb.txt"
        write_embeddings(path, table)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(" ", 1)[0] + " nan?"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match="emb.txt: .*nan"):
            read_embeddings(path)


class TestConcat:
    def test_stacks_in_order(self):
        a = TimeSeriesTensor(np.ones((1, 10)), 64.0)
        b = TimeSeriesTensor(np.zeros((6, 10)), 64.0)
        out = concat_features([a, b])
        assert out.data.shape == (7, 10)
        np.testing.assert_array_equal(out.data[0], 1.0)
        np.testing.assert_array_equal(out.data[1:], 0.0)

    def test_roundtrip_split(self):
        rng = np.random.default_rng(12)
        a = TimeSeriesTensor(rng.standard_normal((3, 20)), 64.0)
        b = TimeSeriesTensor(rng.standard_normal((5, 20)), 64.0)
        out = concat_features([a, b])
        np.testing.assert_array_equal(out.data[:3], a.data)
        np.testing.assert_array_equal(out.data[3:], b.data)

    def test_length_mismatch_rejected(self):
        a = TimeSeriesTensor(np.ones((1, 10)), 64.0)
        b = TimeSeriesTensor(np.ones((1, 11)), 64.0)
        with pytest.raises(InvalidInputError):
            concat_features([a, b])

    def test_frame_count_matches_duration(self):
        assert frame_count(12 * 16000, 16000.0) == 768
        assert frame_count(1007, 1000.0) == round(1.007 * 64)
