import numpy as np
import pytest

from eegmatch.acoustic import envelope_powerlaw
from eegmatch.errors import InvalidSpecError
from eegmatch.synth import (
    SILENCE_FRAC,
    ForwardModelConfig,
    default_inventory,
    default_lexicon,
    default_response_kernel,
    generate_eeg,
    generate_story,
    ridge_reconstruct,
    synth_embeddings,
    write_synth_dataset,
)
from eegmatch.tensors import TimeSeriesTensor


@pytest.fixture(scope="module")
def story():
    return generate_story(duration_s=30.0, seed=1)


class TestStoryGeneration:

    def test_alignments_tile_speech_regions_exactly(self, story):
        phone_spans = [(iv.start_s, iv.end_s) for iv in story.phonemes.intervals]
        for word in story.words.intervals:
            covered = [s for s in phone_spans if s[0] >= word.start_s - 1e-9 and s[1] <= word.end_s + 1e-9]
            assert covered, f"word {word.label} has no phones"
            assert covered[0][0] == pytest.approx(word.start_s)
            assert covered[-1][1] == pytest.approx(word.end_s)
            for (_, prev_end), (next_start, _) in zip(covered, covered[1:]):
                assert next_start == pytest.approx(prev_end)
        total_phones = sum(e - s for s, e in phone_spans)
        total_words = sum(iv.end_s - iv.start_s for iv in story.words.intervals)
        assert total_phones == pytest.approx(total_words)

    def test_silence_fraction_near_configured(self):
        story = generate_story(duration_s=60.0, seed=2)
        speech = sum(iv.end_s - iv.start_s for iv in story.words.intervals)
        silence = 1.0 - speech / story.audio.duration_s
        assert SILENCE_FRAC == 0.25
        assert abs(silence - SILENCE_FRAC) <= 0.05

    def test_same_seed_identical(self):
        a = generate_story(10.0, seed=3)
        b = generate_story(10.0, seed=3)
        np.testing.assert_array_equal(a.audio.data, b.audio.data)
        assert [iv.label for iv in a.phonemes.intervals] == [
            iv.label for iv in b.phonemes.intervals
        ]

    def test_different_seed_differs(self):
        a = generate_story(10.0, seed=4)
        b = generate_story(10.0, seed=5)
        assert not np.array_equal(a.audio.data, b.audio.data)

    def test_labels_come_from_inventory_and_lexicon(self, story):
        inv = default_inventory()
        lex = default_lexicon(inv)
        assert {iv.label for iv in story.phonemes.intervals} <= set(inv.symbols)
        assert {iv.label for iv in story.words.intervals} <= set(lex)

    def test_audio_is_quiet_outside_words(self, story):
        fs = story.audio.fs
        x = story.audio.data[0]
        mask = np.ones(x.size, dtype=bool)
        for iv in story.words.intervals:
            mask[int(iv.start_s * fs) : int(iv.end_s * fs) + 1] = False
        assert np.abs(x[mask]).max() == 0.0


class TestEmbeddingsAndInventory:
    def test_default_inventory_has_40_symbols_in_six_classes(self):
        inv = default_inventory()
        assert len(inv.symbols) == 40
        assert set(inv.class_map.values()) == {
            "short_vowel", "long_vowel", "plosive", "fricative", "nasal", "approximant",
        }

    def test_synth_embeddings_unit_norm(self):
        table = synth_embeddings(["word00", "word01"], seed=1)
        vec = table.lookup("word00")
        assert vec.shape == (300,)
        assert np.linalg.norm(vec) == pytest.approx(1.0)


class TestForwardModel:
    def test_cross_correlation_peaks_at_latency(self):
        rng = np.random.default_rng(6)
        feat = TimeSeriesTensor(rng.standard_normal((1, 64 * 60)), 64.0)
        latency_ms = 125.0
        delay = round(latency_ms / 1000 * 64)
        cfg = ForwardModelConfig(
            rng_seed=7,
            kernel=np.eye(delay + 1)[delay],  # a delayed delta isolates the latency
            mixing=np.ones((4, 1)),
            snr_db=np.inf,
            n_channels=4,
        )
        eeg = generate_eeg(feat, cfg)
        lags = np.arange(0, 32)
        xc = [np.dot(eeg.data[0, lag:], feat.data[0, : feat.n_samples - lag]) for lag in lags]
        assert lags[int(np.argmax(xc))] == delay

    def test_signal_off_uncorrelated(self):
        rng = np.random.default_rng(8)
        feat = TimeSeriesTensor(rng.standard_normal((1, 64 * 120)), 64.0)
        cfg = ForwardModelConfig(rng_seed=9, snr_db=-np.inf, n_channels=8)
        eeg = generate_eeg(feat, cfg)
        for ch in range(8):
            r = np.corrcoef(eeg.data[ch], feat.data[0])[0, 1]
            assert abs(r) < 0.05

    def test_snr_energy_ratio_exact(self):
        # snr_db is defined on the 0.5 Hz highpassed parts (the EEG band that
        # survives preprocessing); the oracle recomputes both energies there
        from scipy import signal as sp

        rng = np.random.default_rng(10)
        feat = TimeSeriesTensor(rng.standard_normal((2, 64 * 30)), 64.0)
        sos = sp.butter(4, 0.5, btype="highpass", output="sos", fs=64.0)
        for snr_db in (-10.0, 0.0, 10.0):
            base = dict(mixing=None, n_channels=16, noise_color="pink")
            eeg = generate_eeg(feat, ForwardModelConfig(rng_seed=11, snr_db=snr_db, **base))
            clean = generate_eeg(feat, ForwardModelConfig(rng_seed=11, snr_db=np.inf, **base))
            noise = eeg.data - clean.data
            p_sig = np.mean(sp.sosfilt(sos, clean.data, axis=1) ** 2)
            p_noise = np.mean(sp.sosfilt(sos, noise, axis=1) ** 2)
            measured = 10 * np.log10(p_sig / p_noise)
            assert abs(measured - snr_db) < 0.1

    def test_deterministic_per_seed(self):
        feat = TimeSeriesTensor(np.random.default_rng(12).standard_normal((1, 640)), 64.0)
        cfg = dict(snr_db=5.0, n_channels=8)
        a = generate_eeg(feat, ForwardModelConfig(rng_seed=13, **cfg))
        b = generate_eeg(feat, ForwardModelConfig(rng_seed=13, **cfg))
        np.testing.assert_array_equal(a.data, b.data)

    def test_response_jitter_has_its_own_stream(self):
        """Jitter never re-seeds the noise; jitter-free output is as before.

        The pinned samples were produced by the generator before it drew the
        jitter processes from a stream of their own.
        """
        feat = TimeSeriesTensor(np.random.default_rng(12).standard_normal((1, 640)), 64.0)

        def eeg(snr_db, **jitter):
            cfg = ForwardModelConfig(rng_seed=13, snr_db=snr_db, n_channels=8, **jitter)
            return generate_eeg(feat, cfg).data

        lti = dict(gain_jitter_std=0.0, latency_jitter_ms=0.0)
        off = eeg(-np.inf, **lti)
        on = eeg(-np.inf, gain_jitter_std=0.5, latency_jitter_ms=30.0)
        assert on.tobytes() == off.tobytes()
        assert eeg(-np.inf).tobytes() == off.tobytes()  # the jittered default
        np.testing.assert_allclose(
            off[::3, 100:103],
            [[-0.235225768687, -1.001939588945, -0.471696956541],
             [0.061419577812, 0.513534588289, 0.369977580707],
             [-0.940411055096, -0.985992638469, 0.09183571217]],
            rtol=1e-9, atol=1e-11,
        )
        np.testing.assert_allclose(
            eeg(5.0, **lti)[::3, 100:103],
            [[-1.375948610018, -4.488647556794, -4.501145414729],
             [0.148585403624, 1.404734430493, 0.936498737448],
             [-3.390286959235, -4.443547141594, -2.892454524279]],
            rtol=1e-9, atol=1e-11,
        )

    def test_kernel_shape(self):
        kernel = default_response_kernel()
        assert kernel.size == round(0.4 * 64)
        peak = np.argmax(kernel) / 64.0
        assert 0.06 <= peak <= 0.14  # first lobe near 100 ms
        assert kernel.min() < 0.0  # second, negative lobe

    def test_config_validation(self):
        with pytest.raises(InvalidSpecError):
            ForwardModelConfig(rng_seed=1, noise_color="brown")

    def test_white_noise_supported(self):
        feat = TimeSeriesTensor(np.random.default_rng(14).standard_normal((1, 640)), 64.0)
        eeg = generate_eeg(feat, ForwardModelConfig(rng_seed=15, snr_db=0.0,
                                                    noise_color="white", n_channels=4))
        assert eeg.data.shape == (4, 640)


@pytest.fixture(scope="module")
def coupled():
    decoder_story = generate_story(90.0, seed=20)
    env = envelope_powerlaw(decoder_story.audio)
    # a 50 ms response latency: the kernel starts with round(0.05 * 64) zeros
    kernel = np.concatenate([np.zeros(3), default_response_kernel()])
    cfg = ForwardModelConfig(rng_seed=21, kernel=kernel, snr_db=10.0)
    return generate_eeg(env, cfg), env


class TestSanityDecoder:

    def test_ridge_recovers_envelope_at_high_snr(self, coupled):
        eeg, env = coupled
        r = ridge_reconstruct(eeg, env)
        assert r > 0.5

    def test_ridge_fails_on_signal_off(self):
        story = generate_story(90.0, seed=22)
        env = envelope_powerlaw(story.audio)
        eeg = generate_eeg(env, ForwardModelConfig(rng_seed=23, snr_db=-np.inf))
        assert abs(ridge_reconstruct(eeg, env)) < 0.2


class TestChanceCeiling:
    def test_no_decoder_beats_55_percent_on_chance_data(self):
        """Correlation decoder on signal-off EEG stays inside the null band.

        Decisions on 90 %-overlap windows of a single recording are heavily
        correlated, so the check pools several independent noise recordings
        (as the real dataset pools subjects and stories) with pinned seeds.
        """
        story = generate_story(240.0, seed=24)
        env = envelope_powerlaw(story.audio)
        w, gap, hop = 320, 64, 32
        hits = 0
        total = 0
        for k in range(6):
            eeg = generate_eeg(env, ForwardModelConfig(rng_seed=100 + k, snr_db=-np.inf))
            mean_channel = eeg.data.mean(axis=0)
            n = min(eeg.n_samples, env.n_samples)
            s = 0
            while s + 2 * w + gap <= n:
                e = mean_channel[s : s + w]
                r_match = np.corrcoef(e, env.data[0, s : s + w])[0, 1]
                r_mismatch = np.corrcoef(e, env.data[0, s + w + gap : s + 2 * w + gap])[0, 1]
                hits += int(r_match > r_mismatch)
                total += 1
                s += hop
        assert total > 2500
        assert hits / total <= 0.55


class TestSynthDatasetWriter:
    def test_manifest_and_files(self, tmp_path):
        path = write_synth_dataset(
            tmp_path / "ds", n_subjects=2, n_stories=1, duration_s=12.0,
            snr_db=5.0, seed=3,
        )
        assert path.name == "manifest.yaml"
        from eegmatch.pipeline import load_manifest

        manifest = load_manifest(path)
        assert len(manifest.recordings) == 2
        assert manifest.recordings[0].eeg_path.exists()
        from eegmatch.tensors import read_timeseries

        eeg = read_timeseries(manifest.recordings[0].eeg_path)
        assert eeg.n_channels == 64
        assert eeg.fs == 64.0

    def test_rerun_identical(self, tmp_path):
        kwargs = dict(n_subjects=1, n_stories=1, duration_s=12.0, snr_db=5.0, seed=4)
        p1 = write_synth_dataset(tmp_path / "a", **kwargs)
        p2 = write_synth_dataset(tmp_path / "b", **kwargs)
        from eegmatch.pipeline import file_sha256

        for rel in ("manifest.yaml", "eeg/sub00_story00.ndmm", "audio/story00.wav"):
            assert file_sha256(p1.parent / rel) == file_sha256(p2.parent / rel)
