import re
import struct
import tracemalloc

import numpy as np
import pytest
from conftest import (
    EDGE_FRAMES, FIDELITY_BOUND, PASSBAND_HZ, band_content, raw_envelope, relative_rms,
)
from scipy import signal
from scipy.io import wavfile

from eegmatch.acoustic import (
    FRAME_RATE,
    HALVING_PASS,
    MEL_BANDS,
    STFT_CHUNK_FRAMES,
    STFT_WINDOW_S,
    _halve,
    band_extent,
    bank_rates,
    envelope_centers,
    envelope_powerlaw,
    erb_space,
    gammatone_powerlaw_sum,
    mel_filterbank,
    mel_magnitudes,
    mel_spectrogram,
    read_wav,
    stft_frames_64hz,
    vad,
    vad_frame_energies,
    vad_frames,
    write_wav,
)
from eegmatch.errors import InvalidInputError
from eegmatch.preproc import PreprocConfig, to_frame_rate
from eegmatch.synth import generate_story
from eegmatch.tensors import TimeSeriesTensor

FS = 16000.0


def am_noise(seconds, mod_hz, fs=FS, seed=0):
    """Amplitude-modulated broadband carrier, the envelope test signal."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(fs * seconds)) / fs
    modulator = 0.55 + 0.45 * np.sin(2 * np.pi * mod_hz * t)
    return TimeSeriesTensor((modulator * rng.standard_normal(t.size))[None, :], fs)


class TestEnvelope:
    def test_silence_is_zero(self):
        silent = TimeSeriesTensor(np.zeros((1, int(FS))), FS)
        assert not envelope_powerlaw(silent).data.any()

    def test_powerlaw_scaling_raw(self):
        x = am_noise(2.0, 4.0)
        alpha = 3.7
        env_x = raw_envelope(x)
        env_ax = raw_envelope(x.with_data(alpha * x.data))
        np.testing.assert_allclose(env_ax.data, alpha**0.6 * env_x.data, rtol=1e-6)

    def test_powerlaw_scaling_survives_band_limiting(self):
        x = am_noise(4.0, 4.0, seed=1)
        alpha = 2.0
        env_x = envelope_powerlaw(x)
        env_ax = envelope_powerlaw(x.with_data(alpha * x.data))
        scale = np.abs(env_x.data).max()
        np.testing.assert_allclose(
            env_ax.data, alpha**0.6 * env_x.data, atol=1e-6 * scale * alpha**0.6
        )

    def test_bandwise_sum_matches_stacked_bank(self):
        """Band-at-a-time accumulation is bit-identical to the stacked bank."""
        x = am_noise(2.0, 4.0, seed=3).data[0]
        cfs = erb_space(50.0, 5000.0, 28)
        bank = np.stack([
            signal.sosfilt(signal.tf2sos(*signal.gammatone(fc, "iir", fs=FS)), x) for fc in cfs
        ])
        np.testing.assert_array_equal(
            gammatone_powerlaw_sum(x, FS, cfs, 0.6), (np.abs(bank) ** 0.6).sum(axis=0)
        )

    def test_modulation_peak_at_4hz(self):
        env = envelope_powerlaw(am_noise(8.0, 4.0, seed=2))
        spectrum = np.abs(np.fft.rfft(env.data[0]))
        freqs = np.fft.rfftfreq(env.n_samples, 1.0 / FRAME_RATE)
        peak = freqs[spectrum.argmax()]
        assert abs(peak - 4.0) < 0.2

    def test_output_rate_and_length(self):
        env = envelope_powerlaw(am_noise(3.0, 4.0))
        assert env.fs == FRAME_RATE
        assert env.n_samples == round(3.0 * FRAME_RATE)

    @pytest.mark.parametrize("fs, split", [
        (16000.0, {16000.0: 8, 8000.0: 6, 4000.0: 5, 2000.0: 4, 1000.0: 5}),
        (44100.0, {44100.0: 0, 22050.0: 5, 11025.0: 6, 5512.5: 5, 2756.25: 5, 1378.125: 7}),
    ])
    def test_each_band_runs_at_the_lowest_halved_rate_that_holds_it(self, fs, split):
        """A band's extent lies below the passband edge of the halving that
        brought it to its rate, and above that of the next halving, unless
        the rate is the audio's or the lowest."""
        cfs = envelope_centers(fs)
        rates = bank_rates(cfs, fs)
        assert {r: int((rates == r).sum()) for r in split} == split
        extent = band_extent(cfs)
        assert np.all((rates == fs) | (extent < HALVING_PASS * rates))
        assert np.all((rates == min(split)) | (extent >= HALVING_PASS * rates / 2))

    @pytest.mark.parametrize("rate", [16000.0, 2000.0])
    def test_halving_passes_below_its_edge_and_stops_what_folds_onto_it(self, rate):
        """Tones at 0.9 times the passband edge pass within 1e-3; tones that
        would fold onto 0.9 times the edge are 80 dB down."""
        edge = HALVING_PASS * rate / 2.0
        for freq, gain in ((0.9 * edge, 1.0), (rate / 2.0 - 0.9 * edge, 0.0)):
            t = np.arange(int(rate)) / rate
            halved = _halve(np.sin(2 * np.pi * freq * t), rate)[100:-100]
            amp = np.sqrt(2.0 * (halved**2).mean())
            assert abs(amp - gain) < (1e-3 if gain else 1e-4), (freq, amp)

    def test_empty_audio_rejected(self):
        with pytest.raises(InvalidInputError):
            envelope_powerlaw(TimeSeriesTensor(np.ones((2, 100)), FS))
        with pytest.raises(InvalidInputError):
            envelope_powerlaw(TimeSeriesTensor(np.ones((1, 100)), 4000.0))


class TestMelSpectrogram:
    def test_tone_energy_concentrates(self):
        t = np.arange(int(FS * 2)) / FS
        tone = TimeSeriesTensor(np.sin(2 * np.pi * 440.0 * t)[None, :], FS)
        mel = mel_magnitudes(tone)
        band_energy = mel.data.sum(axis=1)
        bank = mel_filterbank(MEL_BANDS, 512, FS, 50.0, 5000.0)
        centers_hz = np.fft.rfftfreq(512, 1 / FS)
        band_centers = (bank * centers_hz).sum(axis=1) / bank.sum(axis=1)
        nearest = np.argsort(np.abs(band_centers - 440.0))[:2]
        assert band_energy[nearest].sum() / band_energy.sum() >= 0.8

    def test_silence_zero_prebandpass(self):
        silent = TimeSeriesTensor(np.zeros((1, int(FS))), FS)
        mel = mel_magnitudes(silent)
        np.testing.assert_allclose(mel.data, 0.0, atol=1e-15)

    def test_shape_and_rate(self):
        mel = mel_spectrogram(am_noise(2.5, 3.0))
        assert mel.n_channels == 28
        assert mel.fs == FRAME_RATE
        assert mel.n_samples == round(2.5 * FRAME_RATE)

    def test_band_average_correlates_with_envelope(self):
        x = am_noise(10.0, 3.0, seed=4)
        mel = mel_magnitudes(x)
        env = raw_envelope(x)
        env64 = env.data[0][:: int(FS / FRAME_RATE)][: mel.n_samples]
        mean_bands = mel.data.mean(axis=0)[: env64.size]
        r = np.corrcoef(mean_bands, env64)[0, 1]
        assert r > 0.8

    def test_low_rate_rejected(self):
        with pytest.raises(InvalidInputError):
            mel_spectrogram(TimeSeriesTensor(np.ones((1, 8000)), 8000.0))

    def test_filterbank_adjacent_overlap_sums_to_one(self):
        bank = mel_filterbank(MEL_BANDS, 512, FS, 50.0, 5000.0)
        bin_hz = np.fft.rfftfreq(512, 1 / FS)
        inside = (bin_hz > 340.0) & (bin_hz < 4000.0)
        np.testing.assert_allclose(bank.sum(axis=0)[inside], 1.0, atol=1e-9)


@pytest.mark.parametrize("frames", [STFT_CHUNK_FRAMES // 3, 2 * STFT_CHUNK_FRAMES + 17])
def test_chunked_stft_is_bit_identical_to_whole_array(frames):
    """The STFT, framed a chunk at a time, has the bits and the layout of all frames at once."""
    x = np.random.default_rng(frames).standard_normal(int(frames / FRAME_RATE * FS))
    win_len = int(round(STFT_WINDOW_S * FS))
    starts = np.round(np.arange(frames) * FS / FRAME_RATE).astype(int) - win_len // 2
    padded = np.pad(x, (win_len, win_len))
    whole = np.stack([padded[s + win_len : s + 2 * win_len] for s in starts])
    expected = np.abs(np.fft.rfft(whole * np.hanning(win_len), n=512, axis=1)).T
    spec = stft_frames_64hz(x, FS)
    assert spec.strides == expected.strides
    assert np.array_equal(spec, expected)


def test_band_limited_features_pinned():
    """Envelope and mel are pinned on ``generate_story(8.0, seed=5)``.

    The samples are envelope frames 100-105, and frames 100-102 of every
    ninth mel band. The mel samples were produced by ``mel_spectrogram``
    when it took a ``band_limit`` flag and filtered through
    ``band_filter_stream``. The envelope samples were taken again from
    ``envelope_powerlaw`` when its bank began to run each gammatone band at
    the lowest halved rate that holds it; the frames sit 1.6 s from the
    start of a short story, and moved by up to 8 %.
    """
    audio = generate_story(8.0, seed=5).audio
    np.testing.assert_allclose(
        envelope_powerlaw(audio).data[0, 100:106],
        [0.0034914595484047822, 0.007220431343288583, -0.014935435349767462,
         0.023948696656231765, 0.03664052841258345, 0.03404439962823466],
        rtol=1e-12, atol=0,
    )
    np.testing.assert_allclose(
        mel_spectrogram(audio).data[::9, 100:103],
        [[-0.8127991632370807, -0.8028961601618981, -0.6729115357058459],
         [-2.11719556948671, -1.915298210032483, -1.3693744209287955],
         [5.515826444917859, 4.974209523530167, 2.0206593022892054],
         [28.33627387323585, 19.662408266133212, -0.6781455950855273]],
        rtol=1e-12, atol=0,
    )


@pytest.mark.parametrize("seed", [1, 2, 5, None], ids=["story1", "story2", "story5", "am_noise"])
def test_bank_within_the_fidelity_bound_of_the_single_rate_bank(seed):
    """Bound, fixed before measuring: over frames at least 4 s from either
    end, the 0.75-28 Hz content of the envelope differs from that of the bank
    with every band at the audio rate by at most 2.5 % in RMS. A band at a
    lower rate is 49 dB down where the halving bends or folds the audio, and
    its gammatone is designed anew at that rate; the difference grows with
    each halving. It read 2.28-2.31 % on the stories and 1.71 % on the
    AM noise."""
    audio = am_noise(90.0, 4.0) if seed is None else generate_story(90.0, seed=seed).audio
    new = envelope_powerlaw(audio).data
    old = to_frame_rate(raw_envelope(audio), PreprocConfig()).data
    interior = slice(EDGE_FRAMES, -EDGE_FRAMES)
    (diff,) = relative_rms(band_content(new[:, interior], *PASSBAND_HZ),
                           band_content(old[:, interior], *PASSBAND_HZ))
    print(f"envelope bank passband interior {diff:.4f}")
    assert diff <= FIDELITY_BOUND


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, under ``tracemalloc``."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="module")
def story_240s():
    """240 s of broadband 16 kHz audio, the length of a scored story."""
    return am_noise(240.0, 3.0, seed=9)


def test_memory_of_the_mel_spectrogram(story_240s):
    """Bound, fixed before measuring: the magnitude STFT (frames x 257 float64,
    31.6 MB for 240 s) plus 8 MB for one chunk's frames and spectra and the
    band filter's blocks. The frames are read from the audio itself; a
    padded copy of the audio (31 MB) put the peak at 65.2 MB."""
    mel, peak = traced_peak(mel_spectrogram, story_240s)
    bound = mel.n_samples * (512 // 2 + 1) * 8 + 8e6
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"
    print(f"mel peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB")


def test_memory_of_the_envelope(story_240s):
    """Bound, fixed before measuring: 3.5 times the audio's float64 bytes. The
    gammatone loop holds the running sum, one band and ``sosfilt``'s working
    copy; the chain decimates the envelope to 128 Hz, 128/16000 of it, before
    the band filter. Filtering at the audio rate, with the padded input and
    both passes alive, put the peak at 123 MB (4 times the audio)."""
    _, peak = traced_peak(envelope_powerlaw, story_240s)
    bound = 3.5 * story_240s.data.nbytes
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"
    print(f"envelope peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB")


class TestVad:
    def test_constant_tone_all_zero(self):
        t = np.arange(int(FS * 3)) / FS
        tone = TimeSeriesTensor(np.sin(2 * np.pi * 100.0 * t)[None, :], FS)
        flags = vad_frames(tone)
        # strictly-above comparator on (nearly) equal energies yields ~nothing
        assert flags.mean() <= 0.26

    def test_exactly_constant_frame_energy_all_zero(self):
        x = TimeSeriesTensor(np.ones((1, int(FS * 1.2))), FS)
        energies = vad_frame_energies(x)
        # pre-emphasis leaves the first frame different; drop it for the check
        assert np.allclose(energies[1:], energies[1])
        flags = vad_frames(x)
        assert flags[1:].sum() == 0

    def test_one_loud_quarter(self):
        frame = int(0.015 * FS)
        n_frames = 400
        rng = np.random.default_rng(5)
        quiet = 0.01 * rng.standard_normal(300 * frame)
        loud = 1.0 * rng.standard_normal(100 * frame)
        x = TimeSeriesTensor(np.concatenate([quiet, loud])[None, :], FS)
        flags = vad_frames(x)
        assert flags.size == n_frames
        assert flags[:300].sum() == 0
        assert flags[300:].sum() == 100  # ones exactly on the loud quarter

    def test_ones_fraction_quarter(self):
        x = am_noise(12.0, 2.0, seed=6)
        flags = vad_frames(x)
        n = flags.size
        assert abs(flags.mean() - 0.25) <= 1.0 / n

    def test_64hz_output_fraction(self):
        x = am_noise(12.0, 2.0, seed=7)
        out = vad(x)
        assert out.fs == FRAME_RATE
        assert set(np.unique(out.data)) <= {0.0, 1.0}
        assert out.n_samples == round(12.0 * FRAME_RATE)
        # nearest-frame upsampling of 15 ms decisions keeps the quarter duty
        # cycle within a few frames of quantization jitter
        assert abs(out.data.mean() - 0.25) <= 8.0 / out.n_samples

    def test_story_shorter_than_frame_rejected(self):
        with pytest.raises(InvalidInputError):
            vad(TimeSeriesTensor(np.ones((1, 10)), FS))


class TestWavRoundtrip:
    def test_float_roundtrip(self, tmp_path):
        x = am_noise(0.5, 4.0, seed=8)
        write_wav(tmp_path / "a.wav", x)
        back = read_wav(tmp_path / "a.wav")
        assert back.fs == FS
        np.testing.assert_allclose(back.data, x.data, atol=1e-6)

    @pytest.mark.parametrize("cut", [10, 30, 50, 2000],
                             ids=["riff", "fmt", "data", "inside data"])
    def test_file_cut_short_is_refused_by_name(self, tmp_path, cut):
        path = tmp_path / "a.wav"
        write_wav(path, am_noise(0.5, 4.0, seed=8))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: "):
            read_wav(path)

    def test_chunks_before_the_data_are_skipped(self, tmp_path):
        """A ``LIST`` chunk of odd length, padded to even, before the data is read past."""
        x = am_noise(0.5, 4.0, seed=8)
        path = tmp_path / "a.wav"
        write_wav(path, x)
        raw = path.read_bytes()
        at = raw.index(b"data")
        listed = raw[:at] + b"LIST" + struct.pack("<I", 5) + b"INFOx\0" + raw[at:]
        path.write_bytes(listed[:4] + struct.pack("<I", len(listed) - 8) + listed[8:])
        np.testing.assert_array_equal(read_wav(path).data, x.data.astype(np.float32))

    def test_int16_read(self, tmp_path):
        data = (np.sin(2 * np.pi * 440 * np.arange(8000) / 8000.0) * 32000).astype(np.int16)
        wavfile.write(tmp_path / "b.wav", 8000, data)
        back = read_wav(tmp_path / "b.wav")
        assert back.data.max() <= 1.0
        assert back.data.min() >= -1.0

    def test_int32_reads_as_int16_does(self, tmp_path):
        """24- and 32-bit PCM read as int32, scaled by their full scale as 16-bit PCM is."""
        sine = 0.5 * np.sin(2 * np.pi * 440 * np.arange(8000) / 8000.0)
        wavfile.write(tmp_path / "16.wav", 8000, np.round(sine * 2**15).astype(np.int16))
        wavfile.write(tmp_path / "32.wav", 8000, np.round(sine * 2**31).astype(np.int32))
        np.testing.assert_allclose(read_wav(tmp_path / "32.wav").data,
                                   read_wav(tmp_path / "16.wav").data, rtol=0, atol=2.0**-15)

    def test_unsigned_pcm_is_refused_by_path(self, tmp_path):
        """8-bit PCM is unsigned, centred on 128: refused, not read as a level."""
        path = tmp_path / "u8.wav"
        wavfile.write(path, 8000, np.full(800, 128, dtype=np.uint8))
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}: uint8 samples")):
            read_wav(path)
