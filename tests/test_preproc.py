import struct
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    EDGE_FRAMES,
    FIDELITY_BOUND,
    PASSBAND_HZ,
    band_content,
    preprocess_eeg_whole,
    raw_envelope,
    relative_rms,
    single_rate_chain,
)
from scipy import signal

from eegmatch.errors import DegenerateChannelError, InvalidInputError, InvalidSpecError
from eegmatch.preproc import (
    CHANNEL_BLOCK,
    PreprocConfig,
    band_rate,
    band_sos,
    channel_mean,
    normalize_recording,
    preprocess_eeg,
    to_frame_rate,
)
from eegmatch.synth import ForwardModelConfig, generate_eeg, generate_story
from eegmatch.tensors import (
    FORMAT_VERSION,
    FRAME_RATE,
    MAGIC,
    TimeSeriesFile,
    TimeSeriesTensor,
    frame_count,
    write_timeseries,
)


def sine(freq, fs, seconds, phase=0.0):
    t = np.arange(int(fs * seconds)) / fs
    return np.sin(2 * np.pi * freq * t + phase)


def fitted_amplitude(x, freq, fs):
    """Least-squares sine fit; the oracle for pass/stop amplitude checks."""
    t = np.arange(x.size) / fs
    design = np.stack([np.sin(2 * np.pi * freq * t), np.cos(2 * np.pi * freq * t)], axis=1)
    coef, *_ = np.linalg.lstsq(design, x, rcond=None)
    return float(np.hypot(*coef))


def band_filter(x, cfg):
    """The chain's filter step: ``cfg``'s band designed at ``x.fs``, run forward and backward."""
    sos = band_sos(cfg.low_hz, cfg.high_hz, cfg.stop_atten_db, x.fs)
    return x.with_data(signal.sosfiltfilt(sos, x.data, axis=1))


def resample(x):
    """``x`` through the chain with its band's upper edge at Nyquist.

    :func:`band_sos` makes that band the 0.5 Hz highpass, so only the
    resampling FIR acts above 0.5 Hz.
    """
    return to_frame_rate(x, PreprocConfig(high_hz=x.fs / 2))


def common_average_reference(x):
    """``x`` referenced as the chain references it: each channel minus the channel mean."""
    return x.with_data(x.data - channel_mean(x))


class TestCommonAverageReference:
    def test_two_channel_symmetric(self):
        x = TimeSeriesTensor(np.array([[1.0], [3.0]]), fs=64.0)
        out = common_average_reference(x)
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]])

    def test_identical_channels_zero(self):
        x = TimeSeriesTensor(np.tile(np.arange(1.0, 11.0), (4, 1)), fs=64.0)
        out = common_average_reference(x)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(3)
        x = TimeSeriesTensor(rng.standard_normal((8, 100)), fs=64.0)
        out = common_average_reference(x)
        assert np.abs(out.data.sum(axis=0)).max() < 1e-10

    def test_single_channel_rejected(self):
        with pytest.raises(InvalidInputError):
            common_average_reference(TimeSeriesTensor(np.ones((1, 10)), fs=64.0))

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        x = TimeSeriesTensor(rng.standard_normal((6, 50)), fs=64.0)
        once = common_average_reference(x)
        twice = common_average_reference(once)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-12)


class TestDesignBandpass:
    def test_stopbands_meet_80db(self):
        sos = band_sos(0.5, 32.0, 80.0, fs=8000.0)
        grid_lo = np.linspace(0.01, 0.25, 200)
        grid_hi = np.linspace(40.0, 3999.0, 2000)
        for grid in (grid_lo, grid_hi):
            _, h = signal.sosfreqz(sos, worN=grid, fs=8000.0)
            assert 20 * np.log10(np.abs(h)).max() <= -80.0 + 1e-6

    def test_passband_midpoint(self):
        sos = band_sos(0.5, 32.0, 80.0, fs=8000.0)
        _, h = signal.sosfreqz(sos, worN=np.array([4.0]), fs=8000.0)
        mag_db = 20 * np.log10(np.abs(h[0]))
        assert -3.0 <= mag_db <= 0.1

    def test_edges_outside_nyquist_rejected(self):
        with pytest.raises(InvalidSpecError):  # stopband edge 37.5 Hz above Nyquist
            band_sos(0.5, 30.0, 80.0, fs=64.0)
        with pytest.raises(InvalidSpecError):
            band_sos(-1.0, 32.0, 80.0, fs=8000.0)
        with pytest.raises(InvalidSpecError):
            band_sos(0.5, 32.0, 0.0, fs=8000.0)

    def test_band_filter_falls_back_to_highpass_at_nyquist(self):
        sos = band_sos(0.5, 32.0, 80.0, fs=64.0)
        order, wn = signal.cheb2ord(0.5, 0.25, gpass=0.1, gstop=80.0, fs=64.0)
        np.testing.assert_array_equal(
            sos, signal.cheby2(order, 80.0, wn, btype="highpass", output="sos", fs=64.0)
        )
        _, h = signal.sosfreqz(sos, worN=np.array([0.1, 4.0]), fs=64.0)
        mags = 20 * np.log10(np.abs(h))
        assert mags[0] <= -80.0
        assert mags[1] >= -1.0


class TestApplyFilter:
    """The chain's filter step with the paper's 0.5-32 Hz band, designed at 8 kHz."""

    def test_zero_signal(self):
        x = TimeSeriesTensor(np.zeros((2, 8000)), fs=8000.0)
        out = band_filter(x, PreprocConfig())
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_4hz_preserved(self):
        x = TimeSeriesTensor(sine(4.0, 8000.0, 20.0)[None, :], fs=8000.0)
        out = band_filter(x, PreprocConfig())
        mid = out.data[0, 5 * 8000 : 15 * 8000]
        amp = fitted_amplitude(mid, 4.0, 8000.0)
        assert abs(amp - 1.0) < 0.05

    def test_60hz_attenuated_60db(self):
        x = TimeSeriesTensor(sine(60.0, 8000.0, 20.0)[None, :], fs=8000.0)
        out = band_filter(x, PreprocConfig())
        mid = out.data[0, 5 * 8000 : 15 * 8000]
        amp = fitted_amplitude(mid, 60.0, 8000.0)
        assert 20 * np.log10(max(amp, 1e-300)) <= -60.0

    def test_length_preserved(self):
        x = TimeSeriesTensor(np.random.default_rng(0).standard_normal((3, 12345)), fs=8000.0)
        assert band_filter(x, PreprocConfig()).n_samples == 12345

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = TimeSeriesTensor(rng.standard_normal((2, 4000)), fs=8000.0)
        y = TimeSeriesTensor(rng.standard_normal((2, 4000)), fs=8000.0)
        a, b = 2.5, -1.25
        cfg = PreprocConfig()
        combined = band_filter(x.with_data(a * x.data + b * y.data), cfg)
        separate = a * band_filter(x, cfg).data + b * band_filter(y, cfg).data
        scale = np.abs(separate).max()
        np.testing.assert_allclose(combined.data, separate, atol=1e-9 * scale)


class TestResample:
    def test_10hz_tone_survives_8000_to_64(self):
        x = TimeSeriesTensor(sine(10.0, 8000.0, 20.0)[None, :], fs=8000.0)
        out = resample(x)
        assert out.n_samples == round(20.0 * 64)
        spectrum = np.abs(np.fft.rfft(out.data[0]))
        freqs = np.fft.rfftfreq(out.n_samples, 1 / 64.0)
        assert abs(freqs[spectrum.argmax()] - 10.0) < 0.1
        amp = fitted_amplitude(out.data[0, 5 * 64 : 15 * 64], 10.0, 64.0)
        assert abs(amp - 1.0) < 0.05

    def test_40hz_above_new_nyquist_suppressed(self):
        x = TimeSeriesTensor(sine(40.0, 8000.0, 20.0)[None, :], fs=8000.0)
        out = resample(x)
        rms_in = np.sqrt(np.mean(x.data**2))
        rms_out = np.sqrt(np.mean(out.data[0, 5 * 64 : 15 * 64] ** 2))
        assert rms_out < 0.05 * rms_in

    def test_output_length_rounds(self):
        x = TimeSeriesTensor(np.zeros((1, 1001)), fs=100.0)
        assert resample(x).n_samples == round(1001 * 64 / 100)

    def test_click_near_the_end_of_a_44100_hz_stream_lands_on_its_frame(self):
        """44.1 kHz goes to 128 Hz at the exact ratio 32/11025, so a click 1 s
        before the end of 240 s peaks on its own 64 Hz frame. The ratio
        rounded to 2/689 ran the band at 128.01 Hz, and the click landed
        more than a frame late."""
        fs, frame = 44100.0, 15296  # 239 s, on a whole sample: 15296 x 44100 / 64
        x = np.zeros((1, int(240 * fs)))
        x[0, frame * 44100 // 64] = 1.0
        out = to_frame_rate(TimeSeriesTensor(x, fs), PreprocConfig()).data[0]
        assert np.abs(out).argmax() == frame

    def test_rate_without_a_practical_exact_ratio_is_refused(self):
        """1000/3 Hz as a float is 128 Hz's ratio only over a 52-bit denominator."""
        x = TimeSeriesTensor(np.zeros((1, 4000)), 1000.0 / 3.0)
        with pytest.raises(InvalidInputError, match="^no polyphase FIR converts 333.333 Hz to 128 Hz"):
            to_frame_rate(x, PreprocConfig())


class TestNormalizeRecording:
    def test_three_point_channel(self):
        out = normalize_recording(TimeSeriesTensor(np.array([[1.0, 2.0, 3.0]]), fs=64.0))
        assert abs(out.data.mean()) < 1e-12
        assert abs(out.data.var() - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        x = TimeSeriesTensor(rng.standard_normal((4, 256)), fs=64.0)
        once = normalize_recording(x)
        twice = normalize_recording(once)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-8)

    def test_moments_on_large_input(self):
        rng = np.random.default_rng(8)
        x = TimeSeriesTensor(3.0 + 2.5 * rng.standard_normal((64, 10000)), fs=64.0)
        out = normalize_recording(x)
        assert np.abs(out.data.mean(axis=1)).max() < 1e-10
        assert np.abs(out.data.var(axis=1) - 1.0).max() < 1e-8

    def test_constant_channel_rejected(self):
        data = np.random.default_rng(9).standard_normal((3, 50))
        data[1] = 4.2
        with pytest.raises(DegenerateChannelError):
            normalize_recording(TimeSeriesTensor(data, fs=64.0))


class TestFullChain:
    def test_deterministic(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((8, 4 * 512))
        x = TimeSeriesTensor(data, fs=512.0)
        a = preprocess_eeg(x, PreprocConfig())
        b = preprocess_eeg(TimeSeriesTensor(data.copy(), fs=512.0), PreprocConfig())
        np.testing.assert_array_equal(a.data, b.data)
        assert a.fs == 64.0

    def test_highpass_rejects_bad_edge(self):
        with pytest.raises(InvalidSpecError):
            band_sos(40.0, 80.0, 80.0, fs=64.0)

    @pytest.mark.parametrize("fs,n,shortest", [
        (8192.0, 1001, 5185), (8192.0, 5184, 5185), (512.0, 324, 325), (64.0, 30, 31),
    ])
    def test_stream_too_short_for_the_band_is_refused_by_name(self, fs, n, shortest):
        """The band runs forward and backward on its stream padded by 81
        samples at 128 Hz, 30 at 64 Hz, at each end, and needs a longer
        stream: 81 x 64 + 1 samples at 8192 Hz. A shorter one is refused
        with its length, its rate and that shortest length, not by scipy."""
        rng = np.random.default_rng(12)
        with pytest.raises(InvalidInputError,
                           match=rf"^stream of {n} samples at {fs:g} Hz .* {shortest} samples$"):
            preprocess_eeg(TimeSeriesTensor(rng.standard_normal((2, n)), fs))
        out = to_frame_rate(TimeSeriesTensor(rng.standard_normal((2, shortest)), fs), PreprocConfig())
        assert out.n_samples == frame_count(shortest, fs)

    @pytest.mark.parametrize("fs,expected", [
        # the bandpass path, decimated to 128 Hz first
        (512.0, [[0.06590535350452828, 1.9856583521862252, -0.23235964658507627],
                 [0.9574198098807996, -2.3515534813828554, -1.3329817434890496],
                 [0.046042007069627265, -1.325540040459588, -1.542491974961375]]),
        # the highpass path: the upper edge sits at Nyquist
        (64.0, [[-0.3322973911468069, -1.2731626064310895, -0.06981409684054696],
                [-0.0819718018779177, -0.3598369716191012, -0.2523457123843646],
                [0.09488553663489839, 0.005564838287468239, -0.8501071701262587]]),
    ])
    def test_pinned_output(self, fs, expected):
        """The chain's output is pinned, on 20 s of 8-channel white noise.

        The input is drawn from ``default_rng(10)``, first a 512 Hz and then a
        64 Hz recording; the samples are every third channel, frames
        200-202, of ``preprocess_eeg`` with the default config. The 64 Hz
        samples were produced when the band was designed through
        ``BandpassSpec`` and ``design_band_filter``. The 512 Hz samples were
        taken again when the chain began to decimate to 128 Hz before the
        band filter: the frames sit 3 s from the start, where the two chains'
        edge transients differ (see :class:`TestMultirateChain`).
        """
        rng = np.random.default_rng(10)
        x512 = rng.standard_normal((8, 20 * 512))
        x64 = rng.standard_normal((8, 20 * 64))
        x = TimeSeriesTensor(x512 if fs == 512.0 else x64, fs=fs)
        out = preprocess_eeg(x)
        np.testing.assert_allclose(out.data[::3, 200:203], expected, rtol=1e-12, atol=0)


class TestStreamedChain:
    """The chain, a block of channels at a time, has the bits of the whole-array chain."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fs", [512.0, 64.0], ids=["bandpass", "highpass"])
    @pytest.mark.parametrize("channels", [2 * CHANNEL_BLOCK + 3, CHANNEL_BLOCK - 1],
                             ids=["blocks-and-a-part", "under-one-block"])
    def test_bit_identical_to_whole_array(self, tmp_path, dtype, fs, channels):
        rng = np.random.default_rng(channels)
        data = (40.0 * rng.standard_normal((channels, int(13.3 * fs)))).astype(dtype)
        x = TimeSeriesTensor(data, fs)
        expected = preprocess_eeg_whole(x)
        write_timeseries(tmp_path / "eeg.ndmm", x)
        for source in (x, TimeSeriesFile.open(tmp_path / "eeg.ndmm")):
            out = preprocess_eeg(source)
            assert out.fs == expected.fs == 64.0
            assert out.data.dtype == expected.data.dtype
            assert np.array_equal(out.data, expected.data)

    def test_non_finite_sample_in_the_file_is_refused(self, tmp_path):
        data = np.random.default_rng(1).standard_normal((6, 640))
        write_timeseries(tmp_path / "eeg.ndmm", TimeSeriesTensor(data, 64.0))
        raw = bytearray((tmp_path / "eeg.ndmm").read_bytes())
        raw[-8 * 100 : -8 * 99] = struct.pack("<d", np.nan)  # a sample of the last channel
        (tmp_path / "eeg.ndmm").write_bytes(bytes(raw))
        with pytest.raises(InvalidInputError, match="eeg.ndmm: channels 5-5 hold non-finite"):
            preprocess_eeg(TimeSeriesFile.open(tmp_path / "eeg.ndmm"))

    def test_memory_of_a_recording_at_8192_hz(self, tmp_path):
        """60 s x 64 channels at 8192 Hz, float32, preprocessed from its file.

        Bound, fixed before measuring: the traced peak stays under 8 blocks
        of ``CHANNEL_BLOCK`` float64 channels at 8192 Hz (126 MB) plus 4 times
        the float64 64 Hz output (8 MB). A block is filtered with about three
        copies alive (the padded input, the forward and the backward pass) and
        may be copied once more to be resampled; the normalization holds the
        output and two copies. Nothing grows with the channel count but the
        output. Reading the file whole and running the whole-array chain on
        it peaked at 881 MB on the same input, 7 times the 126 MB payload;
        the streamed chain peaked at 51-67 MB, and at 28 MB once it
        decimated each block to 128 Hz before the band filter.
        """
        channels, fs, seconds = 64, 8192.0, 60
        n = int(fs * seconds)
        path = tmp_path / "eeg.ndmm"
        rng = np.random.default_rng(0)
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<III2Qd", FORMAT_VERSION, 1, 2, channels, n, fs))
            for _ in range(0, channels, CHANNEL_BLOCK):
                (40.0 * rng.standard_normal((CHANNEL_BLOCK, n))).astype("<f4").tofile(fh)
        n_out = frame_count(n, fs)
        bound = 8 * CHANNEL_BLOCK * n * 8 + 4 * channels * n_out * 8
        start = time.process_time()
        tracemalloc.start()
        try:
            out = preprocess_eeg(TimeSeriesFile.open(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.data.shape == (channels, n_out)
        assert peak < bound, f"peak {peak / 1e6:.0f} MB, bound {bound / 1e6:.0f} MB"
        print(f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB, "
              f"{time.process_time() - start:.1f} s CPU")


def synthetic_eeg(fs, seconds, seed, channels=6):
    """Synthetic EEG at ``fs``: the forward model's 64 Hz response to a random
    envelope at 0 dB SNR, upsampled, with a white sensor floor at ``fs`` of a
    tenth of its RMS."""
    rng = np.random.default_rng(seed)
    drive = TimeSeriesTensor(np.abs(rng.standard_normal((1, int(seconds * FRAME_RATE)))),
                             FRAME_RATE)
    eeg = generate_eeg(drive, ForwardModelConfig(rng_seed=seed, n_channels=channels, snr_db=0.0))
    ratio = Fraction(fs) / Fraction(FRAME_RATE)
    data = signal.resample_poly(eeg.data, ratio.numerator, ratio.denominator, axis=1)
    return data + 0.1 * data.std() * rng.standard_normal(data.shape)


def faded(data, fs):
    """``data`` faded in over its first second and out over its last, by raised cosines."""
    n = int(fs)
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(n) / n)
    out = data.copy()
    out[..., :n] *= ramp
    out[..., -n:] *= ramp[::-1]
    return out


def compare_chains(new, old, faded_new, faded_old):
    """The interior passband difference of the faded input, asserted under the bound.

    The whole-band interior correlation and the differences at the edges and
    in the transition bands, on the input as it was, are printed, not bounded.
    """
    interior = slice(EDGE_FRAMES, -EDGE_FRAMES)
    passband = relative_rms(band_content(faded_new[:, interior], *PASSBAND_HZ),
                            band_content(faded_old[:, interior], *PASSBAND_HZ))
    as_drawn = relative_rms(band_content(new[:, interior], *PASSBAND_HZ),
                            band_content(old[:, interior], *PASSBAND_HZ))
    edges = np.r_[0:EDGE_FRAMES, new.shape[1] - EDGE_FRAMES : new.shape[1]]
    edge = relative_rms(new[:, edges], old[:, edges])
    transition = relative_rms(band_content(new, 0.25, 0.5), band_content(old, 0.25, 0.5))
    corr = min(np.corrcoef(a, b)[0, 1] for a, b in zip(new[:, interior], old[:, interior]))
    print(f"passband interior {passband.max():.4f} (as drawn {as_drawn.max():.4f}), "
          f"edges {edge.max():.3f}, 0.25-0.5 Hz {transition.max():.3f}, "
          f"interior correlation {corr:.5f}")
    assert passband.max() <= FIDELITY_BOUND, passband


class TestMultirateChain:
    """The multirate chain against the single-rate chain it replaced.

    Bound, fixed before measuring: per channel, over frames at least 4 s
    from either end, the 0.75-28 Hz content of the two outputs differs by at
    most 2.5 % in RMS. Both chains meet one spec: the band passes 0.5-32 Hz
    within ``GPASS_DB`` (0.1 dB), run twice (forward and backward), which
    allows about 2.3 % in amplitude; the decimator's 80 dB design adds a
    ripple of about 1e-4. The transition bands (0.25-0.5 Hz, 32-40 Hz) and
    the edges are free under that spec: ``sosfiltfilt`` pads a fixed number
    of samples, which spans a different time at each rate. The edges and
    the lower transition band are printed, not bounded; the upper one lies
    above the 64 Hz output's Nyquist.

    The input is faded in and out over 1 s for the bound. Today's chain,
    run at 8192 Hz, starts its band filter from a full-band sample, about
    ten times the RMS of the band, and rings for longer than 4 s: on white
    noise as drawn its interior differs from its own steady state by about
    3 %, against 0.5 % for the multirate chain, and their steady states
    differ by 0.1 %. The difference on the input as drawn is printed.
    """

    cfg = PreprocConfig()

    @pytest.mark.parametrize("fs", [500.0, 512.0, 8192.0])
    @pytest.mark.parametrize("kind", ["white", "synthetic"])
    def test_eeg_passband_within_the_ripple_budget(self, kind, fs):
        seconds = 30
        if kind == "white":
            data = np.random.default_rng(int(fs)).standard_normal((6, int(seconds * fs)))
        else:
            data = synthetic_eeg(fs, seconds, seed=int(fs))
        outputs = []
        for d in (data, faded(data, fs)):
            x = TimeSeriesTensor(d, fs)
            reference = channel_mean(x)
            outputs += [to_frame_rate(x, self.cfg, reference).data,
                        single_rate_chain(d - reference, fs, self.cfg)]
        compare_chains(*outputs)

    def test_envelope_passband_within_the_ripple_budget(self):
        envelope = raw_envelope(generate_story(30.0, seed=5).audio)
        outputs = []
        for d in (envelope.data, faded(envelope.data, envelope.fs)):
            outputs += [to_frame_rate(envelope.with_data(d), self.cfg).data,
                        single_rate_chain(d, envelope.fs, self.cfg)]
        compare_chains(*outputs)

    @pytest.mark.parametrize("fs", [64.0, 100.0])
    def test_streams_at_or_below_the_band_rate_keep_the_single_rate_chain(self, fs):
        x = TimeSeriesTensor(np.random.default_rng(3).standard_normal((5, int(21.3 * fs))), fs)
        reference = channel_mean(x)
        assert np.array_equal(to_frame_rate(x, self.cfg, reference).data,
                              single_rate_chain(x.data - reference, fs, self.cfg))

    @pytest.mark.parametrize("fs", [100.0, 500.0, 512.0, 8192.0, 16000.0])
    def test_output_has_the_frame_count_for_odd_sample_counts(self, fs):
        for n in (int(7.3 * fs) | 1, int(11 * fs) + 1, int(3.01 * fs) | 1):
            x = TimeSeriesTensor(np.random.default_rng(n).standard_normal((2, n)), fs)
            assert to_frame_rate(x, self.cfg).n_samples == frame_count(n, fs), n

    def test_band_rate_is_the_lowest_power_of_two_frame_rate_holding_the_stop_edge(self):
        assert band_rate(PreprocConfig()) == 128.0  # Nyquist 64 Hz above the 40 Hz stop edge
        assert band_rate(PreprocConfig(high_hz=20.0)) == 64.0  # 25 Hz below 32 Hz
        assert band_rate(PreprocConfig(high_hz=51.2)) == 256.0  # 64 Hz is not above 64 Hz
        with pytest.raises(InvalidSpecError):  # no rate holds an infinite band
            PreprocConfig(high_hz=np.inf)

    @pytest.mark.parametrize("freq", [45.0, 70.0, 100.0, 1000.0])
    def test_tones_above_the_band_do_not_alias_into_it(self, freq):
        """A tone in the band's stopband (45 Hz), the decimator's transition band
        (70 Hz, which folds to 58 Hz at 128 Hz) or its stopband (100 and 1000 Hz,
        which would fold to 28 and 24 Hz) leaves no tone at the frequency it folds
        to at 64 Hz."""
        fs = 8192.0

        def fold(f, rate):
            f %= rate
            return min(f, rate - f)

        x = TimeSeriesTensor(sine(freq, fs, 20.0)[None, :], fs)
        out = to_frame_rate(x, self.cfg).data[0, 5 * 64 : 15 * 64]
        amp = fitted_amplitude(out, fold(fold(freq, band_rate(self.cfg)), FRAME_RATE), FRAME_RATE)
        assert 20 * np.log10(max(amp, 1e-300)) <= -60.0

    def test_passband_tone_survives_decimation(self):
        x = TimeSeriesTensor(sine(4.0, 8192.0, 20.0)[None, :], 8192.0)
        out = to_frame_rate(x, self.cfg).data[0]
        assert abs(fitted_amplitude(out[5 * 64 : 15 * 64], 4.0, 64.0) - 1.0) < 0.05
