import numpy as np
import pytest
from scipy import signal

from eegmatch.errors import (
    DegenerateChannelError,
    InvalidInputError,
    InvalidSpecError,
    SampleRateMismatchError,
)
from eegmatch.preproc import (
    BandpassSpec,
    PreprocConfig,
    apply_filter,
    common_average_reference,
    design_band_filter,
    design_bandpass,
    design_highpass,
    normalize_recording,
    preprocess_eeg,
    resample,
)
from eegmatch.tensors import TimeSeriesTensor


def sine(freq, fs, seconds, phase=0.0):
    t = np.arange(int(fs * seconds)) / fs
    return np.sin(2 * np.pi * freq * t + phase)


def fitted_amplitude(x, freq, fs):
    """Least-squares sine fit; the oracle for pass/stop amplitude checks."""
    t = np.arange(x.size) / fs
    design = np.stack([np.sin(2 * np.pi * freq * t), np.cos(2 * np.pi * freq * t)], axis=1)
    coef, *_ = np.linalg.lstsq(design, x, rcond=None)
    return float(np.hypot(*coef))


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
        coeffs = design_bandpass(BandpassSpec(0.5, 32.0, 80.0), fs=8000.0)
        grid_lo = np.linspace(0.01, 0.25, 200)
        grid_hi = np.linspace(40.0, 3999.0, 2000)
        for grid in (grid_lo, grid_hi):
            _, h = signal.sosfreqz(coeffs.sos, worN=grid, fs=8000.0)
            assert 20 * np.log10(np.abs(h)).max() <= -80.0 + 1e-6

    def test_passband_midpoint(self):
        coeffs = design_bandpass(BandpassSpec(0.5, 32.0, 80.0), fs=8000.0)
        _, h = signal.sosfreqz(coeffs.sos, worN=np.array([4.0]), fs=8000.0)
        mag_db = 20 * np.log10(np.abs(h[0]))
        assert -3.0 <= mag_db <= 0.1

    def test_edges_outside_nyquist_rejected(self):
        with pytest.raises(InvalidSpecError):
            design_bandpass(BandpassSpec(0.5, 40.0, 80.0), fs=64.0)
        with pytest.raises(InvalidSpecError):
            design_bandpass(BandpassSpec(-1.0, 32.0, 80.0), fs=8000.0)

    def test_band_filter_falls_back_to_highpass_at_nyquist(self):
        coeffs = design_band_filter(BandpassSpec(0.5, 32.0, 80.0), fs=64.0)
        assert coeffs.kind == "highpass"
        _, h = signal.sosfreqz(coeffs.sos, worN=np.array([0.1, 4.0]), fs=64.0)
        mags = 20 * np.log10(np.abs(h))
        assert mags[0] <= -80.0
        assert mags[1] >= -1.0


@pytest.fixture(scope="module")
def coeffs():
    return design_bandpass(BandpassSpec(0.5, 32.0, 80.0), fs=8000.0)


class TestApplyFilter:

    def test_zero_signal(self, coeffs):
        x = TimeSeriesTensor(np.zeros((2, 8000)), fs=8000.0)
        out = apply_filter(x, coeffs)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_4hz_preserved(self, coeffs):
        x = TimeSeriesTensor(sine(4.0, 8000.0, 20.0)[None, :], fs=8000.0)
        out = apply_filter(x, coeffs)
        mid = out.data[0, 5 * 8000 : 15 * 8000]
        amp = fitted_amplitude(mid, 4.0, 8000.0)
        assert abs(amp - 1.0) < 0.05

    def test_60hz_attenuated_60db(self, coeffs):
        x = TimeSeriesTensor(sine(60.0, 8000.0, 20.0)[None, :], fs=8000.0)
        out = apply_filter(x, coeffs)
        mid = out.data[0, 5 * 8000 : 15 * 8000]
        amp = fitted_amplitude(mid, 60.0, 8000.0)
        assert 20 * np.log10(max(amp, 1e-300)) <= -60.0

    def test_rate_mismatch_rejected(self, coeffs):
        with pytest.raises(SampleRateMismatchError):
            apply_filter(TimeSeriesTensor(np.ones((1, 100)), fs=500.0), coeffs)

    def test_length_preserved(self, coeffs):
        x = TimeSeriesTensor(np.random.default_rng(0).standard_normal((3, 12345)), fs=8000.0)
        assert apply_filter(x, coeffs).n_samples == 12345

    def test_linearity(self, coeffs):
        rng = np.random.default_rng(5)
        x = TimeSeriesTensor(rng.standard_normal((2, 4000)), fs=8000.0)
        y = TimeSeriesTensor(rng.standard_normal((2, 4000)), fs=8000.0)
        a, b = 2.5, -1.25
        combined = apply_filter(x.with_data(a * x.data + b * y.data), coeffs)
        separate = a * apply_filter(x, coeffs).data + b * apply_filter(y, coeffs).data
        scale = np.abs(separate).max()
        np.testing.assert_allclose(combined.data, separate, atol=1e-9 * scale)


class TestResample:
    def test_10hz_tone_survives_8000_to_64(self):
        x = TimeSeriesTensor(sine(10.0, 8000.0, 20.0)[None, :], fs=8000.0)
        out = resample(x, 64.0)
        assert out.n_samples == round(20.0 * 64)
        spectrum = np.abs(np.fft.rfft(out.data[0]))
        freqs = np.fft.rfftfreq(out.n_samples, 1 / 64.0)
        assert abs(freqs[spectrum.argmax()] - 10.0) < 0.1
        amp = fitted_amplitude(out.data[0, 5 * 64 : 15 * 64], 10.0, 64.0)
        assert abs(amp - 1.0) < 0.05

    def test_40hz_above_new_nyquist_suppressed(self):
        x = TimeSeriesTensor(sine(40.0, 8000.0, 20.0)[None, :], fs=8000.0)
        out = resample(x, 64.0)
        rms_in = np.sqrt(np.mean(x.data**2))
        rms_out = np.sqrt(np.mean(out.data[0, 5 * 64 : 15 * 64] ** 2))
        assert rms_out < 0.05 * rms_in

    def test_identity_rate(self):
        x = TimeSeriesTensor(np.random.default_rng(1).standard_normal((2, 500)), fs=64.0)
        out = resample(x, 64.0)
        np.testing.assert_allclose(out.data, x.data, atol=1e-6)

    def test_output_length_rounds(self):
        x = TimeSeriesTensor(np.zeros((1, 1001)), fs=100.0)
        assert resample(x, 64.0).n_samples == round(1001 * 64 / 100)

    def test_roundtrip_never_amplifies(self):
        rng = np.random.default_rng(6)
        raw = rng.standard_normal(4 * 512)
        sos = signal.butter(8, 20.0, btype="low", output="sos", fs=512.0)
        band_limited = signal.sosfiltfilt(sos, raw)
        x = TimeSeriesTensor(band_limited[None, :], fs=512.0)
        down = resample(x, 64.0)
        back = resample(down, 512.0)
        energy_in = np.sum(x.data**2)
        energy_out = np.sum(back.data**2)
        assert energy_out <= energy_in * 1.01

    def test_bad_rate_rejected(self):
        x = TimeSeriesTensor(np.ones((1, 10)), fs=64.0)
        with pytest.raises(InvalidSpecError):
            resample(x, 0.0)


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
        a = preprocess_eeg(x, PreprocConfig(target_fs=64.0))
        b = preprocess_eeg(TimeSeriesTensor(data.copy(), fs=512.0), PreprocConfig(target_fs=64.0))
        np.testing.assert_array_equal(a.data, b.data)
        assert a.fs == 64.0

    def test_highpass_rejects_bad_edge(self):
        with pytest.raises(InvalidSpecError):
            design_highpass(40.0, 80.0, fs=64.0)
