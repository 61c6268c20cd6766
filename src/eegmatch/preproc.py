"""Deterministic EEG / feature-stream conditioning.

Referencing, Chebyshev-II band-limiting, anti-aliased rate conversion and
per-recording normalization. All operations are pure functions over
immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import signal

from .errors import (
    DegenerateChannelError,
    InvalidInputError,
    InvalidSpecError,
    SampleRateMismatchError,
)
from .tensors import TimeSeriesTensor

# Passband ripple budget for the minimum-order Chebyshev-II design. Kept small
# so the zero-phase (squared-magnitude) response still preserves passband
# sines within 5 %.
GPASS_DB = 0.1

# Stopband edges relative to the passband edges (design decision: 0.5x low,
# 1.25x high).
STOP_LOW_FACTOR = 0.5
STOP_HIGH_FACTOR = 1.25


@dataclass(frozen=True)
class BandpassSpec:
    """Passband edges plus stopband attenuation for the EEG band filter."""

    low_hz: float
    high_hz: float
    stop_atten_db: float = 80.0
    order: int | None = None  # None selects the minimum order meeting the spec

    def validate(self, fs: float) -> None:
        if not (0.0 < self.low_hz < self.high_hz):
            raise InvalidSpecError(
                f"need 0 < low < high, got ({self.low_hz}, {self.high_hz})"
            )
        if self.high_hz >= fs / 2.0:
            raise InvalidSpecError(
                f"high edge {self.high_hz} Hz not below Nyquist {fs / 2.0} Hz"
            )
        if self.stop_atten_db <= 0:
            raise InvalidSpecError("stopband attenuation must be positive")


@dataclass(frozen=True)
class FilterCoefficients:
    """Second-order sections realizing a designed filter at a given rate."""

    sos: np.ndarray
    fs: float
    kind: str = "bandpass"


def common_average_reference(x: TimeSeriesTensor) -> TimeSeriesTensor:
    """Re-express every channel relative to the instantaneous channel mean."""
    if x.n_channels < 2:
        raise InvalidInputError(
            f"common-average reference needs >= 2 channels, got {x.n_channels}"
        )
    return x.with_data(x.data - x.data.mean(axis=0, keepdims=True))


def design_bandpass(spec: BandpassSpec, fs: float) -> FilterCoefficients:
    """Design a Chebyshev type-II bandpass for sampling rate ``fs``.

    Stopband edges sit at 0.5x the low passband edge and 1.25x the high edge;
    the order is the minimum meeting ``stop_atten_db`` there unless the spec
    pins one explicitly.
    """
    spec.validate(fs)
    wp = [spec.low_hz, spec.high_hz]
    ws = [spec.low_hz * STOP_LOW_FACTOR, spec.high_hz * STOP_HIGH_FACTOR]
    if ws[1] >= fs / 2.0:
        raise InvalidSpecError(
            f"stopband edge {ws[1]} Hz not below Nyquist {fs / 2.0} Hz"
        )
    if spec.order is None:
        order, wn = signal.cheb2ord(wp, ws, gpass=GPASS_DB, gstop=spec.stop_atten_db, fs=fs)
    else:
        order, wn = spec.order, ws
    sos = signal.cheby2(order, spec.stop_atten_db, wn, btype="bandpass", output="sos", fs=fs)
    return FilterCoefficients(sos=sos, fs=fs, kind="bandpass")


def design_highpass(low_hz: float, stop_atten_db: float, fs: float) -> FilterCoefficients:
    """Chebyshev-II highpass used when the band's upper edge sits at Nyquist.

    Streams already sampled at 64 Hz have no content above 32 Hz, so the
    0.5-32 Hz band degenerates to a 0.5 Hz highpass there.
    """
    if not 0.0 < low_hz < fs / 2.0:
        raise InvalidSpecError(f"highpass edge {low_hz} Hz invalid for fs={fs}")
    order, wn = signal.cheb2ord(
        low_hz, low_hz * STOP_LOW_FACTOR, gpass=GPASS_DB, gstop=stop_atten_db, fs=fs
    )
    sos = signal.cheby2(order, stop_atten_db, wn, btype="highpass", output="sos", fs=fs)
    return FilterCoefficients(sos=sos, fs=fs, kind="highpass")


def design_band_filter(spec: BandpassSpec, fs: float) -> FilterCoefficients:
    """Bandpass when both edges fit below Nyquist, else the highpass fallback."""
    if spec.high_hz >= fs / 2.0:
        return design_highpass(spec.low_hz, spec.stop_atten_db, fs)
    return design_bandpass(spec, fs)


def apply_filter(x: TimeSeriesTensor, coeffs: FilterCoefficients) -> TimeSeriesTensor:
    """Zero-phase (forward-backward) filtering of every channel."""
    if coeffs.fs != x.fs:
        raise SampleRateMismatchError(
            f"filter designed for {coeffs.fs} Hz applied to {x.fs} Hz data"
        )
    return x.with_data(signal.sosfiltfilt(coeffs.sos, x.data, axis=1))


def _rational_ratio(fs_in: float, fs_out: float, max_den: int = 1000) -> tuple[int, int]:
    ratio = Fraction(fs_out) / Fraction(fs_in)
    ratio = ratio.limit_denominator(max_den)
    return ratio.numerator, ratio.denominator


def resample(x: TimeSeriesTensor, fs_out: float) -> TimeSeriesTensor:
    """Polyphase resampling with a Kaiser-windowed anti-aliasing lowpass.

    The lowpass cuts at min(fs_in, fs_out)/2 with an 80 dB design; output
    length is round(T * fs_out / fs_in). Identity when the rates agree.
    """
    if not fs_out > 0:
        raise InvalidSpecError(f"target rate must be positive, got {fs_out}")
    if fs_out == x.fs:
        return x.with_data(x.data.copy())
    up, down = _rational_ratio(x.fs, fs_out)
    fs_up = x.fs * up
    cutoff = min(x.fs, fs_out) / 2.0
    transition = 0.25 * cutoff
    numtaps, beta = signal.kaiserord(80.0, transition / (fs_up / 2.0))
    numtaps |= 1
    fir = signal.firwin(numtaps, cutoff, window=("kaiser", beta), fs=fs_up)
    out = signal.resample_poly(x.data, up, down, axis=1, window=fir)
    n_target = int(round(x.n_samples * fs_out / x.fs))
    if out.shape[1] > n_target:
        out = out[:, :n_target]
    elif out.shape[1] < n_target:
        out = np.pad(out, ((0, 0), (0, n_target - out.shape[1])))
    return x.with_data(out, fs=fs_out)


def normalize_recording(x: TimeSeriesTensor) -> TimeSeriesTensor:
    """Per-channel mean-variance normalization over the full recording."""
    spread = x.data.max(axis=1) - x.data.min(axis=1)
    bad = np.nonzero(spread == 0.0)[0]
    if bad.size:
        raise DegenerateChannelError(
            f"constant channel(s) {bad.tolist()} cannot be variance-normalized"
        )
    mean = x.data.mean(axis=1, keepdims=True)
    std = x.data.std(axis=1, keepdims=True)
    return x.with_data((x.data - mean) / std)


@dataclass(frozen=True)
class PreprocConfig:
    """Filter edges, attenuation and target rate for the EEG chain."""

    low_hz: float = 0.5
    high_hz: float = 32.0
    stop_atten_db: float = 80.0
    target_fs: float = 64.0

    @property
    def band(self) -> BandpassSpec:
        return BandpassSpec(self.low_hz, self.high_hz, self.stop_atten_db)


def preprocess_eeg(x: TimeSeriesTensor, cfg: PreprocConfig = PreprocConfig()) -> TimeSeriesTensor:
    """Full EEG chain: reference -> band filter -> resample -> normalize."""
    y = common_average_reference(x)
    y = apply_filter(y, design_band_filter(cfg.band, y.fs))
    y = resample(y, cfg.target_fs)
    return normalize_recording(y)


def band_filter_stream(
    x: TimeSeriesTensor, low_hz: float = 0.5, high_hz: float = 32.0, stop_atten_db: float = 80.0
) -> TimeSeriesTensor:
    """Band-limit a feature stream with the same filter family as the EEG."""
    spec = BandpassSpec(low_hz, high_hz, stop_atten_db)
    return apply_filter(x, design_band_filter(spec, x.fs))
