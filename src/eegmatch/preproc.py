"""Deterministic EEG / feature-stream conditioning.

Referencing, Chebyshev-II band-limiting, anti-aliased rate conversion and
per-recording normalization. All operations are pure functions over
immutable inputs.

The EEG chain streams over channels, so its memory does not grow with the
channel count: a first pass sums the channels one at a time for the common
average; a second references, band-filters and resamples a few channels at
a time into the 64 Hz output, which is then normalized whole. Its input is a
:class:`~eegmatch.tensors.TimeSeriesTensor` in memory or a
:class:`~eegmatch.tensors.TimeSeriesFile` read a block at a time, and the
output has the same bits as the whole-array chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import signal

from .errors import DegenerateChannelError, InvalidInputError, InvalidSpecError
from .tensors import FRAME_RATE, TimeSeriesFile, TimeSeriesTensor

# Passband ripple budget for the minimum-order Chebyshev-II design. Kept small
# so the zero-phase (squared-magnitude) response still preserves passband
# sines within 5 %.
GPASS_DB = 0.1

# Stopband edges relative to the passband edges (design decision: 0.5x low,
# 1.25x high).
STOP_LOW_FACTOR = 0.5
STOP_HIGH_FACTOR = 1.25

# Channels that the EEG chain references, filters and resamples at once. Its
# peak memory is a few such blocks at the recording's rate, whatever the
# channel count; blocks of 4 run as fast as the whole array.
CHANNEL_BLOCK = 4


def _check_band(low_hz: float, high_hz: float, stop_atten_db: float) -> None:
    if not 0.0 < low_hz < high_hz:
        raise InvalidSpecError(f"need 0 < low < high, got ({low_hz}, {high_hz})")
    if stop_atten_db <= 0:
        raise InvalidSpecError("stopband attenuation must be positive")


@dataclass(frozen=True)
class PreprocConfig:
    """Filter edges and attenuation for the EEG chain, which ends at :data:`FRAME_RATE`.

    The edges are checked against Nyquist when the band is designed for a
    stream's rate (:func:`band_sos`).
    """

    low_hz: float = 0.5
    high_hz: float = 32.0
    stop_atten_db: float = 80.0

    def __post_init__(self) -> None:
        _check_band(self.low_hz, self.high_hz, self.stop_atten_db)


def channel_mean(x: TimeSeriesTensor | TimeSeriesFile) -> np.ndarray:
    """The common average reference: the instantaneous mean over channels.

    The channels are read one at a time, summed in order in their own dtype
    and the sum divided by their count: the same bits as ``x.data.mean(axis=0)``, which reduces
    over its outer axis row by row.
    """
    if x.n_channels < 2:
        raise InvalidInputError(
            f"common-average reference needs >= 2 channels, got {x.n_channels}"
        )
    total = x.rows(0, 1)[0].copy()
    for c in range(1, x.n_channels):
        total += x.rows(c, c + 1)[0]
    total /= x.n_channels
    return total


def band_sos(low_hz: float, high_hz: float, stop_atten_db: float, fs: float) -> np.ndarray:
    """Chebyshev type-II second-order sections passing ``low_hz``-``high_hz`` at ``fs``.

    Stopband edges sit at 0.5x the low passband edge and 1.25x the high edge;
    the order is the minimum meeting ``stop_atten_db`` there. When the upper
    edge is at or above Nyquist the band degenerates to a highpass at
    ``low_hz``: streams already sampled at 64 Hz have no content above 32 Hz,
    so the 0.5-32 Hz band is a 0.5 Hz highpass there.
    """
    _check_band(low_hz, high_hz, stop_atten_db)
    nyquist = fs / 2.0
    if high_hz >= nyquist:
        if low_hz >= nyquist:
            raise InvalidSpecError(f"highpass edge {low_hz} Hz invalid for fs={fs}")
        wp, ws, btype = low_hz, low_hz * STOP_LOW_FACTOR, "highpass"
    else:
        wp = [low_hz, high_hz]
        ws = [low_hz * STOP_LOW_FACTOR, high_hz * STOP_HIGH_FACTOR]
        btype = "bandpass"
        if ws[1] >= nyquist:
            raise InvalidSpecError(f"stopband edge {ws[1]} Hz not below Nyquist {nyquist} Hz")
    order, wn = signal.cheb2ord(wp, ws, gpass=GPASS_DB, gstop=stop_atten_db, fs=fs)
    return signal.cheby2(order, stop_atten_db, wn, btype=btype, output="sos", fs=fs)


def band_filter(x: TimeSeriesTensor, cfg: PreprocConfig) -> TimeSeriesTensor:
    """Zero-phase (forward-backward) ``cfg`` band filter of every channel.

    The filter is designed at ``x.fs`` with :func:`band_sos`, so EEG at its
    recording rate and feature streams at 64 Hz take the same band.
    """
    sos = band_sos(cfg.low_hz, cfg.high_hz, cfg.stop_atten_db, x.fs)
    return x.with_data(signal.sosfiltfilt(sos, x.data, axis=1))


def _rational_ratio(fs_in: float, fs_out: float) -> tuple[int, int]:
    ratio = (Fraction(fs_out) / Fraction(fs_in)).limit_denominator(1000)
    return ratio.numerator, ratio.denominator


def resampled_length(n_samples: int, fs_in: float, fs_out: float) -> int:
    """Length of ``n_samples`` at ``fs_in`` after :func:`resample` to ``fs_out``."""
    return int(round(n_samples * fs_out / fs_in))


def _anti_alias_fir(fs_in: float, fs_out: float) -> tuple[int, int, np.ndarray]:
    """(up, down, lowpass FIR) of the polyphase conversion from ``fs_in`` to ``fs_out``."""
    up, down = _rational_ratio(fs_in, fs_out)
    fs_up = fs_in * up
    cutoff = min(fs_in, fs_out) / 2.0
    transition = 0.25 * cutoff
    numtaps, beta = signal.kaiserord(80.0, transition / (fs_up / 2.0))
    numtaps |= 1
    return up, down, signal.firwin(numtaps, cutoff, window=("kaiser", beta), fs=fs_up)


def _resample_rows(data: np.ndarray, design: tuple[int, int, np.ndarray],
                   n_target: int) -> np.ndarray:
    up, down, fir = design
    out = signal.resample_poly(data, up, down, axis=1, window=fir)
    if out.shape[1] > n_target:
        out = out[:, :n_target]
    elif out.shape[1] < n_target:
        out = np.pad(out, ((0, 0), (0, n_target - out.shape[1])))
    return out


def resample(x: TimeSeriesTensor, fs_out: float) -> TimeSeriesTensor:
    """Polyphase resampling with a Kaiser-windowed anti-aliasing lowpass.

    The lowpass cuts at min(fs_in, fs_out)/2 with an 80 dB design; output
    length is round(T * fs_out / fs_in). Identity when the rates agree.
    """
    if not fs_out > 0:
        raise InvalidSpecError(f"target rate must be positive, got {fs_out}")
    if fs_out == x.fs:
        return x.with_data(x.data.copy())
    out = _resample_rows(x.data, _anti_alias_fir(x.fs, fs_out),
                         resampled_length(x.n_samples, x.fs, fs_out))
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


def preprocess_eeg(
    x: TimeSeriesTensor | TimeSeriesFile, cfg: PreprocConfig = PreprocConfig()
) -> TimeSeriesTensor:
    """Full EEG chain: reference -> band filter -> resample -> normalize.

    :data:`CHANNEL_BLOCK` channels at a time are referenced to the
    :func:`channel_mean`, band-filtered and resampled into the 64 Hz output;
    the filter and the resampling FIR are designed once per recording.
    """
    mean = channel_mean(x)
    sos = band_sos(cfg.low_hz, cfg.high_hz, cfg.stop_atten_db, x.fs)
    design = None if x.fs == FRAME_RATE else _anti_alias_fir(x.fs, FRAME_RATE)
    n_out = resampled_length(x.n_samples, x.fs, FRAME_RATE)
    out = np.empty((x.n_channels, n_out))
    for lo in range(0, x.n_channels, CHANNEL_BLOCK):
        hi = min(lo + CHANNEL_BLOCK, x.n_channels)
        block = signal.sosfiltfilt(sos, x.rows(lo, hi) - mean, axis=1)
        out[lo:hi] = block if design is None else _resample_rows(block, design, n_out)
    return normalize_recording(TimeSeriesTensor(out, FRAME_RATE))

