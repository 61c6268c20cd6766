"""Deterministic conditioning of the EEG and the speech features.

One chain, :func:`to_frame_rate`, brings every stream to the 64 Hz frame
grid through one band, 0.5-32 Hz by default. The band is a zero-phase
Chebyshev-II filter run at the lowest rate of the form 64 Hz x 2^k that
holds its upper stop edge (:func:`band_rate`, 128 Hz by default): a faster
stream is first decimated to that rate by a polyphase FIR whose aliases fall
in the band's own stopband, and every stream is then resampled to 64 Hz by
an anti-aliased polyphase FIR (Crochiere & Rabiner 1983, *Multirate Digital
Signal Processing*). A stream at or below the band's rate is filtered at its
own rate. The EEG runs the chain on its common-average-referenced channels
and is then normalized per recording (:func:`preprocess_eeg`); the envelope
and the mel spectrogram run it on their raw streams
(:mod:`eegmatch.acoustic`). All operations are pure functions over
immutable inputs.

The chain streams over channels, so its memory does not grow with the
channel count: the common average sums the channels one at a time; the
chain references, decimates, band-filters and resamples a few channels at a
time into the 64 Hz output. Its input is a
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
from .tensors import FRAME_RATE, TimeSeriesFile, TimeSeriesTensor, frame_count

# Passband ripple budget for the minimum-order Chebyshev-II design. Kept small
# so the zero-phase (squared-magnitude) response still preserves passband
# sines within 5 %.
GPASS_DB = 0.1

# Stopband edges relative to the passband edges (design decision: 0.5x low,
# 1.25x high).
STOP_LOW_FACTOR = 0.5
STOP_HIGH_FACTOR = 1.25

# Version of the chain's arithmetic. Cache keys and trained cells record it,
# so outputs of an older chain miss once and a model refuses features made
# by a chain it was not trained on. Version 1 band-filtered at the stream's
# own rate; version 2 decimates a faster stream to :func:`band_rate` first.
CHAIN_VERSION = 2

# Taps of the longest polyphase FIR a rate conversion may design (8 MB of
# float64). 44.1 kHz to 128 Hz, whose exact ratio is 32/11025, needs about
# 147,000; a rate known only as an inexact float, such as 1000/3 Hz, would
# need billions.
MAX_FIR_TAPS = 1 << 20

# Channels that the chain references, filters and resamples at once. Its
# peak memory is a few such blocks at the stream's rate, whatever the
# channel count; blocks of 4 run as fast as the whole array.
CHANNEL_BLOCK = 4


def _check_band(low_hz: float, high_hz: float, stop_atten_db: float) -> None:
    if not 0.0 < low_hz < high_hz < np.inf:
        raise InvalidSpecError(f"need 0 < low < high < inf, got ({low_hz}, {high_hz})")
    if stop_atten_db <= 0:
        raise InvalidSpecError("stopband attenuation must be positive")


@dataclass(frozen=True)
class PreprocConfig:
    """Filter edges and attenuation of the band that the chain gives the EEG and the features.

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


def band_rate(cfg: PreprocConfig) -> float:
    """The rate at which the chain band-limits a faster stream.

    It is the smallest ``64 Hz x 2^k`` whose Nyquist lies above the band's
    upper stop edge, ``STOP_HIGH_FACTOR * cfg.high_hz``: 128 Hz for the
    default 0.5-32 Hz band.
    """
    rate = FRAME_RATE
    while rate / 2.0 <= STOP_HIGH_FACTOR * cfg.high_hz:
        rate *= 2.0
    return rate


# A polyphase conversion: (up, down, lowpass FIR at the rate ``fs * up``).
_Design = tuple[int, int, np.ndarray]


def _kaiser_lowpass(
    fs: float, fs_out: float, cutoff: float, transition: float, atten_db: float
) -> _Design:
    """(up, down, lowpass FIR) of the polyphase conversion from ``fs`` to ``fs_out``.

    ``up / down`` is the exact ratio of the two rates, so the output runs at
    ``fs_out`` itself. The Kaiser-windowed FIR is centred on ``cutoff`` with
    a transition band ``transition`` wide, passing below it and stopping
    above it at ``atten_db``; its passband ripple is of the same size. A
    ratio whose FIR would need more than :data:`MAX_FIR_TAPS` taps at
    ``fs * up`` is refused.
    """
    ratio = Fraction(fs_out) / Fraction(fs)
    up, down = ratio.numerator, ratio.denominator
    fs_up = fs * up
    numtaps, beta = signal.kaiserord(atten_db, transition / (fs_up / 2.0))
    if numtaps > MAX_FIR_TAPS:
        raise InvalidInputError(
            f"no polyphase FIR converts {fs:g} Hz to {fs_out:g} Hz: their exact ratio "
            f"{up}/{down} needs {numtaps} taps, more than {MAX_FIR_TAPS}"
        )
    numtaps |= 1
    return up, down, signal.firwin(numtaps, cutoff, window=("kaiser", beta), fs=fs_up)


def _stages(fs: float, cfg: PreprocConfig) -> tuple[_Design | None, np.ndarray, _Design | None]:
    """(decimator, band, resampler) that :func:`to_frame_rate` runs on a stream at ``fs``.

    Above :func:`band_rate` the decimator is the polyphase FIR to that rate,
    passing up to the band's upper stop edge and stopping from the band
    rate minus that edge at ``cfg.stop_atten_db``, so whatever aliases lands
    in the band's stopband; at or below it there is none. The band is
    :func:`band_sos` at the rate the decimator leaves. The resampler brings
    that rate to 64 Hz with a Kaiser FIR cutting at min(rate, 64)/2 with an
    80 dB design, and is None at 64 Hz.
    """
    mid = band_rate(cfg)
    decimator = None
    if fs > mid:
        edge = STOP_HIGH_FACTOR * cfg.high_hz
        decimator = _kaiser_lowpass(fs, mid, mid / 2.0, mid - 2.0 * edge, cfg.stop_atten_db)
        fs = mid
    sos = band_sos(cfg.low_hz, cfg.high_hz, cfg.stop_atten_db, fs)
    cutoff = min(fs, FRAME_RATE) / 2.0
    resampler = None if fs == FRAME_RATE else _kaiser_lowpass(
        fs, FRAME_RATE, cutoff, 0.25 * cutoff, 80.0
    )
    return decimator, sos, resampler


def _resample(block: np.ndarray, design: _Design | None) -> np.ndarray:
    """The rows of ``block`` through a polyphase ``design`` of :func:`_stages`; None passes them."""
    if design is None:
        return block
    up, down, fir = design
    return signal.resample_poly(block, up, down, axis=1, window=fir)


def to_frame_rate(
    x: TimeSeriesTensor | TimeSeriesFile,
    cfg: PreprocConfig,
    reference: np.ndarray | None = None,
) -> TimeSeriesTensor:
    """``x`` band-limited to the ``cfg`` band and brought to the 64 Hz frame grid.

    :data:`CHANNEL_BLOCK` channels at a time are referenced to ``reference``
    if one is given and run through the :func:`_stages` of ``x.fs``: a
    stream faster than :func:`band_rate` is decimated to it; the band is run
    forward and backward; the polyphase FIR resamples to 64 Hz into the
    output, cut or zero-padded to :func:`~eegmatch.tensors.frame_count`
    frames. A stream at or below the band rate is filtered at its own rate,
    and one already at 64 Hz is filtered only. The stages are designed once
    per call. A stream too short for the band's padding is refused.
    """
    decimator, sos, resampler = _stages(x.fs, cfg)
    # sosfiltfilt pads each end by its default ``padlen`` samples at the
    # band's rate and refuses a stream that is not longer than that
    padlen = 3 * (2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum()))
    up, down = (1, 1) if decimator is None else decimator[:2]
    shortest = padlen * down // up + 1
    if x.n_samples < shortest:
        raise InvalidInputError(
            f"stream of {x.n_samples} samples at {x.fs:g} Hz is too short for the "
            f"{cfg.low_hz:g}-{cfg.high_hz:g} Hz band, which needs at least {shortest} samples"
        )
    n_out = frame_count(x.n_samples, x.fs)
    out = np.zeros((x.n_channels, n_out))
    for lo in range(0, x.n_channels, CHANNEL_BLOCK):
        hi = min(lo + CHANNEL_BLOCK, x.n_channels)
        block = x.rows(lo, hi) if reference is None else x.rows(lo, hi) - reference
        block = signal.sosfiltfilt(sos, _resample(block, decimator), axis=1)
        block = _resample(block, resampler)
        out[lo:hi, : block.shape[1]] = block[:, :n_out]  # cut, or left zero-padded
    return TimeSeriesTensor(out, FRAME_RATE)


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

    The :func:`to_frame_rate` of ``x`` referenced to its :func:`channel_mean`,
    normalized per channel.
    """
    return normalize_recording(to_frame_rate(x, cfg, channel_mean(x)))
