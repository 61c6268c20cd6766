"""Shared fixtures and the oracles: finite-difference gradients, the exact Wilcoxon
test, the whole-array EEG chain, the single-rate chain it replaced, and the
envelope with every gammatone band at the audio rate."""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest
from scipy import signal
from scipy.stats import rankdata

from eegmatch import pipeline
from eegmatch.acoustic import ENVELOPE_EXPONENT, envelope_centers, gammatone_powerlaw_sum
from eegmatch.model import ArchitectureConfig, backward_batch, forward_batch, init_params
from eegmatch.preproc import (
    PreprocConfig,
    _kaiser_lowpass,
    _resample,
    _stages,
    band_sos,
    normalize_recording,
)
from eegmatch.stats import WilcoxonResult
from eegmatch.tensors import FRAME_RATE, TimeSeriesTensor


# One (eeg, a, b) triple through the batched model, for the finite-difference oracle.
def forward(params, eeg, sa, sb):
    p, trace = forward_batch(params, eeg[None], sa[None], sb[None])
    return float(p[0]), trace


def backward(params, trace, dloss):
    return backward_batch(params, trace, np.array([dloss]))


def generic_params(cfg: ArchitectureConfig, seed: int = 0):
    """Random parameters with biases moved off the exact ReLU kink.

    Zero-initialized biases put dead time steps exactly on the rectifier
    kink, where central differences are undefined; gradients are checked at
    a generic point instead.
    """
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    for key, tensor in params.tensors.items():
        if key.endswith("_b"):
            tensor += rng.uniform(0.05, 0.3, size=tensor.shape) * rng.choice(
                [-1.0, 1.0], size=tensor.shape
            )
    return params, rng


def numeric_gradients(params, eeg, sa, sb, key: str, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of forward probability w.r.t. one tensor."""
    tensor = params.tensors[key]
    num = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = tensor[ix]
        tensor[ix] = orig + step
        p_hi, _ = forward(params, eeg, sa, sb)
        tensor[ix] = orig - step
        p_lo, _ = forward(params, eeg, sa, sb)
        tensor[ix] = orig
        num[ix] = (p_hi - p_lo) / (2.0 * step)
        it.iternext()
    return num


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


def wilcoxon_exact(a: np.ndarray, b: np.ndarray) -> WilcoxonResult:
    """Exact two-sided signed-rank p, by enumerating all 2^n sign assignments of the ranks.

    Zero differences are discarded and ties take average ranks, as in
    :func:`eegmatch.stats.wilcoxon_signed_rank`, whose normal p is checked
    against this one.
    """
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    d = d[d != 0.0]
    n = d.size
    if not 0 < n <= 20:
        raise ValueError(f"exact enumeration needs 1 to 20 nonzero differences, got {n}")
    ranks = rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    mu = n * (n + 1) / 4.0
    observed = abs(w_plus - mu)
    hits = 0
    for signs in range(1 << n):
        w = sum(ranks[i] for i in range(n) if signs >> i & 1)
        if abs(w - mu) >= observed - 1e-12:
            hits += 1
    return WilcoxonResult(
        z=float("nan"), p=hits / float(1 << n), n_effective=n, w_plus=w_plus
    )


def _cut_to_frames(y: np.ndarray, n_samples: int, fs: float) -> np.ndarray:
    """``y`` cut or zero-padded to round(T * 64 / fs) frames."""
    n_out = int(round(n_samples * FRAME_RATE / fs))
    return np.pad(y[:, :n_out], ((0, 0), (0, max(n_out - y.shape[1], 0))))


def single_rate_chain(data: np.ndarray, fs: float, cfg: PreprocConfig = PreprocConfig()):
    """The chain as it ran before it decimated, over the whole channels x time array.

    ``cfg``'s band is designed at ``fs`` and run forward and backward there;
    the polyphase FIR to 64 Hz (Kaiser, cutting at min(fs, 64)/2 with a
    transition a quarter of that wide, 80 dB) follows, and the output is cut
    or zero-padded to round(T * 64 / fs) frames. This is the fidelity oracle
    of the multirate chain.
    """
    sos = band_sos(cfg.low_hz, cfg.high_hz, cfg.stop_atten_db, fs)
    filtered = signal.sosfiltfilt(sos, data, axis=1)
    if fs == FRAME_RATE:
        return filtered
    cutoff = min(fs, FRAME_RATE) / 2.0
    up, down, fir = _kaiser_lowpass(fs, FRAME_RATE, cutoff, 0.25 * cutoff, 80.0)
    filtered = signal.resample_poly(filtered, up, down, axis=1, window=fir)
    return _cut_to_frames(filtered, data.shape[1], fs)


def preprocess_eeg_whole(x: TimeSeriesTensor, cfg: PreprocConfig = PreprocConfig()):
    """The EEG chain over the whole channels x time array at once, as it ran before streaming.

    Every step holds all channels: the reference, the decimation, the
    zero-phase band filter and the resampling each make a full copy. The
    output is cut or zero-padded to round(T * 64 / fs) frames.
    """
    decimator, sos, resampler = _stages(x.fs, cfg)
    referenced = x.data - x.data.mean(axis=0, keepdims=True)
    filtered = signal.sosfiltfilt(sos, _resample(referenced, decimator), axis=1)
    out = _cut_to_frames(_resample(filtered, resampler), x.n_samples, x.fs)
    return normalize_recording(TimeSeriesTensor(out, FRAME_RATE))


def raw_envelope(audio: TimeSeriesTensor) -> TimeSeriesTensor:
    """The power-law subband envelope at the audio rate, every band run at that rate.

    The mean over the 28 gammatone bands of ``|band| ** 0.6``, as the
    envelope was computed before its bank ran each band at a lower rate;
    through :func:`~eegmatch.preproc.to_frame_rate` it is the fidelity
    oracle of :func:`~eegmatch.acoustic.envelope_powerlaw`.
    """
    cfs = envelope_centers(audio.fs)
    total = gammatone_powerlaw_sum(audio.data[0], audio.fs, cfs, ENVELOPE_EXPONENT)
    total /= cfs.size
    return TimeSeriesTensor(total[None, :], audio.fs)


# Frames at least this far from either end are the interior a fidelity bound covers.
EDGE_FRAMES = int(4 * FRAME_RATE)
# The passband a fidelity bound covers, inside the band's transition bands.
PASSBAND_HZ = (0.75, 28.0)
# Relative RMS difference allowed in the passband interior: between the
# multirate chain and the single-rate one, and between the multirate envelope
# bank and the single-rate one.
FIDELITY_BOUND = 0.025


def band_content(y, lo_hz, hi_hz):
    """The ``lo_hz``-``hi_hz`` content of the 64 Hz rows of ``y``: their FFT with every other bin zeroed."""
    freqs = np.fft.rfftfreq(y.shape[1], 1.0 / FRAME_RATE)
    spectrum = np.fft.rfft(y, axis=1)
    spectrum[:, (freqs < lo_hz) | (freqs > hi_hz)] = 0.0
    return np.fft.irfft(spectrum, n=y.shape[1], axis=1)


def relative_rms(new, old):
    """Per row, the RMS of ``new - old`` over the RMS of ``old``."""
    return np.sqrt(((new - old) ** 2).mean(axis=1) / (old**2).mean(axis=1))


def settle(root: Path) -> None:
    """Wait until every file under ``root`` has settled, as a hash record judges it."""
    stats = [p.stat() for p in root.rglob("*") if p.is_file()]
    coarse = any(s.st_mtime_ns % 10**9 == 0 and s.st_ctime_ns % 10**9 == 0 for s in stats)
    time.sleep((pipeline.COARSE_SETTLE_NS if coarse else pipeline.SETTLE_NS) / 1e9 + 0.05)


@pytest.fixture(scope="session")
def tiny_config_kwargs():
    return dict(
        eeg_channels=4,
        frames=20,
        eeg_conv_filters=3,
        eeg_conv_kernel=4,
        embed_dim=3,
        speech_conv_filters=3,
        speech_conv_kernel=4,
    )
