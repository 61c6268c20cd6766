"""Acoustic speech features: subband envelope, mel spectrogram and VAD.

All three return :func:`~eegmatch.tensors.frame_count` frames at 64 Hz,
time-aligned to the preprocessed EEG. The envelope and mel spectrogram reach
them through the EEG's chain, :func:`~eegmatch.preproc.to_frame_rate`, in the
experiment's band (0.5-32 Hz by default); the binary VAD is not filtered.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np
from scipy import signal
from scipy.io import wavfile

from .errors import InvalidInputError, refused_as
from .preproc import PreprocConfig, _kaiser_lowpass, to_frame_rate
from .tensors import FRAME_RATE, TimeSeriesTensor, atomic_path, frame_count

ENVELOPE_BANDS = 28
ENVELOPE_EXPONENT = 0.6
MEL_BANDS = 28
STFT_WINDOW_S = 0.025
# STFT frames windowed and transformed at once: 4 s of 64 Hz frames, about
# 1 MB of complex spectra at 16 kHz instead of 63 MB for a 240 s story
STFT_CHUNK_FRAMES = 256
MEL_FMIN = 50.0
MEL_FMAX = 5000.0
VAD_FRAME_S = 0.015
VAD_PERCENTILE = 75.0
PREEMPHASIS = 0.97

# Glasberg & Moore ERB-rate constants for gammatone center-frequency spacing.
_EAR_Q = 9.26449
_MIN_BW = 24.7

# The multirate envelope bank (:func:`envelope_powerlaw`). A band's extent is
# its center plus this many gammatone bandwidths (:func:`band_extent`); each
# halving of the audio passes up to HALVING_PASS times its output rate, 0.8 of
# its Nyquist. No band runs below MIN_BANK_RATE: at 16 kHz one more halving
# would move only the 50 Hz band, whose filtering at 1 kHz already costs a
# sixteenth of a band at the audio rate, and at 500 Hz it moved the envelope
# of a 90 s story a further 0.05 % from the single-rate bank.
BAND_EXTENT_WIDTHS = 4.0
HALVING_PASS = 0.4
MIN_BANK_RATE = 1000.0


def _check_data_chunk(path: str | Path) -> None:
    """Refuse a RIFF WAV whose data chunk declares more bytes than the file holds.

    The chunks are walked from the header; the ones before the data chunk,
    such as ``LIST``, are skipped by their declared sizes. A file that is not
    RIFF or RIFX, or a chunk header cut short, is left to the WAV reader.
    """
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        order = {b"RIFF": "<", b"RIFX": ">"}.get(fh.read(4))
        pos = 12
        while order and pos + 8 <= size:
            fh.seek(pos)
            chunk, length = struct.unpack(order + "4sI", fh.read(8))
            if chunk == b"data":
                if pos + 8 + length > size:
                    raise InvalidInputError(f"data chunk declares {length} bytes, but "
                                            f"{size - pos - 8} are present")
                return
            pos += 8 + length + (length & 1)


def read_wav(path: str | Path) -> TimeSeriesTensor:
    """Mono WAV (signed integer or float PCM) as a 1 x T tensor in [-1, 1].

    Integer samples are scaled by their full scale. Any other sample type
    (8-bit PCM is unsigned) and a file cut inside its data chunk are refused.
    """
    with refused_as(path):
        _check_data_chunk(path)
        fs, data = wavfile.read(path)
        if data.ndim != 1:
            raise InvalidInputError(f"expected mono audio, got shape {data.shape}")
        if data.dtype.kind not in "if":
            raise InvalidInputError(f"{data.dtype} samples are not read; "
                                    "write signed integer or float PCM")
        scale = -float(np.iinfo(data.dtype).min) if data.dtype.kind == "i" else 1.0
        return TimeSeriesTensor(data[None, :].astype(np.float64) / scale, float(fs))


def write_wav(path: str | Path, audio: TimeSeriesTensor) -> None:
    if audio.n_channels != 1:
        raise InvalidInputError("only mono audio is written")
    with atomic_path(path) as tmp:
        wavfile.write(tmp, int(audio.fs), audio.data[0].astype(np.float32))


def _check_mono(audio: TimeSeriesTensor, min_fs: float) -> np.ndarray:
    if audio.n_channels != 1:
        raise InvalidInputError(f"expected mono audio, got {audio.n_channels} channels")
    if audio.fs < min_fs:
        raise InvalidInputError(f"audio rate {audio.fs} Hz below required {min_fs} Hz")
    return audio.data[0]


def erb_space(low_hz: float, high_hz: float, n: int) -> np.ndarray:
    """n center frequencies equally spaced on the ERB-rate scale."""
    lo = np.log(1.0 + low_hz / (_EAR_Q * _MIN_BW))
    hi = np.log(1.0 + high_hz / (_EAR_Q * _MIN_BW))
    return _EAR_Q * _MIN_BW * (np.exp(np.linspace(lo, hi, n)) - 1.0)


def envelope_centers(fs: float) -> np.ndarray:
    """Center frequencies of the envelope's gammatone bank for audio at ``fs``.

    :data:`ENVELOPE_BANDS` of them, ERB-spaced from 50 Hz to 5000 Hz, or to
    0.9 times Nyquist if that is lower.
    """
    return erb_space(MEL_FMIN, min(MEL_FMAX, fs / 2.0 * 0.9), ENVELOPE_BANDS)


def gammatone_powerlaw_sum(
    x: np.ndarray, fs: float, center_hz: np.ndarray, exponent: float
) -> np.ndarray:
    """Sum over an IIR gammatone bank at ``fs`` of ``|band| ** exponent``.

    Filters run as second-order sections; the direct ba form is numerically
    unusable at low center frequencies relative to fs. Bands are compressed
    and summed one at a time, in band order, so memory stays at one band
    rather than bands x time (1.7 GB for 8 minutes of 16 kHz audio).
    """
    total = np.zeros(x.size)
    for fc in center_hz:
        b, a = signal.gammatone(fc, "iir", fs=fs)
        band = signal.sosfilt(signal.tf2sos(b, a), x)
        np.abs(band, out=band)
        band **= exponent
        total += band
    return total


def band_extent(center_hz: np.ndarray) -> np.ndarray:
    """Upper edge of each gammatone band: ``fc + 4 b``, with ``b = 1.019 ERB(fc)``.

    There a 4th-order gammatone, ``(1 + ((f - fc) / b) ** 2) ** -2`` in
    magnitude, is 49 dB below its peak, and it falls further above.
    """
    return center_hz + BAND_EXTENT_WIDTHS * 1.019 * (_MIN_BW + center_hz / _EAR_Q)


def bank_rates(center_hz: np.ndarray, fs: float) -> np.ndarray:
    """The rate of the form ``fs / 2^k`` at which the envelope runs each band.

    A band moves down from ``fs`` one halving at a time while its
    :func:`band_extent` stays below the passband edge of the halving stage,
    :data:`HALVING_PASS` times the halved rate, and that rate is at least
    :data:`MIN_BANK_RATE`. Above that edge the band is 49 dB down, so what
    the stage's transition band bends or folds there reaches the band's
    output at most at that level.
    """
    extent = band_extent(center_hz)
    rates = np.full(center_hz.size, float(fs))
    while True:
        lower = rates / 2.0
        fits = (extent < HALVING_PASS * lower) & (lower >= MIN_BANK_RATE)
        if not fits.any():
            return rates
        rates[fits] = lower[fits]


def _halve(x: np.ndarray, fs: float) -> np.ndarray:
    """``x`` at ``fs`` decimated to ``fs / 2`` by a polyphase FIR.

    The FIR passes up to :data:`HALVING_PASS` times the halved rate and
    stops at 80 dB from the halved rate minus that edge, so whatever folds
    lands above the passband edge.
    """
    edge = HALVING_PASS * fs / 2.0
    up, down, fir = _kaiser_lowpass(fs, fs / 2.0, fs / 4.0, fs / 2.0 - 2.0 * edge, 80.0)
    return signal.resample_poly(x, up, down, window=fir)


def envelope_powerlaw(
    audio: TimeSeriesTensor, cfg: PreprocConfig = PreprocConfig()
) -> TimeSeriesTensor:
    """Auditory-subband amplitude envelope with power-law compression, at 64 Hz.

    A 28-band gammatone filterbank spaced 50-5000 Hz on the ERB scale feeds
    per-band magnitudes raised to the power 0.6; the bands are averaged and
    brought through the EEG's chain, :func:`~eegmatch.preproc.to_frame_rate`,
    band-limited to the ``cfg`` band (0.5-32 Hz by default) at 64 Hz.

    Each band runs at its :func:`bank_rates` rate: the audio is halved step
    by step (:func:`_halve`), the bands of one rate are compressed and summed
    there, and each rate's sum goes through the chain. The chain is linear,
    so the 64 Hz outputs of the rates add up to the envelope.
    """
    x = _check_mono(audio, min_fs=8000.0)
    fs = audio.fs
    cfs = envelope_centers(fs)
    rates = bank_rates(cfs, fs)
    total = np.zeros(frame_count(x.size, fs))
    for rate in sorted(set(rates), reverse=True):
        while fs > rate:
            x, fs = _halve(x, fs), fs / 2.0
        part = gammatone_powerlaw_sum(x, fs, cfs[rates == rate], ENVELOPE_EXPONENT)[None, :]
        frames = to_frame_rate(TimeSeriesTensor(part, fs), cfg).data[0]
        del part  # not alive while the next rate halves the audio
        n = min(total.size, frames.size)  # a halved length may round to one frame more
        total[:n] += frames[:n]
    total /= cfs.size
    return TimeSeriesTensor(total[None, :], FRAME_RATE)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def mel_filterbank(n_bands: int, n_fft: int, fs: float, fmin: float, fmax: float) -> np.ndarray:
    """Unit-height triangular filters, mel-spaced; shape (n_bands, n_fft//2+1)."""
    edges_hz = _mel_to_hz(np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_bands + 2))
    bin_hz = np.fft.rfftfreq(n_fft, 1.0 / fs)
    bank = np.zeros((n_bands, bin_hz.size))
    for i in range(n_bands):
        lo, center, hi = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        rising = (bin_hz - lo) / (center - lo)
        falling = (hi - bin_hz) / (hi - center)
        bank[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


def stft_frames_64hz(x: np.ndarray, fs: float) -> np.ndarray:
    """Magnitude STFT with frames centered on the 64 Hz grid.

    Frame ``n`` is centered at ``n / 64`` s, and the audio is zero before its
    start and past its end; a 25 ms Hann window is applied and the FFT
    zero-padded to the next power of two. Returns (n_fft//2 + 1) x n_frames.
    """
    n_frames = frame_count(x.size, fs)
    win_len = int(round(STFT_WINDOW_S * fs))
    n_fft = 1 << (win_len - 1).bit_length()
    window = np.hanning(win_len)
    centers = np.round(np.arange(n_frames) * fs / FRAME_RATE).astype(int)
    starts = centers - win_len // 2
    # frames x bins, returned transposed as the whole-array product was, so
    # that ``bank @ spec`` multiplies the same memory layout
    mags = np.empty((n_frames, n_fft // 2 + 1))
    for lo in range(0, n_frames, STFT_CHUNK_FRAMES):
        idx = starts[lo : lo + STFT_CHUNK_FRAMES, None] + np.arange(win_len)
        # read from ``x``, zeros before its start and past its end
        frames = np.where((idx >= 0) & (idx < x.size), x[np.clip(idx, 0, x.size - 1)], 0.0)
        np.abs(np.fft.rfft(frames * window, n=n_fft, axis=1), out=mags[lo : lo + len(idx)])
    return mags.T


def mel_magnitudes(audio: TimeSeriesTensor) -> TimeSeriesTensor:
    """28-band mel magnitude spectrogram, 50-5000 Hz, at exactly 64 frames/s.

    No log compression is applied and the bands are not band-limited.
    """
    x = _check_mono(audio, min_fs=2 * MEL_FMAX)
    spec = stft_frames_64hz(x, audio.fs)
    bank = mel_filterbank(MEL_BANDS, 2 * (spec.shape[0] - 1), audio.fs, MEL_FMIN, MEL_FMAX)
    return TimeSeriesTensor(bank @ spec, FRAME_RATE)


def mel_spectrogram(
    audio: TimeSeriesTensor, cfg: PreprocConfig = PreprocConfig()
) -> TimeSeriesTensor:
    """The :func:`mel_magnitudes` of ``audio``, each band band-limited to the ``cfg`` band.

    At 64 frames/s :func:`~eegmatch.preproc.to_frame_rate` only filters, and
    the default 0.5-32 Hz band is realized as the 0.5 Hz highpass.
    """
    return to_frame_rate(mel_magnitudes(audio), cfg)


def vad_frame_energies(audio: TimeSeriesTensor) -> np.ndarray:
    """Pre-emphasized energy of consecutive non-overlapping 15 ms frames."""
    x = _check_mono(audio, min_fs=1.0 / VAD_FRAME_S)
    frame_len = int(round(VAD_FRAME_S * audio.fs))
    n_frames = x.size // frame_len
    if n_frames < 1:
        raise InvalidInputError(
            f"story of {x.size} samples shorter than one {frame_len}-sample frame"
        )
    emphasized = np.empty_like(x)
    emphasized[0] = x[0]
    emphasized[1:] = x[1:] - PREEMPHASIS * x[:-1]
    frames = emphasized[: n_frames * frame_len].reshape(n_frames, frame_len)
    return (frames**2).sum(axis=1)


def vad_frames(audio: TimeSeriesTensor) -> np.ndarray:
    """Binary VAD at the native 15 ms frame rate (story-global threshold)."""
    energies = vad_frame_energies(audio)
    threshold = np.percentile(energies, VAD_PERCENTILE)
    return (energies > threshold).astype(np.float64)


def vad(audio: TimeSeriesTensor) -> TimeSeriesTensor:
    """Voice activity at 64 Hz: frame energy above the story's 75th percentile.

    The threshold is global to the story; 15 ms decisions are nearest-frame
    upsampled to the 64 Hz grid.
    """
    flags = vad_frames(audio)
    n_out = frame_count(audio.n_samples, audio.fs)
    centers = (np.arange(n_out) + 0.5) / FRAME_RATE
    idx = np.minimum((centers / VAD_FRAME_S).astype(int), flags.size - 1)
    return TimeSeriesTensor(flags[idx][None, :], FRAME_RATE)
