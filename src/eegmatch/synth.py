"""Synthetic stories and forward-modeled EEG with known speech coupling.

Stories are random word sequences from a fixed pseudo-lexicon; each phone is
rendered as a class-specific tone/noise burst so the mel spectrogram carries
per-phone spectral identity beyond bare intensity. EEG is a mixing matrix
applied to the temporally filtered coupling feature plus colored noise at a
requested SNR. Everything is deterministic per seed.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field

import numpy as np
from scipy import signal

from pathlib import Path

import yaml

from .alignments import (
    EMBEDDING_DIM,
    AlignmentTrack,
    EmbeddingTable,
    Interval,
    PhonemeInventory,
    write_alignment,
    write_embeddings,
    write_inventory,
)
from .errors import InvalidSpecError
from .tensors import FRAME_RATE, TimeSeriesTensor, atomic_path, write_timeseries

EEG_CHANNELS = 64
AUDIO_FS = 16000
# share of a story's duration spent in pauses between words
SILENCE_FRAC = 0.25
LEXICON_SIZE = 40
LEXICON_SEED = 7
RESPONSE_KERNEL_S = 0.4
# background noise: NOISE_RANK correlated sources mixed into every channel,
# SOURCE_NOISE_FRAC of the noise power from the evoked sources themselves
# and SENSOR_NOISE_FRAC independent per channel
NOISE_RANK = 8
SOURCE_NOISE_FRAC = 0.5
SENSOR_NOISE_FRAC = 0.1
# low-pass cutoff of the response's gain and latency drift
JITTER_CUTOFF_HZ = 0.2

# 40 Dutch-flavored IPA symbols grouped into the six phonetic classes.
_INVENTORY_SPEC = {
    "short_vowel": ["ɑ", "ɛ", "ɪ", "ɔ", "ʏ", "ə"],
    "long_vowel": ["aː", "eː", "iː", "oː", "uː", "yː", "øː", "ɛː", "ɔː"],
    "plosive": ["p", "b", "t", "d", "k", "ɡ", "ʔ"],
    "fricative": ["f", "v", "s", "z", "x", "ɣ", "ʃ", "ʒ", "ɦ"],
    "nasal": ["m", "n", "ŋ"],
    "approximant": ["ʋ", "j", "l", "r", "w", "ɥ"],
}


def default_inventory() -> PhonemeInventory:
    symbols = [s for cls in _INVENTORY_SPEC.values() for s in cls]
    class_map = {s: cls for cls, syms in _INVENTORY_SPEC.items() for s in syms}
    return PhonemeInventory(symbols=symbols, class_map=class_map)


def default_lexicon(inv: PhonemeInventory | None = None) -> dict[str, list[str]]:
    """Pseudo-words mapped to fixed phone sequences (each contains a vowel)."""
    inv = inv or default_inventory()
    rng = np.random.default_rng(LEXICON_SEED)
    vowels = [s for s in inv.symbols if inv.class_map[s].endswith("vowel")]
    consonants = [s for s in inv.symbols if not inv.class_map[s].endswith("vowel")]
    lexicon = {}
    for i in range(LEXICON_SIZE):
        n_phones = int(rng.integers(2, 5))
        phones = [str(rng.choice(consonants if j % 2 == 0 else vowels)) for j in range(n_phones)]
        lexicon[f"word{i:02d}"] = phones
    return lexicon


def _symbol_rng(symbol: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(symbol.encode("utf-8")))


def _ramp(n: int, fs: float) -> np.ndarray:
    edge = min(int(0.01 * fs), max(n // 4, 1))
    env = np.ones(n)
    up = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
    env[:edge] = up
    env[n - edge :] = up[::-1]
    return env


@functools.lru_cache(maxsize=None)
def _bandpass_sos(lo: float, hi: float, fs: float) -> np.ndarray:
    """Order-4 Butterworth band-pass; each phone symbol reuses its design."""
    return signal.butter(4, [lo, hi], btype="bandpass", output="sos", fs=fs)


def _render_phone(
    symbol: str, cls: str, dur_s: float, fs: float, rng: np.random.Generator
) -> np.ndarray:
    n = max(int(round(dur_s * fs)), 8)
    t = np.arange(n) / fs
    srng = _symbol_rng(symbol)
    if cls in ("short_vowel", "long_vowel"):
        f1 = srng.uniform(300.0, 800.0)
        f2 = srng.uniform(900.0, 2300.0)
        x = 0.6 * np.sin(2 * np.pi * f1 * t) + 0.4 * np.sin(2 * np.pi * f2 * t)
        x += 0.05 * rng.standard_normal(n)
    elif cls == "plosive":
        x = np.zeros(n)
        burst = rng.standard_normal(n - n // 3)
        lo = srng.uniform(800.0, 3000.0)
        x[n // 3 :] = signal.sosfilt(_bandpass_sos(lo, min(lo * 2.5, fs * 0.45), fs), burst)
    elif cls == "fricative":
        lo = srng.uniform(2000.0, 4500.0)
        x = signal.sosfilt(_bandpass_sos(lo, min(lo * 1.8, fs * 0.46), fs), rng.standard_normal(n))
    elif cls == "nasal":
        f0 = srng.uniform(200.0, 300.0)
        x = np.sin(2 * np.pi * f0 * t) + 0.3 * np.sin(2 * np.pi * 3 * f0 * t)
    else:  # approximant: rising glide
        f0 = srng.uniform(400.0, 1200.0)
        freq = f0 * (1.0 + 0.3 * t / max(dur_s, 1e-3))
        x = np.sin(2 * np.pi * np.cumsum(freq) / fs)
    peak = np.abs(x).max()
    if peak > 0:
        x = x / peak
    return x * _ramp(n, fs) * rng.uniform(0.5, 1.0)


@dataclass
class SynthStory:
    audio: TimeSeriesTensor
    phonemes: AlignmentTrack
    words: AlignmentTrack


def generate_story(
    duration_s: float,
    seed: int,
    inv: PhonemeInventory | None = None,
    lexicon: dict[str, list[str]] | None = None,
    story_id: str = "story",
) -> SynthStory:
    """Concatenated syllable bursts with silences; alignments tile speech exactly."""
    fs = AUDIO_FS
    inv = inv or default_inventory()
    lexicon = lexicon or default_lexicon(inv)
    words = list(lexicon)
    rng = np.random.default_rng(seed)
    n_total = int(round(duration_s * fs))
    audio = np.zeros(n_total)
    phone_ivs: list[Interval] = []
    word_ivs: list[Interval] = []
    cursor = rng.uniform(0.1, 0.3)
    while True:
        word = words[int(rng.integers(len(words)))]
        durs = []
        for sym in lexicon[word]:
            cls = inv.class_map[sym]
            if cls == "long_vowel":
                durs.append(rng.uniform(0.13, 0.22))
            else:
                durs.append(rng.uniform(0.06, 0.12))
        word_dur = sum(durs)
        pause = word_dur * SILENCE_FRAC / (1.0 - SILENCE_FRAC) * rng.uniform(0.5, 1.5)
        if cursor + word_dur + pause >= duration_s - 0.05:
            break
        word_start = cursor
        for sym, dur in zip(lexicon[word], durs):
            n = int(round(dur * fs))
            i0 = int(round(cursor * fs))
            seg = _render_phone(sym, inv.class_map[sym], dur, fs, rng)[: n_total - i0]
            audio[i0 : i0 + seg.size] += seg
            end = (i0 + n) / fs
            phone_ivs.append(Interval(cursor, end, sym))
            cursor = end
        word_ivs.append(Interval(word_start, cursor, word))
        cursor += pause
    return SynthStory(
        audio=TimeSeriesTensor(audio[None, :], fs),
        phonemes=AlignmentTrack(phone_ivs, "phoneme", story_id=story_id),
        words=AlignmentTrack(word_ivs, "word", story_id=story_id),
    )


def synth_embeddings(vocab: list[str], seed: int = 11) -> EmbeddingTable:
    """Unit-norm random vectors for the pseudo-lexicon."""
    rng = np.random.default_rng(seed)
    vectors = {}
    for word in vocab:
        v = rng.standard_normal(EMBEDDING_DIM)
        vectors[word] = v / np.linalg.norm(v)
    return EmbeddingTable(vectors)


def default_response_kernel() -> np.ndarray:
    """Difference of gamma shapes peaking near 100 ms and 200 ms, at 64 Hz."""
    t = np.arange(int(round(RESPONSE_KERNEL_S * FRAME_RATE))) / FRAME_RATE

    def gamma_shape(k: float, theta: float) -> np.ndarray:
        g = t ** (k - 1) * np.exp(-t / theta)
        return g / g.max()

    kernel = gamma_shape(3.0, 0.05) - 0.6 * gamma_shape(5.0, 0.05)
    return kernel / np.abs(kernel).max()


@dataclass
class ForwardModelConfig:
    """Speech-to-EEG coupling: temporal kernel, mixing, noise.

    The response to each feature channel is that channel convolved with
    ``kernel``, a 64 Hz impulse response; a response latency is a kernel
    with leading zeros.

    Noise is spatially structured: ``NOISE_RANK`` background sources mixed
    into all channels, a ``SOURCE_NOISE_FRAC`` share from the evoked sources
    themselves and a ``SENSOR_NOISE_FRAC`` share of independent per-channel
    noise. Real EEG background activity is strongly correlated across
    channels; unstructured noise would let 64-channel diversity erase any
    finite SNR.

    The evoked response varies over time by default, as real evoked activity
    does: a purely LTI (linear time-invariant) response makes 5 s windows
    separable at any realistic SNR. A slow multiplicative gain with standard
    deviation ``gain_jitter_std = 0.5`` stands for the trial-to-trial
    amplitude variability of auditory evoked responses, whose spread is of
    the order of half their mean amplitude; a slow latency shift with
    standard deviation ``latency_jitter_ms = 15`` stands for their
    trial-to-trial latency spread of 10-20 ms. Both processes are low-passed
    at ``JITTER_CUTOFF_HZ`` (fluctuations over seconds, like attention and
    arousal) and drawn from a stream of their own, so they never change the
    noise. Set both to 0 for an LTI response.
    """

    rng_seed: int
    kernel: np.ndarray = field(default_factory=default_response_kernel)
    mixing: np.ndarray | None = None  # (channels, features); None draws one per seed
    snr_db: float = 10.0
    noise_color: str = "pink"
    n_channels: int = EEG_CHANNELS
    # response variability applied to the evoked response before mixing
    gain_jitter_std: float = 0.5
    latency_jitter_ms: float = 15.0

    def __post_init__(self) -> None:
        if np.isnan(self.snr_db):
            raise InvalidSpecError("snr_db must be a number or +-inf")
        if self.noise_color not in ("white", "pink"):
            raise InvalidSpecError(f"noise_color must be white|pink, got {self.noise_color!r}")
        if self.gain_jitter_std < 0 or self.latency_jitter_ms < 0:
            raise InvalidSpecError("jitter magnitudes must be nonnegative")


def _pink_noise(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    white = rng.standard_normal(shape)
    spec = np.fft.rfft(white, axis=1)
    freqs = np.fft.rfftfreq(shape[1])
    freqs[0] = freqs[1] if freqs.size > 1 else 1.0
    spec /= np.sqrt(freqs)
    out = np.fft.irfft(spec, n=shape[1], axis=1)
    return out / out.std(axis=1, keepdims=True)


def generate_eeg(features: TimeSeriesTensor, cfg: ForwardModelConfig) -> TimeSeriesTensor:
    """Mixing x (kernel (*) features) + noise scaled to snr_db."""
    rng = np.random.default_rng(cfg.rng_seed)
    f_dim, n_t = features.data.shape
    mixing = cfg.mixing
    if mixing is None:
        mixing = rng.standard_normal((cfg.n_channels, f_dim)) / np.sqrt(f_dim)
    elif mixing.shape != (cfg.n_channels, f_dim):
        raise InvalidSpecError(
            f"mixing shape {mixing.shape} != ({cfg.n_channels}, {f_dim})"
        )
    kernel = np.asarray(cfg.kernel, dtype=np.float64)
    resp = np.empty_like(features.data)
    for f in range(f_dim):
        resp[f] = np.convolve(features.data[f], kernel)[:n_t]

    # the response variability has a stream of its own, so switching it on or
    # off leaves the noise (and with it every signal-off recording) unchanged
    jitter_rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed, spawn_key=(1,)))

    def slow_process(std: float) -> np.ndarray:
        raw = jitter_rng.standard_normal(n_t)
        sos = signal.butter(4, JITTER_CUTOFF_HZ, btype="lowpass", output="sos", fs=features.fs)
        slow = signal.sosfilt(sos, raw)
        return slow / slow.std() * std

    if cfg.latency_jitter_ms > 0:
        shift = slow_process(cfg.latency_jitter_ms) / 1000.0 * features.fs
        grid = np.arange(n_t, dtype=np.float64)
        sample_at = np.clip(grid - shift, 0.0, n_t - 1)
        for f in range(f_dim):
            resp[f] = np.interp(sample_at, grid, resp[f])
    if cfg.gain_jitter_std > 0:
        resp = resp * (1.0 + slow_process(cfg.gain_jitter_std))[None, :]
    sig = mixing @ resp

    if np.isneginf(cfg.snr_db):
        sig = np.zeros_like(sig)
    if np.isposinf(cfg.snr_db):
        return TimeSeriesTensor(sig, features.fs)

    def draw(shape):
        if cfg.noise_color == "pink":
            return _pink_noise(rng, shape)
        return rng.standard_normal(shape)

    def unit_power(x: np.ndarray) -> np.ndarray:
        return x / np.sqrt(np.mean(x**2))

    # background activity from the evoked sources themselves (same topography
    # as the signal, spatially inseparable from it), plus rank-limited
    # correlated background and an independent sensor floor
    spread = rng.standard_normal((cfg.n_channels, NOISE_RANK)) / np.sqrt(NOISE_RANK)
    background = unit_power(spread @ draw((NOISE_RANK, n_t)))
    source = unit_power(mixing @ draw((f_dim, n_t)))
    sensor = unit_power(draw((cfg.n_channels, n_t)))
    w_bg = 1.0 - SOURCE_NOISE_FRAC - SENSOR_NOISE_FRAC
    noise = (
        np.sqrt(SOURCE_NOISE_FRAC) * source
        + np.sqrt(w_bg) * background
        + np.sqrt(SENSOR_NOISE_FRAC) * sensor
    )
    p_sig = float(np.mean(sig**2))
    if p_sig > 0:
        # scale on 0.5 Hz highpassed copies: pink noise carries most of its
        # power below the EEG band, which preprocessing removes anyway, so a
        # broadband ratio would not control the effective in-band SNR
        sos = signal.butter(4, 0.5, btype="highpass", output="sos", fs=features.fs)
        p_sig_band = float(np.mean(signal.sosfilt(sos, sig, axis=1) ** 2))
        p_noise_band = float(np.mean(signal.sosfilt(sos, noise, axis=1) ** 2))
        target = p_sig_band / 10.0 ** (cfg.snr_db / 10.0)
        noise = noise * np.sqrt(target / p_noise_band)
    return TimeSeriesTensor(sig + noise, features.fs)


def write_synth_dataset(
    out_dir: str | Path,
    n_subjects: int = 2,
    n_stories: int = 2,
    duration_s: float = 120.0,
    snr_db: float = 10.0,
    coupling: str = "envelope",
    seed: int = 0,
    noise_color: str = "pink",
) -> Path:
    """Emit a full synthetic dataset plus its manifest; returns the manifest path.

    The EEG-to-feature mixing matrix is drawn once per dataset (shared head
    topography), while the noise differs per subject and story. It is drawn
    from ``seed`` and ``coupling`` alone, so new listeners share a model's
    head only if they are made with its training set's ``seed`` and
    ``coupling``, for example by making more subjects. Every stage
    command reads the manifest. Each file is written under a temporary name
    and renamed, so re-making a dataset in place leaves every file whole.
    """
    from .acoustic import write_wav
    from .features import StoryAssets, extract_feature

    out_dir = Path(out_dir)
    for sub in ("audio", "alignments", "eeg"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    inv = default_inventory()
    lexicon = default_lexicon(inv)
    embeddings = synth_embeddings(list(lexicon), seed=seed + 11)
    write_inventory(out_dir / "inventory.yaml", inv)
    write_embeddings(out_dir / "embeddings.txt", embeddings)

    dataset_rng = np.random.default_rng(seed)
    coupling_dim = None
    story_features = {}
    stories = {}
    for k in range(n_stories):
        story_id = f"story{k:02d}"
        story = generate_story(
            duration_s, seed=seed * 9973 + k, inv=inv, lexicon=lexicon, story_id=story_id,
        )
        stories[story_id] = story
        write_wav(out_dir / "audio" / f"{story_id}.wav", story.audio)
        write_alignment(out_dir / "alignments" / f"{story_id}.phonemes.tsv", story.phonemes)
        write_alignment(out_dir / "alignments" / f"{story_id}.words.tsv", story.words)
        assets = StoryAssets(story.audio, story.phonemes, story.words, inv, embeddings)
        feat = extract_feature(coupling, assets)
        story_features[story_id] = feat
        coupling_dim = feat.n_channels
    mixing = dataset_rng.standard_normal((EEG_CHANNELS, coupling_dim)) / np.sqrt(coupling_dim)

    manifest: dict = {
        "version": 1,
        "inventory": "inventory.yaml",
        "embeddings": "embeddings.txt",
        "coupling": coupling,
        "snr_db": str(snr_db) if np.isinf(snr_db) else float(snr_db),
        "seed": seed,
        "subjects": {},
    }
    for i in range(n_subjects):
        subject_id = f"sub{i:02d}"
        entries = []
        for k, story_id in enumerate(sorted(stories)):
            rec_id = f"{subject_id}_{story_id}"
            cfg = ForwardModelConfig(
                rng_seed=seed * 104729 + i * 389 + k,
                mixing=mixing,
                snr_db=snr_db,
                noise_color=noise_color,
            )
            eeg = generate_eeg(story_features[story_id], cfg)
            write_timeseries(out_dir / "eeg" / f"{rec_id}.ndmm", eeg)
            entries.append(
                {
                    "recording_id": rec_id,
                    "story_id": story_id,
                    "eeg": f"eeg/{rec_id}.ndmm",
                    "audio": f"audio/{story_id}.wav",
                    "phonemes": f"alignments/{story_id}.phonemes.tsv",
                    "words": f"alignments/{story_id}.words.tsv",
                }
            )
        manifest["subjects"][subject_id] = entries
    path = out_dir / "manifest.yaml"
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=True, allow_unicode=True)
    return path


def ridge_reconstruct(
    eeg: TimeSeriesTensor,
    target: TimeSeriesTensor,
    n_lags: int = 26,
    ridge_lambda: float = 1e3,
    train_frac: float = 0.8,
) -> float:
    """Backward-model sanity check: Pearson r of held-out reconstruction.

    A time-lagged ridge regression maps EEG samples at t .. t+n_lags-1 (the
    EEG trails the stimulus, so reconstruction looks forward) onto the target
    frame at t; the model is fit on the leading ``train_frac`` of frames and
    correlated on the remainder.
    """
    x = eeg.data
    y = target.data[0]
    n_c, n_t = x.shape
    cols = n_c * n_lags
    split = int(n_t * train_frac)

    def lagged_block(lo: int, hi: int) -> np.ndarray:
        block = np.zeros((hi - lo, cols))
        for lag in range(n_lags):
            seg = x[:, lo + lag : min(hi + lag, n_t)]
            block[: seg.shape[1], lag * n_c : (lag + 1) * n_c] = seg.T
        return block

    xtx = np.zeros((cols, cols))
    xty = np.zeros(cols)
    chunk = 4096
    for lo in range(0, split, chunk):
        hi = min(lo + chunk, split)
        block = lagged_block(lo, hi)
        xtx += block.T @ block
        xty += block.T @ y[lo:hi]
    w = np.linalg.solve(xtx + ridge_lambda * np.eye(cols), xty)
    pred = lagged_block(split, n_t) @ w
    truth = y[split:]
    denom = pred.std() * truth.std()
    if denom == 0:
        return 0.0
    return float(np.mean((pred - pred.mean()) * (truth - truth.mean())) / denom)
