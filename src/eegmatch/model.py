"""Dual-path match/mismatch network: forward pass and analytic gradients.

The EEG path runs a 1-D convolution over time followed by a time-distributed
dense layer; each speech input runs a variant-specific front (1-D conv for
features with two or more channels, nothing for one-channel features, or a
stride-3 max-pool for word embeddings), a time-distributed dense layer and a
shared LSTM. Per-step cosine similarity between the EEG and each speech
representation gives two similarity sequences; the head scales the mean of
their difference by one weight. A bias would cancel in that difference, so
the head has none, and the output probability is exactly antisymmetric in
the two speech inputs. Everything is computed in 64-bit floats unless the
architecture selects 32-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, InvalidSpecError

COSINE_EPS = 1e-8
PROB_CLAMP = 1e-7
POOL = 3  # max-pool window and stride for the word-embedding variant

VARIANTS = ("conv", "no-conv", "maxpool")


@dataclass(frozen=True)
class SpeechPart:
    """One concatenated speech feature: its channel count and front variant."""

    dim: int
    variant: str

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise InvalidSpecError(f"unknown speech-path variant {self.variant!r}")
        if self.dim < 1:
            raise InvalidSpecError("feature dimension must be >= 1")
        if self.variant == "conv" and self.dim < 2:
            raise InvalidSpecError("conv variant requires >= 2 feature channels")
        if self.variant == "no-conv" and self.dim != 1:
            raise InvalidSpecError("no-conv variant is for one-channel features")


@dataclass(frozen=True)
class ArchitectureConfig:
    eeg_channels: int = 64
    frames: int = 320
    eeg_conv_filters: int = 16
    eeg_conv_kernel: int = 8
    embed_dim: int = 16
    lstm_units: int = 16
    speech_conv_filters: int = 16
    speech_conv_kernel: int = 8
    parts: tuple[SpeechPart, ...] = (SpeechPart(28, "conv"),)
    dtype: str = "float64"

    def __post_init__(self) -> None:
        for name in (
            "eeg_channels", "frames", "eeg_conv_filters", "eeg_conv_kernel",
            "embed_dim", "lstm_units", "speech_conv_filters", "speech_conv_kernel",
        ):
            if getattr(self, name) < 1:
                raise InvalidSpecError(f"{name} must be >= 1")
        if not self.parts:
            raise InvalidSpecError("at least one speech part is required")
        if self.dtype not in ("float64", "float32"):
            raise InvalidSpecError(f"dtype must be float64|float32, got {self.dtype!r}")

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    @property
    def feature_dim(self) -> int:
        return sum(p.dim for p in self.parts)

    @property
    def pooled(self) -> bool:
        return any(p.variant == "maxpool" for p in self.parts)

    @property
    def out_frames(self) -> int:
        return self.frames // POOL if self.pooled else self.frames

    @property
    def lstm_input_dim(self) -> int:
        return self.embed_dim * len(self.parts)


def config_for_feature(dims: Sequence[int], wordemb_flags: Sequence[bool],
                       **overrides) -> ArchitectureConfig:
    """Architecture for a (possibly concatenated) feature given part dims."""
    parts = tuple(
        SpeechPart(d, "maxpool" if w else "no-conv" if d == 1 else "conv")
        for d, w in zip(dims, wordemb_flags)
    )
    return ArchitectureConfig(parts=parts, **overrides)


@dataclass
class ModelParams:
    """All trainable tensors keyed by name, plus the architecture."""

    config: ArchitectureConfig
    tensors: dict[str, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


def init_params(config: ArchitectureConfig, rng: np.random.Generator) -> ModelParams:
    """He/Glorot-style initialization; LSTM forget bias starts at 1."""
    dt = config.np_dtype
    t: dict[str, np.ndarray] = {}

    def he(shape, fan_in):
        return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dt)

    c, k, f = config.eeg_channels, config.eeg_conv_kernel, config.eeg_conv_filters
    d, h = config.embed_dim, config.lstm_units
    t["eeg_conv_w"] = he((f, c, k), c * k)
    t["eeg_conv_b"] = np.zeros(f, dtype=dt)
    t["eeg_dense_w"] = he((d, f), f)
    t["eeg_dense_b"] = np.zeros(d, dtype=dt)
    for i, part in enumerate(config.parts):
        width = part.dim
        if part.variant == "conv":
            fs, ks = config.speech_conv_filters, config.speech_conv_kernel
            t[f"sp{i}_conv_w"] = he((fs, part.dim, ks), part.dim * ks)
            t[f"sp{i}_conv_b"] = np.zeros(fs, dtype=dt)
            width = fs
        t[f"sp{i}_dense_w"] = he((d, width), width)
        t[f"sp{i}_dense_b"] = np.zeros(d, dtype=dt)
    i_dim = config.lstm_input_dim
    t["lstm_wx"] = (rng.standard_normal((4 * h, i_dim)) / np.sqrt(i_dim)).astype(dt)
    t["lstm_wh"] = (rng.standard_normal((4 * h, h)) / np.sqrt(h)).astype(dt)
    b = np.zeros(4 * h, dtype=dt)
    b[h : 2 * h] = 1.0
    t["lstm_b"] = b
    t["head_w"] = np.ones(1, dtype=dt)
    return ModelParams(config, t)


def zeros_like_params(params: ModelParams) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.tensors.items()}


# ---------------------------------------------------------------------------
# layer primitives (batched, channels x time)
# ---------------------------------------------------------------------------

def _conv1d_same(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """'same'-padded 1-D convolution over time. x: (B,C,T), w: (F,C,K)."""
    n_b, _, n_t = x.shape
    n_f, _, k = w.shape
    pad_l = (k - 1) // 2
    xpad = np.pad(x, ((0, 0), (0, 0), (pad_l, k - 1 - pad_l)))
    out = np.zeros((n_f, n_b, n_t), dtype=x.dtype)
    for j in range(k):
        out += np.tensordot(w[:, :, j], xpad[:, :, j : j + n_t], axes=([1], [1]))
    out = out.transpose(1, 0, 2) + b[None, :, None]
    return out, (xpad, x.shape)


def _conv1d_same_bwd(dout: np.ndarray, cache, w: np.ndarray):
    """Weight and bias gradients; every conv reads data, so no input gradient."""
    xpad, x_shape = cache
    n_b, n_c, n_t = x_shape
    n_f, _, k = w.shape
    # dw[:, :, j] = dout (F x B*T) @ tap-j input (B*T x C). The input is put
    # time-major once, so each tap's operand is a plain row block.
    dout2 = dout.transpose(1, 0, 2).reshape(n_f, n_b * n_t)
    x_tc = np.ascontiguousarray(xpad.transpose(0, 2, 1))
    dw = np.empty_like(w)
    for j in range(k):
        dw[:, :, j] = np.dot(dout2, x_tc[:, j : j + n_t].reshape(n_b * n_t, n_c))
    db = dout.sum(axis=(0, 2))
    return dw, db


def _td_dense(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Dense layer applied to every time step. x: (B,F,T), w: (D,F)."""
    out = np.tensordot(w, x, axes=([1], [1])).transpose(1, 0, 2) + b[None, :, None]
    return out, x


def _td_dense_bwd(dout: np.ndarray, x: np.ndarray):
    """Weight and bias gradients of :func:`_td_dense`."""
    dw = np.tensordot(dout, x, axes=([0, 2], [0, 2]))
    db = dout.sum(axis=(0, 2))
    return dw, db


def _td_dense_dx(dout: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Input gradient of :func:`_td_dense`, needed only where a conv follows."""
    return np.tensordot(w, dout, axes=([0], [1])).transpose(1, 0, 2)


def _relu(x: np.ndarray):
    return np.maximum(x, 0.0), x > 0


def _relu_bwd(dout: np.ndarray, mask: np.ndarray):
    return dout * mask


def _maxpool(x: np.ndarray):
    """Window-3 stride-3 max over time, remainder frames dropped.

    The taps are compared as strided views, latest tap first. On a tie,
    ``np.maximum`` has been seen to return its second operand, so the
    earliest tap is kept, as ``argmax`` would, down to the sign of a zero.
    NumPy does not document that order; it is pinned by
    ``TestMaxPool::test_matches_argmax_reference_bit_for_bit``, which is the
    test to re-run after a NumPy upgrade. The backward pass does not rely on
    it: ``_maxpool_bwd`` finds the first maximum by ``==``.
    """
    n = x.shape[2] // POOL * POOL
    out = x[:, :, 0:n:POOL]
    for k in range(1, POOL):
        out = np.maximum(x[:, :, k:n:POOL], out)
    return out, (x, out)


def _maxpool_bwd(dout: np.ndarray, cache):
    """Route each gradient to the first tap holding its window's maximum."""
    x, out = cache
    n = out.shape[2] * POOL
    dx = np.zeros(x.shape, dtype=dout.dtype)
    free = np.ones(out.shape, dtype=bool)
    for k in range(POOL):
        first = free & (x[:, :, k:n:POOL] == out) if k < POOL - 1 else free
        np.copyto(dx[:, :, k:n:POOL], dout, where=first)
        free &= ~first
    return dx


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below."""
    ex = np.exp(-np.abs(x))
    denom = 1.0 + ex
    return np.where(x >= 0, 1.0 / denom, ex / denom)


def _lstm(x: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray):
    """Full sequence LSTM. x: (B,T,I); returns hidden stack (B,T,H)."""
    n_b, n_t, _ = x.shape
    h_units = wh.shape[1]
    pre_x = np.tensordot(x, wx, axes=([2], [1]))  # (B,T,4H)
    h = np.zeros((n_b, h_units), dtype=x.dtype)
    c = np.zeros((n_b, h_units), dtype=x.dtype)
    hs = np.empty((n_b, n_t, h_units), dtype=x.dtype)
    cache = {
        "x": x,
        "h_prev": np.empty((n_t, n_b, h_units), dtype=x.dtype),
        "c_prev": np.empty((n_t, n_b, h_units), dtype=x.dtype),
        "i": np.empty((n_t, n_b, h_units), dtype=x.dtype),
        "f": np.empty((n_t, n_b, h_units), dtype=x.dtype),
        "g": np.empty((n_t, n_b, h_units), dtype=x.dtype),
        "o": np.empty((n_t, n_b, h_units), dtype=x.dtype),
        "tanh_c": np.empty((n_t, n_b, h_units), dtype=x.dtype),
    }
    for t in range(n_t):
        z = pre_x[:, t] + h @ wh.T + b
        gates = _sigmoid(z)  # the cell-gate quarter is unused
        i = gates[:, :h_units]
        f = gates[:, h_units : 2 * h_units]
        g = np.tanh(z[:, 2 * h_units : 3 * h_units])
        o = gates[:, 3 * h_units :]
        cache["h_prev"][t] = h
        cache["c_prev"][t] = c
        c = f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        cache["i"][t], cache["f"][t], cache["g"][t] = i, f, g
        cache["o"][t], cache["tanh_c"][t] = o, tanh_c
        hs[:, t] = h
    return hs, cache


def _lstm_bwd(dhs: np.ndarray, cache, wx: np.ndarray, wh: np.ndarray, groups: int):
    """Gradients of :func:`_lstm`.

    The batch is ``groups`` equal blocks of rows (the two speech inputs run
    as one stacked batch). Weight gradients are accumulated per block and
    summed in block order, so they equal those of separate per-block calls
    bit for bit.
    """
    x = cache["x"]
    n_b, n_t, _ = x.shape
    h_units = wh.shape[1]
    blocks = [slice(lo, lo + n_b // groups) for lo in range(0, n_b, n_b // groups)]
    dwx = np.zeros((groups,) + wx.shape, dtype=wx.dtype)
    dwh = np.zeros((groups,) + wh.shape, dtype=wh.dtype)
    db = np.zeros((groups, 4 * h_units), dtype=x.dtype)
    dx = np.empty_like(x)
    dh_next = np.zeros((n_b, h_units), dtype=x.dtype)
    dc_next = np.zeros((n_b, h_units), dtype=x.dtype)
    for t in range(n_t - 1, -1, -1):
        i, f, g, o = cache["i"][t], cache["f"][t], cache["g"][t], cache["o"][t]
        tanh_c = cache["tanh_c"][t]
        dh = dhs[:, t] + dh_next
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
        df = dc * cache["c_prev"][t]
        di = dc * g
        dg = dc * i
        dc_next = dc * f
        dz = np.concatenate(
            [di * i * (1 - i), df * f * (1 - f), dg * (1 - g * g), do * o * (1 - o)],
            axis=1,
        )
        h_prev = cache["h_prev"][t]
        for k, rows in enumerate(blocks):
            dwx[k] += dz[rows].T @ x[rows, t]
            dwh[k] += dz[rows].T @ h_prev[rows]
            db[k] += dz[rows].sum(axis=0)
        dx[:, t] = dz @ wx
        dh_next = dz @ wh
    return dx, _sum_blocks(dwx), _sum_blocks(dwh), _sum_blocks(db)


def _sum_blocks(acc: np.ndarray) -> np.ndarray:
    total = acc[0].copy()
    for block in acc[1:]:
        total += block
    return total


def _cosine_seq(u: np.ndarray, v: np.ndarray):
    """Per-step cosine similarity of two (B,D,T) stacks -> (B,T)."""
    dot = (u * v).sum(axis=1)
    nu = np.sqrt((u * u).sum(axis=1))
    nv = np.sqrt((v * v).sum(axis=1))
    nuc = np.maximum(nu, COSINE_EPS)
    nvc = np.maximum(nv, COSINE_EPS)
    s = dot / (nuc * nvc)
    return s, (u, v, dot, nu, nv, nuc, nvc)


def _cosine_seq_bwd(ds: np.ndarray, cache):
    u, v, dot, nu, nv, nuc, nvc = cache
    mu = (nu > COSINE_EPS).astype(u.dtype)
    mv = (nv > COSINE_EPS).astype(u.dtype)
    du = ds[:, None, :] * (
        v / (nuc * nvc)[:, None, :] - (mu * dot / (nuc**3 * nvc))[:, None, :] * u
    )
    dv = ds[:, None, :] * (
        u / (nuc * nvc)[:, None, :] - (mv * dot / (nvc**3 * nuc))[:, None, :] * v
    )
    return du, dv


def loss(p: float | np.ndarray, label: float | np.ndarray) -> float | np.ndarray:
    """Binary cross-entropy with probability clamping at 1e-7."""
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    label = np.asarray(label, dtype=np.float64)
    out = -(label * np.log(p) + (1.0 - label) * np.log(1.0 - p))
    return float(out) if np.isscalar(p) or out.ndim == 0 else out


def loss_grad(p: float | np.ndarray, label: float | np.ndarray) -> np.ndarray:
    """d(loss)/dp with the same clamping as :func:`loss`."""
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    label = np.asarray(label, dtype=np.float64)
    return (pc - label) / (pc * (1.0 - pc))


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    """Cached activations of one forward call; consumed once by backward."""

    batch: int
    eeg: dict = field(default_factory=dict)
    branches: tuple = ()
    lstm: dict = field(default_factory=dict)
    sims: tuple = ()
    p: np.ndarray = field(default_factory=lambda: np.empty(0))
    consumed: bool = False


def _split_parts(x: np.ndarray, config: ArchitectureConfig) -> list[np.ndarray]:
    out = []
    lo = 0
    for part in config.parts:
        out.append(x[:, lo : lo + part.dim, :])
        lo += part.dim
    return out


def _check_batch_shapes(config: ArchitectureConfig, eeg, speech: dict, batch_sizes) -> None:
    want_eeg = (config.eeg_channels, config.frames)
    want_sp = (config.feature_dim, config.frames)
    if eeg.shape[1:] != want_eeg:
        raise InvalidInputError(f"EEG batch shape {eeg.shape[1:]} != {want_eeg}")
    for name, arr in speech.items():
        if arr.shape[1:] != want_sp:
            raise InvalidInputError(f"{name} batch shape {arr.shape[1:]} != {want_sp}")
    if any(n != eeg.shape[0] for n in batch_sizes):
        raise InvalidInputError("batch sizes disagree")


def _eeg_path(params: ModelParams, eeg: np.ndarray):
    t = params.tensors
    conv, conv_cache = _conv1d_same(eeg, t["eeg_conv_w"], t["eeg_conv_b"])
    act1, mask1 = _relu(conv)
    dense, dense_x = _td_dense(act1, t["eeg_dense_w"], t["eeg_dense_b"])
    act2, mask2 = _relu(dense)
    cache = {"conv": conv_cache, "mask1": mask1, "dense_x": dense_x, "mask2": mask2}
    if params.config.pooled:
        pooled, pool_cache = _maxpool(act2)
        cache["pool"] = pool_cache
        return pooled, cache
    return act2, cache


def _eeg_path_bwd(params: ModelParams, dout: np.ndarray, cache, grads: dict) -> None:
    t = params.tensors
    if params.config.pooled:
        dout = _maxpool_bwd(dout, cache["pool"])
    dout = _relu_bwd(dout, cache["mask2"])
    dw, db = _td_dense_bwd(dout, cache["dense_x"])
    grads["eeg_dense_w"] += dw
    grads["eeg_dense_b"] += db
    dout = _relu_bwd(_td_dense_dx(dout, t["eeg_dense_w"]), cache["mask1"])
    dw, db = _conv1d_same_bwd(dout, cache["conv"], t["eeg_conv_w"])
    grads["eeg_conv_w"] += dw
    grads["eeg_conv_b"] += db


def _speech_front(params: ModelParams, parts_x: list[np.ndarray]):
    """Front + dense per part and their concatenation: (B, n_parts*D, T_out)."""
    cfg = params.config
    t = params.tensors
    part_caches = []
    outs = []
    for i, part in enumerate(cfg.parts):
        x = parts_x[i]
        cache: dict = {"variant": part.variant}
        if part.variant == "conv":
            conv, conv_cache = _conv1d_same(x, t[f"sp{i}_conv_w"], t[f"sp{i}_conv_b"])
            x, mask = _relu(conv)
            cache["conv"] = conv_cache
            cache["conv_mask"] = mask
        elif part.variant == "maxpool":
            x, pool_cache = _maxpool(x)
            cache["pool_in"] = pool_cache
        dense, dense_x = _td_dense(x, t[f"sp{i}_dense_w"], t[f"sp{i}_dense_b"])
        act, mask2 = _relu(dense)
        cache["dense_x"] = dense_x
        cache["dense_mask"] = mask2
        if cfg.pooled and part.variant != "maxpool":
            act, pool_cache = _maxpool(act)
            cache["pool_out"] = pool_cache
        part_caches.append(cache)
        outs.append(act)
    concat = np.concatenate(outs, axis=1)
    return concat, {"parts": part_caches, "widths": [o.shape[1] for o in outs]}


def _speech_front_bwd(params: ModelParams, dconcat: np.ndarray, cache, grads: dict) -> None:
    cfg = params.config
    t = params.tensors
    lo = 0
    for i, part in enumerate(cfg.parts):
        width = cache["widths"][i]
        dact = dconcat[:, lo : lo + width, :]
        lo += width
        pc = cache["parts"][i]
        if cfg.pooled and part.variant != "maxpool":
            dact = _maxpool_bwd(dact, pc["pool_out"])
        dact = _relu_bwd(dact, pc["dense_mask"])
        dw, db2 = _td_dense_bwd(dact, pc["dense_x"])
        grads[f"sp{i}_dense_w"] += dw
        grads[f"sp{i}_dense_b"] += db2
        # no-conv and maxpool parts read the data directly: their gradients stop here
        if part.variant == "conv":
            dx = _relu_bwd(_td_dense_dx(dact, t[f"sp{i}_dense_w"]), pc["conv_mask"])
            dw, db2 = _conv1d_same_bwd(dx, pc["conv"], t[f"sp{i}_conv_w"])
            grads[f"sp{i}_conv_w"] += dw
            grads[f"sp{i}_conv_b"] += db2


def _lstm_rep(params: ModelParams, fronts: list[np.ndarray]):
    """Shared LSTM over the stacked fronts: (sum of B, H, T_out) and its cache."""
    t = params.tensors
    lstm_in = np.concatenate(fronts).transpose(0, 2, 1)
    hs, cache = _lstm(lstm_in, t["lstm_wx"], t["lstm_wh"], t["lstm_b"])
    return hs.transpose(0, 2, 1), cache


def _head(params: ModelParams, r_eeg: np.ndarray, rep_a: np.ndarray, rep_b: np.ndarray):
    """Logit that ``a`` is the match, and the cosine caches behind it.

    One shared weight on the difference of the similarity sequences, so the
    logit is exactly antisymmetric under swapping a and b.
    """
    sim_a, cos_a = _cosine_seq(r_eeg, rep_a)
    sim_b, cos_b = _cosine_seq(r_eeg, rep_b)
    diff = sim_a - sim_b
    m = params.tensors["head_w"][0] * diff.mean(axis=1)
    return m, (cos_a, cos_b, diff)


def forward_batch(
    params: ModelParams, eeg: np.ndarray, speech_a: np.ndarray, speech_b: np.ndarray
) -> tuple[np.ndarray, ForwardTrace]:
    """Probabilities that each sample's input ``a`` is the matched segment."""
    cfg = params.config
    dt = cfg.np_dtype
    eeg = np.ascontiguousarray(eeg, dtype=dt)
    speech_a = np.ascontiguousarray(speech_a, dtype=dt)
    speech_b = np.ascontiguousarray(speech_b, dtype=dt)
    _check_batch_shapes(cfg, eeg, {"speech_a": speech_a, "speech_b": speech_b},
                        (speech_a.shape[0], speech_b.shape[0]))

    r_eeg, eeg_cache = _eeg_path(params, eeg)
    front_a, cache_a = _speech_front(params, _split_parts(speech_a, cfg))
    front_b, cache_b = _speech_front(params, _split_parts(speech_b, cfg))
    # Both speech inputs share the LSTM, so they run as one stacked batch and
    # the time loop runs once.
    rep, lstm_cache = _lstm_rep(params, [front_a, front_b])
    n = eeg.shape[0]
    m, sims = _head(params, r_eeg, rep[:n], rep[n:])
    p = _sigmoid(m)
    trace = ForwardTrace(
        batch=n,
        eeg=eeg_cache,
        branches=(cache_a, cache_b),
        lstm=lstm_cache,
        sims=sims,
        p=p,
    )
    return p, trace


def forward_segments(
    params: ModelParams,
    eeg: np.ndarray,
    segments: np.ndarray,
    match_row: np.ndarray,
    mismatch_row: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of both orders of triples that share speech segments.

    Triple ``j`` pairs ``eeg[j]`` with matched segment
    ``segments[match_row[j]]`` and mismatched segment
    ``segments[mismatch_row[j]]``. The speech front and the LSTM run once per
    row of ``segments``, however many triples use it. Returns the
    probability of the (match, mismatch) order and of the swapped order;
    the swapped logit is exactly the negated one, so both are bit for bit
    what :func:`forward_batch` returns for each order.
    """
    cfg = params.config
    dt = cfg.np_dtype
    eeg = np.ascontiguousarray(eeg, dtype=dt)
    segments = np.ascontiguousarray(segments, dtype=dt)
    _check_batch_shapes(cfg, eeg, {"segments": segments}, (len(match_row), len(mismatch_row)))

    r_eeg, _ = _eeg_path(params, eeg)
    front, _ = _speech_front(params, _split_parts(segments, cfg))
    rep, _ = _lstm_rep(params, [front])
    m, _ = _head(params, r_eeg, rep[match_row], rep[mismatch_row])
    return _sigmoid(m), _sigmoid(-m)


def backward_batch(params: ModelParams, trace: ForwardTrace, dloss: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients given d(loss)/dp per sample. Consumes the trace."""
    if trace.consumed:
        raise InvalidInputError("forward trace already consumed by a backward call")
    trace.consumed = True
    cfg = params.config
    dloss = np.asarray(dloss, dtype=cfg.np_dtype)
    if dloss.shape != (trace.batch,):
        raise InvalidInputError(f"dloss shape {dloss.shape} != ({trace.batch},)")
    grads = zeros_like_params(params)
    cos_a, cos_b, diff = trace.sims
    p = trace.p
    t_out = diff.shape[1]
    w = params.tensors["head_w"][0]

    dm = dloss * p * (1.0 - p)
    ddiff = (dm / t_out)[:, None] * np.ones_like(diff)
    grads["head_w"][0] = float((dm * diff.mean(axis=1)).sum())
    dsim_a = ddiff * w
    dsim_b = -ddiff * w

    du_a, dv_a = _cosine_seq_bwd(dsim_a, cos_a)
    du_b, dv_b = _cosine_seq_bwd(dsim_b, cos_b)
    t = params.tensors
    dhs = np.concatenate([dv_a, dv_b]).transpose(0, 2, 1)
    dlstm_in, dwx, dwh, db = _lstm_bwd(dhs, trace.lstm, t["lstm_wx"], t["lstm_wh"], groups=2)
    grads["lstm_wx"] += dwx
    grads["lstm_wh"] += dwh
    grads["lstm_b"] += db
    dconcat = dlstm_in.transpose(0, 2, 1)
    _speech_front_bwd(params, dconcat[: trace.batch], trace.branches[0], grads)
    _speech_front_bwd(params, dconcat[trace.batch :], trace.branches[1], grads)
    _eeg_path_bwd(params, du_a + du_b, trace.eeg, grads)
    return grads
