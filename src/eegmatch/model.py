"""Dual-path match/mismatch network: forward pass and analytic gradients.

Every input runs a front: a 1-D conv over time with a ReLU (the EEG and
speech features with two or more channels), nothing (one-channel features)
or a stride-3 max-pool (word embeddings), then a time-distributed dense
layer and a ReLU. The EEG path is the conv front ``eeg``, built, run and
differentiated by the same code as each speech part's front ``sp{i}``
(:func:`_fronts`, :func:`_front`, :func:`_front_bwd`); the speech fronts
then share an LSTM as wide as the EEG embedding (``embed_dim``). Per-step
cosine similarity between the EEG and each speech representation gives two
similarity sequences; the head scales the mean of their difference by one
weight. A bias would cancel in that difference, so the head has none, and the
output probability is exactly antisymmetric in the two speech inputs.
Everything is computed in 64-bit floats unless the architecture selects 32-bit.

The three forwards share one core: each checks its inputs in
:func:`_check_inputs`, runs the fronts in :func:`_run_fronts` and ends in
:func:`_tail`, the LSTM and the head. :func:`forward_batch` gathers every
window on its own: the per-window reference that the other two match bit
for bit. :func:`forward_triples` (a training step) and
:func:`forward_windows` (scoring) run the EEG path and the conv and no-conv
speech fronts once over the frames their windows cover (:class:`_FrameTrack`)
and recompute a window's edge frames inside a run. The reference and a step
build the trace that :func:`backward_batch` differentiates in
:func:`_forward`; scoring builds none. The word-embedding front pools before
its dense layer, and the LSTM restarts at every window, so both run per
segment; a segment that is one triple's match and another's mismatch runs
through the LSTM once, and scoring runs it on blocks of segments.

Layout. The API takes EEG and speech batches as (B, C, T). Inside, every
activation is time-major, (T, B, C), from the first layer to the head: a
conv pads its input time-major once, as one (T+K-1)*B-row matrix, so each
tap is one GEMM on a contiguous block of its rows, and a time-distributed
dense layer and its gradients are one GEMM each over T*B rows. The LSTM's
input projection is one matmul over all steps before its loop, and its
weight and input gradients are one GEMM each over all T*B rows after the
backward loop, so both loops run only the recurrence. Within them the
state is unit-major: one step's gates are a (4H, B) block, rows i, f, g, o.
One ``tanh`` gives all four gates, since sigmoid(z) = 1/2 + tanh(z/2)/2 and
the i, f and o rows of the weights are halved beforehand, which is exact.
The head's own logistic is :func:`_sigmoid`, which keeps the output exactly
antisymmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidInputError, InvalidSpecError, refused_as
from .windows import DecisionWindowSet, gather_windows

COSINE_EPS = 1e-8
PROB_CLAMP = 1e-7
POOL = 3  # max-pool window and stride for the word-embedding variant
# Distinct segments per block that :func:`forward_windows` runs the LSTM and
# head on. Scores are bit for bit the same at any block size; this bounds memory.
SCORE_BLOCK_ROWS = 256

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
    speech_conv_filters: int = 16
    speech_conv_kernel: int = 8
    parts: tuple[SpeechPart, ...] = (SpeechPart(28, "conv"),)
    dtype: str = "float64"

    def __post_init__(self) -> None:
        for name in (
            "eeg_channels", "frames", "eeg_conv_filters", "eeg_conv_kernel",
            "embed_dim", "speech_conv_filters", "speech_conv_kernel",
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
    def lstm_input_dim(self) -> int:
        return self.embed_dim * len(self.parts)


@dataclass
class ModelParams:
    """All trainable tensors keyed by name, plus the architecture."""

    config: ArchitectureConfig
    tensors: dict[str, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


def _fronts(config: ArchitectureConfig):
    """(name, input channels, variant, conv filters, conv kernel) of every front, the EEG's first."""
    yield "eeg", config.eeg_channels, "conv", config.eeg_conv_filters, config.eeg_conv_kernel
    for i, part in enumerate(config.parts):
        yield f"sp{i}", part.dim, part.variant, config.speech_conv_filters, config.speech_conv_kernel


def param_shapes(config: ArchitectureConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every trainable tensor by name, in the order :func:`init_params` makes them."""
    d = config.embed_dim
    shapes = {}
    for name, dim, variant, filters, kernel in _fronts(config):
        if variant == "conv":
            shapes[f"{name}_conv_w"] = (filters, dim, kernel)
            shapes[f"{name}_conv_b"] = (filters,)
        shapes[f"{name}_dense_w"] = (d, filters if variant == "conv" else dim)
        shapes[f"{name}_dense_b"] = (d,)
    return {**shapes, "lstm_wx": (4 * d, config.lstm_input_dim), "lstm_wh": (4 * d, d),
            "lstm_b": (4 * d,), "head_w": (1,)}


def init_params(config: ArchitectureConfig, rng: np.random.Generator) -> ModelParams:
    """He/Glorot-style initialization; LSTM forget bias starts at 1."""
    dt = config.np_dtype
    t: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        fan_in = math.prod(shape[1:])
        if name in ("lstm_wx", "lstm_wh"):
            t[name] = (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(dt)
        elif name.endswith(("_conv_w", "_dense_w")):
            t[name] = (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dt)
        else:
            t[name] = np.zeros(shape, dtype=dt)
    t["lstm_b"][config.embed_dim : 2 * config.embed_dim] = 1.0
    t["head_w"][:] = 1.0
    return ModelParams(config, t)


def zeros_like_params(params: ModelParams) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.tensors.items()}


# ---------------------------------------------------------------------------
# layer primitives (batched, time-major: (T, B, C))
# ---------------------------------------------------------------------------


def _conv1d_same(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """'same'-padded 1-D convolution over time. x: (B,C,T), w: (F,C,K) -> (T,B,F).

    The input is padded time-major once, as a (T+K-1)*B x C matrix, so each
    tap's operand is the contiguous row block that starts j frames later.
    """
    n_b, n_c, n_t = x.shape
    n_f, _, k = w.shape
    pad_l = (k - 1) // 2
    xpad = np.zeros((n_t + k - 1, n_b, n_c), dtype=x.dtype)
    xpad[pad_l : pad_l + n_t] = x.transpose(2, 0, 1)
    rows = xpad.reshape(-1, n_c)
    out = np.zeros((n_t * n_b, n_f), dtype=x.dtype)
    for j in range(k):
        out += rows[j * n_b : (j + n_t) * n_b] @ w[:, :, j].T
    out += b
    return out.reshape(n_t, n_b, n_f), rows


def _rows_last(dout: np.ndarray) -> np.ndarray:
    """A (T,B,D) gradient as a contiguous (D, T*B) matrix.

    Sums over T*B rows then run along contiguous memory: BLAS takes them as
    dot products and numpy sums pairwise. Over the transposed view both add
    row after row, which in float32 loses digits that the match and mismatch
    gradients, nearly cancelling, then expose.
    """
    return np.ascontiguousarray(dout.reshape(-1, dout.shape[2]).T)


def _conv1d_same_bwd(dout: np.ndarray, rows: np.ndarray, w: np.ndarray):
    """Weight and bias gradients; every conv reads data, so no input gradient."""
    n_t, n_b, _ = dout.shape
    dout_t = _rows_last(dout)
    dw = np.empty_like(w)
    for j in range(w.shape[2]):
        dw[:, :, j] = dout_t @ rows[j * n_b : (j + n_t) * n_b]
    return dw, dout_t.sum(axis=1)


def _td_dense(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Dense layer applied to every time step. x: (T,B,F), w: (D,F) -> (T,B,D)."""
    out = x.reshape(-1, x.shape[2]) @ w.T
    out += b
    return out.reshape(x.shape[:2] + (w.shape[0],)), x


def _td_dense_bwd(dout: np.ndarray, x: np.ndarray):
    """Weight and bias gradients of :func:`_td_dense`."""
    dout_t = _rows_last(dout)
    return dout_t @ x.reshape(-1, x.shape[2]), dout_t.sum(axis=1)


def _td_dense_dx(dout: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Input gradient of :func:`_td_dense`, needed only where a conv follows."""
    return (dout.reshape(-1, dout.shape[2]) @ w).reshape(dout.shape[:2] + (w.shape[1],))


def _relu(x: np.ndarray):
    return np.maximum(x, 0.0), x > 0


def _relu_bwd(dout: np.ndarray, mask: np.ndarray):
    return dout * mask


def _maxpool(x: np.ndarray):
    """Window-3 stride-3 max over time (axis 0), remainder frames dropped.

    The taps are compared as strided views, latest tap first, into an
    output in the memory order of ``x``. On a tie,
    ``np.maximum`` has been seen to return its second operand, so the
    earliest tap is kept, as ``argmax`` would, down to the sign of a zero.
    NumPy does not document that order; it is pinned by
    ``TestMaxPool::test_matches_argmax_reference_bit_for_bit``, which is the
    test to re-run after a NumPy upgrade. The backward pass does not rely on
    it: ``_maxpool_bwd`` finds the first maximum by ``==``.
    """
    n = x.shape[0] // POOL * POOL
    out = x[0:n:POOL].copy(order="K")
    for k in range(1, POOL):
        np.maximum(x[k:n:POOL], out, out=out)
    return out, (x, out)


def _maxpool_bwd(dout: np.ndarray, cache):
    """Route each gradient to the first tap holding its window's maximum."""
    x, out = cache
    n = out.shape[0] * POOL
    dx = np.zeros(x.shape, dtype=dout.dtype)
    free = np.ones(out.shape, dtype=bool)
    for k in range(POOL):
        first = free & (x[k:n:POOL] == out) if k < POOL - 1 else free
        np.copyto(dx[k:n:POOL], dout, where=first)
        free &= ~first
    return dx


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below."""
    ex = np.exp(-np.abs(x))
    denom = 1.0 + ex
    return np.where(x >= 0, 1.0 / denom, ex / denom)


def _lstm(x: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray):
    """Full-sequence LSTM. x: (T,N,I); returns the hidden states (T,N,H).

    The input projection is one matmul over all T steps before the loop; it
    leaves each step's gates a contiguous (4H, N) block, rows i, f, g, o
    (a single (4H, T*N) GEMM takes as long but leaves strided blocks, which
    are slower to update per step). One ``tanh`` gives all four gates:
    sigmoid(z) = 1/2 + tanh(z/2)/2, and the i, f and o rows of the weights
    are halved beforehand, which is exact. The loop writes the gates, cell
    states, cell tanh and hidden states in place, with no per-step copies.
    Gates and cells are unit-major per step; the hidden states are stored
    (T+1, N, H), so the head reads them as they are and :func:`_lstm_bwd`
    forms the recurrent weight gradient as one GEMM.
    """
    n_t, n_r, _ = x.shape
    h_units = wh.shape[1]
    scale = np.full((4 * h_units, 1), 0.5, dtype=x.dtype)
    scale[2 * h_units : 3 * h_units] = 1.0
    gates = np.matmul(wx * scale, x.transpose(0, 2, 1))  # (T, 4H, N)
    gates += b[:, None] * scale
    wh_half = wh * scale
    sig_if, sig_o = gates[:, : 2 * h_units], gates[:, 3 * h_units :]
    cells = np.zeros((n_t + 1, h_units, n_r), dtype=x.dtype)  # cells[t]: entering step t
    tanh_c = np.empty((n_t, h_units, n_r), dtype=x.dtype)
    hs = np.zeros((n_t + 1, n_r, h_units), dtype=x.dtype)  # hs[t]: entering step t
    for t in range(n_t):
        z = gates[t]
        z += wh_half @ hs[t].T
        np.tanh(z, out=z)
        for s in (sig_if[t], sig_o[t]):
            s *= 0.5
            s += 0.5
        i, f, g, o = z.reshape(4, h_units, n_r)
        np.multiply(f, cells[t], out=cells[t + 1])
        cells[t + 1] += i * g
        np.tanh(cells[t + 1], out=tanh_c[t])
        np.multiply(o, tanh_c[t], out=hs[t + 1].T)
    cache = {"x": x, "gates": gates, "cells": cells, "tanh_c": tanh_c, "hs": hs}
    return hs[1:], cache


def _lstm_bwd(dhs: np.ndarray, cache, wx: np.ndarray, wh: np.ndarray):
    """Gradients of :func:`_lstm`: input, then wx, wh and bias.

    The loop runs only the recurrence: dh, dc, the gate gradient dz of each
    step and dh <- wh^T dz. Each step's dz is stored unit-major, in a
    (4H, T*N) matrix, so the input gradient and the weight gradients are one
    GEMM each over all T*N rows.
    """
    x, gates, cells, tanh_c = cache["x"], cache["gates"], cache["cells"], cache["tanh_c"]
    n_t, n_r, n_i = x.shape
    h_units = wh.shape[1]
    dhs = np.ascontiguousarray(dhs.transpose(0, 2, 1))  # (T, H, N)
    dz = np.empty((4 * h_units, n_t, n_r), dtype=x.dtype)
    dz_t = np.empty((4 * h_units, n_r), dtype=x.dtype)
    upstream = np.empty_like(dz_t)  # d(loss)/d(gate), rows i, f, g, o
    up_i, up_f, up_g, up_o = upstream.reshape(4, h_units, n_r)
    dz_g = dz_t[2 * h_units : 3 * h_units]
    dh = np.zeros((h_units, n_r), dtype=x.dtype)
    dc = np.zeros((h_units, n_r), dtype=x.dtype)
    for t in range(n_t - 1, -1, -1):
        gates_t, tanh_ct = gates[t], tanh_c[t]
        i, f, g, o = gates_t.reshape(4, h_units, n_r)
        dh += dhs[t]
        np.multiply(tanh_ct, tanh_ct, out=up_o)  # dc += dh * o * (1 - tanh_c^2)
        np.subtract(1.0, up_o, out=up_o)
        up_o *= o
        up_o *= dh
        dc += up_o
        np.multiply(dc, g, out=up_i)
        np.multiply(dc, cells[t], out=up_f)
        np.multiply(dc, i, out=up_g)
        np.multiply(dh, tanh_ct, out=up_o)
        np.subtract(1.0, gates_t, out=dz_t)  # s(1-s) on the sigmoid rows ...
        dz_t *= gates_t
        np.multiply(g, g, out=dz_g)  # ... and 1-g^2 on the cell row
        np.subtract(1.0, dz_g, out=dz_g)
        dz_t *= upstream
        dz[:, t] = dz_t
        dc *= f
        dh = wh.T @ dz_t
    dz = dz.reshape(4 * h_units, n_t * n_r)
    h_prev = cache["hs"][:n_t].reshape(n_t * n_r, h_units)
    dx = (dz.T @ wx).reshape(x.shape)
    return dx, dz @ x.reshape(n_t * n_r, n_i), dz @ h_prev, dz.sum(axis=1)


def _cosine_seq(u: np.ndarray, v: np.ndarray):
    """Per-step cosine similarity of two (T,B,D) stacks -> (T,B)."""
    # einsum, since numpy's sum over a last axis of 16 entries is slow
    dot = np.einsum("tbd,tbd->tb", u, v)
    nu = np.sqrt(np.einsum("tbd,tbd->tb", u, u))
    nv = np.sqrt(np.einsum("tbd,tbd->tb", v, v))
    nuc = np.maximum(nu, COSINE_EPS)
    nvc = np.maximum(nv, COSINE_EPS)
    s = dot / (nuc * nvc)
    return s, (u, v, dot, nu, nv, nuc, nvc)


def _cosine_seq_bwd(ds: np.ndarray, cache):
    u, v, dot, nu, nv, nuc, nvc = cache
    mu = (nu > COSINE_EPS).astype(u.dtype)
    mv = (nv > COSINE_EPS).astype(u.dtype)
    inv = ds / (nuc * nvc)
    du = v * inv[..., None] - u * (inv * mu * dot / nuc**2)[..., None]
    dv = u * inv[..., None] - v * (inv * mv * dot / nvc**2)[..., None]
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

    eeg: tuple  # the EEG front's (pool cache, backward), see :func:`_run_fronts`
    parts: list  # each speech part's (pool cache, backward)
    lstm: dict
    match_row: np.ndarray
    mismatch_row: np.ndarray
    sims: tuple
    p: np.ndarray
    consumed: bool = False


def _check_inputs(config: ArchitectureConfig, eeg: tuple, *speech: tuple) -> None:
    """Refuse EEG or speech windows whose (channels, frames) are not the architecture's."""
    for what, got, want in (("EEG", eeg, (config.eeg_channels, config.frames)),
                            *(("speech", x, (config.feature_dim, config.frames)) for x in speech)):
        if tuple(got) != want:
            raise InvalidInputError(f"{what} windows of {tuple(got)} (channels, frames), "
                                    f"but the model takes {want}")


def _front(params: ModelParams, name: str, variant: str, x: np.ndarray):
    """Front ``name`` on its (B, C, T) input: (T_out, B, D), before any pool after it.

    A conv front convolves and rectifies, a maxpool front pools its input
    and a no-conv front reads it as it is; then each runs its dense layer
    and a ReLU.
    """
    t = params.tensors
    cache: dict = {}
    if variant == "conv":
        conv, cache["conv"] = _conv1d_same(x, t[f"{name}_conv_w"], t[f"{name}_conv_b"])
        x, cache["conv_mask"] = _relu(conv)
    elif variant == "maxpool":
        # pool row by row, each in its own (C, T) layout, into a time-major stack
        pooled = np.empty((x.shape[2] // POOL, len(x), x.shape[1]), dtype=x.dtype)
        for r, row in enumerate(x):
            pooled[:, r] = _maxpool(row.T)[0]
        x = pooled
    else:
        x = np.ascontiguousarray(x.transpose(2, 0, 1))
    dense, cache["dense_x"] = _td_dense(x, t[f"{name}_dense_w"], t[f"{name}_dense_b"])
    act, cache["dense_mask"] = _relu(dense)
    return act, cache


def _front_bwd(params: ModelParams, name: str, variant: str, cache, dout: np.ndarray,
               grads: dict) -> None:
    """Add front ``name``'s gradients, given d(loss)/d(the output of :func:`_front`)."""
    t = params.tensors
    dout = _relu_bwd(dout, cache["dense_mask"])
    dw, db = _td_dense_bwd(dout, cache["dense_x"])
    grads[f"{name}_dense_w"] += dw
    grads[f"{name}_dense_b"] += db
    # every front reads data: only a conv front has weights below its dense layer
    if variant == "conv":
        dout = _relu_bwd(_td_dense_dx(dout, t[f"{name}_dense_w"]), cache["conv_mask"])
        dw, db = _conv1d_same_bwd(dout, cache["conv"], t[f"{name}_conv_w"])
        grads[f"{name}_conv_w"] += dw
        grads[f"{name}_conv_b"] += db


def _tail(params: ModelParams, r_eeg: np.ndarray, speech: np.ndarray,
          match_row: np.ndarray, mismatch_row: np.ndarray):
    """Logits of the LSTM over the (T, N, I) ``speech`` fronts and the head, and both caches.

    Triple ``j`` compares ``r_eeg[:, j]`` with rows ``match_row[j]`` and
    ``mismatch_row[j]``; one weight on the difference of the two similarity
    sequences makes its logit exactly antisymmetric under swapping them.
    """
    t = params.tensors
    hs, lstm = _lstm(speech, t["lstm_wx"], t["lstm_wh"], t["lstm_b"])
    sim_a, cos_a = _cosine_seq(r_eeg, hs[:, match_row])
    sim_b, cos_b = _cosine_seq(r_eeg, hs[:, mismatch_row])
    diff = sim_a - sim_b
    return t["head_w"][0] * diff.mean(axis=0), lstm, (cos_a, cos_b, diff)


class _FrameTrack:
    """Frame-wise front ``name`` run once over the frames its windows cover.

    Windows are keyed ``recording * stride + start``; ``keys`` (sorted,
    distinct) are merged into runs of overlapping windows. Each output frame
    is computed from ``reach`` = (before, after) input frames around it, so
    a training step (``keep``) lays its runs ``max(reach)`` zero frames
    apart, for their zero padding, in one :func:`_front` pass whose cache
    :meth:`backward` reads. Scoring runs and holds one run at a time.
    """

    def __init__(self, params, name, variant, kernel, inputs, keys, stride, keep):
        self.params, self.name, self.variant, self.inputs = params, name, variant, inputs
        self.keys, self.stride, self.n_frames = keys, stride, params.config.frames
        n_t = self.n_frames
        reach = _conv_reach(kernel) if variant == "conv" else (0, 0)
        self.before, self.after = (min(r, n_t) for r in reach)
        self.width = min(sum(reach), n_t)
        rec, start = np.divmod(keys, stride)
        first = np.ones(keys.size, dtype=bool)
        first[1:] = (rec[1:] != rec[:-1]) | (start[1:] >= start[:-1] + n_t)
        heads = np.flatnonzero(first)
        run = np.cumsum(first) - 1
        lo = start[heads]
        hi = start[np.append(heads[1:], keys.size) - 1] + n_t
        span, gap = hi - lo, max(reach) if keep else 0
        base = np.cumsum(span + gap) - span - gap  # each run's first row
        acts = []
        for runs in np.array_split(np.arange(heads.size), 1 if keep else heads.size):
            rows = (base[runs] - base[runs[0]]).tolist()
            x = np.zeros((1, len(inputs[0]), rows[-1] + span[runs[-1]]), params.config.np_dtype)
            for r, a, b, row in zip(rec[heads[runs]].tolist(), lo[runs], hi[runs], rows):
                x[0, :, row : row + b - a] = inputs[r][:, a:b]
            act, cache = _front(params, name, variant, x)
            acts.append(act[:, 0])
        self.frames, self.cache = np.concatenate(acts), cache if keep else None
        self.pos = base[run] + start - lo[run]  # row of each window's first frame
        # windows whose first or last frames lie inside their run
        self.inner = ((self.width > 0) & (start > lo[run]),
                      (self.width > 0) & (start + n_t < hi[run]))

    def windows(self, keys: np.ndarray):
        """(T, B, D) activations of windows ``keys``, bit for bit as :func:`_front` gives
        them alone, and the state :meth:`backward` reads.

        Frames are sliced from the runs. A window's first ``before`` and last
        ``after`` frames read its zero padding, so inside a run they are
        computed again from its own first and last ``width`` frames.
        """
        n_t, before, after, width = self.n_frames, self.before, self.after, self.width
        at = np.searchsorted(self.keys, keys)
        pos = self.pos[at]
        out = self.frames[pos + np.arange(n_t)[:, None]]
        head, tail = (np.flatnonzero(inner[at]) for inner in self.inner)
        edges = None
        if head.size or tail.size:
            rec, start = np.divmod(keys, self.stride)
            x = gather_windows(self.inputs, np.concatenate([rec[head], rec[tail]]),
                               np.concatenate([start[head], start[tail] + n_t - width]),
                               width, self.frames.dtype)
            act, edges = _front(self.params, self.name, self.variant, x)
            out[:before, head] = act[:before, : head.size]
            out[n_t - after :, tail] = act[width - after :, head.size :]
        return out, (pos, head, tail, edges)

    def backward(self, state, dout: np.ndarray, grads: dict) -> None:
        """Add the gradients of the windows :meth:`windows` gave, given d(loss)/d(them).

        Each frame's gradient goes onto the row of the pass that made it: the
        edge pass for a recomputed edge frame, else the run pass, where
        overlapping windows add up. :func:`_front_bwd` runs once per pass.
        """
        pos, head, tail, edges = state
        n_t, before, after, width = self.n_frames, self.before, self.after, self.width
        if edges is not None:
            dout = dout.copy()
            dedge = np.zeros((width, head.size + tail.size, dout.shape[2]), dtype=dout.dtype)
            # tail edges were written last, so where a window's two edges meet the tail's count
            dedge[width - after :, head.size :] = dout[n_t - after :, tail]
            dout[n_t - after :, tail] = 0.0
            dedge[:before, : head.size] = dout[:before, head]
            dout[:before, head] = 0.0
            _front_bwd(self.params, self.name, self.variant, edges, dedge, grads)
        drun = np.zeros(self.frames.shape, dtype=dout.dtype)
        for b, row in enumerate(pos.tolist()):
            drun[row : row + n_t] += dout[:, b]
        _front_bwd(self.params, self.name, self.variant, self.cache, drun[:, None], grads)


def _conv_reach(k: int) -> tuple[int, int]:
    """Frames a 'same' convolution of kernel ``k`` reads before and after each output frame."""
    return (k - 1) // 2, k - 1 - (k - 1) // 2


def _blocks(match_key: np.ndarray, mismatch_key: np.ndarray, rows: int):
    """Bounds of runs of consecutive triples holding at most ``rows`` distinct segments.

    A last run of one triple joins the run before it, two rows over:
    numpy sums the head's mean over a lone triple's frames pairwise but over
    several triples' frames in order, so a lone triple would not score bit
    for bit as it does among others.
    """
    bounds, seen = [0], set()
    for j, pair in enumerate(zip(match_key.tolist(), mismatch_key.tolist())):
        if seen and len(seen.union(pair)) > rows:
            bounds.append(j)
            seen = set()
        seen.update(pair)
    if len(bounds) > 1 and match_key.size - bounds[-1] == 1:
        bounds.pop()
    return zip(bounds, bounds[1:] + [match_key.size])


def _keyed(params: ModelParams, ws: DecisionWindowSet, idx: np.ndarray):
    """Keys ``recording * stride + start`` of triples ``idx``'s EEG windows and mismatched
    segments, and the stride; a recording unlike the model is refused by name."""
    cfg = params.config
    for r in ws.recordings:
        with refused_as(f"{r.subject_id}/{r.recording_id}"):
            _check_inputs(cfg, *((len(x), ws.spec.window_frames) for x in (r.eeg, r.feature)))
    stride = max(r.eeg.shape[1] for r in ws.recordings)
    eeg_key = ws.rec_index[idx] * stride + ws.start_frame[idx]
    return eeg_key, eeg_key + ws.mismatch_offset, stride


def _tracks(params: ModelParams, ws: DecisionWindowSet, eeg_keys, segment_keys, stride,
            keep: bool) -> list:
    """Per front: its name, variant and a frame-wise front's :class:`_FrameTrack` over
    the EEG windows or speech segments of ``ws`` keyed so in order, or a
    maxpool part's inputs."""
    tracks, lo = [], 0
    for name, dim, variant, _, kernel in _fronts(params.config):
        if name == "eeg":
            inputs, keys = [r.eeg for r in ws.recordings], eeg_keys
        else:
            inputs, keys = [r.feature[lo : lo + dim] for r in ws.recordings], segment_keys
            lo += dim
        if variant != "maxpool":
            inputs = _FrameTrack(params, name, variant, kernel, inputs, keys, stride, keep)
        tracks.append((name, variant, inputs))
    return tracks


def _run_fronts(params: ModelParams, tracks: list, eeg_keys, segment_keys, stride):
    """The EEG front over windows ``eeg_keys`` and the speech fronts, side by side,
    over segments ``segment_keys``, on the model's time axis, and the (pool
    cache, backward) of the EEG front and of each part.

    A front slices its windows from its :class:`_FrameTrack`, or else gathers
    them from its inputs, one (C, L) array per recording. A maxpool part sets
    the time axis, so a pooled config pools the other fronts after their dense layer.
    """
    cfg = params.config
    acts, backs = [], []
    for name, variant, track in tracks:
        keys = eeg_keys if name == "eeg" else segment_keys
        if isinstance(track, _FrameTrack):
            act, state = track.windows(keys)
            back = partial(track.backward, state)
        else:
            segments = gather_windows(track, *np.divmod(keys, stride), cfg.frames, cfg.np_dtype)
            act, cache = _front(params, name, variant, segments)
            back = partial(_front_bwd, params, name, variant, cache)
        act, pool = _maxpool(act) if cfg.pooled and variant != "maxpool" else (act, None)
        acts.append(act)
        backs.append((pool, back))
    (r_eeg, *outs), (eeg_back, *part_backs) = acts, backs
    return r_eeg, np.concatenate(outs, axis=2), eeg_back, part_backs


def _forward(params: ModelParams, tracks: list, eeg_key, mismatch_key, stride) -> ForwardTrace:
    """The trace of the triples whose EEG window and match are keyed ``eeg_key`` and whose
    mismatch is keyed ``mismatch_key``; each distinct segment runs through the LSTM once."""
    keys = np.union1d(eeg_key, mismatch_key)
    r_eeg, speech, eeg_back, part_backs = _run_fronts(params, tracks, eeg_key, keys, stride)
    match_row, mismatch_row = np.searchsorted(keys, np.stack([eeg_key, mismatch_key]))
    m, lstm, sims = _tail(params, r_eeg, speech, match_row, mismatch_row)
    return ForwardTrace(eeg=eeg_back, parts=part_backs, lstm=lstm, match_row=match_row,
                        mismatch_row=mismatch_row, sims=sims, p=_sigmoid(m))


def forward_batch(
    params: ModelParams, eeg: np.ndarray, speech_a: np.ndarray, speech_b: np.ndarray
) -> tuple[np.ndarray, ForwardTrace]:
    """Probabilities that each sample's input ``a`` is the matched segment, and the
    trace that :func:`backward_batch` differentiates.

    The per-window reference that a step and scoring match bit for bit:
    sample ``j`` is window ``j`` of each (B, C, T) input, and each front
    gathers its windows one by one in :func:`_run_fronts`, never from a
    :class:`_FrameTrack`, before the same :func:`_tail`.
    """
    cfg = params.config
    eeg, speech_a, speech_b = (np.asarray(x) for x in (eeg, speech_a, speech_b))
    _check_inputs(cfg, eeg.shape[1:], speech_a.shape[1:], speech_b.shape[1:])
    n = len(eeg)
    if len(speech_a) != n or len(speech_b) != n:
        raise InvalidInputError("batch sizes disagree")
    cuts = np.cumsum([p.dim for p in cfg.parts])[:-1]
    inputs = [eeg, *np.split(np.concatenate([speech_a, speech_b]), cuts, axis=1)]
    tracks = [(name, variant, x) for (name, _, variant, _, _), x in zip(_fronts(cfg), inputs)]
    trace = _forward(params, tracks, np.arange(n), n + np.arange(n), stride=1)
    return trace.p, trace


def forward_triples(params: ModelParams, ws: DecisionWindowSet,
                    idx: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Probabilities that triples ``idx`` of ``ws`` match in the (match, mismatch) order,
    and the trace that :func:`backward_batch` differentiates.

    A training step: each frame-wise front runs once over the frames that its
    windows cover (see :class:`_FrameTrack`), and the step builds its trace in
    :func:`_forward`, as :func:`forward_batch` does. Its probabilities are
    :func:`forward_batch`'s over the same triples bit for bit. A triple taken
    twice is refused.
    """
    eeg_key, mismatch_key, stride = _keyed(params, ws, np.asarray(idx, dtype=np.int64))
    windows = np.unique(eeg_key)
    if windows.size < eeg_key.size:
        raise InvalidInputError("a step takes a triple twice")
    tracks = _tracks(params, ws, windows, np.union1d(eeg_key, mismatch_key), stride, keep=True)
    trace = _forward(params, tracks, eeg_key, mismatch_key, stride)
    return trace.p, trace


def forward_windows(params: ModelParams, ws: DecisionWindowSet) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of both orders of every triple of ``ws``, with fronts run per recording.

    Triple ``j`` pairs its recording's EEG window at its start frame with
    that recording's feature segments at the same start (the match) and
    ``ws.mismatch_offset`` frames later (the mismatch). The LSTM and head run
    on blocks of consecutive triples, by recording and start, holding at
    most :data:`SCORE_BLOCK_ROWS` distinct segments (see :func:`_blocks`). A
    recording whose windows the model does not take is refused by name.
    """
    order = np.lexsort((ws.start_frame, ws.rec_index))
    eeg_key, mismatch_key, stride = _keyed(params, ws, order)
    tracks = _tracks(params, ws, np.unique(eeg_key), np.union1d(eeg_key, mismatch_key), stride,
                     keep=False)
    m = np.empty(ws.n_triples, dtype=params.config.np_dtype)
    for a, b in _blocks(eeg_key, mismatch_key, SCORE_BLOCK_ROWS):
        keys = np.union1d(eeg_key[a:b], mismatch_key[a:b])
        r_eeg, speech, _, _ = _run_fronts(params, tracks, eeg_key[a:b], keys, stride)
        rows = np.searchsorted(keys, np.stack([eeg_key[a:b], mismatch_key[a:b]]))
        m[order[a:b]] = _tail(params, r_eeg, speech, *rows)[0]
    return _sigmoid(m), _sigmoid(-m)


def backward_batch(params: ModelParams, trace: ForwardTrace, dloss: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients given d(loss)/dp per sample. Consumes the trace."""
    if trace.consumed:
        raise InvalidInputError("forward trace already consumed by a backward call")
    trace.consumed = True
    cfg = params.config
    dloss = np.asarray(dloss, dtype=cfg.np_dtype)
    if dloss.shape != trace.p.shape:
        raise InvalidInputError(f"dloss shape {dloss.shape} != {trace.p.shape}")
    grads = zeros_like_params(params)
    cos_a, cos_b, diff = trace.sims
    p = trace.p
    t_out = diff.shape[0]
    w = params.tensors["head_w"][0]

    dm = dloss * p * (1.0 - p)
    ddiff = (dm / t_out)[None, :] * np.ones_like(diff)
    grads["head_w"][0] = float((dm * diff.mean(axis=0)).sum())
    dsim_a = ddiff * w
    dsim_b = -ddiff * w

    du_a, dv_a = _cosine_seq_bwd(dsim_a, cos_a)
    du_b, dv_b = _cosine_seq_bwd(dsim_b, cos_b)
    t = params.tensors
    # A segment used as a match and as a mismatch gets both gradients; rows
    # are distinct within each map, so each += touches a row once.
    dhs = np.zeros(trace.lstm["x"].shape[:2] + (cfg.embed_dim,), dtype=dv_a.dtype)
    dhs[:, trace.match_row] += dv_a
    dhs[:, trace.mismatch_row] += dv_b
    dlstm_in, dwx, dwh, db = _lstm_bwd(dhs, trace.lstm, t["lstm_wx"], t["lstm_wh"])
    grads["lstm_wx"] += dwx
    grads["lstm_wh"] += dwh
    grads["lstm_b"] += db

    def front_bwd(front, dout):
        pool, back = front
        back(dout if pool is None else _maxpool_bwd(dout, pool), grads)

    d = cfg.embed_dim
    for k, front in enumerate(trace.parts):
        front_bwd(front, dlstm_in[:, :, k * d : (k + 1) * d])
    front_bwd(trace.eeg, du_a + du_b)
    return grads
