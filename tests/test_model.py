import math

import numpy as np
import pytest

from conftest import backward, forward, generic_params, max_relative_error, numeric_gradients
from eegmatch.errors import InvalidInputError, InvalidSpecError
from eegmatch.model import (
    POOL,
    ArchitectureConfig,
    SpeechPart,
    _cosine_seq,
    _lstm,
    _maxpool,
    _maxpool_bwd,
    backward_batch,
    forward_batch,
    init_params,
    loss,
    loss_grad,
)

TINY = dict(
    eeg_channels=4, frames=20, eeg_conv_filters=3, eeg_conv_kernel=4,
    embed_dim=3, lstm_units=3, speech_conv_filters=3, speech_conv_kernel=4,
)


def tiny_cfg(parts):
    return ArchitectureConfig(parts=parts, **TINY)


def random_inputs(cfg, rng):
    return (
        rng.standard_normal((cfg.eeg_channels, cfg.frames)),
        rng.standard_normal((cfg.feature_dim, cfg.frames)),
        rng.standard_normal((cfg.feature_dim, cfg.frames)),
    )


def argmax_maxpool(x):
    """Reference max-pool: argmax per window, then take_along_axis."""
    n_b, n_c, n_t = x.shape
    j = n_t // POOL
    xw = x[:, :, : j * POOL].reshape(n_b, n_c, j, POOL)
    arg = xw.argmax(axis=3)
    return np.take_along_axis(xw, arg[..., None], axis=3)[..., 0], arg


def argmax_maxpool_bwd(dout, arg, x_shape):
    """Reference max-pool gradient: scatter to the argmax of each window."""
    n_b, n_c, n_t = x_shape
    j = n_t // POOL
    dxw = np.zeros((n_b, n_c, j, POOL), dtype=dout.dtype)
    np.put_along_axis(dxw, arg[..., None], dout[..., None], axis=3)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    dx[:, :, : j * POOL] = dxw.reshape(n_b, n_c, j * POOL)
    return dx


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(f"u{actual.itemsize}"),
                                  expected.view(f"u{expected.itemsize}"))


class TestMaxPool:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_argmax_reference_bit_for_bit(self, dtype):
        rng = np.random.default_rng(3)
        # rounding makes tied maxima common, and signed zeros among them
        x = np.round(rng.standard_normal((4, 5, 62)))
        x[0] = np.maximum(x[0], 0.0)  # post-ReLU: windows of zeros only
        x[1, :, :30] = 0.0
        x[2, 0, :9] = [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, 0.0, 0.0, -0.0]
        x[3, :, 60:] = 99.0  # frames 60-61 are dropped, so never the max
        x = x.astype(dtype)
        assert np.signbit(x[x == 0]).any() and (~np.signbit(x[x == 0])).any()

        out, cache = _maxpool(x)
        ref, arg = argmax_maxpool(x)
        assert_same_bits(out, ref)
        assert (arg != 0).any() and (ref == 0).any()

        dout = rng.standard_normal(out.shape).astype(dtype)
        assert_same_bits(_maxpool_bwd(dout, cache), argmax_maxpool_bwd(dout, arg, x.shape))


class TestCosineStep:
    """Per-step cosine similarity of two (B, D, T) stacks."""

    def test_parallel(self):
        u = np.random.default_rng(0).standard_normal((2, 3, 5))
        s, _ = _cosine_seq(u, 2.5 * u)
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_antiparallel(self):
        u = np.random.default_rng(1).standard_normal((2, 3, 5))
        s, _ = _cosine_seq(u, -u)
        np.testing.assert_allclose(s, -1.0, atol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((4, 5, 20))
        v = rng.standard_normal((4, 5, 20))
        s, _ = _cosine_seq(u, v)
        for b in range(4):
            for t in range(20):
                x, y = u[b, :, t], v[b, :, t]
                direct = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
                assert abs(s[b, t] - direct) < 1e-12

    def test_zero_vector_guarded(self):
        u = np.zeros((1, 2, 3))
        v = np.zeros((1, 2, 3))
        u[0, :, 0] = [3.0, 4.0]  # step 0: v is zero
        v[0, :, 1] = [3.0, 4.0]  # step 1: u is zero; step 2: both are
        s, _ = _cosine_seq(u, v)
        assert s[0, 0] == 0.0 and s[0, 1] == 0.0
        assert -1.0 <= s[0, 2] <= 1.0


class TestLstmStep:
    """The batched LSTM over short sequences (gate order: input, forget, cell, output)."""

    def test_zero_weights_zero_state(self):
        hs, cache = _lstm(np.ones((2, 5, 3)), np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
        np.testing.assert_array_equal(hs, 0.0)
        np.testing.assert_array_equal(cache["c_prev"], 0.0)

    def test_saturated_forget_gate_preserves_cell(self):
        h_units, n_t = 2, 6
        wx = np.zeros((4 * h_units, 2))
        b = np.zeros(4 * h_units)
        b[h_units : 2 * h_units] = 50.0        # forget gate ~ 1
        b[0:h_units] = -50.0                   # input gate ~ 0 ...
        wx[0:h_units, 0] = 100.0               # ... except while input 0 is on
        wx[2 * h_units : 3 * h_units, 1] = [1.0, -2.0]
        x = np.zeros((1, n_t, 2))
        x[0, 0] = [1.0, 0.5]                   # step 0 writes tanh([0.5, -1.0])
        x[0, 1:, 1] = np.random.default_rng(0).standard_normal(n_t - 1)
        _, cache = _lstm(x, wx, np.zeros((4 * h_units, h_units)), b)
        c_after = cache["c_prev"][1:, 0]       # cell state after steps 0..T-2
        np.testing.assert_allclose(c_after, np.tile(np.tanh([0.5, -1.0]), (n_t - 1, 1)),
                                   atol=1e-9)

    def test_matches_scalar_loop_reference(self):
        """Independent oracle: per-unit scalar recurrence, row by row."""
        rng = np.random.default_rng(1)
        n_b, n_t, d_in, h_units = 3, 6, 4, 3
        x = rng.standard_normal((n_b, n_t, d_in))
        wx = rng.standard_normal((4 * h_units, d_in))
        wh = rng.standard_normal((4 * h_units, h_units))
        b = rng.standard_normal(4 * h_units)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        hs, cache = _lstm(x, wx, wh, b)
        for row in range(n_b):
            h = [0.0] * h_units
            c = [0.0] * h_units
            for t in range(n_t):
                z = [
                    sum(wx[r, j] * x[row, t, j] for j in range(d_in))
                    + sum(wh[r, j] * h[j] for j in range(h_units)) + b[r]
                    for r in range(4 * h_units)
                ]
                c = [sig(z[h_units + u]) * c[u] + sig(z[u]) * math.tanh(z[2 * h_units + u])
                     for u in range(h_units)]
                h = [sig(z[3 * h_units + u]) * math.tanh(c[u]) for u in range(h_units)]
                np.testing.assert_allclose(hs[row, t], h, atol=1e-12)
                if t + 1 < n_t:  # the cache holds the cell state entering each step
                    np.testing.assert_allclose(cache["c_prev"][t + 1, row], c, atol=1e-12)


class TestLoss:
    def test_half_is_ln2(self):
        assert loss(0.5, 1.0) == pytest.approx(math.log(2.0))
        assert loss(0.5, 0.0) == pytest.approx(math.log(2.0))

    def test_confident_correct_goes_to_zero(self):
        assert loss(1.0 - 1e-9, 1.0) < 1e-6
        assert loss(1e-9, 0.0) < 1e-6

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.01, 0.99, size=50)
        for label in (0.0, 1.0):
            direct = -(label * np.log(p) + (1 - label) * np.log(1 - p))
            np.testing.assert_allclose(loss(p, np.full(50, label)), direct, atol=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.05, 0.95, size=20)
        for label in (0.0, 1.0):
            step = 1e-7
            num = (loss(p + step, label) - loss(p - step, label)) / (2 * step)
            np.testing.assert_allclose(loss_grad(p, label), num, rtol=1e-5)


class TestForwardInvariants:
    def test_identical_speech_inputs_give_half(self):
        cfg = tiny_cfg((SpeechPart(3, "conv"),))
        for seed in range(5):
            params, rng = generic_params(cfg, seed)
            eeg = rng.standard_normal((4, 20))
            s = rng.standard_normal((3, 20))
            p, _ = forward(params, eeg, s, s)
            assert p == 0.5

    def test_antisymmetry_exact(self):
        cfg = tiny_cfg((SpeechPart(2, "conv"),))
        params, rng = generic_params(cfg, 1)
        for _ in range(50):
            eeg, sa, sb = random_inputs(cfg, rng)
            p_ab, _ = forward(params, eeg, sa, sb)
            p_ba, _ = forward(params, eeg, sb, sa)
            assert abs(p_ab + p_ba - 1.0) < 1e-12

    def test_zero_eeg_gives_half(self):
        cfg = tiny_cfg((SpeechPart(1, "no-conv"),))
        params, rng = generic_params(cfg, 2)
        params.tensors["eeg_conv_b"][:] = -1.0  # rectifier kills every step
        eeg = np.zeros((4, 20))
        sa = rng.standard_normal((1, 20))
        sb = rng.standard_normal((1, 20))
        p, trace = forward(params, eeg, sa, sb)
        assert p == 0.5
        sim_a = trace.sims[0][0]
        assert np.all(sim_a == 0.0)

    def test_speech_path_weights_shared(self):
        cfg = tiny_cfg((SpeechPart(4, "conv"),))
        params, rng = generic_params(cfg, 3)
        eeg, s, _ = random_inputs(cfg, rng)
        _, trace = forward(params, eeg, s, s.copy())
        sim_a, sim_b = trace.sims[0], trace.sims[1]
        np.testing.assert_array_equal(sim_a[0], sim_b[0])

    def test_deterministic(self):
        cfg = tiny_cfg((SpeechPart(2, "conv"),))
        params, rng = generic_params(cfg, 4)
        eeg, sa, sb = random_inputs(cfg, rng)
        p1, _ = forward(params, eeg, sa, sb)
        p2, _ = forward(params, eeg, sa, sb)
        assert p1 == p2

    def test_shape_mismatch_rejected(self):
        cfg = tiny_cfg((SpeechPart(2, "conv"),))
        params, rng = generic_params(cfg, 5)
        eeg, sa, sb = random_inputs(cfg, rng)
        with pytest.raises(InvalidInputError):
            forward(params, eeg[:3], sa, sb)
        with pytest.raises(InvalidInputError):
            forward(params, eeg, sa[:1], sb)

    def test_word_variant_pools_to_106_frames(self):
        cfg = ArchitectureConfig(parts=(SpeechPart(300, "maxpool"),))
        rng = np.random.default_rng(6)
        params = init_params(cfg, rng)
        eeg = rng.standard_normal((64, 320))
        sa = rng.standard_normal((300, 320))
        sb = rng.standard_normal((300, 320))
        _, trace = forward(params, eeg, sa, sb)
        assert trace.sims[2].shape == (1, 106)


class TestBackward:
    VARIANTS = {
        "no-conv": (SpeechPart(1, "no-conv"),),
        "conv": (SpeechPart(3, "conv"),),
        "maxpool": (SpeechPart(6, "maxpool"),),
        "concat": (SpeechPart(1, "no-conv"), SpeechPart(6, "conv")),
        "concat-pooled": (SpeechPart(1, "no-conv"), SpeechPart(4, "maxpool")),
    }

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_gradcheck_all_parameters(self, variant):
        cfg = tiny_cfg(self.VARIANTS[variant])
        params, rng = generic_params(cfg, seed=0)
        eeg, sa, sb = random_inputs(cfg, rng)
        _, trace = forward(params, eeg, sa, sb)
        grads = backward(params, trace, 1.0)
        for key in params.tensors:
            numeric = numeric_gradients(params, eeg, sa, sb, key)
            rel = max_relative_error(grads[key], numeric)
            assert rel < 1e-4, f"{variant}/{key}: rel={rel:.2e}"

    def test_head_has_no_bias(self):
        """A head bias would cancel in the difference of the two similarities."""
        cfg = tiny_cfg((SpeechPart(2, "conv"),))
        rng = np.random.default_rng(7)
        params = init_params(cfg, rng)
        eeg, sa, sb = random_inputs(cfg, rng)
        _, trace = forward_batch(params, eeg[None], sa[None], sb[None])
        grads = backward_batch(params, trace, np.ones(1))
        assert [k for k in params.tensors if k.startswith("head")] == ["head_w"]
        assert set(grads) == set(params.tensors)

    def test_zero_upstream_gives_zero_grads(self):
        cfg = tiny_cfg((SpeechPart(3, "conv"),))
        params, rng = generic_params(cfg, 8)
        eeg, sa, sb = random_inputs(cfg, rng)
        _, trace = forward(params, eeg, sa, sb)
        grads = backward(params, trace, 0.0)
        for key, g in grads.items():
            np.testing.assert_array_equal(g, 0.0, err_msg=key)

    def test_trace_reuse_rejected(self):
        cfg = tiny_cfg((SpeechPart(1, "no-conv"),))
        params, rng = generic_params(cfg, 9)
        eeg, sa, sb = random_inputs(cfg, rng)
        _, trace = forward(params, eeg, sa, sb)
        backward(params, trace, 1.0)
        with pytest.raises(InvalidInputError):
            backward(params, trace, 1.0)

    def test_batch_consistent_with_single(self):
        cfg = tiny_cfg((SpeechPart(2, "conv"),))
        params, rng = generic_params(cfg, 10)
        eeg = rng.standard_normal((3, 4, 20))
        sa = rng.standard_normal((3, 2, 20))
        sb = rng.standard_normal((3, 2, 20))
        p_batch, trace = forward_batch(params, eeg, sa, sb)
        dloss = np.array([0.3, -1.1, 0.7])
        g_batch = backward_batch(params, trace, dloss)
        g_sum = None
        for i in range(3):
            p_i, tr = forward(params, eeg[i], sa[i], sb[i])
            assert abs(p_i - p_batch[i]) < 1e-12
            g_i = backward(params, tr, float(dloss[i]))
            g_sum = g_i if g_sum is None else {k: g_sum[k] + g_i[k] for k in g_i}
        for key in g_batch:
            np.testing.assert_allclose(g_batch[key], g_sum[key], atol=1e-10, err_msg=key)


class TestConfigValidation:
    def test_variant_dimension_consistency(self):
        with pytest.raises(InvalidSpecError):
            SpeechPart(1, "conv")
        with pytest.raises(InvalidSpecError):
            SpeechPart(2, "no-conv")
        with pytest.raises(InvalidSpecError):
            SpeechPart(2, "avgpool")

    def test_dtype_switch(self):
        cfg = ArchitectureConfig(parts=(SpeechPart(2, "conv"),), dtype="float32",
                                 **{k: v for k, v in TINY.items()})
        params = init_params(cfg, np.random.default_rng(0))
        assert params.tensors["eeg_conv_w"].dtype == np.float32
        rng = np.random.default_rng(1)
        eeg, sa, sb = random_inputs(cfg, rng)
        p, _ = forward(params, eeg, sa, sb)
        assert 0.0 < p < 1.0
