import math

import numpy as np
import pytest

from conftest import generic_params, max_relative_error, numeric_gradients
from eegmatch.errors import InvalidInputError, InvalidSpecError
from eegmatch.model import (
    POOL,
    ArchitectureConfig,
    SpeechPart,
    _maxpool,
    _maxpool_bwd,
    backward,
    backward_batch,
    cosine_step,
    forward,
    forward_batch,
    init_params,
    loss,
    loss_grad,
    lstm_step,
    predict,
    predict_batch,
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
    def test_parallel(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert cosine_step(e1, e1) == pytest.approx(1.0)

    def test_antiparallel(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert cosine_step(e1, -e1) == pytest.approx(-1.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.standard_normal(5)
            v = rng.standard_normal(5)
            direct = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
            assert abs(cosine_step(u, v) - direct) < 1e-12

    def test_zero_vector_guarded(self):
        v = np.array([3.0, 4.0])
        assert cosine_step(np.zeros(2), v) == 0.0
        assert -1.0 <= cosine_step(np.zeros(2), np.zeros(2)) <= 1.0


class TestLstmStep:
    def test_zero_weights_zero_state(self):
        h, c = lstm_step(
            np.ones(3), np.zeros(2), np.zeros(2),
            np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8),
        )
        np.testing.assert_allclose(h, 0.0)
        np.testing.assert_allclose(c, 0.0)

    def test_saturated_forget_gate_preserves_cell(self):
        h_units = 2
        b = np.zeros(4 * h_units)
        b[h_units : 2 * h_units] = 50.0        # forget gate ~ 1
        b[0:h_units] = -50.0                   # input gate ~ 0
        c_prev = np.array([0.7, -1.2])
        _, c = lstm_step(
            np.ones(3), np.zeros(h_units), c_prev,
            np.zeros((8, 3)), np.zeros((8, 2)), b,
        )
        np.testing.assert_allclose(c, c_prev, atol=1e-9)

    def test_matches_scalar_loop_reference(self):
        """Independent oracle: per-unit scalar recurrence."""
        rng = np.random.default_rng(1)
        d_in, h_units = 4, 3
        x = rng.standard_normal(d_in)
        h_prev = rng.standard_normal(h_units)
        c_prev = rng.standard_normal(h_units)
        wx = rng.standard_normal((4 * h_units, d_in))
        wh = rng.standard_normal((4 * h_units, h_units))
        b = rng.standard_normal(4 * h_units)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        h_ref = np.empty(h_units)
        c_ref = np.empty(h_units)
        for u in range(h_units):
            zi = sum(wx[u, j] * x[j] for j in range(d_in)) + sum(
                wh[u, j] * h_prev[j] for j in range(h_units)) + b[u]
            zf = sum(wx[h_units + u, j] * x[j] for j in range(d_in)) + sum(
                wh[h_units + u, j] * h_prev[j] for j in range(h_units)) + b[h_units + u]
            zg = sum(wx[2 * h_units + u, j] * x[j] for j in range(d_in)) + sum(
                wh[2 * h_units + u, j] * h_prev[j] for j in range(h_units)) + b[2 * h_units + u]
            zo = sum(wx[3 * h_units + u, j] * x[j] for j in range(d_in)) + sum(
                wh[3 * h_units + u, j] * h_prev[j] for j in range(h_units)) + b[3 * h_units + u]
            c_ref[u] = sig(zf) * c_prev[u] + sig(zi) * math.tanh(zg)
            h_ref[u] = sig(zo) * math.tanh(c_ref[u])
        h, c = lstm_step(x, h_prev, c_prev, wx, wh, b)
        np.testing.assert_allclose(h, h_ref, atol=1e-12)
        np.testing.assert_allclose(c, c_ref, atol=1e-12)


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
        assert cfg.out_frames == 106
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

    def test_head_bias_gradient_zero_on_symmetric_pair(self):
        cfg = tiny_cfg((SpeechPart(2, "conv"),))
        params, rng = generic_params(cfg, 7)
        eeg = rng.standard_normal((4, 20))
        s = rng.standard_normal((2, 20))
        _, trace = forward(params, eeg, s, s.copy())
        grads = backward(params, trace, 1.0)
        np.testing.assert_array_equal(grads["head_b"], 0.0)

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


class TestPredict:
    def test_threshold_and_ties(self):
        cfg = tiny_cfg((SpeechPart(2, "conv"),))
        params, rng = generic_params(cfg, 11)
        eeg, sa, sb = random_inputs(cfg, rng)
        p, _ = forward(params, eeg, sa, sb)
        assert predict(params, (eeg, sa, sb)) == int(p >= 0.5)
        s = rng.standard_normal((2, 20))
        assert predict(params, (eeg, s, s)) == 1  # tie rule: toward input a

    def test_batch_accuracy_matches_recount(self):
        cfg = tiny_cfg((SpeechPart(2, "conv"),))
        params, rng = generic_params(cfg, 12)
        eeg = rng.standard_normal((8, 4, 20))
        sa = rng.standard_normal((8, 2, 20))
        sb = rng.standard_normal((8, 2, 20))
        labels = rng.integers(0, 2, size=8)
        preds = predict_batch(params, eeg, sa, sb)
        accuracy = float((preds == labels).mean())
        recount = np.mean(
            [predict(params, (eeg[i], sa[i], sb[i])) == labels[i] for i in range(8)]
        )
        assert accuracy == recount


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
