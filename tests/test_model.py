import dataclasses
import math

import numpy as np
import pytest

from conftest import backward, forward, generic_params, max_relative_error, numeric_gradients
from eegmatch.errors import InvalidInputError, InvalidSpecError
from eegmatch.features import speech_parts
from eegmatch.model import (
    POOL,
    ArchitectureConfig,
    ModelParams,
    SpeechPart,
    _cosine_seq,
    _lstm,
    _maxpool,
    _maxpool_bwd,
    backward_batch,
    forward_batch,
    forward_windows,
    init_params,
    loss,
    loss_grad,
)
from eegmatch.windows import RecordingData, WindowingSpec, window_set

TINY = dict(
    eeg_channels=4, frames=20, eeg_conv_filters=3, eeg_conv_kernel=4,
    embed_dim=3, speech_conv_filters=3, speech_conv_kernel=4,
)


def tiny_cfg(parts):
    return ArchitectureConfig(parts=parts, **TINY)


# Sampled from the batch-major (B, C, T) model; see TestBackward.test_matches_batch_major_samples.
BATCH_MAJOR_SAMPLES = {
    "no-conv": {
        "p": [0.47996398003211854, 0.49254452668788407, 0.4743914461572346],
        "eeg_conv_w": (0.031311191601190405,
                       [-0.022697816922309946, 0.001485704827223941, -0.0005167790301894102]),
        "eeg_conv_b": (0.01689919760212746,
                       [-0.014114641444563081, -0.0047293373325712935, 0.01689919760212746]),
        "eeg_dense_w": (0.024209468832179826,
                        [0.005469972525251389, -0.003078135856764879, -0.015936957670641502]),
        "eeg_dense_b": (0.03097588005101503,
                        [0.019735556085620158, 0.0037088796087229783, -0.03097588005101503]),
        "sp0_dense_w": (0.043446739318928534,
                        [-0.0018073843806650919, 0.026911205305167787, -0.043446739318928534]),
        "sp0_dense_b": (0.062308068436454304,
                        [0.018669202377273847, -0.062308068436454304, -0.06126516074329776]),
        "lstm_wx": (0.12261813067795041,
                    [-0.010608043418134669, 0.08177023483745184, 0.0012333903139071325]),
        "lstm_wh": (0.07270560462036245,
                    [0.0007152948588393653, -0.03480865914181748, 0.0010572973761441714]),
        "lstm_b": (0.20806015007885287,
                   [-0.003787364750720243, 0.20806015007885287, -0.0023488584174235277]),
        "head_w": (0.015699186633062582, [-0.015699186633062582]),
    },
    "conv": {
        "p": [0.4628275899802842, 0.5344718420846957, 0.4699796413201656],
        "eeg_conv_w": (0.04024781126953758,
                       [-0.0016845996774078897, 0.017125443614539777, 0.021242817603589398]),
        "eeg_conv_b": (0.01979685703819902,
                       [0.001284774646197806, -0.011776152522923675, 0.01979685703819902]),
        "eeg_dense_w": (0.024776569030920948,
                        [0.022858360745857675, -0.0024828423321162072, -0.009440919632050947]),
        "eeg_dense_b": (0.041292321915499565,
                        [0.041292321915499565, -0.012542988171466785, -0.03183156711917248]),
        "sp0_conv_w": (0.12011711165080916,
                       [-0.01279676245257325, 0.017832194690105323, 0.028585346608779087]),
        "sp0_conv_b": (0.082461960480626,
                       [-0.004027009278734806, 0.082461960480626, 0.010026609495126834]),
        "sp0_dense_w": (0.11975846544901524,
                        [0.034713593139572466, -0.05396408975532214, -0.11975846544901524]),
        "sp0_dense_b": (0.1294436675807423,
                        [0.1294436675807423, -0.08161009892028379, -0.062300357668313947]),
        "lstm_wx": (0.37962089399190746,
                    [0.02498322443968636, 0.37962089399190746, 0.0013836423057728012]),
        "lstm_wh": (0.040980657488788194,
                    [-0.000878394157233483, 0.0026515256422340377, -0.0021889983292652584]),
        "lstm_b": (0.337526200551384,
                   [-0.00015021544911763152, 0.337526200551384, 0.003958726577046983]),
        "head_w": (0.06987305111344262, [-0.06987305111344262]),
    },
    "maxpool": {
        "p": [0.4879204699210256, 0.508241171638453, 0.4668618398396759],
        "eeg_conv_w": (0.04203245439026112,
                       [0.012161508300988092, -0.0017619090288657048, -0.008460123427064262]),
        "eeg_conv_b": (0.024186901618643827,
                       [0.023384965066332385, 0.005620584497458163, -0.024186901618643827]),
        "eeg_dense_w": (0.018185130510090672,
                        [-0.009885695336669073, 0.013231552745547107, 0.012814590073947371]),
        "eeg_dense_b": (0.035388854781899064,
                        [-0.01877753201899515, 0.01914281438251322, 0.035388854781899064]),
        "sp0_dense_w": (0.13851456682561525,
                        [0.06112153687762012, 0.13851456682561525, 0.010869530074255628]),
        "sp0_dense_b": (0.066240888871336,
                        [0.050073117552062146, 0.066240888871336, 0.013477522653736224]),
        "lstm_wx": (0.10856823937820367,
                    [0.0002342012724450064, 0.003748888530540238, -0.010000665983032384]),
        "lstm_wh": (0.03323625771369146,
                    [-0.00021233312855800882, 0.017674313839385145, -0.006513766352937258]),
        "lstm_b": (0.11647869706006718,
                   [0.004701687183503997, 0.11647869706006718, -0.01619105894531418]),
        "head_w": (0.03581481950896096, [-0.03581481950896096]),
    },
    "concat": {
        "p": [0.4134377898508196, 0.4858229396611593, 0.4587749834844379],
        "eeg_conv_w": (0.2392904073509304,
                       [-0.02234560410892801, 0.0824157547288761, 0.010924692804009848]),
        "eeg_conv_b": (0.09258029892726437,
                       [-0.0390584263858385, 0.09258029892726437, -0.030695564600597466]),
        "eeg_dense_w": (0.022051904017533767,
                        [0.0026428198403046143, 0.00858622499826476, 0.010209661158737398]),
        "eeg_dense_b": (0.10341659774270262,
                        [0.06885617458154339, 0.016390719164456866, -0.10341659774270262]),
        "sp0_dense_w": (0.06378016934363176,
                        [0.03359293867995566, 0.06378016934363176, -0.0014559367657769537]),
        "sp0_dense_b": (0.1439758489440207,
                        [0.036081013844163706, -0.1439758489440207, -0.0016426648384236676]),
        "sp1_conv_w": (0.21943155902445338,
                       [0.01301448907830854, -0.023570518548555502, 0.08636779920304957]),
        "sp1_conv_b": (0.11962423384640522,
                       [-0.028191225904499635, 0.044207293623924566, -0.11962423384640522]),
        "sp1_dense_w": (0.0872835112107016,
                        [0.033117340569091165, 0.03074197374711407, -0.018324989418530765]),
        "sp1_dense_b": (0.09749373162970068,
                        [0.09749373162970068, -0.04167864896386671, -0.0639266507879333]),
        "lstm_wx": (0.1730424327108539,
                    [-0.012682474967154432, -0.05504274500546813, -0.002414114917107746]),
        "lstm_wh": (0.080734783550759,
                    [0.00175891754642992, -0.05711540348513073, 0.0038735622639467647]),
        "lstm_b": (0.2749095267599804,
                   [-0.04460870955936372, 0.2749095267599804, -0.026867435524325137]),
        "head_w": (0.03858676648179553, [-0.03858676648179553]),
    },
    "concat-pooled": {
        "p": [0.5531068767512246, 0.4622165514809698, 0.37272736571619064],
        "eeg_conv_w": (0.06805370923581425,
                       [0.0028904148038274664, -0.021508444566239418, -0.05140626856896513]),
        "eeg_conv_b": (0.049164415899761435,
                       [0.01551441234449105, 0.006733110803159073, -0.049164415899761435]),
        "eeg_dense_w": (0.025909877465618094,
                        [0.005371364335657871, 0.023701020242648693, 0.005838481888420345]),
        "eeg_dense_b": (0.038279422280796,
                        [-0.038279422280796, 0.0189519620911734, 0.013423683997674803]),
        "sp0_dense_w": (0.03115081383798022,
                        [0.005754585337684432, 0.03115081383798022, -0.021975615418004826]),
        "sp0_dense_b": (0.03880978052155443,
                        [0.0035180758483961466, 0.03880978052155443, -0.020174187592920854]),
        "sp1_dense_w": (0.10541858669513099,
                        [0.026265975516597737, -0.008793502211702714, -0.02404544106033895]),
        "sp1_dense_b": (0.047390659616368944,
                        [0.047390659616368944, -0.022075250195402255, -0.03542885020066741]),
        "lstm_wx": (0.15350773781590657,
                    [-0.0024183826999331563, -0.011219754016396409, 0.01182065732052362]),
        "lstm_wh": (0.045057567393506526,
                    [-0.0009793262920942856, -0.009590465120916446, 0.00031948112444184554]),
        "lstm_b": (0.07910289107227418,
                   [-0.00767263993682736, -0.01595347583634321, 0.008182340095252158]),
        "head_w": (0.027975853656773762, [-0.027975853656773762]),
    },
}


def random_inputs(cfg, rng):
    return (
        rng.standard_normal((cfg.eeg_channels, cfg.frames)),
        rng.standard_normal((cfg.feature_dim, cfg.frames)),
        rng.standard_normal((cfg.feature_dim, cfg.frames)),
    )


def argmax_maxpool(x):
    """Reference max-pool over time (axis 0): argmax per window, then take_along_axis."""
    n_t, n_b, n_c = x.shape
    j = n_t // POOL
    xw = x[: j * POOL].reshape(j, POOL, n_b, n_c)
    arg = xw.argmax(axis=1)
    return np.take_along_axis(xw, arg[:, None], axis=1)[:, 0], arg


def argmax_maxpool_bwd(dout, arg, x_shape):
    """Reference max-pool gradient: scatter to the argmax of each window."""
    n_t, n_b, n_c = x_shape
    j = n_t // POOL
    dxw = np.zeros((j, POOL, n_b, n_c), dtype=dout.dtype)
    np.put_along_axis(dxw, arg[:, None], dout[:, None], axis=1)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    dx[: j * POOL] = dxw.reshape(j * POOL, n_b, n_c)
    return dx


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(f"u{actual.itemsize}"),
                                  expected.view(f"u{expected.itemsize}"))


class TestMaxPool:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_argmax_reference_bit_for_bit(self, dtype):
        """Pools a (T, B, C) stack; rows are built per (B, C) series, then put time-major."""
        rng = np.random.default_rng(3)
        # rounding makes tied maxima common, and signed zeros among them
        x = np.round(rng.standard_normal((4, 5, 62)))
        x[0] = np.maximum(x[0], 0.0)  # post-ReLU: windows of zeros only
        x[1, :, :30] = 0.0
        x[2, 0, :9] = [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, 0.0, 0.0, -0.0]
        x[3, :, 60:] = 99.0  # frames 60-61 are dropped, so never the max
        x = np.ascontiguousarray(x.astype(dtype).transpose(2, 0, 1))
        assert np.signbit(x[x == 0]).any() and (~np.signbit(x[x == 0])).any()

        out, cache = _maxpool(x)
        ref, arg = argmax_maxpool(x)
        assert_same_bits(out, ref)
        assert (arg != 0).any() and (ref == 0).any()

        dout = rng.standard_normal(out.shape).astype(dtype)
        assert_same_bits(_maxpool_bwd(dout, cache), argmax_maxpool_bwd(dout, arg, x.shape))
        # the word-embedding front pools a time-major view of (B, C, T) data
        view = np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert_same_bits(_maxpool(view)[0], ref)


class TestCosineStep:
    """Per-step cosine similarity of two (T, B, D) stacks."""

    def test_parallel(self):
        u = np.random.default_rng(0).standard_normal((5, 2, 3))
        s, _ = _cosine_seq(u, 2.5 * u)
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_antiparallel(self):
        u = np.random.default_rng(1).standard_normal((5, 2, 3))
        s, _ = _cosine_seq(u, -u)
        np.testing.assert_allclose(s, -1.0, atol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((20, 4, 5))
        v = rng.standard_normal((20, 4, 5))
        s, _ = _cosine_seq(u, v)
        for b in range(4):
            for t in range(20):
                x, y = u[t, b], v[t, b]
                direct = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
                assert abs(s[t, b] - direct) < 1e-12

    def test_zero_vector_guarded(self):
        u = np.zeros((3, 1, 2))
        v = np.zeros((3, 1, 2))
        u[0, 0] = [3.0, 4.0]  # step 0: v is zero
        v[1, 0] = [3.0, 4.0]  # step 1: u is zero; step 2: both are
        s, _ = _cosine_seq(u, v)
        assert s[0, 0] == 0.0 and s[1, 0] == 0.0
        assert -1.0 <= s[2, 0] <= 1.0


class TestLstmStep:
    """The batched LSTM over short time-major (T, N, I) sequences.

    Gate order: input, forget, cell, output. ``cache["cells"][t]`` is the
    (H, N) cell state entering step t.
    """

    def test_zero_weights_zero_state(self):
        hs, cache = _lstm(np.ones((5, 2, 3)), np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
        np.testing.assert_array_equal(hs, 0.0)
        np.testing.assert_array_equal(cache["cells"], 0.0)

    def test_saturated_forget_gate_preserves_cell(self):
        h_units, n_t = 2, 6
        wx = np.zeros((4 * h_units, 2))
        b = np.zeros(4 * h_units)
        b[h_units : 2 * h_units] = 50.0        # forget gate ~ 1
        b[0:h_units] = -50.0                   # input gate ~ 0 ...
        wx[0:h_units, 0] = 100.0               # ... except while input 0 is on
        wx[2 * h_units : 3 * h_units, 1] = [1.0, -2.0]
        x = np.zeros((n_t, 1, 2))
        x[0, 0] = [1.0, 0.5]                   # step 0 writes tanh([0.5, -1.0])
        x[1:, 0, 1] = np.random.default_rng(0).standard_normal(n_t - 1)
        _, cache = _lstm(x, wx, np.zeros((4 * h_units, h_units)), b)
        c_after = cache["cells"][1:n_t, :, 0]  # cell state after steps 0..T-2
        np.testing.assert_allclose(c_after, np.tile(np.tanh([0.5, -1.0]), (n_t - 1, 1)),
                                   atol=1e-9)

    def test_matches_scalar_loop_reference(self):
        """Independent oracle: per-unit scalar recurrence, row by row."""
        rng = np.random.default_rng(1)
        n_b, n_t, d_in, h_units = 3, 6, 4, 3
        x = rng.standard_normal((n_b, n_t, d_in))
        x_tm = np.ascontiguousarray(x.transpose(1, 0, 2))
        wx = rng.standard_normal((4 * h_units, d_in))
        wh = rng.standard_normal((4 * h_units, h_units))
        b = rng.standard_normal(4 * h_units)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        hs, cache = _lstm(x_tm, wx, wh, b)
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
                np.testing.assert_allclose(hs[t, row], h, atol=1e-12)
                if t + 1 < n_t:  # the cache holds the cell state entering each step
                    np.testing.assert_allclose(cache["cells"][t + 1, :, row], c, atol=1e-12)


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
        assert trace.sims[2].shape == (106, 1)


class TestInputCheck:
    """One check refuses EEG or speech windows unlike the model, per batch and per recording."""

    CFG = tiny_cfg((SpeechPart(2, "conv"),))  # (4, 20) EEG windows, (2, 20) speech windows
    REFUSED = r"windows of \(\d+, \d+\) \(channels, frames\), but the model takes \(\d+, 20\)$"

    @pytest.mark.parametrize("which, shape, what", [
        (0, (4, 5, 20), "EEG"), (0, (4, 4, 19), "EEG"),
        (1, (4, 3, 20), "speech"), (2, (4, 2, 21), "speech"),
    ], ids=["eeg-channels", "eeg-frames", "speech-channels", "speech-frames"])
    def test_batch_unlike_the_model_is_refused(self, which, shape, what):
        params, rng = generic_params(self.CFG, 11)
        inputs = [rng.standard_normal((4, c, self.CFG.frames)) for c in (4, 2, 2)]
        inputs[which] = rng.standard_normal(shape)
        with pytest.raises(InvalidInputError, match=f"^{what} {self.REFUSED}"):
            forward_batch(params, *inputs)

    @pytest.mark.parametrize("which", [1, 2], ids=["speech_a", "speech_b"])
    @pytest.mark.parametrize("n", [3, 5])
    def test_batch_sizes_that_disagree_are_refused(self, which, n):
        params, rng = generic_params(self.CFG, 12)
        inputs = [rng.standard_normal((4, c, self.CFG.frames)) for c in (4, 2, 2)]
        inputs[which] = rng.standard_normal((n, 2, self.CFG.frames))
        with pytest.raises(InvalidInputError, match="^batch sizes disagree$"):
            forward_batch(params, *inputs)

    def test_an_empty_batch_gives_no_probabilities(self):
        params, _ = generic_params(self.CFG, 13)
        p, trace = forward_batch(params, *(np.zeros((0, c, self.CFG.frames)) for c in (4, 2, 2)))
        assert p.shape == (0,)
        assert not any(g.any() for g in backward_batch(params, trace, p).values())

    @pytest.mark.parametrize("eeg_ch, feat_dim, window_s, named", [
        ((5, 4), (2, 2), 20 / 64, "s0/r0: EEG"),
        ((4, 4), (2, 2), 19 / 64, "s0/r0: EEG"),
        ((4, 4), (3, 3), 20 / 64, "s0/r0: speech"),
        ((4, 5), (2, 2), 20 / 64, "s1/r1: EEG"),
        ((4, 4), (2, 1), 20 / 64, "s1/r1: speech"),
    ], ids=["eeg-channels", "frames", "speech-channels", "second-recording-eeg",
            "second-recording-speech"])
    def test_window_set_unlike_the_model_is_refused_by_recording(self, eeg_ch, feat_dim,
                                                                 window_s, named):
        rng = np.random.default_rng(12)
        recs = [RecordingData(f"s{k}", f"r{k}", rng.standard_normal((c, 200)),
                              rng.standard_normal((f, 200)))
                for k, (c, f) in enumerate(zip(eeg_ch, feat_dim))]
        ws = window_set(recs, [[(0, 200)]] * 2, WindowingSpec(window_s=window_s, gap_s=0.1))
        assert ws.n_triples > 0
        params, _ = generic_params(self.CFG, 13)
        with pytest.raises(InvalidInputError, match=f"^{named} {self.REFUSED}"):
            forward_windows(params, ws)


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

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_matches_batch_major_samples(self, variant):
        """float64 probabilities and gradients equal the batch-major model's.

        The samples were taken with the model that kept activations (B, C, T)
        throughout, before it went time-major: ``generic_params`` with seed 11,
        then three triples (EEG, speech a, speech b, drawn in that order from
        the returned generator), ``forward_batch``, and ``backward_batch`` with
        dloss (0.3, -1.1, 0.7). Each gradient is held by its largest absolute
        entry and its flat entries 0, n//2 and n-1, to 1e-10 of that largest
        entry; the probabilities to 1e-10.
        """
        cfg = tiny_cfg(self.VARIANTS[variant])
        params, rng = generic_params(cfg, seed=11)
        eeg, sa, sb = (rng.standard_normal((3, d, cfg.frames))
                       for d in (cfg.eeg_channels, cfg.feature_dim, cfg.feature_dim))
        p, trace = forward_batch(params, eeg, sa, sb)
        grads = backward_batch(params, trace, np.array([0.3, -1.1, 0.7]))
        want = BATCH_MAJOR_SAMPLES[variant]
        np.testing.assert_allclose(p, want["p"], rtol=0, atol=1e-10)
        assert set(grads) == set(want) - {"p"}
        for key, grad in grads.items():
            largest, samples = want[key]
            flat = grad.ravel()
            index = sorted({0, flat.size // 2, flat.size - 1})
            assert abs(np.abs(flat).max() - largest) <= 1e-10 * largest, key
            np.testing.assert_allclose(flat[index], samples, rtol=0, atol=1e-10 * largest,
                                       err_msg=key)

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


class TestFloat32:
    @pytest.mark.parametrize("feature", ["envelope", "mel", "vad", "env+bpc", "wordemb"])
    def test_tracks_float64_at_the_grid_shape(self, feature):
        """One batch of 64 triples of 320 frames, in float32 and in float64.

        The parameters and inputs are float32 values, so only the arithmetic
        differs. The batch-major model with its logistic gates stays within
        these bounds (probabilities within 5e-8, every gradient within 8e-6
        of its largest entry), so the time-major model's tanh-form gates and
        its row order must too.
        """
        cfg32 = ArchitectureConfig(parts=speech_parts(feature), dtype="float32")
        rng = np.random.default_rng(21)
        params32 = init_params(cfg32, rng)
        params64 = ModelParams(dataclasses.replace(cfg32, dtype="float64"),
                               {k: v.astype(np.float64) for k, v in params32.tensors.items()})
        inputs = [rng.standard_normal((64, d, cfg32.frames)).astype(np.float32)
                  for d in (cfg32.eeg_channels, cfg32.feature_dim, cfg32.feature_dim)]
        got = {}
        for params in (params32, params64):
            p, trace = forward_batch(params, *inputs)
            got[params.config.dtype] = p, backward_batch(params, trace, (p - 1.0) / len(p))
        (p32, g32), (p64, g64) = got["float32"], got["float64"]
        assert p32.dtype == np.float32 and p64.dtype == np.float64
        np.testing.assert_allclose(p32, p64, rtol=0, atol=1e-6)
        for key, ref in g64.items():
            assert g32[key].dtype == np.float32, key
            rel = np.abs(g32[key] - ref).max() / np.abs(ref).max()
            assert rel < 2e-5, f"{feature}/{key}: rel={rel:.2e}"


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
