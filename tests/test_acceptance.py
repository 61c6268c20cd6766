"""Acceptance suite: every criterion as one test, printing a PASS line.

Training-based criteria run the full pipeline on synthetic forward-model
datasets with pinned seeds; everything is deterministic. Run with -v (or
-s to see the PASS lines while running).
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy import signal as sp_signal

from conftest import (
    backward,
    forward,
    generic_params,
    max_relative_error,
    numeric_gradients,
    raw_envelope,
    wilcoxon_exact,
)
from eegmatch.acoustic import vad_frames
from eegmatch.features import StoryAssets, extract_feature, speech_parts
from eegmatch.model import ArchitectureConfig, SpeechPart, init_params
from eegmatch.preproc import PreprocConfig, band_sos, preprocess_eeg, to_frame_rate
from eegmatch.stats import wilcoxon_signed_rank
from eegmatch.synth import (
    EEG_CHANNELS,
    ForwardModelConfig,
    default_inventory,
    default_lexicon,
    generate_eeg,
    generate_story,
)
from eegmatch.tensors import TimeSeriesTensor
from eegmatch.training import TrainConfig, evaluate_set, train
from eegmatch.windows import RecordingData, WindowingSpec, assemble_dataset, make_windows, window_starts


def report(name: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: PASS {detail}".rstrip())


# ---------------------------------------------------------------------------
# synthetic dataset construction shared by the training criteria
# ---------------------------------------------------------------------------

STORY_SEED = 9973
NOISE_BASE = 444000
RUN_SEED = 11


class StoryBank:
    """Stories and their features, generated once per session."""

    def __init__(self):
        self.inv = default_inventory()
        self.lex = default_lexicon(self.inv)
        self._stories = {}
        self._features = {}

    def story(self, duration_s: float, index: int):
        key = (duration_s, index)
        if key not in self._stories:
            self._stories[key] = generate_story(
                duration_s, seed=STORY_SEED + index, inv=self.inv, lexicon=self.lex,
                story_id=f"story{index}",
            )
        return self._stories[key]

    def feature(self, duration_s: float, index: int, name: str) -> TimeSeriesTensor:
        key = (duration_s, index, name)
        if key not in self._features:
            story = self.story(duration_s, index)
            assets = StoryAssets(story.audio, story.phonemes, story.words, self.inv, None)
            self._features[key] = extract_feature(name, assets)
        return self._features[key]


@pytest.fixture(scope="session")
def bank():
    return StoryBank()


def head_mixing(n_features: int) -> np.ndarray:
    """The one EEG-to-feature topography shared by every synthetic dataset."""
    return np.random.default_rng(RUN_SEED).standard_normal(
        (EEG_CHANNELS, n_features)
    ) / np.sqrt(n_features)


def build_dataset(
    bank: StoryBank,
    coupling: str,
    snr_db: float,
    duration_s: float,
    decode_feature: str | None = None,
    n_subjects: int = 2,
    n_stories: int = 2,
):
    """Forward-modeled dataset: preprocessed EEG paired with a decode feature."""
    decode_feature = decode_feature or coupling
    couplings = [bank.feature(duration_s, k, coupling) for k in range(n_stories)]
    decodes = (
        couplings
        if decode_feature == coupling
        else [bank.feature(duration_s, k, decode_feature) for k in range(n_stories)]
    )
    mixing = head_mixing(couplings[0].n_channels)
    recordings = []
    for i in range(n_subjects):
        for k in range(n_stories):
            cfg = ForwardModelConfig(
                rng_seed=NOISE_BASE + i * 389 + k,
                snr_db=snr_db,
                mixing=mixing,
            )
            eeg = preprocess_eeg(generate_eeg(couplings[k], cfg), PreprocConfig())
            n = min(eeg.n_samples, decodes[k].n_samples)
            recordings.append(
                RecordingData(
                    subject_id=f"s{i}",
                    recording_id=f"s{i}_story{k}",
                    eeg=eeg.data[:, :n],
                    feature=decodes[k].data[:, :n],
                )
            )
    return assemble_dataset(recordings, seed=RUN_SEED)


def train_and_score(sets, feature_name: str, max_epochs: int = 8) -> float:
    arch = ArchitectureConfig(parts=speech_parts(feature_name), dtype="float32")
    params0 = init_params(arch, np.random.default_rng(RUN_SEED))
    cfg = TrainConfig(
        rng_seed=RUN_SEED, batch_size=128, learning_rate=1e-3,
        max_epochs=max_epochs, patience=2,
    )
    result = train(params0, sets["train"], sets["val"], cfg)
    _, acc, _ = evaluate_set(result.params, sets["test"])
    return acc, result


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

class TestGradientFidelity:
    def test_gradients_match_finite_differences(self):
        """Tiny config, every parameter, all variants and dimensionalities."""
        t0 = time.perf_counter()
        tiny = dict(
            eeg_channels=4, frames=20, eeg_conv_filters=3, eeg_conv_kernel=4,
            embed_dim=3, speech_conv_filters=3, speech_conv_kernel=4,
        )
        cases = {
            1: (SpeechPart(1, "no-conv"),),
            2: (SpeechPart(2, "conv"),),
            3: (SpeechPart(3, "conv"),),
            6: (SpeechPart(6, "conv"),),
            28: (SpeechPart(28, "conv"),),
            40: (SpeechPart(40, "conv"),),
            300: (SpeechPart(300, "maxpool"),),
        }
        worst = 0.0
        for dim, parts in cases.items():
            cfg = ArchitectureConfig(parts=parts, **tiny)
            params, rng = generic_params(cfg, seed=0)
            eeg = rng.standard_normal((cfg.eeg_channels, cfg.frames))
            sa = rng.standard_normal((cfg.feature_dim, cfg.frames))
            sb = rng.standard_normal((cfg.feature_dim, cfg.frames))
            _, trace = forward(params, eeg, sa, sb)
            grads = backward(params, trace, 1.0)
            for key in params.tensors:
                numeric = numeric_gradients(params, eeg, sa, sb, key, step=1e-5)
                rel = max_relative_error(grads[key], numeric)
                assert rel < 1e-4, f"dim {dim}, {key}: rel {rel:.2e}"
                worst = max(worst, rel)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        report("gradient-fidelity", f"(worst rel {worst:.2e}, {elapsed:.1f}s)")


# Fresh null material: every draw has stories and noise that training never
# saw, laid out like the training data (2 stories x 2 noise seeds, 480 s) and
# windowed whole. Draw d uses stories STORY_SEED + 1000 * (d + 1) + k and noise
# seeds NULL_NOISE_BASE + 1000 * d + 389 * i + k (story k, noise seed i).
NULL_DRAWS = 10
NULL_NOISE_BASE = 600000


def null_draw_hits(bank: StoryBank, params, draw: int, duration_s: float) -> tuple[int, int]:
    """(correct, total) over both orders of every triple of one fresh draw."""
    hits = total = 0
    for k in range(2):
        story = generate_story(
            duration_s, seed=STORY_SEED + 1000 * (draw + 1) + k,
            inv=bank.inv, lexicon=bank.lex,
        )
        assets = StoryAssets(story.audio, story.phonemes, story.words, bank.inv, None)
        feat = extract_feature("envelope", assets)
        for i in range(2):
            cfg = ForwardModelConfig(
                rng_seed=NULL_NOISE_BASE + 1000 * draw + 389 * i + k,
                snr_db=-np.inf,
                mixing=head_mixing(feat.n_channels),
            )
            eeg = preprocess_eeg(generate_eeg(feat, cfg), PreprocConfig())
            _, _, correct = evaluate_set(params, make_windows(eeg, feat))
            hits += int(correct.sum())
            total += correct.size
    return hits, total


@pytest.mark.slow
class TestNullDecodingControl:
    def test_chance_level_on_signal_off(self, bank):
        """Signal-off training decodes at 50 % +- 3 % on fresh material.

        The bound applies to accuracy pooled over NULL_DRAWS draws of new
        stories and new noise, whose standard error (from the spread across
        draws) must be <= 1 %. The pinned test partition is only reported:
        its 300 triples come from 90 %-overlapping windows of the two
        training stories, so its accuracy scatters by several percent even
        for an untrained model and cannot resolve +- 3 %.
        """
        t0 = time.perf_counter()
        duration_s = 480.0
        sets = build_dataset(bank, "envelope", -np.inf, duration_s=duration_s)
        pinned, result = train_and_score(sets, "envelope", max_epochs=6)
        draws = [
            null_draw_hits(bank, result.params, d, duration_s) for d in range(NULL_DRAWS)
        ]
        per_draw = np.array([hits / total for hits, total in draws])
        pooled_n = sum(total for _, total in draws)
        pooled = sum(hits for hits, _ in draws) / pooled_n
        se = float(per_draw.std(ddof=1) / np.sqrt(NULL_DRAWS))
        assert se <= 0.01, f"null standard error {se:.4f} over {per_draw.round(3)}"
        assert abs(pooled - 0.5) <= 0.03, f"pooled null accuracy {pooled:.4f} +- {se:.4f}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0
        report(
            "null-decoding-control",
            f"(pooled {pooled:.3f} +- {se:.3f} over {pooled_n} samples in "
            f"{NULL_DRAWS} draws {per_draw.round(3).tolist()}, pinned {pinned:.3f}, "
            f"{elapsed:.0f}s)",
        )


@pytest.mark.slow
class TestPositiveDecoding:
    def test_high_snr_accuracy_and_trend(self, bank):
        """Envelope coupling: >= 90 % at +10 dB, degrading to -10 dB."""
        t0 = time.perf_counter()
        accs = {}
        for snr_db in (10.0, 0.0, -10.0):
            sets = build_dataset(bank, "envelope", snr_db, duration_s=240.0)
            accs[snr_db], _ = train_and_score(sets, "envelope")
        assert accs[10.0] >= 0.90, f"+10 dB accuracy {accs[10.0]:.3f}"
        assert accs[10.0] >= accs[0.0] >= accs[-10.0], f"trend {accs}"
        assert accs[10.0] - accs[-10.0] >= 0.03, f"no degradation: {accs}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 1800.0
        report(
            "positive-decoding",
            "(" + ", ".join(f"{k:+.0f} dB: {v:.3f}" for k, v in accs.items())
            + f", {elapsed:.0f}s)",
        )


@pytest.mark.slow
class TestFeatureRichnessOrdering:
    def test_mel_coupled_ordering(self, bank):
        """acc(mel) >= acc(envelope) >= acc(vad), 2 % tolerance per link."""
        t0 = time.perf_counter()
        accs = {}
        for feature in ("mel", "envelope", "vad"):
            sets = build_dataset(
                bank, "mel", snr_db=-5.0, duration_s=240.0, decode_feature=feature,
            )
            accs[feature], _ = train_and_score(sets, feature)
        assert accs["mel"] >= accs["envelope"] - 0.02, f"{accs}"
        assert accs["envelope"] >= accs["vad"] - 0.02, f"{accs}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 2700.0
        report(
            "feature-richness-ordering",
            "(" + ", ".join(f"{k}: {v:.3f}" for k, v in accs.items())
            + f", {elapsed:.0f}s)",
        )


class TestWindowingArithmetic:
    def test_counts_and_mismatch_offset(self):
        spec = WindowingSpec()
        for length in (703, 704, 736, 10000):
            expected = max(0, (length - 704) // 32 + 1)
            assert window_starts(length, spec).size == expected
        rng = np.random.default_rng(0)
        eeg = TimeSeriesTensor(rng.standard_normal((2, 1500)), 64.0)
        feat = TimeSeriesTensor(rng.standard_normal((1, 1500)), 64.0)
        ws = make_windows(eeg, feat, spec)
        _, match, mismatch = ws.gather_triples(np.arange(ws.n_triples), np.float64)
        for i, s in enumerate(ws.start_frame):
            np.testing.assert_array_equal(match[i], feat.data[:, s : s + 320])
            np.testing.assert_array_equal(mismatch[i], feat.data[:, s + 384 : s + 704])
        report("windowing-arithmetic", f"({ws.n_triples} triples checked)")


class TestDspProperties:
    def test_envelope_powerlaw_scaling(self):
        rng = np.random.default_rng(1)
        t = np.arange(int(16000 * 2)) / 16000.0
        carrier = (0.55 + 0.45 * np.sin(2 * np.pi * 4 * t)) * rng.standard_normal(t.size)
        x = TimeSeriesTensor(carrier[None, :], 16000.0)
        alpha = 2.7
        env = raw_envelope(x)
        env_scaled = raw_envelope(x.with_data(alpha * x.data))
        rel = np.abs(env_scaled.data - alpha**0.6 * env.data) / np.maximum(
            np.abs(alpha**0.6 * env.data), 1e-300
        )
        assert rel.max() < 1e-6
        report("dsp-envelope-scaling", f"(max rel {rel.max():.1e})")

    def test_vad_ones_fraction(self):
        rng = np.random.default_rng(2)
        t = np.arange(int(16000 * 12)) / 16000.0
        story = (0.55 + 0.45 * np.sin(2 * np.pi * 2 * t)) * rng.standard_normal(t.size)
        flags = vad_frames(TimeSeriesTensor(story[None, :], 16000.0))
        deviation = abs(flags.mean() - 0.25)
        assert deviation <= 1.0 / flags.size
        report("dsp-vad-fraction", f"(|frac-0.25| = {deviation:.2e})")

    def test_bandpass_meets_80db_stopband(self):
        sos = band_sos(0.5, 32.0, 80.0, fs=8000.0)
        grid = np.concatenate([np.linspace(0.01, 0.25, 200), np.linspace(40.0, 3999.0, 2000)])
        _, h = sp_signal.sosfreqz(sos, worN=grid, fs=8000.0)
        worst = 20 * np.log10(np.abs(h)).max()
        assert worst <= -80.0 + 1e-6
        report("dsp-stopband", f"(worst stopband {worst:.1f} dB)")

    def test_40hz_suppressed_after_resample(self):
        t = np.arange(int(8000 * 20)) / 8000.0
        x = TimeSeriesTensor(np.sin(2 * np.pi * 40.0 * t)[None, :], 8000.0)
        # the band's upper edge at Nyquist leaves the 0.5 Hz highpass: only
        # the resampling FIR acts on 40 Hz
        out = to_frame_rate(x, PreprocConfig(high_hz=x.fs / 2))
        mid = out.data[0, 5 * 64 : 15 * 64]
        rms_ratio = np.sqrt(np.mean(mid**2)) / np.sqrt(np.mean(x.data**2))
        atten_db = -20 * np.log10(max(rms_ratio, 1e-300))
        assert atten_db >= 26.0
        report("dsp-antialias", f"(40 Hz suppressed {atten_db:.0f} dB)")


class TestStatisticsCriterion:
    def test_normal_approx_vs_exact_all_sign_configs_n8(self):
        magnitudes = np.array([0.011, 0.019, 0.032, 0.041, 0.053, 0.064, 0.078, 0.085])
        base = np.linspace(0.7, 0.85, 8)
        worst = 0.0
        for pattern in range(256):
            signs = np.where([(pattern >> i) & 1 for i in range(8)], 1.0, -1.0)
            a = base + signs * magnitudes
            approx = wilcoxon_signed_rank(a, base)
            exact = wilcoxon_exact(a, base)
            worst = max(worst, abs(approx.p - exact.p))
        assert worst < 0.05
        report("statistics-wilcoxon", f"(worst |p_norm - p_exact| = {worst:.4f})")

    def test_z_antisymmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.uniform(0.5, 1.0, size=9)
            b = rng.uniform(0.5, 1.0, size=9)
            fwd = wilcoxon_signed_rank(a, b)
            assert fwd.z == -wilcoxon_signed_rank(b, a).z
        report("statistics-antisymmetry")


class TestModelSymmetry:
    def test_order_swap_complements_probability(self):
        cfg = ArchitectureConfig(
            eeg_channels=4, frames=20, eeg_conv_filters=3, eeg_conv_kernel=4,
            embed_dim=3, speech_conv_filters=3, speech_conv_kernel=4,
            parts=(SpeechPart(2, "conv"),),
        )
        worst = 0.0
        rng = np.random.default_rng(4)
        params, _ = generic_params(cfg, seed=5)
        for i in range(1000):
            if i % 100 == 0:
                params, _ = generic_params(cfg, seed=5 + i)
            eeg = rng.standard_normal((4, 20))
            sa = rng.standard_normal((2, 20))
            sb = rng.standard_normal((2, 20))
            p_ab, _ = forward(params, eeg, sa, sb)
            p_ba, _ = forward(params, eeg, sb, sa)
            worst = max(worst, abs(p_ab + p_ba - 1.0))
        assert worst < 1e-12
        report("model-symmetry", f"(worst |p+p'-1| = {worst:.1e} over 1000 pairs)")
