import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from eegmatch import model, training
from eegmatch.errors import InvalidInputError, TrainingDivergedError
from eegmatch.model import (
    ArchitectureConfig,
    SpeechPart,
    _conv_reach,
    backward_batch,
    forward_batch,
    forward_triples,
    forward_windows,
    init_params,
    loss,
    loss_grad,
)
from eegmatch.training import (
    EpochLog,
    SubjectResult,
    TrainConfig,
    evaluate_per_subject,
    evaluate_set,
    read_subject_results,
    train,
    write_subject_results,
    write_training_log,
)
from eegmatch.tensors import TimeSeriesTensor
from eegmatch.windows import (
    DecisionWindowSet,
    RecordingData,
    WindowingSpec,
    assemble_dataset,
    make_windows,
    window_starts,
)

L = 7040  # shortest length with one window per partition piece


def noise_recordings(n_subjects=2, length=L, eeg_ch=6, feat_dim=1, seed=0):
    rng = np.random.default_rng(seed)
    return [
        RecordingData(
            subject_id=f"s{i}",
            recording_id=f"s{i}_r0",
            eeg=rng.standard_normal((eeg_ch, length)),
            feature=rng.standard_normal((feat_dim, length)),
        )
        for i in range(n_subjects)
    ]


def small_arch(eeg_ch=6, feat_dim=1, dtype="float32"):
    variant = "no-conv" if feat_dim == 1 else "conv"
    return ArchitectureConfig(
        eeg_channels=eeg_ch,
        frames=320,
        eeg_conv_filters=4,
        eeg_conv_kernel=8,
        embed_dim=4,
        speech_conv_filters=4,
        parts=(SpeechPart(feat_dim, variant),),
        dtype=dtype,
    )


EVERY_FRONT = pytest.mark.parametrize("parts", [
    (SpeechPart(3, "conv"),),
    (SpeechPart(1, "no-conv"),),
    (SpeechPart(3, "maxpool"),),
    (SpeechPart(1, "no-conv"), SpeechPart(4, "conv")),
], ids=["conv", "no-conv", "maxpool", "1+4"])


def assert_same_gradients(got, want, rel=1e-12):
    """Every tensor equal to ``rel`` of its largest entry, none all zero."""
    for key, w in want.items():
        scale = np.abs(w).max()
        assert scale > 0, key
        assert np.abs(got[key] - w).max() <= rel * scale, key


def whole_recordings(lengths, feat_dim, seed) -> DecisionWindowSet:
    """Every triple of each recording, recordings in turn."""
    recs = noise_recordings(n_subjects=len(lengths), length=max(lengths),
                            feat_dim=feat_dim, seed=seed)
    starts = []
    for rec, n in zip(recs, lengths):
        rec.eeg, rec.feature = rec.eeg[:, :n], rec.feature[:, :n]
        starts.append(window_starts(n, WindowingSpec()))
    return DecisionWindowSet(
        WindowingSpec(), recs,
        rec_index=np.repeat(np.arange(len(recs)), [s.size for s in starts]),
        start_frame=np.concatenate(starts),
    )


@pytest.fixture(scope="module")
def noise_sets():
    return assemble_dataset(noise_recordings(), seed=1)


class TestTrainLoop:
    def test_same_seed_bit_identical(self, noise_sets):
        cfg = TrainConfig(rng_seed=7, batch_size=32, max_epochs=2, patience=5)
        init = init_params(small_arch(), np.random.default_rng(2))
        a = train(init, noise_sets["train"], noise_sets["val"], cfg)
        b = train(init, noise_sets["train"], noise_sets["val"], cfg)
        for key in a.params.tensors:
            np.testing.assert_array_equal(a.params.tensors[key], b.params.tensors[key])
        assert [r.val_loss for r in a.log] == [r.val_loss for r in b.log]

    def test_different_seed_differs(self, noise_sets):
        init = init_params(small_arch(), np.random.default_rng(2))
        a = train(init, noise_sets["train"], noise_sets["val"],
                  TrainConfig(rng_seed=7, batch_size=32, max_epochs=2))
        b = train(init, noise_sets["train"], noise_sets["val"],
                  TrainConfig(rng_seed=8, batch_size=32, max_epochs=2))
        assert any(
            not np.array_equal(a.params.tensors[k], b.params.tensors[k])
            for k in a.params.tensors
        )

    def test_early_stop_returns_min_val_snapshot(self, noise_sets):
        cfg = TrainConfig(rng_seed=3, batch_size=32, max_epochs=6, patience=2,
                          learning_rate=5e-3)
        init = init_params(small_arch(), np.random.default_rng(4))
        result = train(init, noise_sets["train"], noise_sets["val"], cfg)
        val_losses = [r.val_loss for r in result.log]
        best_logged = min(val_losses)
        assert result.best_epoch == val_losses.index(best_logged) + 1
        recomputed, _, _ = evaluate_set(result.params, noise_sets["val"])
        assert recomputed == pytest.approx(best_logged, abs=1e-7)

    def test_each_epoch_logs_its_losses_accuracy_and_seconds(self, noise_sets, caplog):
        cfg = TrainConfig(rng_seed=7, batch_size=32, max_epochs=2, patience=5)
        init = init_params(small_arch(), np.random.default_rng(2))
        with caplog.at_level(logging.INFO, logger="eegmatch.training"):
            result = train(init, noise_sets["train"], noise_sets["val"], cfg)
        lines = [r for r in caplog.records if r.name == "eegmatch.training"]
        assert len(lines) == len(result.log) == 2
        for line, row in zip(lines, result.log):
            assert line.args[:4] == (row.epoch, row.train_loss, row.val_loss, row.val_acc)
            assert line.args[4] >= 0.0
            assert line.getMessage().startswith(
                f"epoch {row.epoch}: train loss {row.train_loss:.4f}, "
                f"val loss {row.val_loss:.4f}, val acc {row.val_acc:.3f}, ")

    def test_patience_stops_early(self, noise_sets):
        cfg = TrainConfig(rng_seed=5, batch_size=32, max_epochs=50, patience=2,
                          learning_rate=5e-3)
        init = init_params(small_arch(), np.random.default_rng(6))
        result = train(init, noise_sets["train"], noise_sets["val"], cfg)
        assert len(result.log) < 50

    def test_training_never_reads_test_partition(self):
        recs_a = noise_recordings(seed=10)
        recs_b = noise_recordings(seed=10)
        sets_a = assemble_dataset(recs_a, seed=2)
        sets_b = assemble_dataset(recs_b, seed=2)
        lo, hi = int(0.5 * L), int(0.6 * L)
        for rec in recs_b:  # poison the test region after windowing
            rec.eeg[:, lo:hi] = 1e6
            rec.feature[:, lo:hi] = -1e6
        cfg = TrainConfig(rng_seed=11, batch_size=32, max_epochs=2)
        init = init_params(small_arch(), np.random.default_rng(12))
        log_a = train(init, sets_a["train"], sets_a["val"], cfg).log
        log_b = train(init, sets_b["train"], sets_b["val"], cfg).log
        assert [r.train_loss for r in log_a] == [r.train_loss for r in log_b]
        assert [r.val_loss for r in log_a] == [r.val_loss for r in log_b]

    def test_nan_loss_aborts_with_diagnostic(self, noise_sets):
        init = init_params(small_arch(), np.random.default_rng(13))
        init.tensors["eeg_conv_w"][:] = 1e30
        init.tensors["eeg_dense_w"][:] = 1e30
        cfg = TrainConfig(rng_seed=14, batch_size=32, max_epochs=1)
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            with np.errstate(all="ignore"):
                train(init, noise_sets["train"], noise_sets["val"], cfg)

    def test_empty_partition_rejected(self, noise_sets):
        init = init_params(small_arch(), np.random.default_rng(15))
        empty = assemble_dataset(noise_recordings(seed=16), seed=3)["train"]
        empty.rec_index = empty.rec_index[:0]
        empty.start_frame = empty.start_frame[:0]
        with pytest.raises(InvalidInputError):
            train(init, empty, noise_sets["val"], TrainConfig(rng_seed=1))


class TestTriplePass:
    """A step runs each triple once, in the (match, mismatch) order."""

    @EVERY_FRONT
    def test_matched_order_gradient_is_the_both_order_mean(self, parts):
        recs = noise_recordings(length=12000, feat_dim=sum(p.dim for p in parts), seed=40)
        ws = assemble_dataset(recs, seed=7)["train"]
        params = init_params(replace(small_arch(dtype="float64"), parts=parts),
                             np.random.default_rng(41))
        params.tensors["head_w"][:] = 3.0  # spread p away from 0.5
        triples = np.random.default_rng(42).choice(ws.n_triples, size=8, replace=False)
        n = triples.size
        eeg, a, b, _ = ws.gather_samples(2 * triples, np.float64)
        p, trace = forward_batch(params, eeg, a, b)
        got = backward_batch(params, trace, loss_grad(p, 1.0) / n)
        both = np.concatenate([2 * triples, 2 * triples + 1])
        eeg, a, b, labels = ws.gather_samples(both, np.float64)
        q, trace = forward_batch(params, eeg, a, b)
        want = backward_batch(params, trace, loss_grad(q, labels) / (2 * n))
        assert_same_gradients(got, want)

    @staticmethod
    def record_steps(monkeypatch) -> list:
        """The triple indices, a copy of the parameters and the probabilities of every
        step of ``train``."""
        steps = []

        def recording(params, ws, idx):
            p, trace = forward_triples(params, ws, idx)
            steps.append((np.array(idx), params.copy(), p.copy()))
            return p, trace

        monkeypatch.setattr(training, "forward_triples", recording)
        return steps

    def test_epoch_visits_every_triple_once_in_matched_order(self, noise_sets, monkeypatch):
        """Each step's probabilities are ``forward_batch``'s over its triples'
        (eeg, match, mismatch) windows; swapped, they would be 1 - p."""
        ws = noise_sets["train"]
        steps = self.record_steps(monkeypatch)
        init = init_params(small_arch(dtype="float64"), np.random.default_rng(43))
        train(init, ws, noise_sets["val"],
              TrainConfig(rng_seed=44, batch_size=32, max_epochs=1))
        assert len(steps) == -(-ws.n_triples // 16)
        seen = []
        for idx, params, p in steps:
            assert idx.size <= 16
            want, _ = forward_batch(params, *ws.gather_triples(idx, np.float64))
            np.testing.assert_array_equal(p, want)
            assert (p != 0.5).all()
            seen.extend(idx.tolist())
        assert sorted(seen) == list(range(ws.n_triples))

    def test_batch_of_one_sample_takes_one_triple_per_step(self, noise_sets, monkeypatch):
        steps = self.record_steps(monkeypatch)
        init = init_params(small_arch(), np.random.default_rng(45))
        train(init, noise_sets["train"], noise_sets["val"],
              TrainConfig(rng_seed=46, batch_size=1, max_epochs=1))
        assert [idx.size for idx, _, _ in steps] == [1] * noise_sets["train"].n_triples

    def test_logged_train_loss_is_the_both_order_mean(self, noise_sets, monkeypatch):
        monkeypatch.setattr(training.AdamState, "update", lambda self, params, grads: None)
        init = init_params(small_arch(dtype="float64"), np.random.default_rng(47))
        init.tensors["head_w"][:] = 3.0
        result = train(init, noise_sets["train"], noise_sets["val"],
                       TrainConfig(rng_seed=48, batch_size=32, max_epochs=1))
        mean_loss, _, _ = evaluate_set(init, noise_sets["train"])
        assert result.log[0].train_loss == pytest.approx(mean_loss, rel=1e-9)


class TestSharedFrameStep:
    """A training step runs each frame-wise front once over the frames its
    triples cover: its probabilities are ``forward_batch``'s bit for bit,
    its gradients those of the same triples gathered per window."""

    @staticmethod
    def assert_steps_as_forward_batch(params, ws, idx):
        p, trace = forward_triples(params, ws, idx)
        got = backward_batch(params, trace, loss_grad(p, 1.0) / idx.size)
        q, trace = forward_batch(params, *ws.gather_triples(idx, params.config.np_dtype))
        want = backward_batch(params, trace, loss_grad(q, 1.0) / idx.size)
        np.testing.assert_array_equal(p, q)
        # float32: the gradient-fidelity criterion
        assert_same_gradients(got, want, 1e-12 if params.config.dtype == "float64" else 1e-4)

    @staticmethod
    def params_for(parts, dtype, seed):
        params = init_params(replace(small_arch(dtype=dtype), parts=parts),
                             np.random.default_rng(seed))
        params.tensors["head_w"][:] = 3.0  # spread p away from 0.5
        return params

    @EVERY_FRONT
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_steps_match_forward_batch(self, parts, dtype):
        """Windows at frame 0 and mismatches ending on their recording's last
        frame; two recordings whose segment keys touch (the first is the
        longest, so its last segment ends on the key stride, where the second's
        first begins); a step of one triple; triple j with j + 12, whose
        mismatch is j + 12's match; and one triple from each recording, where
        no windows overlap."""
        ws = whole_recordings([1984, 1184, 1184], sum(p.dim for p in parts), 71)
        ends = ws.start_frame + ws.mismatch_offset + ws.spec.window_frames
        assert [ends[ws.rec_index == r].max() for r in range(3)] == [1984, 1184, 1184]
        first = np.flatnonzero(ws.start_frame == 0)
        assert first.size == 3
        params = self.params_for(parts, dtype, 72)
        shuffled = np.random.default_rng(73).permutation(ws.n_triples)
        steps = {
            "every triple, shuffled": shuffled,
            "touching recordings": np.flatnonzero(ws.rec_index < 2),
            "one triple": shuffled[:1],
            "j and j + 12": np.array([first[1] + 3, first[1] + 15]),
            "one per recording": first,
        }
        for case, idx in steps.items():
            try:
                self.assert_steps_as_forward_batch(params, ws, idx)
            except AssertionError as e:
                raise AssertionError(case) from e

    @EVERY_FRONT
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_forward_batch_builds_no_frame_track(self, parts, dtype, monkeypatch):
        """The reference gathers every window on its own, so it stays independent of
        the frame tracks that a step and scoring run: with no track to build,
        ``forward_batch`` and ``backward_batch`` still run, and a step does not."""

        class NoTrack:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a _FrameTrack was built")

        ws = whole_recordings([1984, 1184], sum(p.dim for p in parts), 82)
        params = self.params_for(parts, dtype, 83)
        idx = np.random.default_rng(84).permutation(ws.n_triples)[:24]
        monkeypatch.setattr(model, "_FrameTrack", NoTrack)
        p, trace = forward_batch(params, *ws.gather_triples(idx, params.config.np_dtype))
        grads = backward_batch(params, trace, loss_grad(p, 1.0) / idx.size)
        assert p.shape == (idx.size,) and np.isfinite(p).all()
        assert all(np.isfinite(g).all() and g.any() for g in grads.values())
        with pytest.raises(AssertionError, match="_FrameTrack was built"):
            forward_triples(params, ws, idx)

    def test_a_triple_taken_twice_is_refused(self):
        ws = whole_recordings([2000], 3, 78)
        params = self.params_for((SpeechPart(3, "conv"),), "float64", 79)
        with pytest.raises(InvalidInputError, match="takes a triple twice"):
            forward_triples(params, ws, np.array([4, 9, 4]))

    @staticmethod
    def conv_rows(monkeypatch) -> dict:
        """Rows (frames of every window) that each ``_conv1d_same`` call runs, by input channels."""
        rows: dict = {}

        def recording(x, w, b):
            rows.setdefault(x.shape[1], []).append(x.shape[0] * x.shape[2])
            return conv(x, w, b)

        conv = model._conv1d_same
        monkeypatch.setattr(model, "_conv1d_same", recording)
        return rows

    def test_overlapping_triples_share_the_eeg_conv(self, monkeypatch):
        """20 consecutive triples cover 928 EEG frames, against 20 windows of 320 each;
        19 first and 19 last edges lie inside the run and take 7 frames each."""
        ws = whole_recordings([2000], 3, 74)
        params = self.params_for((SpeechPart(3, "conv"),), "float32", 75)
        rows = self.conv_rows(monkeypatch)
        forward_triples(params, ws, np.arange(20))
        assert rows[6] == [19 * 32 + 320, 38 * sum(_conv_reach(8))]
        assert sum(rows[6]) < 20 * 320

    def test_triples_that_do_not_overlap_recompute_no_edge(self, monkeypatch):
        """One triple from each of three recordings: one conv pass per front, over
        each window's frames and the zero gaps between them."""
        ws = whole_recordings([2000, 1184, 1184], 3, 76)
        params = self.params_for((SpeechPart(3, "conv"),), "float32", 77)
        rows = self.conv_rows(monkeypatch)
        forward_triples(params, ws, np.flatnonzero(ws.start_frame == 0))
        gap = max(_conv_reach(8))
        assert rows == {6: [3 * 320 + 2 * gap], 3: [6 * 320 + 5 * gap]}

    def test_scoring_runs_one_pass_per_run(self, monkeypatch):
        """Scoring keeps no cache, so it runs each recording's EEG windows in a pass of
        their own, without zero gaps, and holds one run's layers at a time."""
        ws = whole_recordings([2000, 1184, 1184], 3, 80)
        params = self.params_for((SpeechPart(3, "conv"),), "float32", 81)
        rows = self.conv_rows(monkeypatch)
        forward_windows(params, ws)
        covered = [ws.start_frame[ws.rec_index == r].max() + 320 for r in range(3)]
        assert rows[6][:3] == covered


class TestEvaluation:
    def test_accuracy_order_invariant(self, noise_sets, monkeypatch):
        params = init_params(small_arch(), np.random.default_rng(20))
        monkeypatch.setattr(model, "SCORE_BLOCK_ROWS", 8)
        _, acc, correct = evaluate_set(params, noise_sets["test"])
        monkeypatch.setattr(model, "SCORE_BLOCK_ROWS", 64)
        _, acc_large_batch, correct2 = evaluate_set(params, noise_sets["test"])
        assert acc == acc_large_batch
        np.testing.assert_array_equal(correct, correct2)

    def test_one_pass_per_triple_matches_per_sample_passes(self, noise_sets, monkeypatch):
        params = init_params(small_arch(), np.random.default_rng(23))
        params.tensors["head_w"][:] = 30.0  # spread p away from 0.5
        ws = noise_sets["test"]
        monkeypatch.setattr(model, "SCORE_BLOCK_ROWS", 16)
        mean_loss, acc, correct = evaluate_set(params, ws)
        eeg, a, b, labels = ws.gather_samples(np.arange(ws.n_samples), np.float64)
        p, _ = forward_batch(params, eeg, a, b)
        np.testing.assert_array_equal(correct, (p >= 0.5) == (labels > 0.5))
        assert acc == correct.mean()
        assert np.abs(p - 0.5).min() > 1e-3  # no decision sits on a tie
        assert mean_loss == pytest.approx(float(loss(p, labels).mean()), rel=1e-9)

    @pytest.mark.parametrize("parts", [
        (SpeechPart(1, "no-conv"),),
        (SpeechPart(3, "conv"),),
        (SpeechPart(3, "maxpool"),),
        (SpeechPart(1, "no-conv"), SpeechPart(4, "conv")),
    ])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_segment_indexed_matches_forward_batch_bit_for_bit(self, parts, dtype, monkeypatch):
        recs = noise_recordings(length=12000, feat_dim=sum(p.dim for p in parts), seed=24)
        ws = assemble_dataset(recs, seed=5)["test"]
        arch = replace(small_arch(dtype=dtype), parts=parts)
        params = init_params(arch, np.random.default_rng(25))
        params.tensors["head_w"][:] = 30.0
        batch = 12
        monkeypatch.setattr(model, "SCORE_BLOCK_ROWS", batch)
        mean_loss, _, correct = evaluate_set(params, ws)
        losses = np.empty(ws.n_samples)
        ref = np.empty(ws.n_samples, dtype=bool)
        for lo in range(0, ws.n_triples, batch // 2):
            idx = np.arange(lo, min(lo + batch // 2, ws.n_triples))
            eeg, match, mismatch = ws.gather_triples(idx, np.float64)
            p, _ = forward_batch(params, eeg, match, mismatch)
            q, _ = forward_batch(params, eeg, mismatch, match)
            losses[2 * idx], losses[2 * idx + 1] = loss(p, 1.0), loss(q, 0.0)
            ref[2 * idx], ref[2 * idx + 1] = p >= 0.5, q < 0.5
        np.testing.assert_array_equal(correct, ref)
        assert mean_loss == float(losses.mean())
        assert 0.0 < correct.mean() < 1.0

    @staticmethod
    def assert_scores_as_forward_batch(monkeypatch, params, ws, block_rows):
        """Both orders' probabilities, the correctness and the mean loss of
        ``evaluate_set`` in blocks of ``block_rows`` distinct segments equal
        to ``forward_batch`` over all triples at once."""
        eeg, match, mismatch = ws.gather_triples(np.arange(ws.n_triples), np.float64)
        p, _ = forward_batch(params, eeg, match, mismatch)
        q, _ = forward_batch(params, eeg, mismatch, match)
        monkeypatch.setattr(model, "SCORE_BLOCK_ROWS", block_rows)
        got_p, got_q = forward_windows(params, ws)
        np.testing.assert_array_equal(got_p, p)
        np.testing.assert_array_equal(got_q, q)
        mean_loss, acc, correct = evaluate_set(params, ws)
        losses = np.empty(ws.n_samples)
        ref = np.empty(ws.n_samples, dtype=bool)
        losses[0::2], losses[1::2] = loss(p, 1.0), loss(q, 0.0)
        ref[0::2], ref[1::2] = p >= 0.5, q < 0.5
        np.testing.assert_array_equal(correct, ref)
        assert mean_loss == float(losses.mean())
        assert acc == correct.mean()

    @EVERY_FRONT
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_per_recording_fronts_match_forward_batch_bit_for_bit(self, parts, dtype, monkeypatch):
        """Windows at frame 0, a recording of one triple, mismatched windows
        ending on their recording's last frame, starts at every residue mod 3."""
        ws = whole_recordings([2000, 704, 704 + 15 * 32], sum(p.dim for p in parts), 61)
        offset = ws.mismatch_offset
        ends = ws.start_frame + offset + ws.spec.window_frames
        assert (ws.start_frame == 0).sum() == 3
        assert np.bincount(ws.rec_index)[1] == 1
        assert [ends[ws.rec_index == r].max() for r in range(3)] == [1984, 704, 1184]
        assert set(ws.start_frame % 3) == {0, 1, 2}
        params = init_params(replace(small_arch(dtype=dtype), parts=parts),
                             np.random.default_rng(62))
        params.tensors["head_w"][:] = 30.0
        for block_rows in (12, 256):
            self.assert_scores_as_forward_batch(monkeypatch, params, ws, block_rows)

    @EVERY_FRONT
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_shuffled_train_set_matches_forward_batch_bit_for_bit(self, parts, dtype, monkeypatch):
        recs = noise_recordings(feat_dim=sum(p.dim for p in parts), seed=63)
        ws = assemble_dataset(recs, seed=9)["train"]
        assert not (np.diff(ws.rec_index) >= 0).all()
        params = init_params(replace(small_arch(dtype=dtype), parts=parts),
                             np.random.default_rng(64))
        params.tensors["head_w"][:] = 30.0
        self.assert_scores_as_forward_batch(monkeypatch, params, ws, 64)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_lone_triples_match_forward_batch_bit_for_bit(self, dtype, monkeypatch):
        """numpy sums a lone triple's head mean pairwise, several in order.

        A set of one triple scores alone, as ``forward_batch`` scores it. Of
        13 consecutive triples, 12 hold the 24 segments a block of 24 rows
        takes, and the 13th, left alone, joins them.
        """
        params = init_params(replace(small_arch(dtype=dtype), parts=(SpeechPart(3, "conv"),)),
                             np.random.default_rng(65))
        params.tensors["head_w"][:] = 30.0
        one = whole_recordings([704], 3, 66)
        assert one.n_triples == 1
        self.assert_scores_as_forward_batch(monkeypatch, params, one, 256)
        thirteen = whole_recordings([704 + 12 * 32], 3, 67)
        assert thirteen.n_triples == 13
        self.assert_scores_as_forward_batch(monkeypatch, params, thirteen, 24)

    @pytest.mark.parametrize("field, value", [
        ("frames", 256), ("eeg_channels", 5), ("parts", (SpeechPart(2, "conv"),)),
    ], ids=["window-length", "eeg-channels", "feature-dim"])
    def test_window_set_unlike_the_model_is_refused(self, noise_sets, field, value):
        params = init_params(replace(small_arch(), **{field: value}), np.random.default_rng(68))
        with pytest.raises(InvalidInputError, match="^s0/s0_r0: .* but the model takes"):
            evaluate_set(params, noise_sets["test"])

    def test_peak_memory_of_a_long_recording_is_bounded(self):
        """900 s of 64 EEG channels and 28 mel bands at 64 Hz, the default
        architecture in float32, the default block of R = 256 segment rows.

        Bound, fixed before measuring, in 4-byte values. A block of R rows of
        T = 320 frames holds the LSTM's gates (4H = 64 per row and frame),
        its cells, cell tanh, hidden states and input (16 each), the speech
        windows and their concatenation (16 each), the EEG windows and the
        two gathered hidden-state stacks (16 each) and the head's per-frame
        sums: under 256 values per row and frame. The fronts of a recording
        of L frames hold a cast and a padded copy of its 64 EEG channels,
        the conv and dense activations and masks, and the frames kept for
        slicing: under 256 values per frame. The bound is the sum,
        4 * 256 * (R * T + L) bytes: 143 MB for L = 57,600, where the EEG
        windows of the recording's 1,779 triples alone take 146 MB.
        """
        rng = np.random.default_rng(69)
        n_frames = 900 * 64
        ws = make_windows(TimeSeriesTensor(rng.standard_normal((64, n_frames)), 64.0),
                          TimeSeriesTensor(rng.standard_normal((28, n_frames)), 64.0))
        assert ws.n_triples == 1779
        params = init_params(ArchitectureConfig(dtype="float32"), np.random.default_rng(70))
        tracemalloc.start()
        try:
            evaluate_set(params, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 4 * 256 * (256 * 320 + n_frames)
        assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"

    def test_degenerate_model_scores_exactly_half(self, noise_sets):
        params = init_params(small_arch(), np.random.default_rng(21))
        params.tensors["eeg_conv_w"][:] = 0.0
        params.tensors["eeg_conv_b"][:] = -1.0  # dead EEG path -> p = 0.5 everywhere
        _, acc, _ = evaluate_set(params, noise_sets["test"])
        assert acc == 0.5

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_equal_segments_score_one_of_two(self, dtype, monkeypatch):
        """Tie rule: p = 0.5 calls input a the match.

        So a triple whose two segments are equal scores its (match,
        mismatch) sample and misses the swapped one.
        """
        recs = noise_recordings(length=12000, seed=26)
        ws = assemble_dataset(recs, seed=6)["test"]
        for rec in recs:  # period = mismatch offset: every triple's segments are equal
            n, period = rec.feature.shape[1], rec.feature[:, : ws.mismatch_offset]
            rec.feature = np.tile(period, (1, n // period.shape[1] + 1))[:, :n]
        params = init_params(small_arch(dtype=dtype), np.random.default_rng(27))
        params.tensors["head_w"][:] = 30.0
        monkeypatch.setattr(model, "SCORE_BLOCK_ROWS", 12)
        _, acc, correct = evaluate_set(params, ws)
        assert correct[0::2].all() and not correct[1::2].any()
        assert acc == 0.5

    def test_per_subject_recount(self, noise_sets):
        from conftest import forward

        params = init_params(small_arch(), np.random.default_rng(22))
        results = evaluate_per_subject(params, noise_sets["test"], feature_name="noise")
        assert {r.subject_id for r in results} == {"s0", "s1"}
        ws = noise_sets["test"]
        for res in results:
            hits = 0
            n = 0
            for s in range(ws.n_samples):
                # sample s is one order of triple s // 2
                if ws.recordings[ws.rec_index[s // 2]].subject_id != res.subject_id:
                    continue
                eeg, a, b, label = ws.gather_samples(np.array([s]), np.float64)
                p, _ = forward(params, eeg[0], a[0], b[0])
                hits += int((p >= 0.5) == (label[0] > 0.5))
                n += 1
            assert res.n_windows == n
            assert res.test_accuracy == pytest.approx(hits / n)

    def test_all_correct_gives_one(self):
        recs = noise_recordings(n_subjects=1, seed=30)
        # perfect coupling: EEG channels replicate the feature exactly
        recs[0].eeg = np.tile(recs[0].feature, (6, 1))
        sets = assemble_dataset(recs, seed=4)
        arch = small_arch()
        init = init_params(arch, np.random.default_rng(31))
        cfg = TrainConfig(rng_seed=32, batch_size=32, max_epochs=6, patience=6,
                          learning_rate=5e-3)
        result = train(init, sets["train"], sets["val"], cfg)
        results = evaluate_per_subject(result.params, sets["test"])
        assert results[0].test_accuracy == 1.0


class TestCsvIO:
    def test_training_log_roundtrip(self, tmp_path):
        log = [EpochLog(1, 0.7, 0.69, 0.5), EpochLog(2, 0.6, 0.58, 0.75)]
        write_training_log(tmp_path / "log.csv", log)
        text = (tmp_path / "log.csv").read_text().splitlines()
        assert text[0] == "epoch,train_loss,val_loss,val_acc"
        assert len(text) == 3

    def test_subject_results_roundtrip(self, tmp_path):
        rows = [
            SubjectResult("s0", 0.8125, 32, "mel"),
            SubjectResult("s1", 0.75, 32, "mel"),
        ]
        write_subject_results(tmp_path / "res.csv", rows)
        back = read_subject_results(tmp_path / "res.csv")
        assert back[0].subject_id == "s0"
        assert back[0].test_accuracy == pytest.approx(0.8125)
        assert back[1].n_windows == 32
        assert back[1].feature_name == "mel"

    @pytest.mark.parametrize("row", ["s0,high,32,mel", "s0,0.8,32.5,mel", "s0"],
                             ids=["accuracy", "n_windows", "short row"])
    def test_malformed_subject_result_is_refused_by_name(self, tmp_path, row):
        path = tmp_path / "res.csv"
        path.write_text(f"subject,accuracy,n_windows,feature\n{row}\n")
        with pytest.raises(InvalidInputError, match="res.csv: "):
            read_subject_results(path)
