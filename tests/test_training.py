"""Tests for the optimization loop: schedule, optimizer, batching,
checkpointing, and deterministic resume."""

import itertools
import json
import math
import os
import stat
import struct
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import oracles
from trailergen import autodiff as ad
from trailergen import training
from trailergen.autodiff import ConfigurationError, Parameter
from trailergen.config import ModelConfig, preset, with_overrides
from trailergen.model import TrailerModel
from trailergen.shots import ShotSequence, trailerness_ground_truth
from trailergen.synthetic import GeneratorConfig, PairExample, generate_pair
from trailergen.training import (AdamW, TrainConfig, TrainingDiverged,
                                 batch_loss, clip_gradients, epoch_batches,
                                 load_checkpoint, lr_at_step, pad_batch,
                                 restore_model_and_optimizer, save_checkpoint,
                                 suggested_decode_cap, train)

SLIM = ModelConfig(d_model=16, num_heads=2, ff_dim=32, trailerness_layers=1,
                   context_layers=1, decoder_layers=1, max_len=64)


def tiny_pairs(count, seed=11, d=16):
    cfg = GeneratorConfig(d=d, n_range=(8, 12), m_range=(3, 5), clusters=4,
                          noise_sigma=0.05, insert_prob=0.0, seed=seed)
    out = []
    for i in range(count):
        movie, trailer = generate_pair(cfg, cfg.seed + i)
        out.append(PairExample(pair_id=f"pair-{i}", movie=movie, trailer=trailer))
    return out


# --------------------------------------------------------------------------
# learning-rate schedule
# --------------------------------------------------------------------------

class TestSchedule:
    # a tenth of 1000 steps: a 100-step warmup
    CFG, TOTAL = TrainConfig(lr_peak=1e-4, warmup_frac=0.1), 1000

    def test_step_zero_is_zero(self):
        assert lr_at_step(0, self.CFG, self.TOTAL) == 0.0

    def test_warmup_end_reaches_peak(self):
        assert lr_at_step(100, self.CFG, self.TOTAL) == pytest.approx(1e-4)

    def test_midpoint_is_half_peak(self):
        # cos(pi/2) = 0, so the midpoint of the decay is exactly lr/2
        mid = (100 + 1000) // 2
        assert lr_at_step(mid, self.CFG, self.TOTAL) == pytest.approx(5e-5)

    def test_linear_ramp_during_warmup(self):
        assert lr_at_step(25, self.CFG, self.TOTAL) == pytest.approx(0.25e-4)
        assert lr_at_step(50, self.CFG, self.TOTAL) == pytest.approx(0.5e-4)

    def test_final_step_decays_to_zero(self):
        assert lr_at_step(1000, self.CFG, self.TOTAL) == pytest.approx(0.0, abs=1e-20)

    def test_monotone_up_then_down(self):
        values = [lr_at_step(s, self.CFG, self.TOTAL) for s in range(0, 1001, 10)]
        peak = values.index(max(values))
        assert all(a <= b for a, b in zip(values[:peak], values[1:peak + 1]))
        assert all(a >= b for a, b in zip(values[peak:], values[peak + 1:]))

    def test_out_of_range_step_rejected(self):
        with pytest.raises(ValueError):
            lr_at_step(1001, self.CFG, self.TOTAL)
        with pytest.raises(ValueError):
            lr_at_step(-1, self.CFG, self.TOTAL)

    @pytest.mark.parametrize("total", [0, -1])
    def test_total_below_one_rejected(self, total):
        with pytest.raises(ValueError, match="total"):
            lr_at_step(0, self.CFG, total)

    def test_zero_warmup_starts_at_peak(self):
        cfg = TrainConfig(lr_peak=2e-3, warmup_frac=0.0)
        assert lr_at_step(0, cfg, 10) == pytest.approx(2e-3)


# --------------------------------------------------------------------------
# optimizer and clipping
# --------------------------------------------------------------------------

class TestAdamW:
    def test_zero_gradient_step_is_pure_decay(self):
        # decoupled decay: no gradient, so the only effect is the shrink factor
        with ad.precision(np.float64):
            p = Parameter(np.array([2.0, -3.0]), name="w")
            opt = AdamW([p], weight_decay=0.01)
            p.grad = np.zeros_like(p.data)
            opt.step(lr=0.1)
            np.testing.assert_array_equal(
                p.data, np.array([2.0, -3.0]) * (1 - 0.1 * 0.01))

    def test_none_gradient_treated_as_zero(self):
        with ad.precision(np.float64):
            p = Parameter(np.array([4.0]), name="w")
            opt = AdamW([p], weight_decay=0.5)
            p.grad = None
            opt.step(lr=0.2)
            np.testing.assert_array_equal(p.data, np.array([4.0 * (1 - 0.2 * 0.5)]))

    def test_step_moves_against_gradient(self):
        p = Parameter(np.array([0.0], dtype=np.float64), name="w")
        opt = AdamW([p], weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step(lr=0.1)
        assert p.data[0] < 0.0

    def test_step_counter_increments(self):
        p = Parameter(np.zeros(1), name="w")
        opt = AdamW([p])
        assert opt.step_count == 0
        p.grad = np.ones(1)
        opt.step(1e-3)
        opt.step(1e-3)
        assert opt.step_count == 2

    def test_moment_shapes_match_parameters(self):
        params = [Parameter(np.zeros((3, 4)), name="a"),
                  Parameter(np.zeros(7), name="b")]
        opt = AdamW(params)
        for p, m, v in zip(opt.params, opt.m, opt.v):
            assert m.shape == p.data.shape
            assert v.shape == p.data.shape


class TestClipGradients:
    def test_returns_preclip_norm(self):
        p = Parameter(np.zeros(2), name="w")
        p.grad = np.array([3.0, 4.0])
        assert clip_gradients([p], max_norm=100.0) == pytest.approx(5.0)
        np.testing.assert_array_equal(p.grad, [3.0, 4.0])  # below cap: untouched

    def test_scales_to_cap(self):
        p = Parameter(np.zeros(2), name="w")
        p.grad = np.array([3.0, 4.0])
        pre = clip_gradients([p], max_norm=1.0)
        assert pre == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_global_norm_across_parameters(self):
        a = Parameter(np.zeros(1), name="a")
        b = Parameter(np.zeros(1), name="b")
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        pre = clip_gradients([a, b], max_norm=1.0)
        assert pre == pytest.approx(5.0)
        assert math.hypot(a.grad[0], b.grad[0]) == pytest.approx(1.0)

    def test_nonpositive_cap_disables(self):
        p = Parameter(np.zeros(2), name="w")
        p.grad = np.array([30.0, 40.0])
        assert clip_gradients([p], max_norm=0.0) == pytest.approx(50.0)
        np.testing.assert_array_equal(p.grad, [30.0, 40.0])

    def test_none_gradients_skipped(self):
        p = Parameter(np.zeros(2), name="w")
        p.grad = None
        assert clip_gradients([p], max_norm=1.0) == 0.0


# --------------------------------------------------------------------------
# batching
# --------------------------------------------------------------------------

def unbatched_loss(model, ex, weights=(1.0, 1.0, 1.0)):
    """One pair's total loss, summed in plain numpy from its batch-of-one
    forward pass, with no padding anywhere."""
    enc = model.encode_single(ex.movie.embeddings)
    preds = model.decode_teacher_forced(enc.memory, ex.trailer.embeddings).data
    gt = trailerness_ground_truth(ex.movie.embeddings, ex.trailer.embeddings)
    rows = np.vstack([ex.trailer.embeddings, model.eos.data])
    l_t = float(((enc.scores.data[0] - gt) ** 2).sum())
    l_rec = float(((preds - rows) ** 2).sum())
    l_kl = sum(oracles.kl_between_rows(r, p) for r, p in zip(rows, preds))
    return float(np.dot(weights, [l_t, l_rec, l_kl]))


class TestPadBatch:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            pad_batch([])

    def test_batch_of_one_masks_all_true(self):
        ex = tiny_pairs(1)[0]
        batch = pad_batch([ex])
        assert batch.score_valid.all()
        assert batch.gt_scores.shape == (1, len(ex.movie) + 2)

    def test_mixed_lengths_zero_padded(self):
        pairs = tiny_pairs(4)
        batch = pad_batch(pairs)
        full = max(len(ex.movie) for ex in pairs) + 2
        assert batch.gt_scores.shape == (len(pairs), full)
        for row, ex in enumerate(pairs):
            used = len(ex.movie) + 2
            assert batch.score_valid[row, :used].all()
            assert not batch.score_valid[row, used:].any()
            np.testing.assert_array_equal(batch.gt_scores[row, used:], 0.0)

    def test_gt_cache_is_reused(self):
        ex = tiny_pairs(1)[0]
        cache = {}
        first = pad_batch([ex], gt_cache=cache)
        assert ex.pair_id in cache
        cache[ex.pair_id] = cache[ex.pair_id] + 1.0  # poison to prove reuse
        second = pad_batch([ex], gt_cache=cache)
        np.testing.assert_array_equal(second.gt_scores,
                                      first.gt_scores + 1.0)

    def test_conditions_go_along_and_the_model_decides(self):
        pairs = tiny_pairs(2)  # generated without condition sequences
        pairs[1].condition = ShotSequence("c", np.ones((2, 16)), role="condition")
        batch = pad_batch(pairs)
        assert batch.conditions[0] is None
        np.testing.assert_array_equal(batch.conditions[1], np.ones((2, 16)))
        batch_loss(TrailerModel(SLIM, seed=0), batch)  # unconditioned: ignored
        conditioned = TrailerModel(replace(SLIM, condition_mode="encoded"), seed=0)
        with pytest.raises(ConfigurationError, match="movie 0 of the batch"):
            batch_loss(conditioned, batch)


class TestBatchLoss:
    def test_batch_of_one_equals_unbatched(self):
        with ad.precision(np.float64):
            model = TrailerModel(SLIM, seed=0)
            ex = tiny_pairs(1)[0]
            loss, _ = batch_loss(model, pad_batch([ex]))
            assert float(loss.data) == pytest.approx(unbatched_loss(model, ex),
                                                     rel=1e-9)

    def test_mixed_batch_total_is_mean_of_singles(self):
        # lengths differ inside the batch, so the shorter pairs are padded;
        # padding must contribute nothing to the per-pair average
        with ad.precision(np.float64):
            model = TrailerModel(SLIM, seed=0)
            pairs = tiny_pairs(3)
            loss, _ = batch_loss(model, pad_batch(pairs))
            singles = [unbatched_loss(model, ex) for ex in pairs]
            assert float(loss.data) == pytest.approx(np.mean(singles), rel=1e-6)

    def test_padding_leaves_gradients_unchanged(self):
        # the batch loss averages per-pair losses, so its gradient must be
        # the mean of single-pair gradients if padding is inert
        with ad.precision(np.float64):
            model = TrailerModel(SLIM, seed=0)
            pairs = tiny_pairs(2)

            loss, _ = batch_loss(model, pad_batch(pairs))
            model.zero_grad()
            loss.backward()
            batched = {n: p.grad.copy() for n, p in model.named_parameters()}

            accum = {n: np.zeros_like(p.data) for n, p in model.named_parameters()}
            for ex in pairs:
                single, _ = batch_loss(model, pad_batch([ex]))
                model.zero_grad()
                single.backward()
                for n, p in model.named_parameters():
                    accum[n] += p.grad / len(pairs)
            for name in accum:
                np.testing.assert_allclose(batched[name], accum[name],
                                           atol=1e-6, err_msg=name)

    def test_batch_order_does_not_change_total(self):
        with ad.precision(np.float64):
            model = TrailerModel(SLIM, seed=0)
            pairs = tiny_pairs(3)
            fwd, _ = batch_loss(model, pad_batch(pairs))
            rev, _ = batch_loss(model, pad_batch(pairs[::-1]))
            assert float(fwd.data) == pytest.approx(float(rev.data), rel=1e-9)

    def test_breakdown_components_reported(self):
        model = TrailerModel(SLIM, seed=0)
        _, breakdown = batch_loss(model, pad_batch(tiny_pairs(2)))
        d = breakdown.as_dict()
        assert set(d) == {"l_t", "l_rec", "l_kl", "total"}
        assert d["total"] > 0.0

    def test_desk_batch_graph_keeps_no_projection_output(self):
        # eight 200-shot desk movies (L 202) with 24-shot trailers, the
        # longest benchmark batch.  Backward recomputes q/k/v, the memory's
        # cross-attention K/V and the feed-forward hidden rows, so the graph
        # keeps none of them: 14.7 MiB (37 encoder activations, 0.6 MiB of
        # them Python objects; numpy 2.4, CPython 3.11) against 28.85 MiB
        # (73) when it kept them.  The bound leaves room for the objects'
        # size to change between versions
        gen = GeneratorConfig(n_range=(200, 200), m_range=(24, 24), seed=5)
        batch = pad_batch([PairExample(f"p{i}", *generate_pair(gen, 5 + i))
                           for i in range(8)])
        model = TrailerModel(preset("desk"), seed=0)
        act = 8 * 202 * model.cfg.d_model * 4  # one [8, 202, d] float32 array
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss, _ = batch_loss(model, batch)
            graph = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert graph < 40 * act
        loss.backward()
        assert all(np.isfinite(p.grad).all() for p in model.parameters())


# --------------------------------------------------------------------------
# shuffling and decode cap
# --------------------------------------------------------------------------

class TestEpochOrder:
    LENGTHS = np.random.default_rng(0).integers(1, 40, size=50)  # with ties

    def test_is_a_permutation(self):
        for count, batch_size in ((17, 4), (50, 3), (1, 8)):
            batches = epoch_batches(seed=0, epoch=0, lengths=self.LENGTHS[:count],
                                    batch_size=batch_size)
            assert len(batches) == math.ceil(count / batch_size)
            assert all(1 <= len(b) <= batch_size for b in batches)
            flat = np.concatenate(batches)
            assert sorted(flat.tolist()) == list(range(count))

    def test_stateless_and_deterministic(self):
        a = epoch_batches(seed=5, epoch=3, lengths=self.LENGTHS, batch_size=2)
        b = epoch_batches(seed=5, epoch=3, lengths=self.LENGTHS, batch_size=2)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_epochs_differ(self):
        a = epoch_batches(seed=5, epoch=0, lengths=self.LENGTHS, batch_size=2)
        b = epoch_batches(seed=5, epoch=1, lengths=self.LENGTHS, batch_size=2)
        assert not np.array_equal(np.concatenate(a), np.concatenate(b))

    def test_seeds_differ(self):
        a = epoch_batches(seed=0, epoch=0, lengths=self.LENGTHS, batch_size=2)
        b = epoch_batches(seed=1, epoch=0, lengths=self.LENGTHS, batch_size=2)
        assert not np.array_equal(np.concatenate(a), np.concatenate(b))

    def test_batches_of_a_window_follow_length(self):
        # 50 pairs in windows of 8 * 2 = 16 consecutive pairs of the shuffle
        lengths = self.LENGTHS
        batches = epoch_batches(seed=2, epoch=4, lengths=lengths, batch_size=2)
        shuffle = np.random.default_rng([2, training._SHUFFLE_TAG, 4]).permutation(50)
        window_of = shuffle.argsort() // (training._BUCKET_WINDOW * 2)
        for batch in batches:
            assert len(set(window_of[batch])) == 1
        for a, b in itertools.combinations(batches, 2):
            if window_of[a[0]] == window_of[b[0]]:
                low, high = sorted((a, b), key=lambda x: lengths[x].min())
                assert lengths[low].max() <= lengths[high].min()

    def test_padding_on_criterion_5_lengths(self):
        # the 500 training movies of the acceptance suite's generalization run;
        # a plain shuffle cut into batches of 8 pads them to about 1.5x
        cfg = GeneratorConfig(seed=21)
        lengths = np.array([len(generate_pair(cfg, cfg.seed + i)[0]) for i in range(500)])
        framed = lengths + 2
        unpadded = int((framed ** 2).sum())
        for epoch in range(3):
            batches = epoch_batches(seed=5, epoch=epoch, lengths=lengths, batch_size=8)
            padded = sum(len(b) * int(framed[b].max()) ** 2 for b in batches)
            assert padded <= 1.2 * unpadded


class TestSuggestedDecodeCap:
    def test_doubles_the_95th_percentile(self):
        pairs = tiny_pairs(20)
        lengths = sorted(len(ex.trailer) for ex in pairs)
        p95 = lengths[math.ceil(0.95 * len(lengths)) - 1]
        assert suggested_decode_cap(pairs) == 2 * p95

    def test_single_pair(self):
        ex = tiny_pairs(1)[0]
        assert suggested_decode_cap([ex]) == 2 * len(ex.trailer)


# --------------------------------------------------------------------------
# TrainConfig plumbing
# --------------------------------------------------------------------------

class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"lr_peak": 0.0},
        {"lr_peak": -1e-4},
        {"batch_size": 0},
        {"epochs": -1},
        {"beta1": 1.0},
        {"eps": 0.0},
        {"weight_decay": -0.1},
        {"loss_weights": (1.0, 1.0)},
        {"loss_weights": (1.0, -1.0, 1.0)},
        {"warmup_frac": 1.0},
        {"checkpoint_every": -1},
        {"checkpoint_every": -2},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainConfig(**kwargs).validate()

    @pytest.mark.parametrize("pairs, steps", [(1, 1), (8, 1), (10, 2), (16, 2), (17, 3)])
    def test_steps_per_epoch_counts_a_partial_batch(self, pairs, steps):
        assert TrainConfig(batch_size=8).steps_per_epoch(pairs) == steps

    def test_dict_round_trip(self):
        cfg = TrainConfig(lr_peak=3e-3, loss_weights=(2.0, 1.0, 0.5), seed=7)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert isinstance(again.loss_weights, tuple)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            TrainConfig.from_dict({"learning_rate": 1e-4})

    @pytest.mark.parametrize("values, key", [
        ({"clip_norm": "nan"}, "clip_norm"),
        ({"clip_norm": float("nan")}, "clip_norm"),
        ({"epochs": 2.5}, "epochs"),
        ({"batch_size": True}, "batch_size"),
        ({"warmup_frac": True}, "warmup_frac"),
        ({"loss_weights": "1,1,1"}, "loss_weights"),
        ({"loss_weights": [1.0, "x", 1.0]}, "loss_weights"),
    ])
    def test_from_dict_rejects_wrong_types(self, values, key):
        with pytest.raises(ConfigurationError, match=key):
            TrainConfig.from_dict(values)

    def test_from_dict_takes_integers_for_floats(self):
        cfg = TrainConfig.from_dict({"clip_norm": 0, "loss_weights": [1, 2, 3]})
        assert cfg.clip_norm == 0.0 and isinstance(cfg.clip_norm, float)
        assert cfg.loss_weights == (1.0, 2.0, 3.0)


# --------------------------------------------------------------------------
# the training loop
# --------------------------------------------------------------------------

class TestTrain:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], TrainConfig(epochs=1), SLIM)

    @pytest.mark.parametrize("field, value", [("epochs", 0), ("epochs", -1), ("seed", -1)])
    def test_count_and_seed_below_range_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            train(tiny_pairs(2), replace(TrainConfig(), **{field: value}), SLIM)

    def test_identical_seeds_identical_curves(self):
        pairs = tiny_pairs(3)
        cfg = TrainConfig(epochs=2, batch_size=2, lr_peak=1e-3, seed=4)
        a = train(pairs, cfg, SLIM)
        b = train(pairs, cfg, SLIM)
        assert a.history == b.history

    def test_one_batch_row_per_attention_block_trains_bit_identically(self, monkeypatch):
        # every attention call of these batches fits one block by default
        pairs = tiny_pairs(5)
        cfg = TrainConfig(epochs=2, batch_size=3, lr_peak=1e-3, seed=4)
        whole = train(pairs, cfg, SLIM)
        monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", 1)
        blocked = train(pairs, cfg, SLIM)

        def history_bytes(result):
            return np.array([[row[key] for key in sorted(row)] for row in result.history],
                            dtype=np.float64).tobytes()

        assert history_bytes(blocked) == history_bytes(whole)
        for (name, p), (_, q) in zip(whole.model.named_parameters(),
                                     blocked.model.named_parameters()):
            assert np.array_equal(p.data, q.data), name

    def test_history_one_record_per_step(self):
        pairs = tiny_pairs(3)
        cfg = TrainConfig(epochs=2, batch_size=2, lr_peak=1e-3, seed=4)
        result = train(pairs, cfg, SLIM)
        assert len(result.history) == 2 * 2  # ceil(3/2) steps x 2 epochs
        assert [h["step"] for h in result.history] == [1, 2, 3, 4]
        assert set(result.history[0]) == {"step", "lr", "l_t", "l_rec",
                                          "l_kl", "total", "grad_norm"}
        assert all(math.isfinite(h["grad_norm"]) and h["grad_norm"] > 0.0
                   for h in result.history)

    def test_schedule_spans_the_epochs(self):
        # 2 epochs of ceil(5/2) = 3 steps; a warmup_frac of 0.5 is 3 steps
        cfg = TrainConfig(epochs=2, batch_size=2, lr_peak=1e-3, warmup_frac=0.5, seed=4)
        result = train(tiny_pairs(5), cfg, SLIM)
        assert [h["lr"] for h in result.history] == [lr_at_step(s, cfg, 6) for s in range(6)]
        assert [h["lr"] for h in result.history[:4]] == [0.0, 1e-3 / 3, 2e-3 / 3, 1e-3]

    def test_single_pair_overfits(self):
        # the loss should collapse by well over an order of magnitude
        pairs = tiny_pairs(1)
        cfg = TrainConfig(epochs=400, batch_size=1, lr_peak=3e-3, seed=1)
        result = train(pairs, cfg, SLIM)
        first = np.mean([h["total"] for h in result.history[:5]])
        last = np.mean([h["total"] for h in result.history[-5:]])
        assert last < first / 10.0

    def test_ablated_model_drops_trailerness_weight(self):
        pairs = tiny_pairs(2)
        cfg = TrainConfig(epochs=1, batch_size=2, lr_peak=1e-4, seed=0)
        ablated = with_overrides(SLIM, use_trailerness_encoder=False)
        result = train(pairs, cfg, ablated)
        assert result.history[0]["l_t"] == 0.0

    @pytest.mark.parametrize("weights, model_cfg", [
        ((0.0, 0.0, 0.0), SLIM),
        ((1.0, 0.0, 0.0), with_overrides(SLIM, use_trailerness_encoder=False)),
    ])
    def test_weights_that_zero_every_computed_term_rejected(self, weights, model_cfg,
                                                            tmp_path):
        cfg = TrainConfig(epochs=1, batch_size=2, loss_weights=weights)
        with pytest.raises(ConfigurationError, match="loss_weights"):
            train(tiny_pairs(2), cfg, model_cfg, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_callback_sees_each_epoch_and_can_stop(self):
        pairs = tiny_pairs(2)
        seen = []

        def stop_after_two(epoch, model, history):
            seen.append(epoch)
            return epoch >= 1

        cfg = TrainConfig(epochs=5, batch_size=2, lr_peak=1e-4, seed=0)
        result = train(pairs, cfg, SLIM, on_epoch=stop_after_two)
        assert seen == [0, 1]
        assert len(result.history) == 2


# --------------------------------------------------------------------------
# checkpointing
# --------------------------------------------------------------------------

class TestCheckpoint:
    def test_save_syncs_file_before_rename_and_directory_after(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        def replace_(src, dst):
            events.append("rename")
            real_replace(src, dst)

        monkeypatch.setattr(training.os, "fsync", fsync)
        monkeypatch.setattr(training.os, "replace", replace_)
        model = TrailerModel(SLIM, seed=0)
        save_checkpoint(tmp_path / "model.ckpt", model, None, TrainConfig(), SLIM, 0)
        assert events == ["file", "rename", "dir"]
        assert load_checkpoint(tmp_path / "model.ckpt").step == 0

    def test_save_load_save_is_byte_identical(self, tmp_path):
        pairs = tiny_pairs(2)
        cfg = TrainConfig(epochs=1, batch_size=2, lr_peak=1e-3, seed=2)
        result = train(pairs, cfg, SLIM, out_dir=tmp_path)
        first = result.checkpoint_path.read_bytes()

        ck = load_checkpoint(result.checkpoint_path)
        model, optimizer = restore_model_and_optimizer(ck)
        second_path = tmp_path / "again.ckpt"
        save_checkpoint(second_path, model, optimizer, ck.train_config,
                        ck.model_config, ck.step, ck.data_fingerprint,
                        extras=ck.extras)
        assert second_path.read_bytes() == first

    def test_save_and_load_hold_no_second_payload(self, tmp_path):
        # a desk model and its AdamW moments: a 5 MB payload.  Save writes
        # each array from its own buffer; load maps the payload and returns
        # views, which restore copies once into the model
        cfg = preset("desk")
        model = TrailerModel(cfg, seed=0)
        optimizer = AdamW(model.parameters())
        path = tmp_path / "model.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(path, model, optimizer, TrainConfig(), cfg, 0)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ck = load_checkpoint(path)
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert save_peak < size // 4  # the JSON header takes 0.9 MB to build
        assert load_peak < size + size // 10
        assert not any(arr.flags.owndata for arr in ck.arrays.values())
        restored, optimizer = restore_model_and_optimizer(ck)
        for name, p in restored.named_parameters():
            assert p.data.flags.owndata and p.data.flags.writeable, name
            np.testing.assert_array_equal(p.data, ck.arrays[name], err_msg=name)
        assert all(m.flags.owndata for m in optimizer.m + optimizer.v)

    @staticmethod
    def _desk_checkpoint(path):
        """A desk model and its AdamW moments saved at ``path``; returns the
        model and the bytes of its parameters."""
        cfg = preset("desk")
        model = TrailerModel(cfg, seed=0)
        save_checkpoint(path, model, AdamW(model.parameters()), TrainConfig(), cfg, 0)
        return model, sum(p.data.nbytes for p in model.parameters())

    def test_load_maps_the_payload_read_only(self, tmp_path):
        # a load reads the header and maps the payload: the arrays are
        # read-only views into one np.memmap, and a caller that reads only
        # the configs (train --resume comparing model keys) reads no array
        path = tmp_path / "model.ckpt"
        model, _ = self._desk_checkpoint(path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ck = load_checkpoint(path)
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert load_peak < path.stat().st_size // 8  # the parsed header
        for name, arr in ck.arrays.items():
            assert not arr.flags.writeable, name
            root = arr
            while root.base is not None and not isinstance(root, np.memmap):
                root = root.base
            assert isinstance(root, np.memmap), name
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(ck.arrays[name], p.data, err_msg=name)

    def test_empty_payload_loads_without_a_map(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, TrailerModel(SLIM, seed=0), None, TrainConfig(), SLIM, 0)
        raw = path.read_bytes()
        head_len = struct.unpack("<I", raw[8:12])[0]
        header = json.loads(raw[12:12 + head_len])
        header["params"], header["payload_bytes"] = [], 0
        head = json.dumps(header).encode()
        path.write_bytes(raw[:8] + struct.pack("<I", len(head)) + head)
        ck = load_checkpoint(path)
        assert ck.arrays == {} and ck.model_config == SLIM

    def test_restore_model_reads_no_moment(self, tmp_path, monkeypatch):
        # eval and infer restore through cli._restore_model: it copies the
        # parameters and never reads an AdamW moment, two thirds of the file
        from trailergen import cli

        path = tmp_path / "model.ckpt"
        model, params = self._desk_checkpoint(path)
        read = []

        class Recording(dict):
            def __getitem__(self, name):
                read.append(name)
                return super().__getitem__(name)

        def recorded_load(where):
            ck = load_checkpoint(where)
            ck.arrays = Recording(ck.arrays)
            return ck

        monkeypatch.setattr(cli, "load_checkpoint", recorded_load)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            restored, _ = cli._restore_model(path)
            restore_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sorted(read) == sorted(name for name, _ in model.named_parameters())
        # the model's parameters, drawn and then copied in one at a time,
        # and the parsed header; restoring the moments too takes 4x params
        assert restore_peak < 2 * params
        for (name, p), (_, q) in zip(restored.named_parameters(), model.named_parameters()):
            assert p.data.flags.owndata and p.data.flags.writeable, name
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)

    def test_restore_matches_trained_parameters(self, tmp_path):
        pairs = tiny_pairs(2)
        cfg = TrainConfig(epochs=1, batch_size=2, lr_peak=1e-3, seed=2)
        result = train(pairs, cfg, SLIM, out_dir=tmp_path)
        model, optimizer = restore_model_and_optimizer(
            load_checkpoint(result.checkpoint_path))
        for (name, p), (_, q) in zip(model.named_parameters(),
                                     result.model.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)
        assert optimizer.step_count == result.optimizer.step_count
        for m, n in zip(optimizer.m, result.optimizer.m):
            np.testing.assert_array_equal(m, n)

    def test_checkpoint_records_decode_cap(self, tmp_path):
        pairs = tiny_pairs(4)
        cfg = TrainConfig(epochs=1, batch_size=4, lr_peak=1e-3, seed=2)
        result = train(pairs, cfg, SLIM, out_dir=tmp_path)
        ck = load_checkpoint(result.checkpoint_path)
        assert ck.extras["suggested_max_len"] == suggested_decode_cap(pairs)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        pairs = tiny_pairs(1)
        cfg = TrainConfig(epochs=1, batch_size=1, lr_peak=1e-3, seed=2)
        result = train(pairs, cfg, SLIM, out_dir=tmp_path)
        path = result.checkpoint_path
        before = path.read_bytes()

        class FullDisk:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 2:
                    raise OSError("no space left on device")
                return self.fh.write(data)

        monkeypatch.setattr(training, "open",
                            lambda *a, **kw: FullDisk(open(*a, **kw)), raising=False)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, result.model, result.optimizer, cfg, SLIM,
                            step=99)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_checkpoint(path).step == result.optimizer.step_count
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        pairs = tiny_pairs(1)
        cfg = TrainConfig(epochs=1, batch_size=1, lr_peak=1e-3, seed=2)
        result = train(pairs, cfg, SLIM, out_dir=tmp_path)
        raw = result.checkpoint_path.read_bytes()
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(clipped)

    @staticmethod
    def _with_header_entries(path, model_entries, train_entries, optimizer_entries=()):
        """Rewrite a checkpoint's JSON header with extra entries."""
        raw = path.read_bytes()
        head_len = struct.unpack("<I", raw[8:12])[0]
        header = json.loads(raw[12:12 + head_len])
        header["model_config"].update(model_entries)
        header["train_config"].update(train_entries)
        header["optimizer"].update(optimizer_entries)
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(raw[:8] + struct.pack("<I", len(head)) + head + raw[12 + head_len:])

    def test_header_with_optimizer_constants_loads(self, tmp_path):
        # headers once repeated AdamW's constants beside its step; nothing
        # reads them, and a restore takes them from the train config
        pairs = tiny_pairs(1)
        cfg = TrainConfig(epochs=1, batch_size=1, lr_peak=1e-3, seed=2)
        result = train(pairs, cfg, SLIM, out_dir=tmp_path)
        path = result.checkpoint_path
        raw = path.read_bytes()
        self._with_header_entries(path, {}, {}, {
            "kind": "adamw", "beta1": 0.5, "beta2": 0.5, "eps": 1.0, "weight_decay": 1.0})
        assert path.read_bytes() != raw
        ck = load_checkpoint(path)
        assert ck.optimizer_step == result.optimizer.step_count
        model, optimizer = restore_model_and_optimizer(ck)
        assert (optimizer.beta1, optimizer.beta2, optimizer.eps, optimizer.weight_decay) == (
            cfg.beta1, cfg.beta2, cfg.eps, cfg.weight_decay)
        for (name, p), (_, q) in zip(model.named_parameters(),
                                     result.model.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)
        for m, n in zip(optimizer.m, result.optimizer.m):
            np.testing.assert_array_equal(m, n)

    def test_retired_switches_at_their_old_defaults_load(self, tmp_path):
        # headers written before the switches were removed carry them
        pairs = tiny_pairs(1)
        cfg = TrainConfig(epochs=1, batch_size=1, lr_peak=1e-3, seed=2)
        result = train(pairs, cfg, SLIM, out_dir=tmp_path)
        path = result.checkpoint_path
        self._with_header_entries(
            path, {"position_mode": "sinusoidal", "score_fusion": "broadcast",
                   "stop_score_gradient": False, "layer_norm_eps": 1e-5,
                   "pre_norm": False, "condition_dim": 0},
            {"normalize_by_length": False})
        ck = load_checkpoint(path)
        assert ck.model_config == SLIM
        assert ck.train_config == result.config
        model, _ = restore_model_and_optimizer(ck)
        for (name, p), (_, q) in zip(model.named_parameters(),
                                     result.model.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)

    @pytest.mark.parametrize("model_entries, train_entries, key", [
        ({"position_mode": "learned"}, {}, "position_mode"),
        ({"score_fusion": "projected"}, {}, "score_fusion"),
        ({"stop_score_gradient": True}, {}, "stop_score_gradient"),
        ({}, {"normalize_by_length": True}, "normalize_by_length"),
        ({"layer_norm_eps": 1e-6}, {}, "layer_norm_eps"),
        ({"pre_norm": True}, {}, "pre_norm"),
        ({"condition_dim": 8}, {}, "condition_dim"),
        ({"condition_mode": "contextualized"}, {}, "condition_mode.*contextualized"),
    ])
    def test_retired_switch_set_otherwise_rejected(self, tmp_path, model_entries,
                                                   train_entries, key):
        pairs = tiny_pairs(1)
        cfg = TrainConfig(epochs=1, batch_size=1, lr_peak=1e-3, seed=2)
        path = train(pairs, cfg, SLIM, out_dir=tmp_path).checkpoint_path
        self._with_header_entries(path, model_entries, train_entries)
        with pytest.raises(ConfigurationError, match=key):
            load_checkpoint(path)

    def test_train_value_a_later_check_rejects_still_opens(self, tmp_path):
        # eval and infer open such a checkpoint (test_cli: resuming is refused);
        # unknown keys and wrong types are still rejected
        pairs = tiny_pairs(1)
        cfg = TrainConfig(epochs=1, batch_size=1, lr_peak=1e-3, seed=2)
        result = train(pairs, cfg, SLIM, out_dir=tmp_path)
        raw = result.checkpoint_path.read_bytes()
        path = tmp_path / "old.ckpt"
        for entries, key in (({"epochs": 0.5}, "epochs"), ({"nonsense": 1}, "nonsense")):
            path.write_bytes(raw)
            self._with_header_entries(path, {}, entries)
            with pytest.raises(ConfigurationError, match=key):
                load_checkpoint(path)
        path.write_bytes(raw)
        self._with_header_entries(path, {}, {"epochs": 0})
        ck = load_checkpoint(path)
        assert ck.train_config.epochs == 0
        model, _ = restore_model_and_optimizer(ck)
        for (name, p), (_, q) in zip(model.named_parameters(),
                                     result.model.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)

    def test_parameter_mismatch_rejected(self, tmp_path):
        pairs = tiny_pairs(1)
        cfg = TrainConfig(epochs=1, batch_size=1, lr_peak=1e-3, seed=2)
        result = train(pairs, cfg, SLIM, out_dir=tmp_path)
        ck = load_checkpoint(result.checkpoint_path)
        victim = next(n for n in ck.arrays if not n.startswith("optim."))
        del ck.arrays[victim]
        with pytest.raises(ValueError, match="mismatch"):
            restore_model_and_optimizer(ck)


class TestResume:
    def test_resumed_run_drops_the_checkpoint(self, tmp_path, monkeypatch):
        # the restored model and moments are copies, so neither the loaded
        # checkpoint nor the map of its payload outlives the restore
        pairs = tiny_pairs(2)
        cfg = TrainConfig(epochs=1, batch_size=2, lr_peak=1e-3, seed=2)
        first = train(pairs, cfg, SLIM, out_dir=tmp_path / "a")
        refs = []

        def watched_load(path):
            ck = load_checkpoint(path)
            payload = next(iter(ck.arrays.values()))
            while not isinstance(payload, np.memmap):
                payload = payload.base
            refs.extend([weakref.ref(ck), weakref.ref(payload)])
            return ck

        alive = []
        monkeypatch.setattr(training, "load_checkpoint", watched_load)
        train(pairs, replace(cfg, epochs=2), SLIM, out_dir=tmp_path / "b",
              resume_from=first.checkpoint_path,
              on_epoch=lambda *_: alive.append([ref() is not None for ref in refs]))
        assert alive == [[False, False]]

    def test_resume_replays_identical_curve(self, tmp_path):
        pairs = tiny_pairs(3)
        cfg = TrainConfig(epochs=4, batch_size=2, lr_peak=1e-3, seed=6,
                          checkpoint_every=2)
        straight = train(pairs, cfg, SLIM)

        part = train(pairs, cfg, SLIM, out_dir=tmp_path,
                     on_epoch=lambda epoch, model, history: epoch >= 1)
        resumed = train(pairs, cfg, SLIM, resume_from=part.checkpoint_path)

        steps_done = len(part.history)
        assert straight.history[steps_done:] == resumed.history
        for (name, p), (_, q) in zip(straight.model.named_parameters(),
                                     resumed.model.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)

    def test_conditioning_follows_the_restored_model(self, tmp_path):
        # a resumed run feeds condition rows exactly when the model it
        # restores is conditioned, whatever model config it is given
        pairs = tiny_pairs(3)
        rng = np.random.default_rng(5)
        for ex in pairs:
            ex.condition = ShotSequence(f"{ex.pair_id}-c", rng.normal(size=(2, 16)),
                                        role="condition")
        cfg = TrainConfig(epochs=2, batch_size=2, lr_peak=1e-3, seed=6)
        conditioned = replace(SLIM, condition_mode="encoded")
        straight = train(pairs, cfg, conditioned)
        path = train(pairs, cfg, conditioned, out_dir=tmp_path,
                     on_epoch=lambda epoch, model, history: True).checkpoint_path
        resumed = train(pairs, cfg, SLIM, resume_from=path)
        assert resumed.history == straight.history[2:]
        for ex in pairs:
            ex.condition = None
        with pytest.raises(ConfigurationError, match="condition"):
            train(pairs, cfg, SLIM, resume_from=path)

    def test_mid_epoch_checkpoint_rejected(self, tmp_path):
        pairs = tiny_pairs(3)
        cfg = TrainConfig(epochs=1, batch_size=2, lr_peak=1e-3, seed=6)
        result = train(pairs, cfg, SLIM, out_dir=tmp_path)
        # 3 pairs / batch 2 = 2 steps per epoch; fake an off-boundary step
        ck = load_checkpoint(result.checkpoint_path)
        save_checkpoint(result.checkpoint_path, result.model, result.optimizer,
                        ck.train_config, ck.model_config, step=1)
        with pytest.raises(ConfigurationError, match="epoch-aligned"):
            train(pairs, cfg, SLIM, resume_from=result.checkpoint_path)


class TestDivergence:
    def test_poisoned_parameters_raise_with_rescue(self, tmp_path):
        pairs = tiny_pairs(2)
        cfg = TrainConfig(epochs=3, batch_size=2, lr_peak=1e-4, seed=0,
                          checkpoint_every=1)

        def poison(epoch, model, history):
            if epoch == 0:
                model.parameters()[0].data[...] = np.inf
            return False

        with pytest.raises(TrainingDiverged) as err:
            train(pairs, cfg, SLIM, out_dir=tmp_path, on_epoch=poison)
        # params were non-finite, so the epoch-0 checkpoint is the rescue
        assert err.value.checkpoint_path is not None
        ck = load_checkpoint(err.value.checkpoint_path)
        assert ck.step == 1  # one step per epoch with 2 pairs at batch 2
        assert all(np.isfinite(a).all() for a in ck.arrays.values())

    def test_divergence_without_out_dir_has_no_rescue(self):
        pairs = tiny_pairs(2)
        cfg = TrainConfig(epochs=3, batch_size=2, lr_peak=1e-4, seed=0)

        def poison(epoch, model, history):
            model.parameters()[0].data[...] = np.nan
            return False

        with pytest.raises(TrainingDiverged) as err:
            train(pairs, cfg, SLIM, on_epoch=poison)
        assert err.value.checkpoint_path is None

    def test_mid_epoch_rescue_keeps_epoch_checkpoint_resumable(self, tmp_path):
        pairs = tiny_pairs(8)
        cfg = TrainConfig(epochs=3, batch_size=2, lr_peak=1e-4, seed=0,
                          checkpoint_every=1)
        lengths = [len(ex.movie) for ex in pairs]
        third = epoch_batches(cfg.seed, 1, lengths, cfg.batch_size)[2]
        poisoned = pairs[int(third[0])]

        def poison(epoch, model, history):
            if epoch == 0:
                poisoned.movie.embeddings[...] = 1e30
            return False

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as err:
                train(pairs, cfg, SLIM, out_dir=tmp_path, on_epoch=poison)
        # the third batch of epoch 1 holds the poisoned movie: 6 steps done
        assert [row["step"] for row in err.value.history] == [1, 2, 3, 4, 5, 6]
        assert err.value.checkpoint_path == tmp_path / "model.ckpt"
        assert load_checkpoint(err.value.checkpoint_path).step == 4
        assert err.value.rescue_path == tmp_path / "model.rescue.ckpt"
        assert load_checkpoint(err.value.rescue_path).step == 6

        resumed = train(tiny_pairs(8), cfg, SLIM, out_dir=tmp_path / "resumed",
                        resume_from=err.value.checkpoint_path)
        assert [row["step"] for row in resumed.history] == list(range(5, 13))

    def test_earlier_runs_checkpoint_not_named_resumable(self, tmp_path):
        cfg = TrainConfig(epochs=2, batch_size=2, lr_peak=1e-4, seed=0)
        train(tiny_pairs(4), cfg, SLIM, out_dir=tmp_path)
        pairs = tiny_pairs(4, seed=99)
        for ex in pairs:
            ex.movie.embeddings[...] = 1e30
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as err:
                train(pairs, cfg, SLIM, out_dir=tmp_path)
        # diverged on step 1: this run never wrote an epoch checkpoint
        assert err.value.history == []
        assert err.value.checkpoint_path is None
