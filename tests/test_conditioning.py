"""Tests for condition-vector support: memory augmentation, projection,
the contextualized variant, and empty-condition pass-through."""

import numpy as np
import pytest

from trailergen import autodiff as ad
from trailergen.autodiff import ConfigurationError, ShapeError, Tensor
from trailergen.conditioning import augment_context
from trailergen.config import ModelConfig, with_overrides
from trailergen.layers import EncoderLayer, Linear
from trailergen.model import TrailerModel

BASE = ModelConfig(d_model=16, num_heads=2, ff_dim=32, trailerness_layers=1,
                   context_layers=1, decoder_layers=1, max_len=64)


def rng_movie(rng, n, d=16):
    return rng.normal(0.0, 0.3, size=(n, d)) + 0.5


def all_valid(rows):
    return np.ones((1, rows), dtype=bool)


def augment(memory, cond, mode="encoded", **kw):
    """``augment_context`` on a batch of one with every row valid."""
    cond_valid = None if cond is None else all_valid(cond.shape[-2])
    return augment_context(memory, cond, mode, memory_valid=all_valid(memory.shape[-2]),
                           cond_valid=cond_valid, **kw)


class TestAugmentContext:
    def test_encoded_mode_row_concatenates(self):
        memory = Tensor(np.ones((1, 5, 4)))
        cond = Tensor(np.full((1, 3, 4), 2.0))
        merged, valid = augment(memory, cond)
        assert merged.shape == (1, 8, 4)  # (n+2) + L_c rows
        np.testing.assert_array_equal(merged.data[0, :5], 1.0)
        np.testing.assert_array_equal(merged.data[0, 5:], 2.0)
        np.testing.assert_array_equal(valid, all_valid(8))

    def test_none_condition_is_pass_through(self):
        memory = Tensor(np.ones((1, 5, 4)))
        merged, valid = augment(memory, None)
        assert merged is memory
        np.testing.assert_array_equal(valid, all_valid(5))

    def test_zero_length_condition_is_pass_through(self):
        memory = Tensor(np.ones((1, 5, 4)))
        merged, _ = augment(memory, Tensor(np.zeros((1, 0, 4))))
        assert merged is memory

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            augment(Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 1, 4))), "averaged")

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            augment(Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 1, 6))))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ShapeError):  # an unbatched [L, d] condition
            augment(Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 4))))

    def test_projection_maps_foreign_width(self):
        rng = np.random.default_rng(0)
        proj = Linear(6, 4, rng)
        memory = Tensor(np.ones((1, 2, 4)))
        cond = Tensor(rng.normal(size=(1, 3, 6)))
        merged, _ = augment(memory, cond, projection=proj)
        assert merged.shape == (1, 5, 4)
        expected = proj(Tensor(cond.data)).data
        np.testing.assert_array_equal(merged.data[:, 2:], expected)

    def test_contextualized_requires_extra_layer(self):
        with pytest.raises(ValueError):
            augment(Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 1, 4))), "contextualized")

    def test_contextualized_transforms_condition_rows(self):
        rng = np.random.default_rng(1)
        layer = EncoderLayer(4, 2, 8, rng)
        memory = Tensor(np.ones((1, 2, 4)))
        cond_rows = rng.normal(size=(1, 3, 4))
        merged, _ = augment(memory, Tensor(cond_rows), "contextualized", extra_layer=layer)
        np.testing.assert_array_equal(merged.data[:, :2], 1.0)  # memory untouched
        assert not np.allclose(merged.data[:, 2:], cond_rows)  # cond transformed
        np.testing.assert_allclose(merged.data[:, 2:],
                                   layer(Tensor(cond_rows), None).data)

    def test_batched_concatenates_masks(self):
        memory = Tensor(np.ones((2, 5, 4)))
        cond = Tensor(np.ones((2, 3, 4)))
        mem_valid = np.array([[True] * 5, [True, True, True, False, False]])
        cond_valid = np.array([[True, True, True], [True, False, False]])
        merged, valid = augment_context(memory, cond, "encoded",
                                        memory_valid=mem_valid,
                                        cond_valid=cond_valid)
        assert merged.shape == (2, 8, 4)
        np.testing.assert_array_equal(
            valid, np.concatenate([mem_valid, cond_valid], axis=1))

    def test_batched_without_masks_rejected(self):
        with pytest.raises(ShapeError):
            augment_context(Tensor(np.ones((2, 5, 4))),
                            Tensor(np.ones((2, 3, 4))), "encoded")


class TestModelConditioning:
    def test_empty_condition_memory_is_exactly_unconditioned(self):
        # the conditioned model must collapse to the plain path, bit for bit
        cfg = with_overrides(BASE, condition_mode="encoded")
        model = TrailerModel(cfg, seed=3)
        movie = rng_movie(np.random.default_rng(5), 7)
        enc = model.encode_single(movie)
        memory, valid = model.attach_condition(enc, None)
        assert memory is enc.memory
        memory, valid = model.attach_condition(enc, [np.zeros((0, 16))])
        assert memory is enc.memory

    def test_condition_mode_none_ignores_conditions(self):
        model = TrailerModel(BASE, seed=3)
        movie = rng_movie(np.random.default_rng(5), 7)
        enc = model.encode_single(movie)
        memory, _ = model.attach_condition(enc, [np.ones((4, 16))])
        assert memory is enc.memory

    def test_memory_length_is_frame_plus_condition_rows(self):
        cfg = with_overrides(BASE, condition_mode="encoded")
        model = TrailerModel(cfg, seed=3)
        movie = rng_movie(np.random.default_rng(5), 7)
        enc = model.encode_single(movie)
        memory, valid = model.attach_condition(enc, [np.ones((4, 16))])
        assert memory.shape == (1, 7 + 2 + 4, 16)
        assert valid.tolist() == [[True] * (7 + 2 + 4)]

    def test_condition_changes_generation(self):
        cfg = with_overrides(BASE, condition_mode="encoded")
        model = TrailerModel(cfg, seed=3)
        rng = np.random.default_rng(5)
        movie = rng_movie(rng, 9)
        plain = model.generate(movie, max_len=6, topk=1)
        steered = model.generate(movie, condition=rng.normal(size=(3, 16)),
                                 max_len=6, topk=1)
        assert not np.array_equal(plain.all_predictions, steered.all_predictions)

    def test_conditioned_weights_match_unconditioned_base(self):
        # per-component seed streams: adding the condition path must not
        # reshuffle any shared parameter
        plain = dict(TrailerModel(BASE, seed=3).named_parameters())
        cond = dict(TrailerModel(
            with_overrides(BASE, condition_mode="contextualized",
                           condition_dim=8), seed=3).named_parameters())
        extra = set(cond) - set(plain)
        assert extra  # the new path does add parameters
        assert all(k.startswith("condition") for k in extra)
        for name in plain:
            np.testing.assert_array_equal(plain[name].data, cond[name].data,
                                          err_msg=name)

    def test_contextualized_adds_one_layer_plus_projection(self):
        def count(model):
            return sum(p.data.size for p in model.parameters())

        base = count(TrailerModel(with_overrides(BASE, condition_mode="encoded"),
                                  seed=0))
        ctx = count(TrailerModel(
            with_overrides(BASE, condition_mode="contextualized"), seed=0))
        probe_layer = EncoderLayer(16, 2, 32, np.random.default_rng(0))
        layer_params = sum(p.data.size for p in probe_layer.parameters())
        assert ctx - base == layer_params

        proj = count(TrailerModel(
            with_overrides(BASE, condition_mode="encoded", condition_dim=8),
            seed=0))
        probe_proj = Linear(8, 16, np.random.default_rng(0))
        assert proj - base == sum(p.data.size for p in probe_proj.parameters())

    def test_foreign_width_condition_projected(self):
        cfg = with_overrides(BASE, condition_mode="encoded", condition_dim=8)
        model = TrailerModel(cfg, seed=3)
        movie = rng_movie(np.random.default_rng(5), 7)
        enc = model.encode_single(movie)
        memory, _ = model.attach_condition(enc, [np.ones((4, 8))])
        assert memory.shape == (1, 13, 16)

    def test_width_mismatch_rejected(self):
        cfg = with_overrides(BASE, condition_mode="encoded")  # expects d=16
        model = TrailerModel(cfg, seed=3)
        enc = model.encode_single(rng_movie(np.random.default_rng(5), 7))
        with pytest.raises(ShapeError):
            model.attach_condition(enc, [np.ones((4, 8))])

    def test_batched_condition_count_must_match(self):
        cfg = with_overrides(BASE, condition_mode="encoded")
        model = TrailerModel(cfg, seed=3)
        rng = np.random.default_rng(5)
        enc = model.encode_batch([rng_movie(rng, 7), rng_movie(rng, 9)])
        with pytest.raises(ShapeError):
            model.attach_condition(enc, [np.ones((2, 16))])

    def test_batched_mixed_empty_rejected(self):
        cfg = with_overrides(BASE, condition_mode="encoded")
        model = TrailerModel(cfg, seed=3)
        rng = np.random.default_rng(5)
        enc = model.encode_batch([rng_movie(rng, 7), rng_movie(rng, 9)])
        with pytest.raises(ConfigurationError):
            model.attach_condition(enc, [np.ones((2, 16)), np.zeros((0, 16))])

    def test_batched_all_empty_is_pass_through(self):
        cfg = with_overrides(BASE, condition_mode="encoded")
        model = TrailerModel(cfg, seed=3)
        rng = np.random.default_rng(5)
        enc = model.encode_batch([rng_movie(rng, 7), rng_movie(rng, 9)])
        memory, valid = model.attach_condition(
            enc, [np.zeros((0, 16)), np.zeros((0, 16))])
        assert memory is enc.memory
        np.testing.assert_array_equal(valid, enc.valid)

    def test_batched_ragged_conditions_padded_and_masked(self):
        cfg = with_overrides(BASE, condition_mode="encoded")
        model = TrailerModel(cfg, seed=3)
        rng = np.random.default_rng(5)
        movies = [rng_movie(rng, 7), rng_movie(rng, 7)]
        enc = model.encode_batch(movies)
        conds = [rng.normal(size=(2, 16)), rng.normal(size=(4, 16))]
        memory, valid = model.attach_condition(enc, conds)
        assert memory.shape == (2, 9 + 4, 16)
        assert valid[0].sum() == 9 + 2
        assert valid[1].sum() == 9 + 4

    def test_padded_condition_rows_do_not_leak(self):
        # decoding with a ragged batch must match the single-pair path where
        # no padding exists at all
        with ad.precision(np.float64):
            cfg = with_overrides(BASE, condition_mode="encoded")
            model = TrailerModel(cfg, seed=3)
            rng = np.random.default_rng(5)
            movies = [rng_movie(rng, 7), rng_movie(rng, 7)]
            conds = [rng.normal(size=(2, 16)), rng.normal(size=(5, 16))]
            trailers = [rng_movie(rng, 3), rng_movie(rng, 4)]

            enc = model.encode_batch(movies)
            memory, valid = model.attach_condition(enc, conds)
            preds, targets, row_valid = model.decode_teacher_forced_batch(
                memory, valid, trailers)

            enc0 = model.encode_single(movies[0])
            mem0, _ = model.attach_condition(enc0, [conds[0]])
            solo = model.decode_teacher_forced(mem0, trailers[0])
            rows = trailers[0].shape[0] + 1
            np.testing.assert_allclose(preds.data[0, :rows], solo.data,
                                       atol=1e-9)
