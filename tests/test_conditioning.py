"""Tests for condition-vector support: model-wide condition rows appended to
the memory, empty-condition pass-through, and a conditioned model's refusal
of a missing condition."""

import numpy as np
import pytest

from trailergen import autodiff as ad
from trailergen.autodiff import ConfigurationError, ShapeError
from trailergen.config import ModelConfig, with_overrides
from trailergen.model import TrailerModel

BASE = ModelConfig(d_model=16, num_heads=2, ff_dim=32, trailerness_layers=1,
                   context_layers=1, decoder_layers=1, max_len=64)


def rng_movie(rng, n, d=16):
    return rng.normal(0.0, 0.3, size=(n, d)) + 0.5


def all_valid(rows):
    return np.ones((1, rows), dtype=bool)


def conditioned(mode="encoded", **overrides):
    return TrailerModel(with_overrides(BASE, condition_mode=mode, **overrides), seed=3)


def three_shot_encoding(model):
    """A 3-shot movie encoded as a batch of one: memory [1, 5, 16]."""
    return model.encode_single(rng_movie(np.random.default_rng(0), 3))


class TestAugmentContext:
    """The context memory augmented with condition rows by ``attach_condition``."""

    def test_encoded_mode_row_concatenates(self):
        model = conditioned()
        enc = three_shot_encoding(model)
        cond = np.full((3, 16), 2.0)
        merged, valid = model.attach_condition(enc, [cond])
        assert merged.shape == (1, 8, 16)  # (n+2) + L_c rows
        np.testing.assert_array_equal(merged.data[0, :5], enc.memory.data[0])
        np.testing.assert_array_equal(merged.data[0, 5:], 2.0)
        np.testing.assert_array_equal(valid, all_valid(8))

    def test_none_condition_raises(self):
        # a conditioned model is never silently fed a memory without its rows
        model = conditioned()
        enc = three_shot_encoding(model)
        for conditions in (None, [None]):
            with pytest.raises(ConfigurationError, match="movie 0 of the batch"):
                model.attach_condition(enc, conditions)
        rng = np.random.default_rng(2)
        enc = model.encode_batch([rng_movie(rng, 3), rng_movie(rng, 4)])
        with pytest.raises(ConfigurationError, match="movie 1 of the batch"):
            model.attach_condition(enc, [np.ones((2, 16)), None])

    def test_zero_length_condition_is_pass_through(self):
        model = conditioned()
        enc = three_shot_encoding(model)
        merged, _ = model.attach_condition(enc, [np.zeros((0, 16))])
        assert merged is enc.memory

    def test_unknown_mode_rejected(self):
        for mode in ("averaged", "contextualized"):  # the latter is retired
            with pytest.raises(ConfigurationError, match=mode):
                with_overrides(BASE, condition_mode=mode)

    def test_width_mismatch_rejected(self):
        model = conditioned()
        with pytest.raises(ShapeError):
            model.attach_condition(three_shot_encoding(model), [np.ones((1, 6))])

    def test_rank_mismatch_rejected(self):
        model = conditioned()
        with pytest.raises(ShapeError):  # one condition vector without its row axis
            model.attach_condition(three_shot_encoding(model), [np.ones(16)])

    def test_batched_concatenates_masks(self):
        model = conditioned()
        rng = np.random.default_rng(2)
        enc = model.encode_batch([rng_movie(rng, 3), rng_movie(rng, 1)])
        merged, valid = model.attach_condition(
            enc, [rng.normal(size=(3, 16)), rng.normal(size=(1, 16))])
        assert merged.shape == (2, 8, 16)
        cond_valid = np.array([[True, True, True], [True, False, False]])
        np.testing.assert_array_equal(valid, np.concatenate([enc.valid, cond_valid], axis=1))


class TestModelConditioning:
    def test_empty_condition_memory_is_exactly_unconditioned(self):
        # the conditioned model must collapse to the plain path, bit for bit
        cfg = with_overrides(BASE, condition_mode="encoded")
        model = TrailerModel(cfg, seed=3)
        movie = rng_movie(np.random.default_rng(5), 7)
        enc = model.encode_single(movie)
        memory, valid = model.attach_condition(enc, [np.zeros((0, 16))])
        assert memory is enc.memory
        np.testing.assert_array_equal(valid, enc.valid)

    def test_condition_mode_none_ignores_conditions(self):
        model = TrailerModel(BASE, seed=3)
        movie = rng_movie(np.random.default_rng(5), 7)
        enc = model.encode_single(movie)
        for conditions in ([np.ones((4, 16))], [None], None):
            memory, _ = model.attach_condition(enc, conditions)
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
        plain = model.generate(movie, condition=np.zeros((0, 16)), max_len=6, topk=1)
        steered = model.generate(movie, condition=rng.normal(size=(3, 16)),
                                 max_len=6, topk=1)
        assert not np.array_equal(plain.all_predictions, steered.all_predictions)

    def test_decode_without_a_condition_raises(self):
        # each movie is conditioned alone; the error names its index in the
        # caller's list
        model = conditioned()
        rng = np.random.default_rng(5)
        movies = [rng_movie(rng, 9), rng_movie(rng, 6), rng_movie(rng, 7)]
        rows = np.ones((2, 16))
        with pytest.raises(ConfigurationError, match="conditioned, but movie 0 of the batch"):
            model.generate(movies[0], max_len=4)
        for conditions, missing in ((None, 0), ([rows, None, rows], 1),
                                    ([rows, rows, None], 2)):
            with pytest.raises(ConfigurationError,
                               match=f"conditioned, but movie {missing} of the batch"):
                model.generate_batch(movies, conditions, max_len=4)

    def test_conditioned_weights_match_unconditioned_base(self):
        # conditioning adds no parameter and reshuffles none
        plain = dict(TrailerModel(BASE, seed=3).named_parameters())
        cond = dict(TrailerModel(
            with_overrides(BASE, condition_mode="encoded"), seed=3).named_parameters())
        assert list(cond) == list(plain)
        for name in plain:
            np.testing.assert_array_equal(plain[name].data, cond[name].data,
                                          err_msg=name)

    def test_width_mismatch_rejected(self):
        cfg = with_overrides(BASE, condition_mode="encoded")  # expects d=16
        model = TrailerModel(cfg, seed=3)
        enc = model.encode_single(rng_movie(np.random.default_rng(5), 7))
        with pytest.raises(ShapeError):
            model.attach_condition(enc, [np.ones((4, 8))])

    def test_mixed_widths_rejected_by_width(self):
        model = conditioned()
        rng = np.random.default_rng(5)
        enc = model.encode_batch([rng_movie(rng, 7), rng_movie(rng, 9)])
        with pytest.raises(ShapeError, match="condition width 6 does not match "
                                             "memory width 16"):
            model.attach_condition(enc, [np.ones((1, 16)), np.ones((1, 6))])

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
