"""Retrieval matching, EOS detection, and the decoder stack's masking
behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from trailergen import autodiff as ad
from trailergen.autodiff import DomainError, Tensor
from trailergen.config import ModelConfig
from trailergen.decoder import (DecodedTrailer, DecoderStack, cosine_row, detect_eos,
                                match_nearest, match_similarities, shot_rows)


# ---------------------------------------------------------------------------
# match_nearest
# ---------------------------------------------------------------------------

def test_match_nearest_picks_obvious_winner():
    movie = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    assert match_nearest([0.9, 0.1], movie, k=1) == [1]
    assert match_nearest([0.0, 2.0], movie, k=1) == [2]


def test_match_nearest_indices_are_one_based():
    movie = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert match_nearest([1.0, 0.0], movie, k=2) == [2, 1]


def test_match_nearest_tie_goes_to_lower_index():
    movie = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])  # rows 1/2 parallel
    assert match_nearest([1.0, 0.0], movie, k=1) == [1]


def test_match_nearest_scale_invariant():
    movie = np.array([[100.0, 0.0], [0.0, 0.001]])
    assert match_nearest([0.0, 5.0], movie, k=1) == [2]


def test_match_nearest_topk_ordering():
    movie = np.array([[1.0, 0.0], [0.7, 0.7], [0.0, 1.0], [-1.0, 0.0]])
    assert match_nearest([1.0, 0.05], movie, k=3) == [1, 2, 3]


def test_match_nearest_exclusion_reranks():
    movie = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
    assert match_nearest([1.0, 0.0], movie, k=1, exclude={1}) == [2]
    with pytest.raises(ValueError):
        match_nearest([1.0, 0.0], movie, k=1, exclude={1, 2, 3})


def test_match_nearest_exclusion_ignores_indices_outside_the_movie():
    movie = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert match_nearest([1.0, 0.0], movie, k=3, exclude={0, -1, 4}) == [1, 2, 3]
    assert match_nearest([1.0, 0.0], movie, k=2, exclude={1, 9}) == [2, 3]


def test_match_nearest_k_bounds():
    movie = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        match_nearest([1.0, 0.0], movie, k=0)
    with pytest.raises(ValueError):
        match_nearest([1.0, 0.0], movie, k=3)


def test_match_nearest_zero_norm_raises():
    with pytest.raises(DomainError):
        match_nearest([0.0, 0.0], np.array([[1.0, 0.0]]), k=1)
    with pytest.raises(DomainError):
        match_nearest([1.0, 0.0], np.array([[0.0, 0.0]]), k=1)


@given(st.integers(2, 30), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_match_nearest_agrees_with_linear_scan_oracle(n, seed):
    rng = np.random.default_rng(seed)
    movie = rng.normal(size=(n, 6))
    norms = np.linalg.norm(movie, axis=1)
    movie = movie[norms > 1e-9]
    if movie.shape[0] < 1:
        return
    query = rng.normal(size=6)
    if np.linalg.norm(query) < 1e-9:
        return
    got = match_nearest(query, movie, k=1)[0]
    assert got == oracles.nearest_shot_index(query.tolist(), movie.tolist())


def test_match_similarities_reports_cosines_for_indices():
    movie = np.array([[1.0, 0.0], [0.0, 1.0]])
    sims = match_similarities([1.0, 0.0], movie, [1, 2])
    assert sims[0] == pytest.approx(1.0)
    assert sims[1] == pytest.approx(0.0)


def test_retrieval_with_a_given_cosine_row_equals_the_computed_one():
    rng = np.random.default_rng(3)
    movie = rng.normal(size=(12, 6)).astype(np.float32)
    eos = rng.normal(size=6)
    for query in rng.normal(size=(5, 6)).astype(np.float32):
        row = cosine_row(query, *shot_rows(movie))
        ranked = match_nearest(query, movie, k=4, exclude={2, 5})
        assert match_nearest(query, movie, k=4, exclude={2, 5}, cosines=row) == ranked
        assert (match_similarities(query, movie, ranked, cosines=row)
                == match_similarities(query, movie, ranked))
        assert (detect_eos(query, eos, movie, cosines=row)
                == detect_eos(query, eos, movie) == (oracles.cosine_scalar(query, eos)
                                                     > row.max()))


# ---------------------------------------------------------------------------
# EOS detection
# ---------------------------------------------------------------------------

def test_eos_margin_fires_only_when_eos_beats_every_shot():
    movie = np.array([[1.0, 0.0], [0.0, 1.0]])
    eos = np.array([-1.0, -1.0])
    assert detect_eos([-0.9, -1.1], eos, movie, rule="margin")
    assert not detect_eos([0.9, 0.1], eos, movie, rule="margin")


def test_eos_margin_is_strict():
    # prediction equidistant between EOS and a movie shot does not stop
    movie = np.array([[1.0, 0.0]])
    eos = np.array([1.0, 0.0])
    assert not detect_eos([1.0, 0.0], eos, movie, rule="margin")


def test_eos_threshold_rule_uses_cutoff():
    movie = np.array([[1.0, 0.0]])
    eos = np.array([0.0, 1.0])
    pred = [0.05, 1.0]  # cosine to EOS ~ 0.9988
    assert detect_eos(pred, eos, movie, rule="threshold", threshold=0.9)
    assert not detect_eos(pred, eos, movie, rule="threshold", threshold=0.9999)


def test_eos_unknown_rule_rejected():
    with pytest.raises(ValueError):
        detect_eos([1.0], np.array([1.0]), np.array([[1.0]]), rule="entropy")


# ---------------------------------------------------------------------------
# DecodedTrailer container
# ---------------------------------------------------------------------------

def test_decoded_trailer_validates_lengths():
    with pytest.raises(ValueError):
        DecodedTrailer(np.zeros((2, 4)), [1], "eos")
    with pytest.raises(ValueError):
        DecodedTrailer(np.zeros((1, 4)), [1], "overflow")


def test_decoded_trailer_empty_is_legal():
    dec = DecodedTrailer(np.zeros((0, 4)), [], "eos")
    assert dec.matched_indices == []


# ---------------------------------------------------------------------------
# decoder stack
# ---------------------------------------------------------------------------

def _stack(layers=2, d=8, heads=2):
    cfg = ModelConfig(d_model=d, num_heads=heads, ff_dim=16, trailerness_layers=1,
                      context_layers=1, decoder_layers=layers, max_len=32)
    return DecoderStack(cfg, np.random.default_rng(0))


def test_decoder_stack_shape_and_depth():
    stack = _stack(layers=3)
    assert len(stack.layers) == 3
    x = Tensor(np.random.default_rng(1).normal(size=(5, 8)))
    mem = Tensor(np.random.default_rng(2).normal(size=(7, 8)))
    out = stack(x, mem, ad.causal_mask(5), None)
    assert out.shape == (5, 8)


def test_decoder_causal_mask_blocks_future_exactly():
    # growing the input must not change earlier rows at all (64-bit, bitwise)
    stack = _stack()
    rng = np.random.default_rng(3)
    with ad.precision(np.float64):
        mem = Tensor(rng.normal(size=(6, 8)), dtype=np.float64)
        full = Tensor(rng.normal(size=(5, 8)), dtype=np.float64)
        out_full = stack(full, mem, ad.causal_mask(5), None)
        prefix = Tensor(full.data[:3].copy(), dtype=np.float64)
        out_prefix = stack(prefix, mem, ad.causal_mask(3), None)
    np.testing.assert_array_equal(out_prefix.data, out_full.data[:3])


def test_decoder_attends_to_memory():
    # changing the memory changes the output; cross attention is wired in
    stack = _stack()
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(4, 8)))
    mem_a = Tensor(rng.normal(size=(5, 8)))
    mem_b = Tensor(rng.normal(size=(5, 8)))
    out_a = stack(x, mem_a, ad.causal_mask(4), None)
    out_b = stack(x, mem_b, ad.causal_mask(4), None)
    assert not np.allclose(out_a.data, out_b.data)


def test_decoder_cross_mask_hides_memory_rows():
    # masked memory rows must not influence the output
    stack = _stack()
    rng = np.random.default_rng(5)
    with ad.precision(np.float64):
        x = Tensor(rng.normal(size=(1, 4, 8)), dtype=np.float64)
        keep = rng.normal(size=(1, 3, 8))
        mem_a = Tensor(np.concatenate([keep, np.zeros((1, 2, 8))], axis=1), dtype=np.float64)
        mem_b = Tensor(np.concatenate([keep, rng.normal(size=(1, 2, 8))], axis=1),
                       dtype=np.float64)
        cross = np.array([[True, True, True, False, False]])[:, None, None, :]
        self_mask = ad.causal_mask(4)[None, None]
        out_a = stack(x, mem_a, self_mask, cross)
        out_b = stack(x, mem_b, self_mask, cross)
    np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-12)
