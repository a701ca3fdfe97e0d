"""Movie-side encoders: score range, fusion arithmetic, masking, and the
ablation wiring."""

import numpy as np
import pytest

from trailergen import autodiff as ad
from trailergen.autodiff import ShapeError, Tensor
from trailergen.config import ModelConfig
from trailergen.encoder import ContextEncoder, TrailernessEncoder, fuse_trailerness
from trailergen.model import TrailerModel


def small_cfg(**kw):
    base = dict(d_model=8, num_heads=2, ff_dim=16, trailerness_layers=1,
                context_layers=1, decoder_layers=1, max_len=32)
    base.update(kw)
    return ModelConfig(**base)


def test_trailerness_scores_strictly_inside_unit_interval():
    cfg = small_cfg()
    enc = TrailernessEncoder(cfg, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).normal(size=(6, 8)))
    scores = enc(x)
    assert scores.shape == (6,)
    assert np.all(scores.data > 0.0) and np.all(scores.data < 1.0)


def test_trailerness_batched_shape():
    cfg = small_cfg()
    enc = TrailernessEncoder(cfg, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(2).normal(size=(3, 5, 8)))
    scores = enc(x)
    assert scores.shape == (3, 5)


def test_trailerness_requires_framed_input():
    cfg = small_cfg()
    enc = TrailernessEncoder(cfg, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        enc(Tensor(np.zeros((1, 8))))


def test_trailerness_layer_count_follows_config():
    enc1 = TrailernessEncoder(small_cfg(trailerness_layers=1), np.random.default_rng(0))
    enc3 = TrailernessEncoder(small_cfg(trailerness_layers=3), np.random.default_rng(0))
    assert len(enc1.layers) == 1
    assert len(enc3.layers) == 3


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_fusion_adds_score_to_every_dimension():
    x = Tensor(np.zeros((3, 4)))
    scores = Tensor(np.array([0.1, 0.5, 0.9]))
    fused = fuse_trailerness(x, scores)
    np.testing.assert_allclose(fused.data, np.array([0.1, 0.5, 0.9])[:, None] *
                               np.ones((3, 4)), atol=1e-7)


def test_fusion_is_invertible_to_rounding():
    # subtracting the broadcast scores recovers the input to within one ulp
    rng = np.random.default_rng(3)
    with ad.precision(np.float64):
        x = Tensor(rng.normal(size=(5, 6)), dtype=np.float64)
        scores = Tensor(rng.uniform(size=5), dtype=np.float64)
        fused = fuse_trailerness(x, scores)
        recovered = fused.data - scores.data[:, None]
    np.testing.assert_allclose(recovered, x.data, atol=1e-15, rtol=0)


def test_fusion_shape_mismatch():
    with pytest.raises(ShapeError):
        fuse_trailerness(Tensor(np.zeros((3, 4))), Tensor(np.zeros(2)))


def test_fusion_batched_broadcast():
    x = Tensor(np.zeros((2, 3, 4)))
    scores = Tensor(np.full((2, 3), 0.25))
    fused = fuse_trailerness(x, scores)
    np.testing.assert_allclose(fused.data, 0.25, atol=1e-7)


# ---------------------------------------------------------------------------
# context encoder
# ---------------------------------------------------------------------------

def test_context_encoder_preserves_shape():
    cfg = small_cfg(context_layers=2)
    enc = ContextEncoder(cfg, np.random.default_rng(4))
    x = Tensor(np.random.default_rng(5).normal(size=(7, 8)))
    out = enc(x)
    assert out.shape == (7, 8)


def test_zero_layer_counts_rejected_by_config():
    with pytest.raises(Exception):
        small_cfg(context_layers=0).validate()


def test_context_encoder_masked_rows_do_not_influence_valid_rows():
    # same valid prefix, different padding content: valid outputs must agree
    cfg = small_cfg(context_layers=1)
    enc = ContextEncoder(cfg, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    prefix = rng.normal(size=(1, 4, 8))
    pad_a = np.concatenate([prefix, np.zeros((1, 2, 8))], axis=1)
    pad_b = np.concatenate([prefix, rng.normal(size=(1, 2, 8))], axis=1)
    valid = np.array([[True] * 4 + [False] * 2])
    mask = valid[:, None, None, :]
    with ad.precision(np.float64):
        out_a = enc(Tensor(pad_a, dtype=np.float64), mask)
        out_b = enc(Tensor(pad_b, dtype=np.float64), mask)
    np.testing.assert_allclose(out_a.data[0, :4], out_b.data[0, :4], atol=1e-12)


# ---------------------------------------------------------------------------
# ablation wiring on the full model
# ---------------------------------------------------------------------------

def test_ablating_trailerness_is_a_pure_config_switch():
    cfg = small_cfg(use_trailerness_encoder=False)
    model = TrailerModel(cfg, seed=0)
    assert model.trailerness is None
    enc = model.encode_single(np.random.default_rng(9).normal(size=(3, 8)))
    assert enc.scores is None


def test_ablating_context_encoder_passes_fused_through():
    cfg = small_cfg(use_context_encoder=False)
    model = TrailerModel(cfg, seed=0)
    assert model.context is None
    movie = np.random.default_rng(10).normal(size=(3, 8))
    enc = model.encode_single(movie)
    assert enc.memory.shape == (1, 5, 8)


def test_full_and_ablated_models_share_base_weights():
    # per-component init streams: dropping one module must not shift the others
    full = TrailerModel(small_cfg(), seed=12)
    no_trail = TrailerModel(small_cfg(use_trailerness_encoder=False), seed=12)
    np.testing.assert_array_equal(full.sos.data, no_trail.sos.data)
    full_params = dict(full.named_parameters())
    ablated_params = dict(no_trail.named_parameters())
    for name, p in ablated_params.items():
        np.testing.assert_array_equal(p.data, full_params[name].data)
    only_in_full = set(full_params) - set(ablated_params)
    assert only_in_full and all(k.startswith("trailerness.") for k in only_in_full)


def test_encode_single_memory_covers_framed_length():
    model = TrailerModel(small_cfg(), seed=1)
    movie = np.random.default_rng(11).normal(size=(6, 8))
    enc = model.encode_single(movie)
    assert enc.memory.shape == (1, 8, 8)
    assert enc.scores.shape == (1, 8)
    assert enc.valid.tolist() == [[True] * 8]
