"""Loss definitions: hand-computed values, oracle comparisons, the weighted
total, and the padding masks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from trailergen import autodiff as ad
from trailergen.autodiff import ShapeError, Tensor
from trailergen.config import ModelConfig
from trailergen.losses import (LossBreakdown, batched_kl_loss,
                               batched_reconstruction_loss, batched_trailerness_loss,
                               total_loss)
from trailergen.model import TrailerModel


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad,
                  dtype=np.float64)


def one(rows):
    """``rows`` as a batch of one: ([1, ...] tensor, [1, T] all-valid mask)."""
    arr = np.asarray(rows, dtype=np.float64)[None]
    return t64(arr), np.ones(arr.shape[:2], dtype=bool)


def trailerness(pred, gt):
    p, valid = one(pred)
    return batched_trailerness_loss(p, np.asarray(gt, dtype=np.float64)[None], valid)


def reconstruction(pred, target, eos):
    """Rows predict the trailer shots, then EOS (one pair)."""
    p, valid = one(pred)
    return batched_reconstruction_loss(p, one(np.vstack([target, eos]))[0], valid)


def kl(pred, target, eos):
    p, valid = one(pred)
    return batched_kl_loss(p, one(np.vstack([target, eos]))[0], valid)


# ---------------------------------------------------------------------------
# trailerness loss
# ---------------------------------------------------------------------------

def test_trailerness_zero_when_equal():
    gt = np.array([0.0, 0.7, 0.2, 0.0])
    assert trailerness(gt, gt).item() == 0.0


def test_trailerness_hand_value():
    assert trailerness([0.0, 1.0, 0.0], [0.0, 0.0, 0.5]).item() == pytest.approx(
        1.25, abs=1e-12)


def test_trailerness_sums_not_means():
    # duplicating every position doubles the value
    single = trailerness([0.2, 0.9], [0.0, 1.0]).item()
    double = trailerness([0.2, 0.9, 0.2, 0.9], [0.0, 1.0, 0.0, 1.0]).item()
    assert double == pytest.approx(2 * single, rel=1e-12)


def test_trailerness_shape_mismatch():
    with pytest.raises(ShapeError):
        trailerness([0.1, 0.2], [0.1, 0.2, 0.3])
    with pytest.raises(ShapeError):
        batched_trailerness_loss(t64([[0.1]]), np.array([0.1]), np.ones((1, 1), dtype=bool))


# ---------------------------------------------------------------------------
# reconstruction loss
# ---------------------------------------------------------------------------

def test_reconstruction_zero_when_rows_match():
    rows = np.array([[0.3, -0.2], [1.0, 0.5]])
    eos = [0.9, 0.1]
    pred = np.vstack([rows, [eos]])
    assert reconstruction(pred, rows, eos).item() == pytest.approx(0.0, abs=1e-15)


def test_reconstruction_single_position_hand_value():
    # one trailer shot in d=2: prediction (1,0) against target (0,1) costs 2
    pred = [[1.0, 0.0], [0.5, 0.5]]  # EOS row reproduced exactly
    loss = reconstruction(pred, [[0.0, 1.0]], [0.5, 0.5])
    assert loss.item() == pytest.approx(2.0, abs=1e-12)


def test_reconstruction_quadruples_when_error_doubles():
    eos = [0.0, 0.0, 1.0]
    target = np.array([[1.0, 0.0, 0.0]])
    l1 = reconstruction([[1.1, 0.0, 0.0], eos], target, eos).item()
    l2 = reconstruction([[1.2, 0.0, 0.0], eos], target, eos).item()
    assert l2 == pytest.approx(4 * l1, rel=1e-9)


def test_reconstruction_includes_eos_row():
    pred = [[0.0, 1.0], [0.0, 0.0]]  # misses the EOS target by (1,0)
    assert reconstruction(pred, [[0.0, 1.0]], [1.0, 0.0]).item() == pytest.approx(
        1.0, abs=1e-12)


def test_loss_targets_pass_no_gradient_to_eos():
    # EOS is the last target row of every pair.  With a constant memory and
    # decoder inputs SOS + trailer, that row is EOS's only way into the
    # losses, and a target must pull nothing: a gradient there drags EOS
    # toward the prediction until every decode stops at its first step
    cfg = ModelConfig(d_model=4, num_heads=2, ff_dim=8, trailerness_layers=1,
                      context_layers=1, decoder_layers=1, max_len=8)
    with ad.precision(np.float64):
        model = TrailerModel(cfg, seed=0)
        trailer = np.random.default_rng(3).normal(size=(2, 4))
        memory = t64(np.ones((1, 3, 4)))
        preds, targets, valid = model.decode_teacher_forced_batch(memory, None, [trailer])
        model.zero_grad()
        ad.add(batched_reconstruction_loss(preds, targets, valid),
               batched_kl_loss(preds, targets, valid)).backward()
        np.testing.assert_array_equal(targets.data[0, 2], model.eos.data)
        assert not model.eos.grad.any()
        assert model.sos.grad.any()
        # EOS still learns as the last row of the framed movie the decoder reads
        movie = np.random.default_rng(4).normal(size=(3, 4))
        preds, targets, valid = model.decode_teacher_forced_batch(
            model.encode_single(movie).memory, None, [trailer])
        model.zero_grad()
        batched_reconstruction_loss(preds, targets, valid).backward()
        assert model.eos.grad.any()


def test_reconstruction_shape_mismatch():
    with pytest.raises(ShapeError):  # m shots need m+1 prediction rows
        batched_reconstruction_loss(t64(np.zeros((1, 2, 2))), t64(np.zeros((1, 3, 2))),
                                    np.ones((1, 2), dtype=bool))


# ---------------------------------------------------------------------------
# KL loss
# ---------------------------------------------------------------------------

def test_kl_zero_for_identical_rows():
    rows = np.array([[0.4, -1.0, 2.0]])
    eos = [0.0, 0.0, 0.0]
    pred = np.vstack([rows, np.zeros((1, 3))])
    assert kl(pred, rows, eos).item() == pytest.approx(0.0, abs=1e-12)


def test_kl_shift_invariance_of_rows():
    # softmax ignores a constant shift, so shifted predictions cost nothing
    rows = np.array([[0.5, 1.5, -0.5]])
    eos = [1.0, 1.0, 1.0]
    pred = np.vstack([rows + 7.0, [[4.0, 4.0, 4.0]]])
    assert kl(pred, rows, eos).item() == pytest.approx(0.0, abs=1e-10)


def test_kl_matches_oracle_row_sum():
    rng = np.random.default_rng(8)
    target = rng.normal(size=(3, 5))
    eos = rng.normal(size=5)
    pred = rng.normal(size=(4, 5))
    with ad.precision(np.float64):
        got = kl(pred, target, eos).item()
    rows = np.vstack([target, eos])
    want = sum(oracles.kl_between_rows(rows[j], pred[j]) for j in range(4))
    assert got == pytest.approx(want, rel=1e-10)


def test_kl_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(20):
        target = rng.normal(size=(2, 4))
        pred = rng.normal(size=(3, 4))
        eos = rng.normal(size=4)
        assert kl(pred, target, eos).item() >= -1e-12


# ---------------------------------------------------------------------------
# weighted total
# ---------------------------------------------------------------------------

def test_total_loss_weighted_sum():
    total, br = total_loss(t64(2.0), t64(3.0), t64(5.0), weights=(0.5, 1.0, 2.0))
    assert total.item() == pytest.approx(14.0, abs=1e-12)
    assert br == LossBreakdown(2.0, 3.0, 5.0, 14.0)


def test_total_loss_none_component_counts_as_zero():
    total, br = total_loss(None, t64(3.0), t64(1.0), weights=(1.0, 1.0, 1.0))
    assert total.item() == 4.0
    assert br.l_t == 0.0


def test_total_loss_zero_weight_drops_component_from_graph():
    a = t64(1.0, requires_grad=True)
    b = t64(2.0, requires_grad=True)
    total, _ = total_loss(a, b, None, weights=(0.0, 1.0, 1.0))
    total.backward()
    assert a.grad is None  # never entered the graph
    assert b.grad is not None


def test_total_loss_all_none():
    total, br = total_loss(None, None, None)
    assert total.item() == 0.0
    assert br.total == 0.0


def test_total_loss_breakdown_reports_unweighted_components():
    _, br = total_loss(t64(2.0), t64(3.0), t64(4.0), weights=(10.0, 10.0, 10.0))
    assert (br.l_t, br.l_rec, br.l_kl) == (2.0, 3.0, 4.0)
    assert br.total == pytest.approx(90.0)
    assert br.as_dict()["l_rec"] == 3.0


# ---------------------------------------------------------------------------
# padded batches
# ---------------------------------------------------------------------------

def _padded_batch(rng, lengths, d):
    """Build [B, T(+1), d] padded predictions/targets plus row validity."""
    width = max(lengths) + 1
    preds, rows, valid = [], [], []
    for m in lengths:
        p = rng.normal(size=(width, d))
        t = rng.normal(size=(width, d))
        p[m + 1:] = 0.0
        t[m + 1:] = 0.0
        v = np.zeros(width, dtype=bool)
        v[:m + 1] = True
        preds.append(p)
        rows.append(t)
        valid.append(v)
    return (t64(np.stack(preds)), t64(np.stack(rows)), np.stack(valid))


def test_batched_reconstruction_matches_unbatched_mean():
    rng = np.random.default_rng(10)
    lengths = [3, 5]
    pred, rows, valid = _padded_batch(rng, lengths, 4)
    got = batched_reconstruction_loss(pred, rows, valid).item()
    want = 0.0
    for b, m in enumerate(lengths):
        diff = pred.data[b, :m + 1] - rows.data[b, :m + 1]
        want += float((diff * diff).sum())
    want /= len(lengths)
    assert got == pytest.approx(want, rel=1e-12)


def test_batched_kl_matches_unbatched_mean():
    rng = np.random.default_rng(11)
    lengths = [2, 4, 3]
    pred, rows, valid = _padded_batch(rng, lengths, 6)
    got = batched_kl_loss(pred, rows, valid).item()
    want = 0.0
    for b, m in enumerate(lengths):
        for j in range(m + 1):
            want += oracles.kl_between_rows(rows.data[b, j], pred.data[b, j])
    want /= len(lengths)
    assert got == pytest.approx(want, rel=1e-9)


def test_batched_trailerness_matches_unbatched_mean():
    rng = np.random.default_rng(12)
    lengths = [4, 6]
    width = max(lengths) + 2
    preds, gts, valid = [], [], []
    for n in lengths:
        p = rng.uniform(size=width)
        g = rng.uniform(size=width)
        p[n + 2:] = 0.0
        g[n + 2:] = 0.0
        v = np.zeros(width, dtype=bool)
        v[:n + 2] = True
        preds.append(p)
        gts.append(g)
        valid.append(v)
    pred = t64(np.stack(preds))
    gt = np.stack(gts)
    got = batched_trailerness_loss(pred, gt, np.stack(valid)).item()
    want = np.mean([float(((preds[b][:n + 2] - gts[b][:n + 2]) ** 2).sum())
                    for b, n in enumerate(lengths)])
    assert got == pytest.approx(want, rel=1e-12)


def test_padding_contributes_nothing_to_value_or_gradient():
    rng = np.random.default_rng(14)
    pred, rows, valid = _padded_batch(rng, [2, 5], 3)
    # poison the padded prediction slots; value must not move
    base = batched_reconstruction_loss(pred, rows, valid).item()
    poisoned = pred.data.copy()
    poisoned[0, 3:] = 1e6
    got = batched_reconstruction_loss(t64(poisoned), rows, valid).item()
    assert got == pytest.approx(base, rel=1e-12)

    p = t64(poisoned, requires_grad=True)
    loss = batched_reconstruction_loss(p, rows, valid)
    loss.backward()
    assert np.all(p.grad[0, 3:] == 0.0)


def test_batched_losses_permutation_invariant():
    rng = np.random.default_rng(15)
    pred, rows, valid = _padded_batch(rng, [3, 5, 4], 4)
    fwd = batched_reconstruction_loss(pred, rows, valid).item()
    perm = [2, 0, 1]
    rev = batched_reconstruction_loss(
        t64(pred.data[perm]), t64(rows.data[perm]), valid[perm]).item()
    assert fwd == pytest.approx(rev, rel=1e-12)


def test_batched_shape_mismatch():
    with pytest.raises(ShapeError):
        batched_reconstruction_loss(t64(np.zeros((1, 3, 2))), t64(np.zeros((1, 4, 2))),
                                    np.ones((1, 3), dtype=bool))
    with pytest.raises(ShapeError):
        batched_trailerness_loss(t64(np.zeros((1, 3))), np.zeros((1, 4)),
                                 np.ones((1, 3), dtype=bool))


@given(st.integers(1, 4), st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_batched_kl_nonnegative(batch, width, seed):
    rng = np.random.default_rng(seed)
    pred = t64(rng.normal(size=(batch, width, 4)))
    rows = t64(rng.normal(size=(batch, width, 4)))
    valid = rng.uniform(size=(batch, width)) < 0.7
    valid[:, 0] = True
    assert batched_kl_loss(pred, rows, valid).item() >= -1e-10
