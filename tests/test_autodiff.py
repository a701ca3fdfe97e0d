"""Tensor engine tests: forward values against hand computations, backward
against finite differences, mask semantics, and the error contract."""

import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trailergen import autodiff as ad
from trailergen.autodiff import (ConfigurationError, NonFiniteError, Parameter,
                                 ShapeError, Tensor)


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad,
                  dtype=np.float64)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    out = ad.matmul(t64(np.eye(2)), t64([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[3.0], [4.0]])


def test_matmul_hand_dot_product():
    out = ad.matmul(t64([[1.0, 2.0]]), t64([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_zero_matrix():
    out = ad.matmul(t64(np.zeros((3, 4))), t64(np.ones((4, 2))))
    assert np.all(out.data == 0.0)


def test_matmul_inner_dim_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(t64(np.ones((2, 3))), t64(np.ones((4, 2))))


def test_matmul_rejects_vectors():
    with pytest.raises(ShapeError):
        ad.matmul(t64([1.0, 2.0]), t64([[1.0], [2.0]]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(3, 5), (5,)], ids=["BLd", "Ld"])
def test_matmul_bias_equals_add_of_product_bitwise(dtype, lead):
    rng = np.random.default_rng(11)
    arrays = [rng.standard_normal(lead + (6,)), rng.standard_normal((6, 4)),
              rng.standard_normal(4)]
    probe = rng.standard_normal(lead + (4,))
    results = []
    for fused in (True, False):
        x, w, b = (Tensor(a, requires_grad=True, dtype=dtype) for a in arrays)
        out = ad.matmul(x, w, b) if fused else ad.add(ad.matmul(x, w), b)
        ad.tensor_sum(ad.mul(out, probe)).backward()
        results.append([out.data, x.grad, w.grad, b.grad])
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)


def test_matmul_bias_dtype_and_shape_follow_add():
    x = Tensor(np.ones((2, 3)), dtype=np.float32)
    w = Tensor(np.ones((3, 4)), dtype=np.float32)
    b = t64(np.full(4, 0.1))
    assert ad.matmul(x, w, b).dtype == ad.add(ad.matmul(x, w), b).dtype == np.float64
    np.testing.assert_array_equal(ad.matmul(x, w, b).data, ad.add(ad.matmul(x, w), b).data)
    with pytest.raises(ShapeError):
        ad.matmul(x, w, t64(np.ones(3)))


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    out = ad.softmax(t64([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-12)


def test_softmax_log2_case():
    out = ad.softmax(t64([math.log(2.0), 0.0]))
    assert np.allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_single_entry():
    out = ad.softmax(t64([7.3]))
    assert out.data[0] == 1.0


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_rows_normalized(values):
    out = ad.softmax(t64(values))
    assert abs(out.data.sum() - 1.0) < 1e-6
    assert np.all(out.data >= 0.0) and np.all(out.data <= 1.0)


def test_softmax_masked_renormalizes_over_visible():
    # keeping entries 0 and 2 must match a plain softmax of just those logits
    x = t64([1.0, 5.0, -0.5])
    masked = ad.softmax(x, mask=np.array([True, False, True]))
    visible = ad.softmax(t64([1.0, -0.5]))
    assert masked.data[1] == 0.0
    assert np.allclose(masked.data[[0, 2]], visible.data, atol=1e-15)


def test_softmax_fully_masked_row_rejected():
    with pytest.raises(ShapeError):
        ad.softmax(t64([[1.0, 2.0]]), mask=np.array([[False, False]]))


def test_softmax_masked_entries_get_zero_gradient():
    x = t64([1.0, 2.0, 3.0], requires_grad=True)
    out = ad.softmax(x, mask=np.array([True, False, True]))
    ad.tensor_sum(ad.mul(out, np.array([1.0, 5.0, 2.0]))).backward()
    assert x.grad[1] == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 24])  # a decode step and a block of rows
def test_softmax_row_max_and_weights_equal_the_max_form(dtype, rows):
    # scores as attention hands them over: masked entries at -inf, tied
    # maxima (also of signed zeros) and rows of one visible entry
    rng = np.random.default_rng(14)
    z = rng.standard_normal((2, 3, rows, 9)).astype(dtype)
    z[..., 4] = z[..., 7] = z.max(axis=-1)
    z[0, :, :, ::2] = -np.inf
    z[1, 0, 0] = [-0.0, 0.0, -1.0, -0.0, -np.inf, 0.0, -2.0, -0.0, 0.0]
    z[1, 1, :, 1:] = -np.inf
    got = z.copy()
    hi, total = ad._softmax_inplace(got, -1)
    want_hi = z.max(axis=-1, keepdims=True)
    want = z - want_hi
    np.exp(want, out=want)
    want_total = want.sum(axis=-1, keepdims=True)
    want /= want_total
    assert np.array_equal(hi, want_hi) and hi.dtype == dtype
    assert total.tobytes() == want_total.tobytes()
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------

def test_layer_norm_constant_vector_is_zero():
    out = ad.layer_norm(t64([3.0, 3.0, 3.0, 3.0]), t64(np.ones(4)), t64(np.zeros(4)))
    assert np.allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_two_point_case():
    # mean 0, population variance 1, so a tiny eps reproduces the input
    out = ad.layer_norm(t64([1.0, -1.0]), t64(np.ones(2)), t64(np.zeros(2)), eps=1e-12)
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-9)


def test_layer_norm_zero_gamma_returns_beta():
    beta = np.array([0.3, -0.7, 2.0])
    out = ad.layer_norm(t64([5.0, 1.0, -2.0]), t64(np.zeros(3)), t64(beta))
    assert np.array_equal(out.data, beta)


def test_layer_norm_standardizes():
    rng = np.random.default_rng(0)
    x = t64(rng.standard_normal((6, 16)))
    out = ad.layer_norm(x, t64(np.ones(16)), t64(np.zeros(16)))
    assert np.all(np.abs(out.data.mean(axis=-1)) < 1e-5)
    assert np.all(np.abs(out.data.var(axis=-1) - 1.0) < 1e-4)


def test_layer_norm_shape_check():
    with pytest.raises(ShapeError):
        ad.layer_norm(t64(np.ones((2, 4))), t64(np.ones(3)), t64(np.zeros(4)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_recompute_returns_the_output_bytes(dtype):
    rng = np.random.default_rng(21)
    with ad.precision(dtype):
        x = Tensor(rng.standard_normal((3, 5, 16)), requires_grad=True)
        gamma = Parameter(rng.standard_normal(16))
        beta = Parameter(rng.standard_normal(16))
    out = ad.layer_norm(x, gamma, beta)
    again = out._node.recompute()
    assert again is not out.data and again.dtype == out.dtype == dtype
    assert again.tobytes() == out.data.tobytes()
    assert not out._node.runs_product


def test_products_of_a_layer_norm_output_carry_a_recompute():
    # a layer-norm recompute runs no product, so the projections and the
    # relu of one are recomputed, and the product of that relu is kept
    rng = np.random.default_rng(22)
    x = t64(rng.standard_normal((4, 6)), requires_grad=True)
    gamma, beta = Parameter(np.ones(6), dtype=np.float64), Parameter(np.zeros(6), dtype=np.float64)
    w1, w2 = (Parameter(rng.standard_normal(shape), dtype=np.float64)
              for shape in ((6, 5), (5, 3)))
    normed = ad.layer_norm(x, gamma, beta)
    hidden = ad.matmul(normed, w1)
    act = ad.relu(hidden)
    out = ad.matmul(act, w2)
    assert [t._node.runs_product for t in (normed, hidden, act)] == [False, True, True]
    assert hidden._node.recompute().tobytes() == hidden.data.tobytes()
    assert act._node.recompute().tobytes() == act.data.tobytes()
    assert out._node.recompute is None and not out._node.runs_product


# ---------------------------------------------------------------------------
# attention core
# ---------------------------------------------------------------------------

def test_attention_single_key_full_weight():
    # one key gets weight exactly 1 in every head, so every query reads v
    rng = np.random.default_rng(1)
    q = t64(rng.standard_normal((3, 4)))
    k = t64(rng.standard_normal((1, 4)))
    v = t64(rng.standard_normal((1, 4)))
    out = ad.multi_head_attention(q, k, v, 2)
    np.testing.assert_array_equal(out.data, np.broadcast_to(v.data, (3, 4)))


def test_attention_causal_first_row_sees_only_first_key():
    # row 0 gives the masked keys weight exactly 0 and key 0 weight 1
    rng = np.random.default_rng(2)
    x = t64(rng.standard_normal((4, 4)))
    out = ad.multi_head_attention(x, x, x, 2, mask=ad.causal_mask(4))
    np.testing.assert_array_equal(out.data[0], x.data[0])


def test_attention_identical_keys_uniform_weights():
    rng = np.random.default_rng(3)
    q = t64(rng.standard_normal((2, 4)))
    k = t64(np.tile(rng.standard_normal(4), (5, 1)))
    v = t64(rng.standard_normal((5, 4)))
    out = ad.multi_head_attention(q, k, v, 2)
    mean = np.broadcast_to(v.data.mean(axis=0), (2, 4))
    np.testing.assert_allclose(out.data, mean, rtol=0, atol=1e-12)


def test_attention_head_divisibility():
    x = t64(np.ones((2, 6)))
    with pytest.raises(ConfigurationError):
        ad.multi_head_attention(x, x, x, 4)


def test_attention_causal_future_invariance_is_exact():
    """Changing inputs at key positions > j must not move output row j at all."""
    rng = np.random.default_rng(4)
    base = rng.standard_normal((5, 8))
    mask = ad.causal_mask(5)
    out1 = ad.multi_head_attention(t64(base), t64(base), t64(base), 2, mask=mask)
    bumped = base.copy()
    bumped[3:] += rng.standard_normal((2, 8)) * 100.0
    keys = t64(bumped)
    out2 = ad.multi_head_attention(t64(base), keys, keys, 2, mask=mask)
    assert np.array_equal(out1.data[:3], out2.data[:3])


def _causal_and_padding(lq, lk):
    return ad.causal_mask(lq)[None, None] & ad.padding_mask([lk, 3], lk)[:, None, None, :]


def _key_padding(lq, lk):
    return ad.padding_mask([lk, 2], lk)[:, None, None, :]


# (leading axes, L_q, L_k, mask builder)
ATTENTION_CASES = {
    "batched_causal_and_padding": ((2,), 5, 5, _causal_and_padding),
    "batched_cross_lq_ne_lk": ((2,), 3, 6, _key_padding),
    "single_causal": ((), 4, 4, lambda lq, lk: ad.causal_mask(lq)),
    "single_unmasked_lq_ne_lk": ((), 4, 7, lambda lq, lk: None),
}


@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
def test_fused_attention_matches_op_chain_reference(case):
    lead, lq, lk, build_mask = ATTENTION_CASES[case]
    rng = np.random.default_rng(11)
    q = t64(rng.standard_normal(lead + (lq, 8)), requires_grad=True)
    k = t64(rng.standard_normal(lead + (lk, 8)), requires_grad=True)
    v = t64(rng.standard_normal(lead + (lk, 8)), requires_grad=True)
    probe = rng.standard_normal(lead + (lq, 8))
    mask = build_mask(lq, lk)
    results = []
    for attend in (ad.multi_head_attention, oracles.reference_attention):
        for t in (q, k, v):
            t.grad = None
        out = attend(q, k, v, 2, mask=mask)
        ad.tensor_sum(ad.mul(out, probe)).backward()
        results.append([out.data] + [t.grad for t in (q, k, v)])
    for name, fused, ref in zip(("out", "dq", "dk", "dv"), *results):
        np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("masked", [False, True])
def test_attention_on_strided_views_is_bit_equal_to_contiguous_copies(dtype, masked):
    # a cached decode step attends over the filled [:, :t+1] rows of larger
    # buffers; the heads are views of them, and BLAS must see the same numbers
    rng = np.random.default_rng(21)
    buffers = [rng.standard_normal((3, 10, 16)).astype(dtype) for _ in range(3)]
    t = 5
    views = (buffers[0][:, t:t + 2], buffers[1][:, :t + 1], buffers[2][:, :t + 1])
    assert not any(view.flags.c_contiguous for view in views)
    mask = _key_padding(2, t + 1)[[0, 1, 0]] if masked else None
    probe = rng.standard_normal((3, 2, 16)).astype(dtype)
    results = []
    for arrays in (views, [np.ascontiguousarray(view) for view in views]):
        q, k, v = (Tensor(a, requires_grad=True, dtype=dtype) for a in arrays)
        out = ad.multi_head_attention(q, k, v, 4, mask=mask)
        out.backward(probe)
        results.append([out.data, q.grad, k.grad, v.grad])
    for name, strided, contiguous in zip(("out", "dq", "dk", "dv"), *results):
        assert strided.dtype == dtype, name
        assert np.array_equal(strided, contiguous), name


def test_attention_fully_masked_row_rejected():
    x = t64(np.ones((2, 3, 4)))
    with pytest.raises(ShapeError):
        ad.multi_head_attention(x, x, x, 2, mask=ad.padding_mask([3, 0], 3)[:, None, None, :])


def test_attention_is_one_graph_node():
    rng = np.random.default_rng(5)
    q, k, v = (t64(rng.standard_normal((2, 4, 4)), requires_grad=True) for _ in range(3))
    out = ad.multi_head_attention(q, k, v, 2, mask=_causal_and_padding(4, 4))
    assert out._node.parents == (q._node, k._node, v._node)
    assert out._node.backward_fn is not None


def _row_valid_lengths(b, length):
    return [length, 3, length - 1, 1, 2][:b]


# masks over [B, H, L, L] scores, each in the shape its caller builds it
BLOCK_MASKS = {
    "none": lambda b, length: None,
    "key_padding": lambda b, length: ad.padding_mask(
        _row_valid_lengths(b, length), length)[:, None, None, :],
    "causal": lambda b, length: ad.causal_mask(length),
    "causal_and_row_valid": lambda b, length: ad.causal_mask(length)[None, None]
    & ad.padding_mask(_row_valid_lengths(b, length), length)[:, None, None, :],
}


def _attend_with_block(monkeypatch, block_bytes, lead, dtype, mask_name, heads=2):
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(31)
    length = 6
    q, k, v = (Tensor(rng.standard_normal(lead + (length, 8)), requires_grad=True,
                      dtype=dtype) for _ in range(3))
    mask = BLOCK_MASKS[mask_name](lead[0] if lead else 1, length)
    if mask is not None and not lead:
        mask = mask.reshape(mask.shape[-2:])
    out = ad.multi_head_attention(q, k, v, heads, mask=mask)
    out.backward(rng.standard_normal(out.shape).astype(dtype))
    return [out.data, q.grad, k.grad, v.grad]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mask_name", sorted(BLOCK_MASKS))
@pytest.mark.parametrize("rows_per_block", [1, 2])
def test_blocked_attention_is_bit_equal_to_one_block(monkeypatch, dtype, mask_name,
                                                     rows_per_block):
    # 5 batch rows: blocks of 2 leave a last block of 1
    lead = (5,)
    row_bytes = 2 * 6 * 6 * np.dtype(dtype).itemsize  # [H, L_q, L_k] of one row
    whole = _attend_with_block(monkeypatch, 1 << 20, lead, dtype, mask_name)
    blocked = _attend_with_block(monkeypatch, rows_per_block * row_bytes, lead, dtype,
                                 mask_name)
    for name, want, got in zip(("out", "dq", "dk", "dv"), whole, blocked):
        assert got.dtype == want.dtype == dtype, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mask_name", sorted(BLOCK_MASKS))
def test_attention_on_2d_inputs_is_one_block_at_any_block_size(monkeypatch, dtype,
                                                               mask_name):
    whole = _attend_with_block(monkeypatch, 1 << 20, (), dtype, mask_name)
    tiny = _attend_with_block(monkeypatch, 1, (), dtype, mask_name)
    for name, want, got in zip(("out", "dq", "dk", "dv"), whole, tiny):
        assert np.array_equal(got, want), name


def test_multi_block_attention_grad_check(monkeypatch):
    monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", 1)  # one batch row per block
    rng = np.random.default_rng(32)
    q, k, v = (t64(rng.standard_normal((3, 4, 4)), requires_grad=True) for _ in range(3))
    mask = BLOCK_MASKS["causal_and_row_valid"](3, 4)
    probe = rng.standard_normal((3, 4, 4))
    report = ad.grad_check(
        lambda: ad.tensor_sum(ad.mul(ad.multi_head_attention(q, k, v, 2, mask=mask), probe)),
        [q, k, v])
    assert report.ok, report.entries


def test_attention_graph_keeps_no_score_sized_array():
    # the desk batch's widest encoder layer: [B 8, H 4, L 202, L 202] float32 scores
    rng = np.random.default_rng(33)
    q, k, v = (Tensor(rng.standard_normal((8, 202, 64)), requires_grad=True,
                      dtype=np.float32) for _ in range(3))
    mask = ad.padding_mask([202, 150, 180, 202, 120, 202, 90, 200], 202)[:, None, None, :]
    scores_bytes = 8 * 4 * 202 * 202 * 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.multi_head_attention(q, k, v, 4, mask=mask)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < scores_bytes
    out.backward(np.ones(out.shape, dtype=np.float32))
    assert q.grad.shape == k.grad.shape == v.grad.shape == (8, 202, 64)


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def test_sigmoid_values():
    assert ad.sigmoid(t64([0.0])).data[0] == 0.5
    assert abs(ad.sigmoid(t64([math.log(3.0)])).data[0] - 0.75) < 1e-15


def test_sigmoid_saturation_is_finite():
    out = ad.sigmoid(t64([-1e4, 1e4]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] >= 0.0 and out.data[1] <= 1.0


def test_relu_negative_clamp():
    assert ad.relu(t64([-2.5])).data[0] == 0.0
    assert np.array_equal(ad.relu(t64([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


# ---------------------------------------------------------------------------
# grad_check harness
# ---------------------------------------------------------------------------

def test_grad_check_polynomial():
    x = t64([3.0], requires_grad=True)
    report = ad.grad_check(lambda: ad.tensor_sum(ad.mul(x, x)), [x])
    assert report.ok
    # analytic derivative of x^2 at 3 is 6; rerun forward to confirm by hand
    x.grad = None
    loss = ad.tensor_sum(ad.mul(x, x))
    loss.backward()
    assert abs(x.grad[0] - 6.0) < 1e-12


def test_grad_check_constant_function():
    x = t64([1.0, 2.0], requires_grad=True)
    c = t64([5.0])
    report = ad.grad_check(
        lambda: ad.add(ad.tensor_sum(ad.mul(c, 1.0)), ad.mul(ad.tensor_sum(x), 0.0)), [x])
    assert report.ok
    assert report.max_rel_error < 1e-8


def test_grad_check_requires_float64():
    x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(ConfigurationError):
        ad.grad_check(lambda: ad.tensor_sum(x), [x])


def test_grad_check_step_size_bounds():
    x = t64([1.0], requires_grad=True)
    with pytest.raises(ConfigurationError):
        ad.grad_check(lambda: ad.tensor_sum(x), [x], h=1e-8)


def test_grad_check_rejects_nonscalar_objective():
    x = t64([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        ad.grad_check(lambda: ad.mul(x, 2.0), [x])


def test_grad_check_detects_wrong_gradient():
    """A sign-flipped backward must be reported as a failure, not absorbed."""
    x = t64([0.7, -0.3], requires_grad=True)

    def broken_square():
        y = ad.mul(x, x)
        out = ad.tensor_sum(y)

        def backward(g):
            x._node.accumulate(-2.0 * x.data * g)  # wrong sign on purpose

        return ad._make(out.data, (x,), backward, "broken_square")

    report = ad.grad_check(broken_square, [x])
    assert not report.ok


def test_grad_check_fails_nan_gradient():
    """A NaN relative error compares false with any tolerance, yet must fail."""
    x = t64([0.7, -0.3], requires_grad=True)

    def nan_square():
        out = ad.tensor_sum(ad.mul(x, x))

        def backward(g):
            x._node.accumulate(np.full(2, np.nan))

        return ad._make(out.data, (x,), backward, "nan_square")

    report = ad.grad_check(nan_square, [x])
    assert not report.ok
    assert report.entries[0][1:] == (math.inf, 2, 2)
    assert report.max_rel_error == math.inf


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-4])
def test_grad_check_tolerance_must_be_finite_and_positive(tol):
    x = t64([1.0], requires_grad=True)
    with pytest.raises(ConfigurationError):
        ad.grad_check(lambda: ad.tensor_sum(x), [x], tol=tol)


def test_gradcheck_suite_inputs_do_not_depend_on_other_checks(monkeypatch):
    """Each check's draws are keyed by its name: deleting one check leaves the
    inputs of every other check, the model check included, unchanged."""
    from trailergen import gradcheck

    original = gradcheck._build_away_from_kinks

    def inputs_without(*removed):
        drawn = {}

        def recording(builder, name, seed):
            f, tensors = original(builder, name, seed)
            drawn[name, seed] = [np.array(t.data) for t in tensors]
            return f, tensors

        with monkeypatch.context() as m:
            for name in removed:
                m.delitem(gradcheck.CHECKS, name)
            m.setattr(gradcheck, "_build_away_from_kinks", recording)
            # the finite differences are not under test here
            m.setattr(ad, "grad_check", lambda *args, **kwargs: ad.GradCheckReport())
            gradcheck.gradcheck_suite(seeds=2, model_seeds=1)
        return drawn

    full, fewer = inputs_without(), inputs_without("mul")
    assert set(full) - set(fewer) == {("mul", 0), ("mul", 1)}
    assert ("model_total_loss", 0) in fewer and len(fewer) > 60
    for key, arrays in fewer.items():
        assert len(arrays) == len(full[key])
        for a, b in zip(arrays, full[key]):
            np.testing.assert_array_equal(a, b)


# the module docstring of gradcheck claims the suite covers every differentiable op
DIFFERENTIABLE_OPS = ("add", "sub", "mul", "exp", "matmul", "tensor_sum", "reshape",
                      "transpose", "concat", "stack", "sigmoid", "relu", "softmax",
                      "log_softmax", "layer_norm", "multi_head_attention")


def test_gradcheck_suite_calls_every_differentiable_op(monkeypatch):
    from trailergen import gradcheck

    calls = dict.fromkeys(DIFFERENTIABLE_OPS + ("__getitem__",), 0)

    def counted(name, op):
        def counting(*args, **kwargs):
            calls[name] += 1
            return op(*args, **kwargs)
        return counting

    for name in DIFFERENTIABLE_OPS:
        monkeypatch.setattr(ad, name, counted(name, getattr(ad, name)))
    monkeypatch.setattr(Tensor, "__getitem__", counted("__getitem__", Tensor.__getitem__))
    with ad.precision(np.float64):
        for builder in gradcheck.CHECKS.values():
            f, _ = builder(np.random.default_rng(0))
            f()
    assert [name for name, count in calls.items() if count == 0] == []


class _RecordingRng:
    """A generator that keeps every array it hands out, in draw order."""

    def __init__(self, rng, draws):
        self._rng, self._draws = rng, draws

    def __getattr__(self, method):
        def draw(*args, **kwargs):
            value = getattr(self._rng, method)(*args, **kwargs)
            self._draws.append(np.asarray(value))
            return value
        return draw


# SHA-256 of each check's draws, in order, then of the tensors it checks, at
# seeds 0 and 1: a check that draws in another order or checks other tensors
# changes its digest
GRADCHECK_INPUT_DIGESTS = dict(line.split() for line in """
    add be69643a0d9317367e7f609300108eceeccd7eb8b55db7bf5b93a8ddd88051e9
    add_broadcast e14f4edd8384b37e6ef5f6f4908d485bd329b58826576f50da03c42b2979d537
    sub 19dd9a80d385946c356836854e04dd87ca51b4011bc6f89fb421f7d4aa6491d5
    mul 4c1c1db1c5d9b6c59620d14dd5060ac7b18a89ef46da0f520f9cd2b14efc2ee8
    matmul 0bca1ca62fb7ce7ffb23ae16cce4f68381d0222cac913605761a69324021d349
    matmul_batched 0ea5dc56e3a460ddb5eb7d65c2ac08a08e679ed3932fa703eb0885892d42d0d3
    exp a500f6632e0bcea2f6dbbc947639d4563466148eabc68726231262e9f84a1913
    sum 07c59e346f998f0632bc0e40d10e2f258a6072d8594a6dc0dcf2d2cfa17f9c8b
    sum_axis cf79ef8065ba1e4ab499ced97752c40951fb96f7a0411f494b3a6c922296c4ff
    reshape 62496b2668d3a36c6acdccecef8613d5967d5d49fe6377a6c2018a6387eacfa9
    transpose 1d68eae96f75ad918e9735c1203212020623b01fcb8426c32d70cb6492fc8b53
    concat 11cce0f8a371dbc622d66b3239d468cd0111e901df882dc6bcd6cb4a589daba3
    stack 7d5a5251c75845ba61c7142f465c49e73434e3f35fc2da5fc49d2fbf30841970
    index_slice ef6e98d583329d994acc2efa9cf4ca597158c163d0403f4e05b675e2f416035b
    index_fancy 4b91c0c0e7c599ddd9a4872d99f86414bb94d5126633806872793ab98dc678d9
    sigmoid fa7655be4389120087343fd3e01d050fd9476377e866553d0f2ce0ae1a914b98
    relu 6667efbf2260f081da64702af67d06ba6c481a05ea54f916e61e4c8c450039d1
    softmax bf8debfbb977b86b27689455efdfadf6826e0011954f324a6bfe77bab05bcd64
    softmax_masked 129bc18653519c1a3862c034e0bc2f6e8d504eaef324cd08c4a1dd428437c4e4
    log_softmax 86966032687bbbb959f7bdbae154f817a598841893e6683854a3803d56e9c4cb
    layer_norm da59e243a7593bc2668ac4a11a3ecf4982a3279e2783aaf42d0e545262c73b0a
    attention_core 4eec949c2da7c0fa5ce7547d315d5c9ea89f48a1f08ac9f67d269ae4a452bf86
    attention_core_masked 1c638d6a12971de1ecb2df7f58fd76c199aa88913e80023ec28b0e4894109569
    attention_core_batched_masked e9f3837b844768e14011834829a4d2b64119c2f4c3338b3b518dba69a891d3b9
    linear adfaf310bb8fde6c908a7ec081d6cae3feaf6520cf6669da1301866684e73c1b
    linear_batched b2e5b0ff5e30994c1bd46ee1ea63030d1f0ab7e7dfe707399938af0df3b68315
    feed_forward ea6cbe5478ef480033a5eccdf421d0d4b53e5e0971530442db4c0e75455a4cdc
    layer_norm_module 01a6dfb34a204a6bb342c76f574e3c6f308435cf20cff5a9592e3bcad8cbd44a
    attention_layer 0d6af2e1b079e8a5e58d064a43c320ff44cb15886ca8243d0b5fde2ef588eff6
    encoder_layer_post 6c0d6dc86864c432bf9f7a9db11a6a6e34c58464eaad450e60626983fabc1fcd
    decoder_layer_post 5f034838f9e1b0def6cd588ed91d2a64b6e527c31a7e9aaaa90117b1490babc9
    trailerness_loss 1c6a95682e2bbccd80510dfe88ae0249b1823542464b926c9f826a4c96a5136e
    reconstruction_loss 19fd63137448282f7475252aef6fbd1dc106e85d84894c9fadcd59429831a085
    kl_loss e0e37a342f3655aa2370e61e24c60b83347b721d0be23adaed83f4d2475a4db4
    total_loss 9fb90c2c5864c83487ef82c548865d924597f20236429920816ef373b75d5c94
    model_total_loss 59b69b6be029b4327c7cab69a81b33fae563da3bc5d521ca4e9446793e9920cc
""".strip().splitlines())


def test_gradcheck_suite_inputs_are_pinned(monkeypatch):
    from trailergen import gradcheck

    original = gradcheck._build_away_from_kinks
    hashes = {}

    def recording(builder, name, seed):
        draws = []

        def drawing(rng):
            draws.clear()  # the suite checks the last redraw's inputs
            return builder(_RecordingRng(rng, draws))

        f, tensors = original(drawing, name, seed)
        digest = hashes.setdefault(name, hashlib.sha256())
        for array in draws + [t.data for t in tensors]:
            digest.update(f"{array.dtype}{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        return f, tensors

    monkeypatch.setattr(gradcheck, "_build_away_from_kinks", recording)
    # the finite differences are not under test here
    monkeypatch.setattr(ad, "grad_check", lambda *args, **kwargs: ad.GradCheckReport())
    gradcheck.gradcheck_suite(seeds=2, model_seeds=2)
    assert {name: h.hexdigest() for name, h in hashes.items()} == GRADCHECK_INPUT_DIGESTS


# ---------------------------------------------------------------------------
# broadcasting and reductions
# ---------------------------------------------------------------------------

def test_broadcast_add_gradient_sums_over_expanded_axes():
    row = t64(np.ones(4), requires_grad=True)
    mat = t64(np.zeros((3, 4)), requires_grad=True)
    ad.tensor_sum(ad.add(mat, row)).backward()
    assert np.array_equal(row.grad, np.full(4, 3.0))
    assert np.array_equal(mat.grad, np.ones((3, 4)))


def test_mul_broadcast_column():
    col = t64(np.array([[2.0], [3.0]]), requires_grad=True)
    mat = t64(np.ones((2, 4)), requires_grad=True)
    ad.tensor_sum(ad.mul(mat, col)).backward()
    assert np.array_equal(col.grad, np.array([[4.0], [4.0]]))
    assert np.array_equal(mat.grad, np.array([[2.0] * 4, [3.0] * 4]))


def test_sum_axis_and_keepdims():
    x = t64(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(ad.tensor_sum(x, axis=0).data, [3.0, 5.0, 7.0])
    assert ad.tensor_sum(x, axis=1, keepdims=True).shape == (2, 1)


def test_getitem_gradient_accumulates_repeated_rows():
    x = t64(np.zeros((4, 2)), requires_grad=True)
    ad.tensor_sum(x[np.array([1, 1, 3])]).backward()
    assert np.array_equal(x.grad[:, 0], [0.0, 2.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# graph mechanics and modes
# ---------------------------------------------------------------------------

def test_backward_requires_scalar_or_explicit_grad():
    x = t64(np.ones((2, 2)), requires_grad=True)
    y = ad.mul(x, 2.0)
    with pytest.raises(ShapeError):
        y.backward()
    # a gradient that would broadcast to the output's shape is still refused
    with pytest.raises(ShapeError, match=r"\(2,\).*\(2, 2\)"):
        y.backward(np.ones(2))
    assert x.grad is None
    y2 = ad.mul(x, 2.0)
    y2.backward(np.ones((2, 2)))
    assert np.array_equal(x.grad, np.full((2, 2), 2.0))


def test_grad_accumulates_until_zeroed():
    p = Parameter(np.array([1.0, 1.0]))
    for _ in range(3):
        ad.tensor_sum(ad.mul(p, p)).backward()
    assert np.allclose(p.grad, 6.0 * np.ones(2), atol=1e-6)


@pytest.mark.parametrize("op, y_grad", [(ad.add, 1.0), (ad.sub, -1.0)])
def test_binary_op_parents_get_independent_grads(op, y_grad):
    # add/sub hand the same upstream array to both parents; x is used again
    x = t64(np.zeros(3), requires_grad=True)
    y = t64(np.zeros(3), requires_grad=True)
    ad.tensor_sum(ad.add(op(x, y), ad.mul(x, 3.0))).backward()
    assert np.array_equal(x.grad, np.full(3, 4.0))
    assert np.array_equal(y.grad, np.full(3, y_grad))
    assert not np.shares_memory(x.grad, y.grad)
    x.grad[:] = 99.0
    assert np.array_equal(y.grad, np.full(3, y_grad))


def test_view_grads_are_copied_into_leaves():
    # reshape and concat hand views of one upstream array to their parents
    x = t64(np.zeros((2, 3)), requires_grad=True)
    y = t64(np.zeros(6), requires_grad=True)
    z = t64(np.zeros(6), requires_grad=True)
    w = np.arange(12.0)
    joined = ad.concat([ad.add(ad.reshape(x, (6,)), y), z])
    ad.tensor_sum(ad.mul(joined, w)).backward()
    assert np.array_equal(x.grad.reshape(-1), w[:6])
    assert np.array_equal(y.grad, w[:6])
    assert np.array_equal(z.grad, w[6:])
    for a, b in ((x, y), (x, z), (y, z)):
        assert not np.shares_memory(a.grad, b.grad)
    y.grad += 1.0
    assert np.array_equal(x.grad.reshape(-1), w[:6])


def test_repeated_use_through_views_sums():
    x = t64(np.zeros(3), requires_grad=True)
    w = np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
    ad.tensor_sum(ad.mul(ad.concat([x, x]), w)).backward()
    assert np.array_equal(x.grad, [11.0, 22.0, 33.0])


def test_grad_keeps_parameter_dtype():
    p = Parameter(np.ones(3, dtype=np.float32), dtype=np.float32)
    ad.tensor_sum(ad.mul(p, t64([1.0, 2.0, 3.0]))).backward()  # float64 upstream
    assert p.grad.dtype == np.float32
    assert np.array_equal(p.grad, [1.0, 2.0, 3.0])


def test_no_grad_blocks_graph_recording():
    x = t64([1.0], requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, 3.0)
    assert not y.requires_grad
    assert y._node is None and y.grad is None
    with pytest.raises(ValueError):
        y.grad = np.ones(1)  # no node to hold it


def test_detach_shares_data_but_cuts_graph():
    x = t64([2.0], requires_grad=True)
    y = ad.mul(x, 2.0)
    z = y.detach()
    assert not z.requires_grad
    assert np.shares_memory(z.data, y.data)


def test_precision_context_switches_leaf_dtype():
    with ad.precision(np.float64):
        a = Tensor([1.0])
        assert a.dtype == np.float64
    b = Tensor([1.0])
    assert b.dtype == np.float32


def test_nonfinite_forward_raises():
    big = Tensor(np.array([1e300], dtype=np.float64), dtype=np.float64)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            ad.mul(big, big)  # overflows to inf
        with pytest.raises(NonFiniteError):
            ad.exp(t64([1e5]))


def test_backward_frees_each_gradient_once_read():
    # twelve ops over a 1 MiB array; each intermediate gradient dies as soon
    # as its node's backward has read it, so the walk holds the gradient in
    # flight and the one it feeds, not one gradient per op
    x = t64(np.ones((256, 512)), requires_grad=True)
    nodes = [x]
    for i in range(12):
        op = (lambda t: ad.add(t, 0.5), lambda t: ad.sub(t, 0.5),
              lambda t: ad.transpose(t, (1, 0)))[i % 3]
        nodes.append(op(nodes[-1]))
    loss = ad.tensor_sum(nodes[-1])
    tracemalloc.start()  # after the forward pass: only what backward adds counts
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * x.data.nbytes  # beyond the forward graph
    assert np.array_equal(x.grad, np.ones((256, 512)))
    assert all(node.grad is None for node in nodes[1:]) and loss.grad is not None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_backward_reads_its_output_bit_for_bit(dtype):
    tiny = np.finfo(dtype).smallest_subnormal
    values = np.array([-2.5, -0.0, 0.0, tiny, -tiny, 1.0, -1e-3, 7.0], dtype=dtype)
    x = Tensor(values, requires_grad=True, dtype=dtype)
    pre = ad.reshape(x, (2, 4))
    pre_data = weakref.ref(pre.data)
    out = ad.relu(pre)
    del pre
    assert pre_data() is None  # the graph does not keep relu's input
    g = np.array([[1.5, -2.0, -3.0, 4.0], [-5.0, -6.0, 7.0, -8.0]], dtype=dtype)
    out.backward(g)
    # the rule that reads the input: zero (of g's sign) wherever x <= 0
    expected = (g * (values.reshape(2, 4) > 0)).reshape(-1)
    assert x.grad.dtype == dtype
    assert x.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2,), (7,), (3, 5, 9), (2, 16)])
def test_relu_packed_mask_backward_equals_the_boolean_masks(dtype, shape):
    # sizes that are and are not multiples of 8, and gradients with -0.0
    # entries: the unpacked mask gives g * mask's bits, sign of zero included
    rng = np.random.default_rng(23)
    values = rng.standard_normal(shape).astype(dtype)
    values.reshape(-1)[::3] = 0.0
    g = rng.standard_normal(shape).astype(dtype)
    g.reshape(-1)[1::4] = -0.0
    x = Tensor(values, requires_grad=True, dtype=dtype)
    out = ad.relu(ad.mul(x, 1.0))
    out.backward(g)
    expected = g * (values > 0)
    assert x.grad.dtype == dtype
    assert x.grad.tobytes() == expected.tobytes()
    assert np.signbit(x.grad).any()


def test_second_backward_through_released_graph_raises():
    x = t64([1.0, 2.0], requires_grad=True)
    hidden = ad.mul(x, 3.0)
    loss = ad.tensor_sum(hidden)
    loss.backward()
    with pytest.raises(ValueError, match="released"):
        loss.backward()
    with pytest.raises(ValueError, match="released"):
        ad.tensor_sum(ad.add(hidden, 1.0)).backward()  # a new root over old nodes
    assert np.array_equal(x.grad, [3.0, 3.0]) and loss.grad == 1.0
    assert hidden.grad is None


def test_leaf_backward_accumulates_each_call():
    x = t64([1.0, 2.0], requires_grad=True)
    for _ in range(2):
        x.backward(np.ones(2))
    assert np.array_equal(x.grad, [2.0, 2.0])


def test_backward_keeps_only_root_and_leaf_gradients():
    x = t64(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True)
    w = Parameter(np.ones((3, 2)), dtype=np.float64)
    hidden = ad.matmul(x, w)
    out = ad.relu(hidden)
    loss = ad.tensor_sum(out)
    loss.backward()
    assert hidden.grad is None and out.grad is None
    assert loss.grad is not None and x.grad is not None and w.grad is not None
    for node in (hidden._node, out._node, loss._node):
        assert node.parents is None and node.backward_fn is None and node.recompute is None


def test_backward_drops_every_recompute():
    # hidden and act are not kept: the backwards that read them recompute
    # them from pre, which the graph keeps until the walk has passed them
    rng = np.random.default_rng(15)
    x = t64(rng.standard_normal((4, 6)), requires_grad=True)
    w1, w2 = (Parameter(rng.standard_normal(shape), dtype=np.float64)
              for shape in ((6, 5), (5, 3)))
    pre = ad.mul(x, 2.0)
    pre_data = weakref.ref(pre.data)
    hidden = ad.matmul(pre, w1)
    act = ad.relu(hidden)
    loss = ad.tensor_sum(ad.matmul(act, w2))
    del pre
    assert hidden._node.recompute is not None and act._node.recompute is not None
    assert act._node.recompute().tobytes() == act.data.tobytes()
    loss.backward()
    assert pre_data() is None  # nothing holds a recompute that reads it
    assert hidden._node.recompute is None and act._node.recompute is None
    with pytest.raises(ValueError, match="released"):
        loss.backward()


def test_deep_chain_does_not_hit_recursion_limit():
    x = t64([1.0], requires_grad=True)
    y = x
    for _ in range(5000):
        y = ad.add(y, 0.0)
    ad.tensor_sum(y).backward()
    assert x.grad[0] == 1.0


def test_chain_of_products_recomputes_one_product_at_a_time():
    # every other product is kept, so a recompute runs one product and a
    # deep chain neither recurses through the chain nor recomputes it
    x = t64(np.ones((1, 2)), requires_grad=True)
    w = Parameter(np.eye(2), dtype=np.float64)
    ys = [x]
    for _ in range(3000):
        ys.append(ad.relu(ad.matmul(ys[-1], w)))
    assert [y._node.recompute is None for y in ys[1:5]] == [False, True, False, True]
    ad.tensor_sum(ys[-1]).backward()
    assert np.array_equal(x.grad, [[1.0, 1.0]])
    assert np.array_equal(w.grad, np.full((2, 2), 3000.0))


def test_parameter_naming_walks_nested_modules():
    class Inner(ad.Module):
        def __init__(self):
            self.w = Parameter(np.ones(2))

    class Outer(ad.Module):
        def __init__(self):
            self.blocks = [Inner(), Inner()]
            self.bias = Parameter(np.zeros(1))

    names = [name for name, _ in Outer().named_parameters()]
    assert "blocks.0.w" in names and "blocks.1.w" in names and "bias" in names


def test_zero_grad_clears_all():
    class M(ad.Module):
        def __init__(self):
            self.w = Parameter(np.ones(3))

    m = M()
    ad.tensor_sum(m.w).backward()
    assert m.w.grad is not None
    m.zero_grad()
    assert np.all(m.w.grad == 0.0)


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------

def test_causal_mask_shape_and_content():
    m = ad.causal_mask(3)
    assert m.dtype == bool
    assert np.array_equal(m, [[1, 0, 0], [1, 1, 0], [1, 1, 1]])


def test_padding_mask_from_lengths():
    m = ad.padding_mask(np.array([1, 3]), 3)
    assert np.array_equal(m, [[True, False, False], [True, True, True]])
    with pytest.raises(ShapeError):
        ad.padding_mask(np.array([4]), 3)


@settings(max_examples=25)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4))
def test_attention_output_shape(lq, lk, heads):
    d = heads * 2
    rng = np.random.default_rng(lq * 100 + lk * 10 + heads)
    q = t64(rng.standard_normal((lq, d)))
    k = t64(rng.standard_normal((lk, d)))
    v = t64(rng.standard_normal((lk, d)))
    out = ad.multi_head_attention(q, k, v, heads)
    assert out.shape == (lq, d)
