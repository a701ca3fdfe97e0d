"""The linear layer: its initial weights (values and the memory used to draw
them) and its graph node; the arrays an encoder layer's graph keeps, and the
gradients of layers whose backward recomputes their projections and layer
norm outputs."""

import tracemalloc

import numpy as np
import pytest

from trailergen import autodiff as ad
from trailergen import layers
from trailergen.autodiff import Tensor
from trailergen.layers import (DecoderLayer, EncoderLayer, FeedForward, LayerNorm, Linear,
                               MultiHeadAttention, xavier_uniform)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_xavier_uniform_equals_one_whole_draw(dtype):
    fan_in, fan_out = 500, 700  # several row chunks and a partial last one
    assert fan_in * fan_out * 8 > 2 * layers._INIT_CHUNK_BYTES
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    whole = np.random.default_rng(5).uniform(-limit, limit, size=(fan_in, fan_out))
    with ad.precision(dtype):
        chunked = xavier_uniform(np.random.default_rng(5), fan_in, fan_out)
        lin = Linear(fan_in, fan_out, np.random.default_rng(5))
    assert chunked.dtype == dtype and lin.weight.dtype == dtype
    np.testing.assert_array_equal(chunked, whole.astype(dtype))
    np.testing.assert_array_equal(lin.weight.data, whole.astype(dtype))


def test_linear_init_peak_is_weight_plus_one_chunk():
    rng = np.random.default_rng(6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lin = Linear(1024, 2048, rng)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the float32 weight and bias, one float64 chunk of draws, and numpy's
    # casting buffer; a whole float64 draw would add 16 MiB
    weight = lin.weight.data.nbytes + lin.bias.data.nbytes
    assert peak <= weight + layers._INIT_CHUNK_BYTES + np.getbufsize() * 8


def test_linear_is_one_graph_node():
    lin = Linear(4, 3, np.random.default_rng(7))
    x = Tensor(np.ones((2, 5, 4)), requires_grad=True)
    out = lin(x)
    assert out._node.parents == (x._node, lin.weight._node, lin.bias._node)


def test_encoder_layer_graph_keeps_only_what_backward_reads():
    d, ff = 64, 128  # the desk preset's widths, at the longest desk batch
    rng = np.random.default_rng(8)
    layer = EncoderLayer(d, 4, ff, rng)
    x = Tensor(rng.standard_normal((8, 202, d)), requires_grad=True)
    act = x.data.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = layer(x)
        graph = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert out.dtype == np.float32
    # kept, [8, 202, d] each: the attention output, both layer norms'
    # normed values and the layer's output (which the caller holds), plus
    # the [8, 202, ff] relu mask as bits, and softmax stats and the like.
    # q, k and v, the wo and lin2 outputs, the two residual sums, the lin1
    # and relu outputs and the first layer norm's output (8 * act + 2 * ff
    # / d * act more) are freed in forward: backward recomputes the layer
    # norm outputs and projections it reads.
    assert graph < 4 * act + ff // d * act // 32 + act // 3


def _gradients(layer, build, inputs, probe):
    """The gradients of ``sum(build(layer, *inputs) * probe)`` over the
    inputs and the layer's parameters, as bytes."""
    tensors = list(inputs) + layer.parameters()
    for t in tensors:
        t.grad = None
    ad.tensor_sum(ad.mul(build(layer, *inputs), probe)).backward()
    return [t.grad.tobytes() for t in tensors]


def _key_padding(b, lk):
    return ad.padding_mask([lk, lk - 2, 1][:b], lk)[:, None, None, :]


RECOMPUTED_LAYERS = {
    "self_attention": (
        lambda rng: MultiHeadAttention(8, 2, rng), 1,
        lambda layer, x: layer(x, x, x, ad.causal_mask(5)[None, None] & _key_padding(3, 5))),
    "cross_attention": (
        lambda rng: MultiHeadAttention(8, 2, rng), 2,
        lambda layer, x, m: layer(x, m, m, _key_padding(3, 7))),
    "feed_forward": (lambda rng: FeedForward(8, 16, rng), 1, lambda layer, x: layer(x)),
    "decoder_layer": (
        lambda rng: DecoderLayer(8, 2, 16, rng), 2,
        lambda layer, x, m: layer(x, m, ad.causal_mask(5), _key_padding(3, 7))),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("blocks", ["one", "per_row"])
@pytest.mark.parametrize("case", sorted(RECOMPUTED_LAYERS))
def test_recomputed_projections_give_the_kept_outputs_gradients(monkeypatch, case, blocks,
                                                                dtype):
    make, arity, build = RECOMPUTED_LAYERS[case]
    if blocks == "per_row":
        monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", 1)
    rng = np.random.default_rng(9)
    with ad.precision(dtype):
        layer = make(rng)
        inputs = [Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in [(3, 5, 8), (3, 7, 8)][:arity]]
    probe = rng.standard_normal((3, 5, 8)).astype(dtype)
    recomputed = _gradients(layer, build, inputs, probe)
    project = Linear.__call__

    def kept_projection(self, x):
        # an identity op has no recompute, so each backward that reads the
        # projection reads the array the graph kept
        out = project(self, x)
        return ad.reshape(out, out.shape)

    monkeypatch.setattr(Linear, "__call__", kept_projection)
    assert recomputed == _gradients(layer, build, inputs, probe)


NORMED_LAYERS = {
    "encoder_layer": (
        lambda rng: EncoderLayer(8, 2, 16, rng), 1,
        lambda layer, x: layer(x, _key_padding(3, 5))),
    "decoder_layer": RECOMPUTED_LAYERS["decoder_layer"],
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("blocks", ["one", "per_row"])
@pytest.mark.parametrize("case", sorted(NORMED_LAYERS))
def test_recomputed_layer_norms_give_the_kept_outputs_gradients(monkeypatch, case, blocks,
                                                                 dtype):
    make, arity, build = NORMED_LAYERS[case]
    if blocks == "per_row":
        monkeypatch.setattr(ad, "_ATTENTION_BLOCK_BYTES", 1)
    rng = np.random.default_rng(11)
    with ad.precision(dtype):
        layer = make(rng)
        inputs = [Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in [(3, 5, 8), (3, 7, 8)][:arity]]
        for p in layer.parameters():  # norms that are not the identity
            p.data += rng.standard_normal(p.shape).astype(dtype) / 4
    probe = rng.standard_normal((3, 5, 8)).astype(dtype)
    recomputed = _gradients(layer, build, inputs, probe)
    normalise = LayerNorm.__call__

    def kept_norm(self, x):
        # an identity op has no recompute, so each backward that reads the
        # norm's output reads the array the graph kept
        out = normalise(self, x)
        return ad.reshape(out, out.shape)

    monkeypatch.setattr(LayerNorm, "__call__", kept_norm)
    assert recomputed == _gradients(layer, build, inputs, probe)


def test_projections_carry_a_recompute_only_in_a_recorded_graph():
    ff = FeedForward(4, 6, np.random.default_rng(10))
    x = Tensor(np.ones((2, 4)), requires_grad=True)
    hidden = ff.lin1(x)
    assert hidden._node.recompute is not None
    assert ad.relu(hidden)._node.recompute is not None
    with ad.no_grad():
        assert ff.lin1(x)._node is None
