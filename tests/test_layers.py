"""The linear layer: its initial weights (values and the memory used to draw
them) and its graph node; the arrays an encoder layer's graph keeps."""

import tracemalloc

import numpy as np
import pytest

from trailergen import autodiff as ad
from trailergen import layers
from trailergen.autodiff import Tensor
from trailergen.layers import EncoderLayer, Linear, xavier_uniform


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
    # kept, [8, 202, d] each: q, k, v and the attention output, both layer
    # norms' normed values and outputs, plus the [8, 202, ff] relu output.
    # The wo and lin2 outputs, the two residual sums and the lin1
    # pre-activation (4 * act + ff / d * act more) are freed in forward.
    assert graph < (8 + ff // d) * act + act // 2
