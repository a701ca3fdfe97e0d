"""Transformer building blocks: linear maps, norms, attention and residual layers.

All layers accept either a single sequence [L, d] or a batch [B, L, d]; masks
are boolean numpy arrays broadcast against the attention score shape.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Parameter, Tensor


# Bytes of float64 draws made at once while filling an initial weight matrix.
_INIT_CHUNK_BYTES = 1 << 20


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform [fan_in, fan_out] weights in the default dtype.

    The float64 draws are made a block of rows at a time and cast into the
    output, so the values equal one whole ``rng.uniform`` draw cast to the
    default dtype without that float64 array ever being held.
    """
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    out = np.empty((fan_in, fan_out), dtype=ad.default_dtype())
    step = max(1, _INIT_CHUNK_BYTES // (8 * fan_out))
    for start in range(0, fan_in, step):
        block = out[start:start + step]
        block[...] = rng.uniform(-limit, limit, size=block.shape)
    return out


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.weight = Parameter(xavier_uniform(rng, in_dim, out_dim))
        self.bias = Parameter(np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, d: int):
        self.gamma = Parameter(np.ones(d))
        self.beta = Parameter(np.zeros(d))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta)


class FeedForward(Module):
    def __init__(self, d: int, hidden: int, rng: np.random.Generator):
        self.lin1 = Linear(d, hidden, rng)
        self.lin2 = Linear(hidden, d, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin2(ad.relu(self.lin1(x)))


class MultiHeadAttention(Module):
    """Projected multi-head attention: q/k/v projections around the scaled-dot core."""

    def __init__(self, d: int, num_heads: int, rng: np.random.Generator):
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, d, rng)
        self.wv = Linear(d, d, rng)
        self.wo = Linear(d, d, rng)
        self.num_heads = num_heads

    def __call__(self, query: Tensor, key: Tensor, value: Tensor,
                 mask: np.ndarray | None = None, kv=None) -> Tensor:
        """``kv`` (incremental decoding) is called with a function that
        projects ``key`` and ``value`` to arrays, and returns the key and
        value arrays to attend over; it need not call that function."""
        q = self.wq(query)
        if kv is None:
            k, v = self.wk(key), self.wv(value)
        else:
            keys, values = kv(lambda: (self.wk(key).data, self.wv(value).data))
            k, v = Tensor(keys, dtype=keys.dtype), Tensor(values, dtype=values.dtype)
        attended = ad.multi_head_attention(q, k, v, self.num_heads, mask=mask)
        return self.wo(attended)


class EncoderLayer(Module):
    """Self-attention + feed-forward residual block, normed after each add (post-norm)."""

    def __init__(self, d: int, num_heads: int, ff_dim: int, rng: np.random.Generator):
        self.attn = MultiHeadAttention(d, num_heads, rng)
        self.ff = FeedForward(d, ff_dim, rng)
        self.norm1 = LayerNorm(d)
        self.norm2 = LayerNorm(d)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        h = self.norm1(ad.add(x, self.attn(x, x, x, mask)))
        return self.norm2(ad.add(h, self.ff(h)))


class DecoderLayer(Module):
    """Masked self-attention, cross-attention over the encoder memory, feed-forward."""

    def __init__(self, d: int, num_heads: int, ff_dim: int, rng: np.random.Generator):
        self.self_attn = MultiHeadAttention(d, num_heads, rng)
        self.cross_attn = MultiHeadAttention(d, num_heads, rng)
        self.ff = FeedForward(d, ff_dim, rng)
        self.norm1 = LayerNorm(d)
        self.norm2 = LayerNorm(d)
        self.norm3 = LayerNorm(d)

    def __call__(self, x: Tensor, memory: Tensor,
                 self_mask: np.ndarray | None = None,
                 cross_mask: np.ndarray | None = None, kv=None, cross_kv=None) -> Tensor:
        """``kv`` and ``cross_kv`` are the self- and cross-attention's cache
        hooks (see ``MultiHeadAttention``)."""
        h = self.norm1(ad.add(x, self.self_attn(x, x, x, self_mask, kv)))
        h2 = self.norm2(ad.add(h, self.cross_attn(h, memory, memory, cross_mask, cross_kv)))
        return self.norm3(ad.add(h2, self.ff(h2)))
