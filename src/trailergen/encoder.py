"""Movie-side encoders.

The trailerness encoder scores each framed position for how trailer-worthy
it is; the scores are broadcast-added back onto the framed embeddings, and the
context encoder turns that fused sequence into the memory the decoder
cross-attends over.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Module, ShapeError, Tensor
from .config import ModelConfig
from .layers import EncoderLayer, Linear


class TrailernessEncoder(Module):
    """Self-attention stack plus a scalar head squashed through a sigmoid."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.layers = [
            EncoderLayer(cfg.d_model, cfg.num_heads, cfg.ff_dim, rng)
            for _ in range(cfg.trailerness_layers)
        ]
        self.head = Linear(cfg.d_model, 1, rng)

    def __call__(self, framed_pos: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Scores in (0, 1) per position: [L] for [L, d] input, [B, L] batched."""
        if framed_pos.shape[-2] < 2:
            raise ShapeError("framed input must include the SOS and EOS positions")
        h = framed_pos
        for layer in self.layers:
            h = layer(h, mask)
        raw = self.head(h)  # [..., L, 1]
        return ad.reshape(ad.sigmoid(raw), raw.shape[:-1])


def fuse_trailerness(framed_pos: Tensor, scores: Tensor) -> Tensor:
    """Add each position's scalar score onto every dimension of its embedding row."""
    if scores.shape != framed_pos.shape[:-1]:
        raise ShapeError(
            f"scores {scores.shape} do not match positions of {framed_pos.shape}")
    return ad.add(framed_pos, ad.reshape(scores, scores.shape + (1,)))


class ContextEncoder(Module):
    """Unmasked self-attention stack producing the decoder's memory sequence."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.layers = [
            EncoderLayer(cfg.d_model, cfg.num_heads, cfg.ff_dim, rng)
            for _ in range(cfg.context_layers)
        ]

    def __call__(self, fused: Tensor, mask: np.ndarray | None = None) -> Tensor:
        h = fused
        for layer in self.layers:
            h = layer(h, mask)
        return h
