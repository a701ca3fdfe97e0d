"""Trailer decoder stack plus retrieval and stopping rules.

The decoder itself only maps (input prefix, memory) to output embeddings;
the autoregressive loop, which needs the whole model, lives in
``model.TrailerModel.generate_batch``.  Matching decoded embeddings back to movie
shots and deciding when a decoded embedding means "stop" are plain numpy
routines over frozen data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import DomainError, Module, Tensor
from .config import ModelConfig
from .layers import DecoderLayer
from .shots import ShotSequence, cosine_similarity


class DecoderStack(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.layers = [
            DecoderLayer(cfg.d_model, cfg.num_heads, cfg.ff_dim, rng,
                         pre_norm=cfg.pre_norm, eps=cfg.layer_norm_eps)
            for _ in range(cfg.decoder_layers)
        ]

    def __call__(self, x: Tensor, memory: Tensor,
                 self_mask: np.ndarray | None = None,
                 cross_mask: np.ndarray | None = None) -> Tensor:
        h = x
        for layer in self.layers:
            h = layer(h, memory, self_mask, cross_mask)
        return h


@dataclass
class DecodedTrailer:
    """Inference output: one row per kept decoding step.

    ``matched_indices`` are 1-based movie-shot indices; the step that
    triggered EOS detection is excluded from ``embeddings`` and matches but
    kept in ``all_predictions`` (needed to cross-check the decode loop
    against a teacher-forced pass).
    """

    embeddings: np.ndarray                 # [steps, d]
    matched_indices: list[int]
    terminated_by: str                     # "eos" | "max_len"
    topk_indices: list[list[int]] = field(default_factory=list)
    topk_similarities: list[list[float]] = field(default_factory=list)
    all_predictions: np.ndarray | None = None

    def __post_init__(self):
        if len(self.matched_indices) != self.embeddings.shape[0]:
            raise ValueError("one matched index is required per kept embedding")
        if self.terminated_by not in ("eos", "max_len"):
            raise ValueError(f"unknown termination {self.terminated_by!r}")


def _cosine_row(embedding: np.ndarray, shots: np.ndarray) -> np.ndarray:
    """Cosines between one query vector and every row of ``shots``, in float64."""
    e = np.asarray(embedding, dtype=np.float64)
    u = np.asarray(shots, dtype=np.float64)
    ne = np.linalg.norm(e)
    nu = np.linalg.norm(u, axis=1)
    if ne == 0.0 or np.any(nu == 0.0):
        raise DomainError("cosine similarity undefined for zero-norm vectors")
    return np.clip(u @ e / (nu * ne), -1.0, 1.0)


def match_nearest(embedding, movie, k: int = 1,
                  exclude: set[int] | None = None) -> list[int]:
    """Top-k movie-shot indices (1-based) by cosine similarity, ties to lower index.

    ``exclude`` removes already-used indices from consideration (the
    no-repeat decoding variant); k then applies to the remaining pool.
    """
    shots = movie.embeddings if isinstance(movie, ShotSequence) else np.asarray(movie)
    n = shots.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    sims = _cosine_row(embedding, shots)
    if exclude:
        keep = np.array([i for i in range(n) if (i + 1) not in exclude], dtype=np.int64)
        if keep.size == 0:
            raise ValueError("every movie shot is excluded")
        order = keep[np.lexsort((keep, -sims[keep]))]
    else:
        order = np.lexsort((np.arange(n), -sims))
    return [int(i) + 1 for i in order[:min(k, len(order))]]


def match_similarities(embedding, movie, indices: list[int]) -> list[float]:
    shots = movie.embeddings if isinstance(movie, ShotSequence) else np.asarray(movie)
    sims = _cosine_row(embedding, shots)
    return [float(sims[i - 1]) for i in indices]


def detect_eos(embedding, eos_vector, movie, rule: str = "margin",
               threshold: float = 0.9) -> bool:
    """Decide whether a decoded embedding is the stop token.

    "margin": the embedding is closer to EOS than to every movie shot.
    "threshold": cosine to EOS exceeds a fixed cutoff regardless of the movie.
    """
    shots = movie.embeddings if isinstance(movie, ShotSequence) else np.asarray(movie)
    eos_sim = cosine_similarity(np.asarray(embedding, dtype=np.float64),
                                np.asarray(eos_vector, dtype=np.float64))
    if rule == "threshold":
        return eos_sim > threshold
    if rule == "margin":
        return eos_sim > float(_cosine_row(embedding, shots).max())
    raise ValueError(f"unknown EOS rule {rule!r}")
