"""Trailer decoder stack plus retrieval and stopping rules.

The decoder itself only maps (input rows, memory) to output embeddings,
either a whole causal prefix or, with a ``DecodeCache``, one new row per
sequence.  The cache holds every layer's self-attention keys and values of
the rows decoded so far and its cross-attention keys and values of the
memory, projected once at the first step.  The autoregressive loop, which
needs the whole model, lives in ``model.TrailerModel.generate_batch``.
Matching decoded embeddings back to movie shots and deciding when a decoded
embedding means "stop" are plain numpy routines over frozen data; they take
one prediction's ``cosine_row`` over the movie when the caller has it, so a
decode step computes that row once for all of them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ConfigurationError, DomainError, Module, ShapeError, Tensor, grad_enabled
from .config import ModelConfig
from .layers import DecoderLayer
from .shots import as_embedding_array, cosine_similarity


class DecodeCache:
    """The keys and values a cached decode reuses, per layer: self-attention
    over the rows decoded so far and cross-attention over the memory.

    Row t of layer i's [B, rows, d] self-attention buffers holds the K and V
    that layer's self-attention projected for decoded row t; ``length`` rows
    are filled.  A buffer is allocated at its layer's first write, in the
    dtype of the projections, with ``FIRST_ROWS`` rows, and doubles when
    full, up to ``capacity`` rows; so a decode that stops early holds few
    rows whatever its cap.

    Layer i's cross-attention K and V [B, L, d] are the memory's projections,
    made at the first step and reused at every later one.  Every buffer is a
    plain array, so no gradient flows through the cache.  The attention core
    splits heads as strided views, so it reads the filled rows in place: no
    buffer needs a head layout of its own, and attending copies none of the
    cached K/V.
    """

    FIRST_ROWS = 64

    def __init__(self, layers: int, capacity: int):
        self.capacity = capacity
        self.keys: list[np.ndarray | None] = [None] * layers
        self.values: list[np.ndarray | None] = [None] * layers
        self.cross_keys: list[np.ndarray | None] = [None] * layers
        self.cross_values: list[np.ndarray | None] = [None] * layers
        self.length = 0

    def extend(self, layer: int, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write one new [B, 1, d] row at ``length``; return rows 0..length of K and V."""
        t = self.length
        if t >= self.capacity:
            raise ConfigurationError(f"decode cache holds {self.capacity} rows")
        if self.keys[layer] is None or t == self.keys[layer].shape[1]:
            rows = min(self.capacity, max(self.FIRST_ROWS, 2 * t))
            for buffers, new in ((self.keys, k), (self.values, v)):
                grown = np.empty((new.shape[0], rows, new.shape[-1]), dtype=new.dtype)
                if t:
                    grown[:, :t] = buffers[layer][:, :t]
                buffers[layer] = grown
        keys, values = self.keys[layer], self.values[layer]
        keys[:, t] = k[:, 0]
        values[:, t] = v[:, 0]
        return keys[:, :t + 1], values[:, :t + 1]

    def cross(self, layer: int, project) -> tuple[np.ndarray, np.ndarray]:
        """The memory's cross-attention K and V for ``layer``; ``project()``
        returns them at the first step only."""
        if self.cross_keys[layer] is None:
            self.cross_keys[layer], self.cross_values[layer] = project()
        return self.cross_keys[layer], self.cross_values[layer]

    def keep(self, rows) -> None:
        """Keep only the sequences at ``rows`` of the current batch, in that order."""
        for buffers in (self.keys, self.values, self.cross_keys, self.cross_values):
            for i, buffer in enumerate(buffers):  # one layer's copy alive at a time
                if buffer is not None:
                    buffers[i] = buffer[rows]


class DecoderStack(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.layers = [
            DecoderLayer(cfg.d_model, cfg.num_heads, cfg.ff_dim, rng)
            for _ in range(cfg.decoder_layers)
        ]

    def __call__(self, x: Tensor, memory: Tensor,
                 self_mask: np.ndarray | None = None,
                 cross_mask: np.ndarray | None = None,
                 cache: DecodeCache | None = None) -> Tensor:
        """Run every layer over ``x`` [..., L, d] attending to ``memory``.

        With a ``cache``, ``x`` is [B, 1, d]: the next row of each sequence.
        Its self-attention keys and values are written to the cache, and the
        row attends over every cached row of its sequence, so no
        ``self_mask`` is needed.  The cross-attention keys and values come
        from the cache too: the first step projects ``memory`` into it, and
        later steps pass the same memory, less the rows of finished
        sequences (``cache.keep``), with ``cross_mask`` to match.
        """
        if cache is not None:
            if grad_enabled():
                raise ConfigurationError("a decode cache needs no_grad(): "
                                         "no gradient flows through its buffers")
            if x.ndim != 3 or x.shape[1] != 1:
                raise ShapeError(f"a cached decoder step takes [B, 1, d] rows, got {x.shape}")
        h = x
        for i, layer in enumerate(self.layers):
            kv = cross_kv = None
            if cache is not None:
                kv = lambda project, i=i: cache.extend(i, *project())
                cross_kv = functools.partial(cache.cross, i)
            h = layer(h, memory, self_mask, cross_mask, kv, cross_kv)
        if cache is not None:
            cache.length += 1
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
    terminated_by: str                     # "eos" | "max_len" | "pool" (no-repeat ran out)
    topk_indices: list[list[int]] = field(default_factory=list)
    topk_similarities: list[list[float]] = field(default_factory=list)
    all_predictions: np.ndarray | None = None

    def __post_init__(self):
        if len(self.matched_indices) != self.embeddings.shape[0]:
            raise ValueError("one matched index is required per kept embedding")
        if self.terminated_by not in ("eos", "max_len", "pool"):
            raise ValueError(f"unknown termination {self.terminated_by!r}")


def shot_rows(movie) -> tuple[np.ndarray, np.ndarray]:
    """A movie's shots as float64 rows [n, d] and their norms [n], for ``cosine_row``."""
    rows = np.asarray(as_embedding_array(movie), dtype=np.float64)
    return rows, np.linalg.norm(rows, axis=1)


def cosine_row(embedding, rows: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Cosines between one query vector and every one of ``shot_rows``' rows, in float64."""
    e = np.asarray(embedding, dtype=np.float64)
    ne = np.linalg.norm(e)
    if ne == 0.0 or np.any(norms == 0.0):
        raise DomainError("cosine similarity undefined for zero-norm vectors")
    return np.clip(rows @ e / (norms * ne), -1.0, 1.0)


def match_nearest(embedding, movie, k: int = 1, exclude: set[int] | None = None, *,
                  cosines: np.ndarray | None = None) -> list[int]:
    """Top-k movie-shot indices (1-based) by cosine similarity, ties to lower index.

    ``exclude`` removes already-used indices from consideration (the
    no-repeat decoding variant); k then applies to the remaining pool.
    ``cosines`` is the embedding's ``cosine_row`` over the movie, when the
    caller has it already.
    """
    n = as_embedding_array(movie).shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    sims = cosine_row(embedding, *shot_rows(movie)) if cosines is None else cosines
    if exclude:
        pool = np.ones(n, dtype=bool)
        pool[[i - 1 for i in exclude if 1 <= i <= n]] = False
        keep = np.flatnonzero(pool)
        if keep.size == 0:
            raise ValueError("every movie shot is excluded")
        order = keep[np.lexsort((keep, -sims[keep]))]
    else:
        order = np.lexsort((np.arange(n), -sims))
    return [int(i) + 1 for i in order[:k]]


def match_similarities(embedding, movie, indices: list[int], *,
                       cosines: np.ndarray | None = None) -> list[float]:
    """Cosines between the embedding and the movie shots at 1-based ``indices``."""
    sims = cosine_row(embedding, *shot_rows(movie)) if cosines is None else cosines
    return [float(sims[i - 1]) for i in indices]


def detect_eos(embedding, eos_vector, movie, rule: str = "margin",
               threshold: float = 0.9, *, cosines: np.ndarray | None = None) -> bool:
    """Decide whether a decoded embedding is the stop token.

    "margin": the embedding is closer to EOS than to every movie shot.
    "threshold": cosine to EOS exceeds a fixed cutoff regardless of the movie.
    ``cosines`` is the embedding's ``cosine_row`` over the movie, when the
    caller has it already.
    """
    eos_sim = cosine_similarity(np.asarray(embedding, dtype=np.float64),
                                np.asarray(eos_vector, dtype=np.float64))
    if rule == "threshold":
        return eos_sim > threshold
    if rule == "margin":
        if cosines is None:
            cosines = cosine_row(embedding, *shot_rows(movie))
        return eos_sim > float(cosines.max())
    raise ValueError(f"unknown EOS rule {rule!r}")
