"""End-to-end sequence-to-sequence model.

``TrailerModel`` owns the learnable pieces (SOS/EOS vectors, trailerness
encoder, context encoder, decoder stack).  Conditioning adds none: condition
rows join the memory as they are.
Every pass runs on zero-padded [B, L, d] batches with validity masks: the
training loop feeds whole batches, and a single movie (the greedy decode
loop, ``encode_single``, ``decode_teacher_forced``) is a batch of one.

Submodules draw their init values from per-component seed streams, so e.g.
ablating the trailerness encoder leaves every other weight unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ConfigurationError, Module, Parameter, ShapeError, Tensor
from .config import ModelConfig
from .decoder import (DecodeCache, DecodedTrailer, DecoderStack, cosine_row, detect_eos,
                      match_nearest, match_similarities, shot_rows)
from .encoder import ContextEncoder, TrailernessEncoder, fuse_trailerness
from .shots import as_embedding_array, positional_encoding


# Upper bound on one decode group's zero-padded memory [B, L, d] plus the
# cross-attention K and V [B, L, d] its decode cache holds for every decoder
# layer: consecutive movies share a decoder pass while those stay under it.
# Each group pays the per-op overhead of every decoder step once, so fewer,
# larger groups decode faster but hold more; at 8 MiB nineteen 150-shot desk
# movies share a group.
_GROUP_BYTES = 8 << 20


@dataclass
class EncodeResult:
    memory: Tensor              # [B, L, d] context sequence the decoder attends over
    valid: np.ndarray           # [B, L] framed-position validity
    scores: Tensor | None       # [B, L] trailerness, None when the encoder is ablated


def _pad_stack(rows: list[Tensor], width: int) -> Tensor:
    """Zero-pad each [n_i, d] tensor to [width, d] and stack them into [B, width, d]."""
    return ad.stack([ad.concat([t, Tensor(np.zeros((width - t.shape[0], t.shape[1])))], axis=0)
                     if t.shape[0] < width else t for t in rows], axis=0)


class TrailerModel(Module):
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        d = cfg.d_model
        streams = {name: np.random.default_rng([seed, i]) for i, name in enumerate(
            ("tokens", "trailerness", "context", "decoder"))}

        tok = streams["tokens"]
        self.sos = Parameter(tok.normal(0.0, 0.02, size=d))
        self.eos = Parameter(tok.normal(0.0, 0.02, size=d))

        self.trailerness = (TrailernessEncoder(cfg, streams["trailerness"])
                            if cfg.use_trailerness_encoder else None)
        self.context = ContextEncoder(cfg, streams["context"]) if cfg.use_context_encoder else None
        self.decoder = DecoderStack(cfg, streams["decoder"])
        self._pos_const = positional_encoding(cfg.max_len, d)

    # -- shared plumbing ------------------------------------------------------

    def positional_rows(self, length: int) -> Tensor:
        if length > self.cfg.max_len + 2:
            raise ConfigurationError(
                f"sequence length {length} exceeds the position table "
                f"(max_len={self.cfg.max_len})")
        return Tensor(self._pos_const[:length])

    def frame_one(self, embeddings) -> Tensor:
        """[n, d] shots -> [n+2, d] with the SOS/EOS vectors at the ends."""
        arr = as_embedding_array(embeddings)
        if arr.ndim != 2 or arr.shape[1] != self.cfg.d_model:
            raise ShapeError(f"expected [n, {self.cfg.d_model}] shots, got {arr.shape}")
        if arr.shape[0] < 1:
            raise ShapeError("every movie needs at least one shot")
        d = self.cfg.d_model
        return ad.concat(
            [ad.reshape(self.sos, (1, d)), Tensor(arr), ad.reshape(self.eos, (1, d))], axis=0)

    def frame_batch(self, movies: list) -> tuple[Tensor, np.ndarray]:
        """Frame and zero-pad a batch; returns (tensor [B, L, d], valid [B, L])."""
        arrays = [as_embedding_array(m) for m in movies]
        lengths = np.array([a.shape[0] + 2 for a in arrays], dtype=np.int64)
        full = int(lengths.max())
        framed = _pad_stack([self.frame_one(arr) for arr in arrays], full)
        return framed, ad.padding_mask(lengths, full)

    # -- encoder side -----------------------------------------------------------

    def encode_single(self, movie) -> EncodeResult:
        """One movie as a batch of one: memory [1, n+2, d], scores [1, n+2]."""
        return self.encode_batch([movie])

    def encode_batch(self, movies: list) -> EncodeResult:
        framed, valid = self.frame_batch(movies)
        x = ad.add(framed, self.positional_rows(framed.shape[1]))
        # with no padded row a key mask would only add zeros
        key_mask = None if valid.all() else valid[:, None, None, :]
        scores, fused = None, x
        if self.trailerness is not None:
            scores = self.trailerness(x, key_mask)
            fused = fuse_trailerness(x, scores)
        memory = self.context(fused, key_mask) if self.context is not None else fused
        return EncodeResult(memory=memory, valid=valid, scores=scores)

    def attach_condition(self, enc: EncodeResult, conditions,
                         first: int = 0) -> tuple[Tensor, np.ndarray]:
        """Append condition rows to the memory as extra cross-attention keys.

        The one place that decides what a pass is fed: an unconditioned
        model ignores ``conditions``, and a conditioned one needs one
        [Lc, d_model] array per movie of ``enc``, such as embedded plot
        summaries, so a None condition is a ``ConfigurationError``, which
        names the movie by its index in the caller's batch: ``first`` is the
        index of ``enc``'s movie 0 there.  Returns
        the merged memory and its validity mask.  Empty [0, d_model] rows
        are the explicit unconditioned pass: the memory comes back untouched.
        """
        if self.cfg.condition_mode == "none":
            return enc.memory, enc.valid
        if conditions is None:
            conditions = [None] * enc.memory.shape[0]
        if len(conditions) != enc.memory.shape[0]:
            raise ShapeError("need one condition per batched movie")
        missing = [i for i, c in enumerate(conditions) if c is None]
        if missing:
            raise ConfigurationError(
                f"the model is conditioned, but movie {first + missing[0]} of the batch has "
                f"no condition rows; pass [0, {self.cfg.d_model}] rows for an unconditioned "
                f"pass")
        arrays = [as_embedding_array(c) for c in conditions]
        if any(a.ndim != 2 for a in arrays):
            raise ShapeError(f"conditions must be [Lc, d] rows, got shapes "
                             f"{[a.shape for a in arrays]}")
        for a in arrays:
            if a.shape[1] != self.cfg.d_model:
                raise ShapeError(f"condition width {a.shape[1]} does not match "
                                 f"memory width {self.cfg.d_model}")
        cond_lengths = np.array([a.shape[0] for a in arrays], dtype=np.int64)
        if np.all(cond_lengths == 0):
            return enc.memory, enc.valid
        if np.any(cond_lengths == 0):
            raise ConfigurationError("cannot batch empty with non-empty conditions")
        full = int(cond_lengths.max())
        cond = _pad_stack([Tensor(arr) for arr in arrays], full)
        cond_valid = ad.padding_mask(cond_lengths, full)
        return (ad.concat([enc.memory, cond], axis=-2),
                np.concatenate([enc.valid, cond_valid], axis=1))

    # -- decoder side -------------------------------------------------------------

    def decode_teacher_forced(self, memory: Tensor, target) -> Tensor:
        """Teacher-forced rows [m+1, d] of one target over a batch-of-one
        memory [1, L, d]: the rows predict v_1..v_m, then EOS."""
        preds, _, _ = self.decode_teacher_forced_batch(memory, None, [target])
        return preds[0]

    def decode_teacher_forced_batch(self, memory: Tensor, memory_valid: np.ndarray | None,
                                    trailers: list):
        """Batched pass; returns (predictions, target rows, row validity).

        ``memory_valid`` None means that no memory row is padding."""
        arrays = [as_embedding_array(t) for t in trailers]
        counts = np.array([a.shape[0] for a in arrays], dtype=np.int64)
        if np.any(counts < 1):
            raise ShapeError("every trailer needs at least one shot")
        width = int(counts.max()) + 1
        d = self.cfg.d_model
        sos_row = ad.reshape(self.sos, (1, d))
        # EOS as a target is a constant: a gradient through it would pull EOS
        # toward what the decoder predicts, until every decode stops at once.
        # EOS still learns as the movie frame's last input row.
        eos_row = ad.reshape(self.eos.detach(), (1, d))
        inputs = _pad_stack([ad.concat([sos_row, Tensor(arr)], axis=0) for arr in arrays], width)
        targets = _pad_stack([ad.concat([Tensor(arr), eos_row], axis=0) for arr in arrays], width)
        x = ad.add(inputs, self.positional_rows(width))
        row_valid = ad.padding_mask(counts + 1, width)
        self_mask = ad.causal_mask(width)[None, None] & row_valid[:, None, None, :]
        cross_mask = memory_valid[:, None, None, :] if memory_valid is not None else None
        preds = self.decoder(x, memory, self_mask, cross_mask)
        return preds, targets, row_valid

    def generate(self, movie, condition=None, max_len: int = 32,
                 topk: int = 1) -> DecodedTrailer:
        """Greedy decode of one movie: a batch of one through ``generate_batch``."""
        return self.generate_batch([movie], [condition], max_len=max_len, topk=topk)[0]

    def generate_batch(self, movies: list, conditions: list | None = None,
                       max_len: int = 32, topk: int = 1) -> list[DecodedTrailer]:
        """Autoregressive decode of many movies: grow each prefix until EOS or the step cap.

        Each movie is encoded and conditioned as a batch of one, so no
        [B, H, L, L] encoder scores are ever held for many movies at once.
        Consecutive memories are zero-padded into one [B, L, d] batch while
        that batch and the cross-attention keys and values its decode cache
        will hold (two more [B, L, d] arrays per decoder layer) stay under
        ``_GROUP_BYTES``, and each step runs one cached decoder pass over
        the next row of every sequence still decoding.
        Each decoded embedding is matched to movie shots immediately; the
        matched shot feeds back instead of the raw prediction when the model
        is configured for retrieval feedback.  ``attach_condition`` decides
        whether each movie's condition rows (or None) are read.
        """
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        arrays = [as_embedding_array(m) for m in movies]
        if not arrays:
            raise ValueError("generate_batch needs at least one movie")
        if conditions is None:
            conditions = [None] * len(arrays)
        elif len(conditions) != len(arrays):
            raise ShapeError(f"{len(conditions)} conditions for {len(arrays)} movies")
        decoded, group, rows = [], [], 0
        copies = 1 + 2 * len(self.decoder.layers)
        with ad.no_grad():
            for i, (movie, condition) in enumerate(zip(arrays, conditions)):
                memory, _ = self.attach_condition(self.encode_batch([movie]), [condition],
                                                  first=i)
                memory = memory.data[0]
                rows = max(rows, memory.shape[0])
                padded = copies * (len(group) + 1) * rows * memory.shape[1] * memory.itemsize
                if group and padded > _GROUP_BYTES:
                    decoded += self._decode_group(group, max_len, topk)
                    group, rows = [], memory.shape[0]
                group.append((movie, memory))
            decoded += self._decode_group(group, max_len, topk)
        return decoded

    def _decode_group(self, group: list, max_len: int, topk: int) -> list[DecodedTrailer]:
        """Decode (movie, [L, d] memory) pairs together; a finished sequence leaves the batch.

        Step t feeds one row per active sequence (SOS, then the fed-back row,
        plus positional row t-1).  A ``DecodeCache`` holds the self-attention
        keys and values of the earlier rows and the cross-attention keys and
        values of the padded group memory, projected at step 1.  When
        sequences finish, the cache keeps the others' rows, and the memory
        and its mask are cut to the longest memory still decoding.
        """
        cfg = self.cfg
        lengths = np.array([memory.shape[0] for _, memory in group])
        memories = np.zeros((len(group), lengths.max(), cfg.d_model), dtype=group[0][1].dtype)
        for row, (_, memory) in zip(memories, group):
            row[:memory.shape[0]] = memory
        feed = np.empty((len(group), cfg.d_model),
                        dtype=np.result_type(self.sos.dtype, ad.default_dtype()))
        feed[:] = self.sos.data
        # no decode outgrows the position table, whatever the caller's cap
        cache = DecodeCache(len(self.decoder.layers), min(max_len, cfg.max_len + 2))
        states = [_GreedyState(movie, topk, cfg, self.eos.data, max_len) for movie, _ in group]
        active, memory = np.arange(len(group)), None
        t = 1
        while active.size:
            if memory is None or memory.shape[0] != active.size:
                width = int(lengths[active].max())
                memory = Tensor(memories[active, :width], dtype=memories.dtype)
                cross_mask = None
                if np.any(lengths[active] < width):
                    cross_mask = ad.padding_mask(lengths[active], width)[:, None, None, :]
            x = ad.add(Tensor(feed[active, None], dtype=feed.dtype),
                       self.positional_rows(t)[t - 1])
            out = self.decoder(x, memory, None, cross_mask, cache)
            still = []
            for row, i in enumerate(active):
                feedback = states[i].step(np.array(out.data[row, 0]))
                if feedback is not None:
                    feed[i] = feedback
                    still.append(row)
            if len(still) < active.size:
                cache.keep(still)
                active = active[still]
            t += 1
        return [state.result() for state in states]


class _GreedyState:
    """One sequence's greedy decode: EOS test, no-repeat pool, top-k matches.

    The movie's float64 rows and their norms are built once.  Each step
    computes one cosine row of its prediction over them, and margin EOS, the
    top-k ranking and the top-k similarities all read that row.
    """

    def __init__(self, movie: np.ndarray, topk: int, cfg: ModelConfig, eos: np.ndarray,
                 max_len: int):
        self.movie, self.cfg, self.eos, self.max_len = movie, cfg, eos, max_len
        self.shots = shot_rows(movie)
        self.k = min(max(1, topk), movie.shape[0])
        self.all_preds, self.matched = [], []
        self.topk_idx, self.topk_sims = [], []
        self.chosen: set[int] = set()
        self.terminated = "max_len"

    def step(self, pred: np.ndarray) -> np.ndarray | None:
        """Take one decoded embedding; return the row to feed back, or None when done."""
        cfg = self.cfg
        self.all_preds.append(pred)
        # the threshold rule reads no shot, so its last step computes no row
        cosines = cosine_row(pred, *self.shots) if cfg.eos_rule == "margin" else None
        if detect_eos(pred, self.eos, self.movie, rule=cfg.eos_rule,
                      threshold=cfg.eos_threshold, cosines=cosines):
            self.terminated = "eos"
            return None
        n = self.movie.shape[0]
        pool = n - len(self.chosen) if cfg.no_repeat else n
        if pool < 1:
            self.terminated = "pool"  # every movie shot is already chosen
            return None
        if cosines is None:
            cosines = cosine_row(pred, *self.shots)
        ranked = match_nearest(pred, self.movie, k=min(self.k, pool),
                               exclude=self.chosen if cfg.no_repeat else None,
                               cosines=cosines)
        self.matched.append(ranked[0])
        self.topk_idx.append(ranked)
        self.topk_sims.append(match_similarities(pred, self.movie, ranked, cosines=cosines))
        if cfg.no_repeat:
            self.chosen.add(ranked[0])
        if len(self.matched) >= self.max_len:
            return None
        return self.movie[ranked[0] - 1] if cfg.feedback == "retrieved" else pred

    def result(self) -> DecodedTrailer:
        # every kept prediction was matched, and only the last step can go
        # unkept, so the kept rows are a prefix of all predictions
        preds = np.stack(self.all_preds)
        return DecodedTrailer(
            embeddings=preds[:len(self.matched)],
            matched_indices=self.matched,
            terminated_by=self.terminated,
            topk_indices=self.topk_idx,
            topk_similarities=self.topk_sims,
            all_predictions=preds,
        )
