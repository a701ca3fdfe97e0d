"""Span tracing from outside the program.

``Tracer`` replaces public callables of the trailergen modules with wrappers
that record a span (name, start, end, parent) and a call count, and puts
every original back on ``restore``.  Each callable is wrapped where its
caller looks it up: ``trailergen.autodiff.matmul`` (which also catches the
calls made inside ``multi_head_attention``), ``trailergen.training.pad_batch``,
``trailergen.model.match_nearest`` and so on, so the program itself is
unchanged.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# the public autodiff ops timed one by one
OPS = ("matmul", "add", "sub", "mul", "softmax", "log_softmax", "layer_norm",
       "transpose", "reshape", "concat", "stack", "relu", "sigmoid", "exp",
       "tensor_sum")

_INHERITED = object()  # marks an attribute that was not in the owner's own namespace


def _rows(tensor) -> int:
    """Rows of a [..., L, d] tensor: the product of all but the last axis."""
    rows = 1
    for size in tensor.shape[:-1]:
        rows *= size
    return rows


def _count_decoder_rows(counts: Counter, args: tuple) -> None:
    # DecoderStack.__call__(self, x, memory, ...)
    counts["decoder.query_rows"] += _rows(args[1])
    counts["decoder.memory_rows"] += _rows(args[2])


def layer_targets(tg) -> list:
    """(span name, owner, attribute, call hook) for every traced callable.

    ``tg`` is the imported ``trailergen`` package; its submodules are read
    as attributes so nothing here imports the program.
    """
    ad, layers, enc, dec = tg.autodiff, tg.layers, tg.encoder, tg.decoder
    model, training, shots, cli = tg.model, tg.training, tg.shots, tg.cli
    TM = model.TrailerModel
    targets = [(f"autodiff.op.{op}", ad, op, None) for op in OPS]
    targets += [
        ("autodiff.backward", ad.Tensor, "backward", None),
        ("autodiff.attention_core", ad, "multi_head_attention", None),
        ("layers.attention", layers.MultiHeadAttention, "__call__", None),
        ("layers.linear", layers.Linear, "__call__", None),
        ("layers.ffn", layers.FeedForward, "__call__", None),
        ("layers.layer_norm", layers.LayerNorm, "__call__", None),
        ("encoder.trailerness", enc.TrailernessEncoder, "__call__", None),
        ("encoder.context", enc.ContextEncoder, "__call__", None),
        ("decoder.stack", dec.DecoderStack, "__call__", _count_decoder_rows),
        ("decoder.match", model, "match_nearest", None),
        ("decoder.match", model, "match_similarities", None),
        ("decoder.eos", model, "detect_eos", None),
        ("model.frame", TM, "frame_one", None),
        ("model.frame", TM, "frame_batch", None),
        ("model.encode", TM, "encode_single", None),
        ("model.encode", TM, "encode_batch", None),
        ("model.teacher_forced", TM, "decode_teacher_forced", None),
        ("model.teacher_forced", TM, "decode_teacher_forced_batch", None),
        ("model.generate", TM, "generate", None),
        ("losses.trailerness", training, "batched_trailerness_loss", None),
        ("losses.reconstruction", training, "batched_reconstruction_loss", None),
        ("losses.kl", training, "batched_kl_loss", None),
        ("training.batch_loss", training, "batch_loss", None),
        ("training.clip", training, "clip_gradients", None),
        ("training.adamw", training.AdamW, "step", None),
        ("training.pad_batch", training, "pad_batch", None),
        ("training.save_checkpoint", training, "save_checkpoint", None),
        ("training.load_checkpoint", cli, "load_checkpoint", None),
        ("shots.similarity_matrix", shots, "similarity_matrix", None),
        ("shots.similarity_matrix", tg.metrics, "similarity_matrix", None),
        ("shots.read_sequence", tg.synthetic, "read_sequence", None),
        ("synthetic.load_dataset", cli, "load_dataset", None),
        ("synthetic.fingerprint", cli, "dataset_fingerprint", None),
        ("metrics.score_pairs", cli, "score_pairs", None),
        ("metrics.random_baseline", cli, "random_baseline", None),
        ("cli.eval", cli, "cmd_eval", None),
    ]
    return targets


def count_targets(tg) -> list:
    """(counter name, owner, attribute) for callables that are counted, not
    timed: ``cosine_similarity`` runs thousands of times per pair inside
    ``similarity_matrix``, and a span per call would swamp its parent."""
    return [("shots.cosine", tg.shots, "cosine_similarity"),
            ("shots.cosine", tg.decoder, "cosine_similarity")]


class Tracer:
    """Spans and counts for the callables patched through it.

    A call made while a span of the same name is open (``frame_batch``
    calling ``frame_one``) is counted but folded into the outer span, so
    each name's span total never counts the same interval twice.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self.spans = array("q")  # flat records: name id, start ns, end ns, parent index
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.spans) // 4
        self.spans.extend((nid, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[4 * idx + 2] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the benchmark's top-level spans)."""
        nid = self._name_id(name)
        self.counts[name] += 1
        idx = self._open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def patch(self, name: str, owner, attr: str, on_call=None) -> None:
        nid = self._name_id(name)
        counts, depth = self.counts, self._depth
        opener, closer = self._open, self._close

        def make_wrapper(original):
            def traced(*args, **kwargs):
                counts[name] += 1
                if on_call is not None:
                    on_call(counts, args)
                if depth[nid]:
                    return original(*args, **kwargs)
                depth[nid] = 1
                idx = opener(nid)
                try:
                    return original(*args, **kwargs)
                finally:
                    closer(idx)
                    depth[nid] = 0
            return traced

        self._replace(owner, attr, make_wrapper)

    def count(self, name: str, owner, attr: str) -> None:
        counts = self.counts

        def make_wrapper(original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return counted

        self._replace(owner, attr, make_wrapper)

    def install(self, tg) -> None:
        for name, owner, attr, hook in layer_targets(tg):
            self.patch(name, owner, attr, hook)
        for name, owner, attr in count_targets(tg):
            self.count(name, owner, attr)

    def restore(self) -> None:
        """Put every patched attribute back exactly as it was."""
        for owner, attr, raw in reversed(self._patches):
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    @contextmanager
    def installed(self, tg):
        """Patch everything in ``tg`` for the duration of the block."""
        self.install(tg)
        try:
            yield self
        finally:
            self.restore()

    # -- results ----------------------------------------------------------------

    def span_array(self) -> np.ndarray:
        """[spans, 4] int64: name id, start ns, end ns, parent index (-1 at top level)."""
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4).copy()

    def summary(self) -> dict:
        """Per name: calls, total span seconds, and self seconds (span time
        not covered by child spans)."""
        rec = self.span_array()
        dur = rec[:, 2] - rec[:, 1]
        parent = rec[:, 3]
        nested = parent >= 0
        child = np.zeros(len(rec), dtype=np.int64)
        np.add.at(child, parent[nested], dur[nested])
        width = len(self.names)
        total = np.bincount(rec[:, 0], weights=dur, minlength=width)
        own = np.bincount(rec[:, 0], weights=dur - child, minlength=width)
        return {name: {"calls": self.counts[name], "total_s": float(total[i]) / 1e9,
                       "self_s": float(own[i]) / 1e9}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Save the spans as ``spans`` ([N, 4] int64: name id, start ns, end ns,
        parent index) and ``names`` in a compressed ``.npz`` file."""
        np.savez_compressed(path, spans=self.span_array(), names=np.array(self.names))
