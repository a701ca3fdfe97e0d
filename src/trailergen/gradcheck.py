"""Finite-difference verification suite covering every differentiable op,
the composite layers, all three loss terms, and a small end-to-end model.

Most checks are rows of a table: the shapes of the standard-normal leaves,
the shape of a fixed random probe that makes the op scalar as
``sum(op(...) * probe)`` (None for an op that is already scalar), the op,
and for a layer the module, built from the stream before the leaves are
drawn.  The checks that draw from another distribution or in another order
keep a builder of their own.

Each named check builds fresh float64 inputs from a stream seeded by its
name, so adding or deleting a check leaves every other check's inputs as
they were, and compares analytic gradients against central differences via
``autodiff.grad_check``.  Inputs that land within ``KINK_MARGIN`` of a relu
kink are redrawn: a central difference straddling the kink measures a
subgradient average, not the gradient, so the comparison would be
meaningless there.  Shapes are deliberately tiny; the whole suite runs in
well under two minutes.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .layers import (DecoderLayer, EncoderLayer, FeedForward, LayerNorm, Linear,
                     MultiHeadAttention)
from .losses import (batched_kl_loss, batched_reconstruction_loss,
                     batched_trailerness_loss, total_loss)
from .model import TrailerModel
from .shots import ShotSequence
from .synthetic import PairExample
from .training import batch_loss, pad_batch

_SUITE_TAG = 4

# minimum |relu input|; perturbations of h=1e-5 then never cross the kink
KINK_MARGIN = 1e-3
_MAX_REDRAWS = 8


def _leaf(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _scalarize(out: Tensor, r: np.ndarray) -> Tensor:
    return ad.tensor_sum(ad.mul(out, r))


# every builder takes a dedicated rng and returns (f, tensors_to_check);
# f rebuilds the forward graph each call
def _row(leaf_shapes, probe_shape, op, module=None):
    """The builder of one table row: build ``module`` from the rng when the
    row names one, draw a standard-normal leaf per shape, then draw a probe
    unless ``probe_shape`` is None (the op is already scalar).  ``op`` takes
    the module, if any, and the leaves; the leaves and then the module's
    parameters are checked."""
    def build(rng):
        built = [module(rng)] if module else []
        leaves = [_leaf(rng, *shape) for shape in leaf_shapes]
        tensors = leaves + [p for m in built for p in m.parameters()]
        if probe_shape is None:
            return lambda: op(*built, *leaves), tensors
        r = rng.standard_normal(probe_shape)
        return lambda: _scalarize(op(*built, *leaves), r), tensors
    return build


def _check_layer_norm(rng):
    x, r = _leaf(rng, 3, 4), rng.standard_normal((3, 4))
    gamma = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
    beta = _leaf(rng, 4)
    return lambda: _scalarize(ad.layer_norm(x, gamma, beta), r), [x, gamma, beta]


# the loss checks run on a padded batch of two pairs, the second one slot short
_LOSS_VALID = ad.padding_mask([3, 2], 3)


def _check_trailerness_loss(rng):
    s, gt = _leaf(rng, 2, 3), rng.random((2, 3))
    return lambda: batched_trailerness_loss(ad.sigmoid(s), gt, _LOSS_VALID), [s]


def _check_total_loss(rng):
    s, pred, targets = _leaf(rng, 2, 3), _leaf(rng, 2, 3, 4), _leaf(rng, 2, 3, 4)
    gt = rng.random((2, 3))
    return (lambda: total_loss(batched_trailerness_loss(ad.sigmoid(s), gt, _LOSS_VALID),
                               batched_reconstruction_loss(pred, targets, _LOSS_VALID),
                               batched_kl_loss(pred, targets, _LOSS_VALID),
                               weights=(1.0, 0.5, 2.0))[0],
            [s, pred, targets])


def _check_model_total_loss(rng):
    """The training loss at d=8 on a padded batch of a 2-shot and a 3-shot
    movie: encode, fuse, decode, combined loss, with the detached EOS target
    row held constant."""
    cfg = ModelConfig(d_model=8, num_heads=2, ff_dim=16, trailerness_layers=1,
                      context_layers=1, decoder_layers=1, max_len=16)
    model = TrailerModel(cfg, seed=int(rng.integers(0, 2**31)))
    pairs = [PairExample(f"p{n}", ShotSequence(f"m{n}", rng.standard_normal((n, 8)), "movie"),
                         ShotSequence(f"t{n}", rng.standard_normal((m, 8)), "trailer"))
             for n, m in ((2, 2), (3, 1))]
    batch = pad_batch(pairs)
    held = model.eos.data.copy()
    decode = model.decode_teacher_forced_batch

    def decode_with_held_eos(*args):
        # the targets' EOS row is detached, so backward differentiates the
        # loss with that row held where it is: the finite differences hold it
        # there too, and move EOS only where the framed movie reads it
        live, model.eos.data = model.eos.data, held
        try:
            return decode(*args)
        finally:
            model.eos.data = live

    model.decode_teacher_forced_batch = decode_with_held_eos
    return lambda: batch_loss(model, batch)[0], model.parameters()


_CAUSAL = ad.causal_mask(4)
# [B, L, d] attention inputs: 4-D head layout, causal mask combined with key padding
_CAUSAL_PADDED = _CAUSAL[None, None] & ad.padding_mask([4, 2], 4)[:, None, None, :]
_FANCY = np.array([0, 2, 2])  # repeated index exercises gradient accumulation

# name: builder.  Each row's op looks its function up at call time, so a
# wrapper put on an autodiff op (a counter, a tracer) sees the suite's calls.
CHECKS = {
    "add": _row([(3, 4), (3, 4)], (3, 4), lambda x, y: ad.add(x, y)),
    "add_broadcast": _row([(3, 4), (4,)], (3, 4), lambda x, y: ad.add(x, y)),
    "sub": _row([(3, 4), (3, 4)], (3, 4), lambda x, y: ad.sub(x, y)),
    "mul": _row([(3, 4), (3, 4)], (3, 4), lambda x, y: ad.mul(x, y)),
    "matmul": _row([(3, 5), (5, 2)], (3, 2), lambda a, b: ad.matmul(a, b)),
    "matmul_batched": _row([(2, 3, 5), (2, 5, 2)], (2, 3, 2), lambda a, b: ad.matmul(a, b)),
    "exp": _row([(3, 4)], (3, 4), lambda x: ad.exp(x)),
    "sum": _row([(3, 4)], None, lambda x: ad.tensor_sum(x)),
    "sum_axis": _row([(3, 4)], (4,), lambda x: ad.tensor_sum(x, axis=0)),
    "reshape": _row([(3, 4)], (12,), lambda x: ad.reshape(x, (12,))),
    "transpose": _row([(3, 4)], (4, 3), lambda x: ad.transpose(x, (1, 0))),
    "concat": _row([(2, 4), (3, 4)], (5, 4), lambda a, b: ad.concat([a, b], axis=0)),
    "stack": _row([(3, 4), (3, 4)], (2, 3, 4), lambda a, b: ad.stack([a, b], axis=0)),
    "index_slice": _row([(4, 4)], (2, 4), lambda x: x[1:3]),
    "index_fancy": _row([(5, 4)], (3, 4), lambda x: x[_FANCY]),
    "sigmoid": _row([(3, 4)], (3, 4), lambda x: ad.sigmoid(x)),
    "relu": _row([(3, 4)], (3, 4), lambda x: ad.relu(x)),
    "softmax": _row([(3, 4)], (3, 4), lambda x: ad.softmax(x, axis=-1)),
    "softmax_masked": _row([(4, 4)], (4, 4), lambda x: ad.softmax(x, axis=-1, mask=_CAUSAL)),
    "log_softmax": _row([(3, 4)], (3, 4), lambda x: ad.log_softmax(x, axis=-1)),
    "layer_norm": _check_layer_norm,
    "attention_core": _row([(3, 4), (5, 4), (5, 4)], (3, 4),
                           lambda q, k, v: ad.multi_head_attention(q, k, v, 2)),
    "attention_core_masked": _row(
        [(4, 4)] * 3, (4, 4), lambda q, k, v: ad.multi_head_attention(q, k, v, 2, mask=_CAUSAL)),
    "attention_core_batched_masked": _row(
        [(2, 4, 4)] * 3, (2, 4, 4),
        lambda q, k, v: ad.multi_head_attention(q, k, v, 2, mask=_CAUSAL_PADDED)),
    "linear": _row([(2, 4)], (2, 3), lambda lin, x: lin(x),
                   module=lambda rng: Linear(4, 3, rng)),
    # a batched linear map, the one matmul node with a bias that Linear makes
    "linear_batched": _row([(2, 3, 5), (5, 4), (4,)], (2, 3, 4),
                           lambda x, w, b: ad.matmul(x, w, b)),
    "feed_forward": _row([(2, 4)], (2, 4), lambda ff, x: ff(x),
                         module=lambda rng: FeedForward(4, 6, rng)),
    "layer_norm_module": _row([(2, 4)], (2, 4), lambda ln, x: ln(x),
                              module=lambda rng: LayerNorm(4)),
    "attention_layer": _row([(3, 4)], (3, 4), lambda mha, x: mha(x, x, x),
                            module=lambda rng: MultiHeadAttention(4, 2, rng)),
    # draws are keyed by name, so these keep the "_post" suffix and their numbers
    "encoder_layer_post": _row([(3, 4)], (3, 4), lambda enc, x: enc(x),
                               module=lambda rng: EncoderLayer(4, 2, 8, rng)),
    "decoder_layer_post": _row([(3, 4), (5, 4)], (3, 4),
                               lambda dec, x, mem: dec(x, mem, ad.causal_mask(3), None),
                               module=lambda rng: DecoderLayer(4, 2, 8, rng)),
    "trailerness_loss": _check_trailerness_loss,
    "reconstruction_loss": _row([(2, 3, 4)] * 2, None, lambda pred, targets:
                                batched_reconstruction_loss(pred, targets, _LOSS_VALID)),
    "kl_loss": _row([(2, 3, 4)] * 2, None,
                    lambda pred, targets: batched_kl_loss(pred, targets, _LOSS_VALID)),
    "total_loss": _check_total_loss,
}


def _build_away_from_kinks(builder, name: str, seed: int):
    """Instantiate a check, redrawing until no relu input sits near its kink.

    The draws are keyed by the check's name through ``zlib.crc32``, which,
    unlike ``hash``, is the same in every process."""
    for redraw in range(_MAX_REDRAWS):
        rng = np.random.default_rng([seed, _SUITE_TAG, zlib.crc32(name.encode()), redraw])
        f, tensors = builder(rng)
        with ad.watch_kinks() as gaps:
            f()
        if not gaps or min(gaps) > KINK_MARGIN:
            break
    return f, tensors  # even near a kink after every redraw (vanishingly unlikely)


def gradcheck_suite(seeds: int = 20, h: float = 1e-5, tol: float = 1e-4,
                    model_seeds: int = 3) -> ad.GradCheckReport:
    """Run every check over ``seeds`` random draws; the end-to-end model check
    runs over ``model_seeds`` (it perturbs every parameter, so it dominates cost)."""
    start = time.perf_counter()
    report = ad.GradCheckReport(tolerance=tol)
    runs = [(name, builder, seeds) for name, builder in CHECKS.items()]
    runs.append(("model_total_loss", _check_model_total_loss, model_seeds))
    with ad.precision(np.float64):
        for name, builder, count in runs:
            worst, failures = 0.0, 0
            for seed in range(count):
                f, tensors = _build_away_from_kinks(builder, name, seed)
                result = ad.grad_check(f, tensors, h=h, tol=tol)
                worst = max(worst, result.max_rel_error)
                failures += sum(failed for *_, failed in result.entries)
            report.entries.append((name, worst, count, failures))
    report.elapsed_seconds = time.perf_counter() - start
    return report
