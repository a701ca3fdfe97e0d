"""Finite-difference verification suite covering every differentiable op,
the composite layers, all three loss terms, and a small end-to-end model.

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


def _probe(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape)


def _scalarize(out: Tensor, r: np.ndarray) -> Tensor:
    return ad.tensor_sum(ad.mul(out, r))


# every builder takes a dedicated rng and returns (f, tensors_to_check);
# f rebuilds the forward graph each call
def _check_add(rng):
    x, y, r = _leaf(rng, 3, 4), _leaf(rng, 3, 4), _probe(rng, (3, 4))
    return lambda: _scalarize(ad.add(x, y), r), [x, y]


def _check_add_broadcast(rng):
    x, y, r = _leaf(rng, 3, 4), _leaf(rng, 4), _probe(rng, (3, 4))
    return lambda: _scalarize(ad.add(x, y), r), [x, y]


def _check_sub(rng):
    x, y, r = _leaf(rng, 3, 4), _leaf(rng, 3, 4), _probe(rng, (3, 4))
    return lambda: _scalarize(ad.sub(x, y), r), [x, y]


def _check_mul(rng):
    x, y, r = _leaf(rng, 3, 4), _leaf(rng, 3, 4), _probe(rng, (3, 4))
    return lambda: _scalarize(ad.mul(x, y), r), [x, y]


def _check_matmul(rng):
    a, b, r = _leaf(rng, 3, 5), _leaf(rng, 5, 2), _probe(rng, (3, 2))
    return lambda: _scalarize(ad.matmul(a, b), r), [a, b]


def _check_matmul_batched(rng):
    a, b, r = _leaf(rng, 2, 3, 5), _leaf(rng, 2, 5, 2), _probe(rng, (2, 3, 2))
    return lambda: _scalarize(ad.matmul(a, b), r), [a, b]


def _check_exp(rng):
    x, r = _leaf(rng, 3, 4), _probe(rng, (3, 4))
    return lambda: _scalarize(ad.exp(x), r), [x]


def _check_sum(rng):
    x = _leaf(rng, 3, 4)
    return lambda: ad.tensor_sum(x), [x]


def _check_sum_axis(rng):
    x, r = _leaf(rng, 3, 4), _probe(rng, (4,))
    return lambda: _scalarize(ad.tensor_sum(x, axis=0), r), [x]


def _check_reshape(rng):
    x, r = _leaf(rng, 3, 4), _probe(rng, (12,))
    return lambda: _scalarize(ad.reshape(x, (12,)), r), [x]


def _check_transpose(rng):
    x, r = _leaf(rng, 3, 4), _probe(rng, (4, 3))
    return lambda: _scalarize(ad.transpose(x, (1, 0)), r), [x]


def _check_concat(rng):
    a, b, r = _leaf(rng, 2, 4), _leaf(rng, 3, 4), _probe(rng, (5, 4))
    return lambda: _scalarize(ad.concat([a, b], axis=0), r), [a, b]


def _check_stack(rng):
    a, b, r = _leaf(rng, 3, 4), _leaf(rng, 3, 4), _probe(rng, (2, 3, 4))
    return lambda: _scalarize(ad.stack([a, b], axis=0), r), [a, b]


def _check_index_slice(rng):
    x, r = _leaf(rng, 4, 4), _probe(rng, (2, 4))
    return lambda: _scalarize(x[1:3], r), [x]


def _check_index_fancy(rng):
    x, r = _leaf(rng, 5, 4), _probe(rng, (3, 4))
    idx = np.array([0, 2, 2])  # repeated index exercises gradient accumulation
    return lambda: _scalarize(x[idx], r), [x]


def _check_sigmoid(rng):
    x, r = _leaf(rng, 3, 4), _probe(rng, (3, 4))
    return lambda: _scalarize(ad.sigmoid(x), r), [x]


def _check_relu(rng):
    x, r = _leaf(rng, 3, 4), _probe(rng, (3, 4))
    return lambda: _scalarize(ad.relu(x), r), [x]


def _check_softmax(rng):
    x, r = _leaf(rng, 3, 4), _probe(rng, (3, 4))
    return lambda: _scalarize(ad.softmax(x, axis=-1), r), [x]


def _check_softmax_masked(rng):
    x, r = _leaf(rng, 4, 4), _probe(rng, (4, 4))
    m = ad.causal_mask(4)
    return lambda: _scalarize(ad.softmax(x, axis=-1, mask=m), r), [x]


def _check_log_softmax(rng):
    x, r = _leaf(rng, 3, 4), _probe(rng, (3, 4))
    return lambda: _scalarize(ad.log_softmax(x, axis=-1), r), [x]


def _check_layer_norm(rng):
    x, r = _leaf(rng, 3, 4), _probe(rng, (3, 4))
    gamma = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
    beta = _leaf(rng, 4)
    return lambda: _scalarize(ad.layer_norm(x, gamma, beta), r), [x, gamma, beta]


def _check_attention_core(rng):
    q, k, v = _leaf(rng, 3, 4), _leaf(rng, 5, 4), _leaf(rng, 5, 4)
    r = _probe(rng, (3, 4))
    return lambda: _scalarize(ad.multi_head_attention(q, k, v, 2), r), [q, k, v]


def _check_attention_core_masked(rng):
    q, k, v = _leaf(rng, 4, 4), _leaf(rng, 4, 4), _leaf(rng, 4, 4)
    r = _probe(rng, (4, 4))
    m = ad.causal_mask(4)
    return (lambda: _scalarize(ad.multi_head_attention(q, k, v, 2, mask=m), r),
            [q, k, v])


def _check_attention_core_batched_masked(rng):
    """[B, L, d] inputs: 4-D head layout, causal mask combined with key padding."""
    q, k, v = _leaf(rng, 2, 4, 4), _leaf(rng, 2, 4, 4), _leaf(rng, 2, 4, 4)
    r = _probe(rng, (2, 4, 4))
    m = ad.causal_mask(4)[None, None] & ad.padding_mask([4, 2], 4)[:, None, None, :]
    return (lambda: _scalarize(ad.multi_head_attention(q, k, v, 2, mask=m), r),
            [q, k, v])


def _check_linear(rng):
    lin = Linear(4, 3, rng)
    x, r = _leaf(rng, 2, 4), _probe(rng, (2, 3))
    return lambda: _scalarize(lin(x), r), [x, lin.weight, lin.bias]


def _check_linear_batched(rng):
    """A batched linear map, the one matmul node with a bias that ``Linear`` makes."""
    x, w, b = _leaf(rng, 2, 3, 5), _leaf(rng, 5, 4), _leaf(rng, 4)
    r = _probe(rng, (2, 3, 4))
    return lambda: _scalarize(ad.matmul(x, w, b), r), [x, w, b]


def _check_feed_forward(rng):
    ff = FeedForward(4, 6, rng)
    x, r = _leaf(rng, 2, 4), _probe(rng, (2, 4))
    return lambda: _scalarize(ff(x), r), [x] + ff.parameters()


def _check_layer_norm_module(rng):
    ln = LayerNorm(4)
    x, r = _leaf(rng, 2, 4), _probe(rng, (2, 4))
    return lambda: _scalarize(ln(x), r), [x] + ln.parameters()


def _check_attention_layer(rng):
    mha = MultiHeadAttention(4, 2, rng)
    x, r = _leaf(rng, 3, 4), _probe(rng, (3, 4))
    return lambda: _scalarize(mha(x, x, x), r), [x] + mha.parameters()


def _check_encoder_layer(rng):
    enc = EncoderLayer(4, 2, 8, rng)
    x, r = _leaf(rng, 3, 4), _probe(rng, (3, 4))
    return lambda: _scalarize(enc(x), r), [x] + enc.parameters()


def _check_decoder_layer(rng):
    dec = DecoderLayer(4, 2, 8, rng)
    x, mem, r = _leaf(rng, 3, 4), _leaf(rng, 5, 4), _probe(rng, (3, 4))
    m = ad.causal_mask(3)
    return lambda: _scalarize(dec(x, mem, m, None), r), [x, mem] + dec.parameters()


# the loss checks run on a padded batch of two pairs, the second one slot short
_LOSS_VALID = ad.padding_mask([3, 2], 3)


def _check_trailerness_loss(rng):
    s, gt = _leaf(rng, 2, 3), rng.random((2, 3))
    return lambda: batched_trailerness_loss(ad.sigmoid(s), gt, _LOSS_VALID), [s]


def _check_reconstruction_loss(rng):
    pred, targets = _leaf(rng, 2, 3, 4), _leaf(rng, 2, 3, 4)
    return lambda: batched_reconstruction_loss(pred, targets, _LOSS_VALID), [pred, targets]


def _check_kl_loss(rng):
    pred, targets = _leaf(rng, 2, 3, 4), _leaf(rng, 2, 3, 4)
    return lambda: batched_kl_loss(pred, targets, _LOSS_VALID), [pred, targets]


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


CHECKS = {
    "add": _check_add,
    "add_broadcast": _check_add_broadcast,
    "sub": _check_sub,
    "mul": _check_mul,
    "matmul": _check_matmul,
    "matmul_batched": _check_matmul_batched,
    "exp": _check_exp,
    "sum": _check_sum,
    "sum_axis": _check_sum_axis,
    "reshape": _check_reshape,
    "transpose": _check_transpose,
    "concat": _check_concat,
    "stack": _check_stack,
    "index_slice": _check_index_slice,
    "index_fancy": _check_index_fancy,
    "sigmoid": _check_sigmoid,
    "relu": _check_relu,
    "softmax": _check_softmax,
    "softmax_masked": _check_softmax_masked,
    "log_softmax": _check_log_softmax,
    "layer_norm": _check_layer_norm,
    "attention_core": _check_attention_core,
    "attention_core_masked": _check_attention_core_masked,
    "attention_core_batched_masked": _check_attention_core_batched_masked,
    "linear": _check_linear,
    "linear_batched": _check_linear_batched,
    "feed_forward": _check_feed_forward,
    "layer_norm_module": _check_layer_norm_module,
    "attention_layer": _check_attention_layer,
    # draws are keyed by name, so these keep the "_post" suffix and their numbers
    "encoder_layer_post": _check_encoder_layer,
    "decoder_layer_post": _check_decoder_layer,
    "trailerness_loss": _check_trailerness_loss,
    "reconstruction_loss": _check_reconstruction_loss,
    "kl_loss": _check_kl_loss,
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
