"""Training objectives: score regression, embedding reconstruction, and a
per-shot distributional KL term, combined into one weighted total.

Each loss takes a padded batch with a boolean validity mask, sums over a
pair's valid positions (not a mean, so longer sequences weigh more) and
averages those sums over the pairs.  Padded positions contribute exactly
zero to values and gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor, as_tensor


@dataclass(frozen=True)
class LossBreakdown:
    """Component values (unweighted) plus the weighted total actually optimized."""

    l_t: float
    l_rec: float
    l_kl: float
    total: float

    def as_dict(self) -> dict:
        return {"l_t": self.l_t, "l_rec": self.l_rec, "l_kl": self.l_kl, "total": self.total}


def total_loss(l_t, l_rec, l_kl, weights=(1.0, 1.0, 1.0)) -> tuple[Tensor, LossBreakdown]:
    """Weighted sum as a graph tensor plus a float breakdown for logging.

    A component passed as ``None`` (e.g. no trailerness encoder) counts as 0
    and stays out of the graph entirely.
    """
    w_t, w_rec, w_kl = (float(w) for w in weights)
    parts = []
    vals = []
    for tensor, weight in ((l_t, w_t), (l_rec, w_rec), (l_kl, w_kl)):
        if tensor is None:
            vals.append(0.0)
            continue
        tensor = as_tensor(tensor)
        vals.append(tensor.item())
        if weight != 0.0:
            parts.append(ad.mul(tensor, weight))
    if not parts:
        total = as_tensor(0.0)
    else:
        total = parts[0]
        for part in parts[1:]:
            total = ad.add(total, part)
    breakdown = LossBreakdown(vals[0], vals[1], vals[2], total.item())
    return total, breakdown


def _pair_mean(per_position: Tensor, valid: np.ndarray) -> Tensor:
    """Sum each pair's valid positions of a [B, T] tensor, then average over pairs."""
    weighted = ad.mul(per_position, np.asarray(valid, dtype=np.float64))
    return ad.mul(ad.tensor_sum(weighted), 1.0 / per_position.shape[0])


def batched_trailerness_loss(pred: Tensor, gt: np.ndarray, valid: np.ndarray) -> Tensor:
    """Mean over pairs of the per-pair sum of squared score errors, over all
    framed positions (SOS/EOS included)."""
    if pred.shape != gt.shape:
        raise ShapeError(f"scores {pred.shape} vs targets {gt.shape}")
    diff = ad.sub(pred, gt)
    return _pair_mean(ad.mul(diff, diff), valid)


def batched_reconstruction_loss(pred: Tensor, targets: Tensor, row_valid: np.ndarray) -> Tensor:
    """Mean over pairs of the per-pair sum over target rows (trailer shots
    then EOS) of the squared L2 error."""
    if pred.shape != targets.shape:
        raise ShapeError(f"predictions {pred.shape} vs targets {targets.shape}")
    diff = ad.sub(pred, targets)
    return _pair_mean(ad.tensor_sum(ad.mul(diff, diff), axis=-1), row_valid)


def batched_kl_loss(pred: Tensor, targets: Tensor, row_valid: np.ndarray) -> Tensor:
    """Per-row KL over the d dimensions with softmax(target row) leading.

    Both rows pass through a softmax across the embedding dimensions, then
    the target distribution multiplies the log-ratio: zero exactly when the
    two rows induce equal distributions.  Summed and averaged as above.
    """
    if pred.shape != targets.shape:
        raise ShapeError(f"predictions {pred.shape} vs targets {targets.shape}")
    log_p = ad.log_softmax(targets, axis=-1)
    log_q = ad.log_softmax(pred, axis=-1)
    p = ad.exp(log_p)
    return _pair_mean(ad.tensor_sum(ad.mul(p, ad.sub(log_p, log_q)), axis=-1), row_valid)
