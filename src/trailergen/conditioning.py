"""Condition-vector support: extend the decoder's memory with external rows.

Condition inputs (e.g. embedded plot summaries) arrive through the standard
sequence file format with role "condition".  They are appended to the
context sequence as extra cross-attention keys, either as-is ("encoded") or
after one extra self-attention layer ("contextualized").
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor


def augment_context(memory: Tensor, cond: Tensor | None, mode: str,
                    projection=None, extra_layer=None,
                    memory_valid: np.ndarray | None = None,
                    cond_valid: np.ndarray | None = None):
    """Row-concatenate condition vectors onto the context memory.

    ``memory`` [B, L, d] and ``cond`` [B, Lc, dc] come with their validity
    masks; returns the merged memory and its mask.  An absent or empty
    condition returns ``memory`` untouched, so an unconditioned forward pass
    and a conditioned one with no condition rows are identical.
    """
    if mode not in ("encoded", "contextualized"):
        raise ValueError(f"unknown condition mode {mode!r}")
    if cond is None or cond.shape[-2] == 0:
        return memory, memory_valid
    if memory.ndim != 3 or cond.ndim != 3:
        raise ShapeError(f"memory and condition must be [B, L, d] batches, "
                         f"got ranks {memory.ndim} and {cond.ndim}")
    if memory_valid is None or cond_valid is None:
        raise ShapeError("condition augmentation needs both validity masks")

    if projection is not None:
        cond = projection(cond)
    if cond.shape[-1] != memory.shape[-1]:
        raise ShapeError(
            f"condition width {cond.shape[-1]} does not match memory width {memory.shape[-1]}")

    if mode == "contextualized":
        if extra_layer is None:
            raise ValueError("contextualized mode needs its extra encoder layer")
        cond = extra_layer(cond, cond_valid[:, None, None, :])

    return ad.concat([memory, cond], axis=-2), np.concatenate([memory_valid, cond_valid], axis=1)
