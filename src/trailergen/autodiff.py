"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ndarray and, when it requires grad, a graph node.
Calling :meth:`Tensor.backward` on a scalar result walks the recorded
graph in reverse topological order and accumulates gradients into every
tensor that has ``requires_grad`` set.  The graph is made of nodes, not
tensors: a node holds its gradient, its parents' nodes and a closure that
maps its gradient onto theirs, and the closure keeps only the arrays its
backward reads (a ``matmul`` its operands, a ``relu`` its mask as bits, an
``add`` shapes only).  So an op output that no backward reads is freed in
the forward pass, as soon as the code that made it drops it.  The output of
a ``layer_norm``, of a ``matmul`` and of a ``relu`` of a recomputed input is
not kept even where a backward reads it: its node carries a ``recompute``
that re-runs the forward's own expressions on arrays the graph keeps anyway,
and the backwards that read it (``matmul``'s weight gradient,
``multi_head_attention``'s q/k/v) call that instead (rematerialization,
Chen et al. 2016).  No recompute runs more than one matrix product: a
``matmul`` gets none when its operand's recompute runs one.  So the graph of
a transformer layer holds no layer-norm outputs, no q/k/v and no
feed-forward hidden rows.

Conventions used throughout the package:

* float32 is the working precision for training; verification code runs
  under ``precision("float64")``.
* Every primitive checks its output for NaN/Inf and raises
  ``NonFiniteError`` immediately, so numerical blowups surface at the op
  that produced them rather than three modules later.
* Attention masks are boolean arrays (True = attend).  ``softmax`` and the
  fused ``multi_head_attention`` turn a mask into an additive 0/-inf bias
  of the mask's own shape, so masked positions get exactly zero weight;
  -inf never reaches a tensor's data.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "Module",
    "ShapeError",
    "ConfigurationError",
    "DomainError",
    "NonFiniteError",
    "as_tensor",
    "default_dtype",
    "set_default_dtype",
    "precision",
    "no_grad",
    "grad_enabled",
    "set_finite_checks",
    "add",
    "sub",
    "mul",
    "exp",
    "matmul",
    "tensor_sum",
    "reshape",
    "transpose",
    "concat",
    "stack",
    "sigmoid",
    "relu",
    "softmax",
    "log_softmax",
    "layer_norm",
    "causal_mask",
    "padding_mask",
    "multi_head_attention",
    "grad_check",
    "GradCheckReport",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class ConfigurationError(ValueError):
    """A configuration value is structurally invalid (e.g. heads not dividing d)."""


class DomainError(ValueError):
    """An input is outside an operation's mathematical domain."""


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


# --------------------------------------------------------------------------
# global numeric state: default dtype, grad recording, finite checking
# --------------------------------------------------------------------------

_default_dtype = np.dtype(np.float32)
_grad_enabled = True
_finite_checks = True


def default_dtype() -> np.dtype:
    """Return the dtype new leaf tensors are created with."""
    return _default_dtype


def set_default_dtype(dtype) -> np.dtype:
    """Set the default dtype; returns the previous one."""
    global _default_dtype
    old = _default_dtype
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ConfigurationError(f"unsupported dtype {dt}; use float32 or float64")
    _default_dtype = dt
    return old


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the default dtype, e.g. ``with precision('float64'): ...``."""
    old = set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(old)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / finite differences)."""
    global _grad_enabled
    old = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = old


def grad_enabled() -> bool:
    """Whether new ops record a graph (False inside ``no_grad``)."""
    return _grad_enabled


def set_finite_checks(enabled: bool) -> bool:
    """Toggle per-op NaN/Inf checking; returns the previous setting."""
    global _finite_checks
    old = _finite_checks
    _finite_checks = bool(enabled)
    return old


_kink_watch: list | None = None


@contextlib.contextmanager
def watch_kinks():
    """Collect, for every relu evaluated in the block, the distance of its
    nearest input to the kink at 0.

    Finite-difference gradient checks are only meaningful where the function
    is differentiable; callers use this to redraw inputs that land too close
    to the kink (where a central difference measures a subgradient average).
    """
    global _kink_watch
    old = _kink_watch
    _kink_watch = gaps = []
    try:
        yield gaps
    finally:
        _kink_watch = old


def _check_finite(arr: np.ndarray, op: str) -> None:
    if _finite_checks and not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by '{op}'")


def _sum_to_shape(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the shape of the original operand."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class _Node:
    """A tensor's place in the graph: its gradient, its parents' nodes and
    the closure that maps its gradient onto theirs.  A leaf has no parents
    and no closure; a node that a backward walk has passed has ``parents``
    None.  ``shape`` and ``dtype`` are the tensor's.  ``recompute``, when
    set, returns the tensor's data anew, bit for bit, so a backward that
    reads the data need not keep it (see ``_keep``); ``runs_product`` says
    whether it runs a matrix product."""

    __slots__ = ("grad", "parents", "backward_fn", "shape", "dtype", "recompute",
                 "runs_product")

    def __init__(self, shape: tuple, dtype: np.dtype, parents: tuple = (), backward_fn=None):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.shape = shape
        self.dtype = dtype
        self.recompute = None
        self.runs_product = False

    def accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` into the gradient.

        The first gradient is copied, not kept: ops hand the same array (or
        views of it) to several parents, and later ones add in place.  An op
        passes ``fresh`` for an array it built for this node alone and keeps
        no reference to; one of the node's shape and dtype is kept as it is.
        """
        if self.grad is None:
            if g.shape == self.shape:
                if fresh and g.dtype == self.dtype:
                    self.grad = g
                else:
                    self.grad = np.array(g, dtype=self.dtype, copy=True)
                return
            self.grad = np.zeros(self.shape, self.dtype)
        self.grad += g


class Tensor:
    """An ndarray and, when it requires grad, its node in the graph."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else _default_dtype)
        self._node = (_Node(self.data.shape, self.data.dtype)
                      if requires_grad and _grad_enabled else None)

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value) -> None:
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise ValueError("a tensor that does not require grad holds no gradient")

    # -- array-ish accessors ------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out._node = None
        return out

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"

    # -- gradient machinery ---------------------------------------------------

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Without an explicit ``grad`` the tensor must be scalar; an explicit
        ``grad`` must have the tensor's shape.  The graph is walked
        iteratively (no recursion limit issues on long autoregressive chains)
        and released as the walk goes: each node drops its parents, backward
        closure and recompute, and with them the arrays they saved, when the
        walk reaches it, and drops its gradient once its backward has read
        it.  Every backward that calls a node's recompute belongs to a node
        the walk reaches first.  Only the root's and the leaves' gradients
        remain.  A released graph cannot be walked again: a walk that reaches
        a node an earlier walk released raises ``ValueError`` before any
        gradient moves.
        """
        root = self._node
        if root is None:
            raise ValueError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.shape:
                raise ShapeError(f"backward() gradient of shape {grad.shape} for a "
                                 f"tensor of shape {self.shape}")

        # iterative post-order DFS
        order: list[_Node] = []
        visited: set[_Node] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in visited:
                continue
            if node.parents is None:
                raise ValueError("backward() through a graph that an earlier "
                                 "backward() released")
            visited.add(node)
            stack.append((node, True))
            for p in node.parents:
                if p not in visited:
                    stack.append((p, False))

        root.accumulate(grad)
        # popped in reverse topological order, so the walk holds no node it has
        # passed: one that nothing else references is freed there and then
        while order:
            node = order.pop()
            backward_fn = node.backward_fn
            if backward_fn is None:
                continue  # a leaf keeps its gradient
            node.backward_fn = None
            node.parents = None
            node.recompute = None
            backward_fn(node.grad)
            if node is not root:
                node.grad = None

    def __getitem__(self, idx):
        return _getitem(self, idx)


class Parameter(Tensor):
    """A trainable leaf tensor; ``name`` is filled in by ``Module.named_parameters``."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = "", dtype=None):
        super().__init__(data, dtype=dtype)
        # a node even under no_grad: parameters stay trainable
        self._node = _Node(self.data.shape, self.data.dtype)
        self.name = name


class Module:
    """Minimal container: walks attributes to find parameters and submodules."""

    def named_parameters(self, prefix: str = ""):
        """Yield ``(path, Parameter)`` pairs in deterministic attribute order."""
        for attr, value in vars(self).items():
            path = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                value.name = path
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        item.name = f"{path}.{i}"
                        yield f"{path}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{path}.{i}.")

    def parameters(self) -> list:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
            else:
                p.grad.fill(0.0)

def as_tensor(value) -> Tensor:
    """Wrap a value as a constant Tensor (pass-through if already a Tensor)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _pair(a, b) -> tuple:
    """Coerce a binary op's operands; plain scalars/arrays adopt the tensor
    operand's dtype so float64 graphs are never polluted by float32 constants."""
    a_is, b_is = isinstance(a, Tensor), isinstance(b, Tensor)
    if a_is and not b_is:
        return a, Tensor(b, dtype=a.dtype)
    if b_is and not a_is:
        return Tensor(a, dtype=b.dtype), b
    return as_tensor(a), as_tensor(b)


def _make(data: np.ndarray, parents: tuple, backward_fn, op: str) -> Tensor:
    """Build an op result, recording the graph only when a parent needs grad.

    ``backward_fn`` maps the result's gradient onto the nodes of the parents
    that need one.  It holds those nodes and the arrays it reads, never the
    parent tensors, so the graph keeps no array that no backward reads.
    """
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out._node = None
    if _grad_enabled:
        nodes = tuple(p._node for p in parents if p._node is not None)
        if nodes:
            out._node = _Node(data.shape, data.dtype, nodes, backward_fn)
    return out


def _keep(t: Tensor):
    """A function that returns ``t``'s data, for a backward that reads it:
    the node's recompute when it has one, so the graph keeps no array."""
    node = t._node
    if node is not None and node.recompute is not None:
        return node.recompute
    data = t.data
    return lambda: data


# --------------------------------------------------------------------------
# primitive operations
# --------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data + b.data
    na, nb = a._node, b._node

    def backward(g):
        if na is not None:
            na.accumulate(_sum_to_shape(g, na.shape))
        if nb is not None:
            nb.accumulate(_sum_to_shape(g, nb.shape))

    return _make(data, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data - b.data
    na, nb = a._node, b._node

    def backward(g):
        if na is not None:
            na.accumulate(_sum_to_shape(g, na.shape))
        if nb is not None:
            nb.accumulate(_sum_to_shape(-g, nb.shape))

    return _make(data, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data * b.data
    na, nb = a._node, b._node
    x, y = a.data, b.data

    def backward(g):
        if na is not None:
            na.accumulate(_sum_to_shape(g * y, na.shape))
        if nb is not None:
            nb.accumulate(_sum_to_shape(g * x, nb.shape))

    return _make(data, (a, b), backward, "mul")


def exp(a) -> Tensor:
    a = as_tensor(a)
    na = a._node
    data = np.exp(a.data)

    def backward(g):
        na.accumulate(g * data)

    return _make(data, (a,), backward, "exp")


def _affine(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """``x @ w`` with ``bias`` added in place into the fresh product (or
    out of place when the sum would widen its dtype)."""
    data = x @ w
    if bias is not None:
        if np.result_type(data, bias) == data.dtype:
            data += bias
        else:
            data = data + bias
    return data


def matmul(a, b, bias=None) -> Tensor:
    """Batched matrix product plus an optional ``bias`` row added to every
    row of it; both operands must be at least 2-D.

    The bias is added in place into the fresh product, so a linear map is
    one graph node that keeps no pre-bias product alive, with the bits and
    the dtype that ``add(matmul(a, b), bias)`` would give.  Unless ``a``'s
    recompute runs a product itself, the node's recompute re-runs the
    product from the operands its backward keeps.
    """
    a, b = _pair(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires 2-D+ operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    operands = (a, b)
    nbias = bias_data = None
    if bias is not None:
        if not isinstance(bias, Tensor):
            bias = Tensor(bias, dtype=np.result_type(a.data, b.data))
        if bias.shape != b.shape[-1:]:
            raise ShapeError(f"matmul bias of shape {bias.shape} for a product of "
                             f"{a.shape} @ {b.shape}")
        operands = (a, b, bias)
        nbias, bias_data = bias._node, bias.data
    w = b.data
    data = _affine(a.data, w, bias_data)
    na, nb = a._node, b._node
    x = None

    def backward(g):
        # both products are fresh arrays that only their operand receives
        if na is not None:
            na.accumulate(_sum_to_shape(g @ w.swapaxes(-1, -2), na.shape), fresh=True)
        if nb is not None:
            nb.accumulate(_sum_to_shape(x().swapaxes(-1, -2) @ g, nb.shape), fresh=True)
        if nbias is not None:
            nbias.accumulate(_sum_to_shape(g, nbias.shape))

    out = _make(data, operands, backward, "matmul")
    if out._node is not None:
        x = _keep(a)
        # no recompute runs more than one product (a chain would recompute
        # the chain), so the product of an operand whose recompute runs one
        # gets none
        if na is None or not na.runs_product:
            out._node.recompute = lambda: _affine(x(), w, bias_data)
            out._node.runs_product = True
    return out


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    na = a._node

    def backward(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        na.accumulate(np.broadcast_to(gg, na.shape).astype(na.dtype, copy=False))

    return _make(data, (a,), backward, "sum")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)
    na = a._node

    def backward(g):
        na.accumulate(g.reshape(na.shape))

    return _make(data, (a,), backward, "reshape")


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    data = a.data.transpose(axes)
    inverse = tuple(np.argsort(axes))
    na = a._node

    def backward(g):
        na.accumulate(g.transpose(inverse))

    return _make(data, (a,), backward, "transpose")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    nodes = [t._node for t in tensors]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        for node, piece in zip(nodes, pieces):
            if node is not None:
                node.accumulate(piece)

    return _make(data, tuple(tensors), backward, "concat")


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("stack of an empty sequence")
    data = np.stack([t.data for t in tensors], axis=axis)
    nodes = [t._node for t in tensors]

    def backward(g):
        for i, node in enumerate(nodes):
            if node is not None:
                node.accumulate(np.take(g, i, axis=axis))

    return _make(data, tuple(tensors), backward, "stack")


def _getitem(a: Tensor, idx) -> Tensor:
    data = a.data[idx]
    na = a._node

    def backward(g):
        buf = np.zeros(na.shape, na.dtype)
        np.add.at(buf, idx, g)
        na.accumulate(buf, fresh=True)

    return _make(data, (a,), backward, "getitem")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    na = a._node
    x = a.data
    # split by sign to stay stable for large |x|
    e = np.exp(-np.abs(x))
    data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        na.accumulate(g * data * (1.0 - data))

    return _make(data, (a,), backward, "sigmoid")


def relu(a) -> Tensor:
    a = as_tensor(a)
    na = a._node
    if _kink_watch is not None and a.data.size:
        _kink_watch.append(float(np.abs(a.data).min()))
    data = np.maximum(a.data, 0)
    mask = None

    def backward(g):
        keep = np.unpackbits(mask, count=g.size).view(bool).reshape(g.shape)
        na.accumulate(g * keep, fresh=True)

    out = _make(data, (a,), backward, "relu")
    if out._node is not None:
        # data > 0 exactly where the input is, so neither need be kept: the
        # mask is kept as bits, one per entry
        mask = np.packbits(data > 0)
        if na.recompute is not None:
            pre = na.recompute
            out._node.recompute = lambda: np.maximum(pre(), 0)
            out._node.runs_product = na.runs_product
    return out


def _mask_bias(mask, shape: tuple, axis: int, dtype) -> np.ndarray:
    """Additive bias for a boolean mask (True = keep): 0 where kept, -inf where
    masked, in the mask's own broadcast shape rather than the full ``shape``.

    Raises ``ShapeError`` when the mask would enlarge ``shape`` or leaves a
    row along ``axis`` with nothing to attend to.
    """
    m = np.asarray(mask, dtype=bool)
    if np.broadcast_shapes(m.shape, shape) != tuple(shape):
        raise ShapeError(f"mask of shape {m.shape} does not broadcast to {shape}")
    m = m.reshape((1,) * (len(shape) - m.ndim) + m.shape)
    if not m.any(axis=axis).all():
        raise ShapeError("softmax mask leaves at least one row fully masked")
    bias = np.zeros(m.shape, dtype=dtype)
    bias[~m] = -np.inf
    return bias


def _softmax_inplace(z: np.ndarray, axis: int, stats: tuple | None = None) -> tuple:
    """Overwrite ``z`` with its softmax along ``axis`` and return the
    ``(max, sum)`` the softmax used; -inf entries become exactly 0, and every
    row must hold at least one finite entry.

    Given the ``stats`` an earlier call returned for the same ``z``, the call
    uses them in place of new reductions and writes that call's exact bits.
    """
    if stats is None:
        # a max is exact in any order, so gathering at the argmax gives the
        # bits of ``z.max`` with a cheaper per-row reduction
        hi = np.take_along_axis(z, z.argmax(axis, keepdims=True), axis)
        total = None
    else:
        hi, total = stats
    z -= hi
    np.exp(z, out=z)
    if total is None:
        total = z.sum(axis=axis, keepdims=True)
    z /= total
    return hi, total


def softmax(a, axis: int = -1, mask: np.ndarray | None = None) -> Tensor:
    """Numerically stable softmax; masked entries (mask False) get exactly zero weight.

    The mask is applied before normalisation, so unmasked entries renormalise
    over the visible set, as if -inf were added to the masked logits.
    """
    a = as_tensor(a)
    na = a._node
    data = (a.data.copy() if mask is None
            else a.data + _mask_bias(mask, a.shape, axis, a.dtype))
    _softmax_inplace(data, axis)

    def backward(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        na.accumulate(data * (g - inner))

    return _make(data, (a,), backward, "softmax")


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    na = a._node
    z = a.data
    hi = z.max(axis=axis, keepdims=True)
    shifted = z - hi
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    soft = np.exp(data)

    def backward(g):
        na.accumulate(g - soft * g.sum(axis=axis, keepdims=True))

    return _make(data, (a,), backward, "log_softmax")


def layer_norm(a, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalise over the last axis to zero mean / unit variance, then scale and shift.

    The backward keeps the normalised values, and the node's recompute
    scales and shifts them again with the forward's own expression, so the
    graph keeps no output.
    """
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    d = a.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm scale/shift must have shape ({d},)")
    na, ngamma, nbeta = a._node, gamma._node, beta._node
    scale, shift = gamma.data, beta.data
    # sum / d gives .mean's bits without its Python-level wrapper
    mu = a.data.sum(axis=-1, keepdims=True) / d
    centered = a.data - mu
    var = (centered ** 2).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    normed = centered * inv
    data = scale * normed + shift

    def backward(g):
        if na is not None:
            gy = g * scale
            term = gy.sum(axis=-1, keepdims=True) / d
            proj = (gy * normed).sum(axis=-1, keepdims=True) / d
            na.accumulate(inv * (gy - term - normed * proj))
        if ngamma is not None:
            ngamma.accumulate(_sum_to_shape(g * normed, ngamma.shape))
        if nbeta is not None:
            nbeta.accumulate(_sum_to_shape(g, nbeta.shape))

    out = _make(data, (a, gamma, beta), backward, "layer_norm")
    if out._node is not None:
        out._node.recompute = lambda: scale * normed + shift
    return out


# --------------------------------------------------------------------------
# attention and masks
# --------------------------------------------------------------------------


def causal_mask(length: int) -> np.ndarray:
    """Boolean [L, L] mask, True at (i, j) iff j <= i."""
    return np.tril(np.ones((length, length), dtype=bool))


def padding_mask(lengths, max_len: int) -> np.ndarray:
    """Boolean [B, max_len] key-validity mask from per-sequence lengths."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if np.any(lengths > max_len) or np.any(lengths < 0):
        raise ShapeError(f"lengths {lengths} out of range for max_len={max_len}")
    return np.arange(max_len)[None, :] < lengths[:, None]


# Attention runs over blocks of rows of the leading (batch) axis whose
# [..., H, L_q, L_k] scores take at most this many bytes (or one row, if a row
# takes more), and backward recomputes each block's weights rather than
# keeping them.  Large enough that a block's arithmetic outweighs its Python
# overhead (one desk batch row at L 202 is 0.65 MB of float32 scores), small
# enough that a block's scores and their gradient stay within a 2 MiB L2
# cache.  Scores that fit take one block.
_ATTENTION_BLOCK_BYTES = 1 << 20


def _attention_weights(qh, kh, bias, scale, stats=None) -> tuple:
    """One block's attention weights and the ``(max, sum)`` of their softmax.

    Forward checks the scores and computes the stats; backward hands them
    back, so the weights it recomputes are the forward's to the bit.
    """
    weights = qh @ kh.swapaxes(-1, -2)
    weights *= scale
    if stats is None:
        _check_finite(weights, "attention_scores")
    if bias is not None:
        weights += bias
    return weights, _softmax_inplace(weights, -1, stats)


def multi_head_attention(q, k, v, num_heads: int, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention with head splitting, as one graph node.

    ``q`` is [..., L_q, d]; ``k``/``v`` are [..., L_k, d] with the same
    leading axes.  ``mask`` must broadcast against the score shape
    ([..., H, L_q, L_k]); True means the query may attend to the key.
    Projections live in the calling layer; this routine is purely the
    attention core.  Heads are strided views of the d-wide rows, never
    copies: each [L, dk] head slice has unit column stride and row stride
    d, which numpy's matmul hands to BLAS as it is, so ``q``/``k``/``v``
    may themselves be views, such as the filled rows of a decode cache.
    Forward and backward run over one block plan: the whole call when its
    scores fit in ``_ATTENTION_BLOCK_BYTES`` or there is no leading axis to
    cut, else blocks of rows of the first leading axis whose scores fit (one
    row, if a row takes more).  Every block writes its rows into the
    head-split view of one output array.  The graph keeps no
    [..., H, L_q, L_k] array: forward keeps each row's softmax max and sum
    ([..., H, L_q, 1] each), and backward recomputes each block's weights
    from them with the forward's own operations, so they are bit-identical
    (FlashAttention's recompute, Dao et al. 2022).  Nor does it keep ``q``,
    ``k`` or ``v`` when their nodes can recompute them: backward reads them
    through ``_keep``.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    d = q.shape[-1]
    if d % num_heads != 0:
        raise ConfigurationError(f"model width {d} not divisible by {num_heads} heads")
    if (q.ndim < 2 or k.shape[-1] != d or v.shape[-1] != d or k.shape[-2] != v.shape[-2]
            or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]):
        raise ShapeError(f"attention operand shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    dk = d // num_heads
    scale = 1.0 / math.sqrt(dk)

    def split(x: np.ndarray) -> np.ndarray:  # [..., L, d] -> [..., H, L, dk] view
        return x.reshape(x.shape[:-1] + (num_heads, dk)).swapaxes(-2, -3)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores_shape = qh.shape[:-1] + kh.shape[-2:-1]
    bias = None if mask is None else _mask_bias(mask, scores_shape, -1, qh.dtype)
    rows = scores_shape[0] if qh.ndim > 3 else 1
    scores_bytes = qh.size // dk * scores_shape[-1] * qh.itemsize
    blocks = [slice(None)]  # scores that fit, or no batch axis to cut
    if rows > 1 and scores_bytes > _ATTENTION_BLOCK_BYTES:
        per_block = max(1, _ATTENTION_BLOCK_BYTES * rows // scores_bytes)
        blocks = [slice(i, i + per_block) for i in range(0, rows, per_block)]

    def bias_rows(block):  # a mask row that every row shares is not sliced
        return bias if bias is None or bias.shape[0] == 1 else bias[block]

    data = np.empty(q.shape, np.result_type(qh, kh, vh))
    out, stats = split(data), []
    for block in blocks:
        weights, block_stats = _attention_weights(qh[block], kh[block],
                                                  bias_rows(block), scale)
        out[block] = weights @ vh[block]
        stats.append(block_stats)
    del weights

    # v, q, k: the order in which the gradients reach a shared operand
    nodes = (v._node, q._node, k._node)
    kept = None

    def backward(g):
        qh, kh, vh = (split(read()) for read in kept)
        gh, oh = split(g), split(data)
        grads = [None if node is None else np.empty(node.shape, data.dtype)
                 for node in nodes]
        gv, gq, gk = (None if grad is None else split(grad) for grad in grads)
        for block, block_stats in zip(blocks, stats):
            weights, _ = _attention_weights(qh[block], kh[block], bias_rows(block),
                                            scale, block_stats)
            g_block = gh[block]
            if gv is not None:
                gv[block] = weights.swapaxes(-1, -2) @ g_block
            # dS = P * (dP - D), folded with the score scale, where
            # D = rowsum(dP * P) = rowsum(dO * O) sums over dk, not over L_k
            ds = g_block @ vh[block].swapaxes(-1, -2)
            ds -= (g_block * oh[block]).sum(axis=-1, keepdims=True)
            ds *= weights
            ds *= scale
            if gq is not None:
                gq[block] = ds @ kh[block]
            if gk is not None:
                gk[block] = ds.swapaxes(-1, -2) @ qh[block]
        # each buffer is fresh and goes to one node
        for node, grad in zip(nodes, grads):
            if grad is not None:
                node.accumulate(grad, fresh=True)

    out = _make(data, (q, k, v), backward, "attention")
    if out._node is not None:
        kept = (_keep(q), _keep(k), _keep(v))
    return out


# --------------------------------------------------------------------------
# gradient checking
# --------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    """Finite-difference results as ``(name, max_rel_error, checked, failures)``
    entries.  ``grad_check`` makes one entry per tensor, where ``checked``
    counts its entries; ``gradcheck.gradcheck_suite`` makes one per named
    check, where ``checked`` counts the seeds it ran."""

    entries: list = field(default_factory=list)
    tolerance: float = 1e-4
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(failures == 0 for *_, failures in self.entries)

    @property
    def max_rel_error(self) -> float:
        return max((error for _, error, _, _ in self.entries), default=0.0)

    def table(self) -> str:
        """The suite's table: one row per check, then the overall verdict."""
        width = max((len(name) for name, *_ in self.entries), default=4)
        lines = [f"{'check'.ljust(width)}  status  max_rel_error  seeds"]
        for name, error, checked, failures in self.entries:
            status = "PASS" if failures == 0 else "FAIL"
            lines.append(f"{name.ljust(width)}  {status}    {error:.3e}      {checked}")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"overall: {verdict} (max_rel_error={self.max_rel_error:.3e}, "
                     f"tol={self.tolerance:.1e}, {self.elapsed_seconds:.1f}s)")
        return "\n".join(lines)


def grad_check(f, tensors, h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of scalar ``f()`` against central differences.

    ``f`` must rebuild its forward pass on every call (it is re-evaluated with
    perturbed inputs).  All checked tensors must be float64; relative error is
    ``|analytic - numeric| / max(1, |analytic|)`` per entry, and a non-finite
    one counts as ``inf``, a failure at any tolerance.
    """
    if not (1e-6 <= h <= 1e-4):
        raise ConfigurationError(f"step size h={h} outside [1e-6, 1e-4]")
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigurationError(f"tolerance tol={tol} must be finite and > 0")
    tensors = list(tensors)
    names = [getattr(t, "name", "") or f"tensor{i}" for i, t in enumerate(tensors)]
    for t in tensors:
        if t.dtype != np.float64:
            raise ConfigurationError("grad_check requires float64 tensors; "
                                     "build the model under precision('float64')")
        if not t.requires_grad:
            raise ValueError("grad_check received a tensor with requires_grad=False")

    for t in tensors:
        t.grad = None
    loss = f()
    if loss.size != 1:
        raise ShapeError("grad_check objective must be scalar")
    if not np.isfinite(loss.data).all():
        raise NonFiniteError("objective is non-finite at the evaluation point")
    loss.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]

    report = GradCheckReport(tolerance=tol)
    with no_grad():
        for t, a, name in zip(tensors, analytic, names):
            t.data = np.ascontiguousarray(t.data)
            flat = t.data.reshape(-1)
            worst = 0.0
            failed = 0
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = f().data.item()
                flat[i] = keep - h
                down = f().data.item()
                flat[i] = keep
                numeric = (up - down) / (2.0 * h)
                ref = a.reshape(-1)[i]
                rel = abs(ref - numeric) / max(1.0, abs(ref))
                if not math.isfinite(rel):
                    rel = math.inf  # NaN compares false with the tolerance
                worst = max(worst, rel)
                failed += rel > tol
            report.entries.append((name, worst, flat.size, failed))
    return report
