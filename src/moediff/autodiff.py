"""Minimal reverse-mode automatic differentiation on numpy arrays.

A ``Tensor`` wraps an ``ndarray`` and records the operations applied to it;
``Tensor.backward()`` walks the recorded graph in reverse topological order
and accumulates gradients into every tensor created with
``requires_grad=True``.  The op set is intentionally small: exactly what the
models in this package need (dense layers, block-wise multi-head
``attention``, normalization, softmax heads, squared/cross-entropy losses).

Constants take the tensor's dtype: when one operand of ``add``, ``sub``,
``mul``, ``div`` or ``matmul`` is a ``Tensor`` and the other is not (a
Python or NumPy scalar, or an ndarray), the other is converted to the
tensor's floating dtype before the op.  Without this rule NumPy 2 would
treat a 0-d float64 constant as a strong operand and promote a float32
graph to float64.  So a model built from float64 parameters runs end to
end in float64 (used by the gradient-check tests) and a float32 model,
the training default, stays in float32.

Gradients do not flow through integer indices (``take_rows``), so hard
selections made outside the graph are stop-gradients by construction.
"""

from __future__ import annotations

import contextvars
from typing import Iterable, Sequence

import numpy as np

# Number of open ``no_grad`` contexts.  A context variable keeps it per
# thread (and per asyncio task), and counting rather than saving and
# restoring a flag makes exits in any order end with recording back on.
_NO_GRAD_DEPTH = contextvars.ContextVar("moediff_no_grad_depth", default=0)


class no_grad:
    """Disable graph recording inside the context (evaluation mode)."""

    def __enter__(self):
        _NO_GRAD_DEPTH.set(_NO_GRAD_DEPTH.get() + 1)

    def __exit__(self, *exc):
        _NO_GRAD_DEPTH.set(_NO_GRAD_DEPTH.get() - 1)


def grad_enabled() -> bool:
    return _NO_GRAD_DEPTH.get() == 0


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")
    # NumPy operators defer to the reflected Tensor ones (``ndarray * t``
    # calls ``t.__rmul__``), so the constant rule holds on either side.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    # -- graph mechanics ----------------------------------------------------

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor (must be scalar unless grad given)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
            else:
                stack.append((node, True))
                for p in node._parents:
                    if id(p) not in seen:
                        stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.asarray(grad, dtype=self.data.dtype)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


def parameter(data, dtype=None) -> Tensor:
    arr = np.array(data, dtype=dtype if dtype is not None else np.asarray(data).dtype)
    return Tensor(arr, requires_grad=True)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Wrap a binary op's operands; a non-Tensor operand takes the other
    operand's dtype when that is a floating one."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor) and a.dtype.kind == "f":
        return a, Tensor(np.asarray(b, dtype=a.dtype))
    if isinstance(b, Tensor) and not isinstance(a, Tensor) and b.dtype.kind == "f":
        return Tensor(np.asarray(a, dtype=b.dtype)), b
    return as_tensor(a), as_tensor(b)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce gradient g back to the given (possibly broadcast) shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _make(data, parents, backward) -> Tensor:
    if not _NO_GRAD_DEPTH.get() and any(p.requires_grad or p._parents for p in parents):
        return Tensor(data, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


# -- elementwise arithmetic ---------------------------------------------------


def _binary(op, a, b, grad_a, grad_b) -> Tensor:
    """Record ``op(a, b)``.  ``grad_a(g, x, y)``/``grad_b`` run only for an
    operand that needs a gradient: a parameter or a recorded op's output."""
    a, b = _operands(a, b)
    return _make(op(a.data, b.data), (a, b), lambda g: (
        _unbroadcast(grad_a(g, a.data, b.data), a.data.shape) if a.requires_grad or a._parents else None,
        _unbroadcast(grad_b(g, a.data, b.data), b.data.shape) if b.requires_grad or b._parents else None,
    ))


def add(a, b) -> Tensor:
    return _binary(np.add, a, b, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(np.subtract, a, b, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(np.multiply, a, b, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary(np.divide, a, b, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def matmul(a, b) -> Tensor:
    a, b = _operands(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    return _binary(np.matmul, a, b, lambda g, x, y: g @ np.swapaxes(y, -1, -2),
                   lambda g, x, y: np.swapaxes(x, -1, -2) @ g)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)
    return _make(out, (a,), lambda g: (g / a.data,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a) -> Tensor:
    return clamp_min(a, 0.0)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(a) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    a = as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def backward(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        return (g * dx,)

    return _make(out, (a,), backward)


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor); gradient passes only where a > floor."""
    a = as_tensor(a)
    out = np.maximum(a.data, floor)
    return _make(out, (a,), lambda g: (g * (a.data > floor),))


# -- reductions ---------------------------------------------------------------


def _spread(g, shape, axis, keepdims) -> np.ndarray:
    """A reduction's output gradient, broadcast back over the input shape."""
    g = np.asarray(g)
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    return _make(out, (a,), lambda g: (_spread(g, a.data.shape, axis, keepdims).copy(),))


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.shape[axis]
    return _make(out, (a,), lambda g: (_spread(g, a.data.shape, axis, keepdims) / count,))


# -- shape ops ----------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g: (g.reshape(a.data.shape),))


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(ts), backward)


def take(a, key) -> Tensor:
    """Indexing; gradients scatter-add back into the source."""
    a = as_tensor(a)
    out = a.data[key]
    fancy = (isinstance(key, np.ndarray) and key.dtype.kind in "iu") or (
        isinstance(key, tuple) and any(isinstance(k, np.ndarray) for k in key)
    )

    def backward(g):
        ga = np.zeros_like(a.data)
        if fancy:
            np.add.at(ga, key, g)  # integer indices may repeat
        else:
            ga[key] += g
        return (ga,)

    return _make(out, (a,), backward)


def take_rows(a, indices: np.ndarray) -> Tensor:
    """Gather rows by integer index (indices carry no gradient)."""
    return take(a, np.asarray(indices, dtype=np.intp))


# -- fused neural-net primitives ----------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), backward)


_ATTENTION_BLOCK = 1 << 22  # most logits ``attention`` holds at once (16 MiB in float32)


def attention(q, k, v, heads: int, key_mask: np.ndarray | None = None) -> Tensor:
    """Exact multi-head scaled dot-product attention of (n, dim) query,
    key and value rows, in memory linear in n.

    Head h uses columns ``h*d:(h+1)*d``, ``d = dim // heads``.  Query rows
    run in blocks whose (heads, rows, n) logits stay under
    ``_ATTENTION_BLOCK`` elements; forward keeps each row's log-sum-exp and
    backward recomputes each block's softmax from it (Rabe & Staats, arXiv
    2112.05682).  ``key_mask`` (True = hidden) must leave a key visible.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    n, dim = q.shape
    d = dim // heads
    scale = q.dtype.type(1.0 / np.sqrt(d))
    qh, kh, vh = (np.ascontiguousarray(t.data.reshape(n, heads, d).transpose(1, 0, 2))
                  for t in (q, k, v))  # (heads, n, d)
    qh = qh * scale  # not in place: with one head, qh is q's own array
    rows = max(1, _ATTENTION_BLOCK // (heads * n))
    blocks = [slice(lo, lo + rows) for lo in range(0, n, rows)]

    def exp_logits(blk, shift):  # exp(q k^T - shift) over (heads, rows, n)
        s = qh[:, blk] @ kh.transpose(0, 2, 1)
        if key_mask is not None:
            s[:, :, key_mask] = -np.inf
        if shift is None:
            shift = s.max(axis=-1, keepdims=True)
        s -= shift
        return np.exp(s, out=s), shift

    out, lse = np.empty_like(qh), np.empty((heads, n, 1), qh.dtype)
    for blk in blocks:
        p, top = exp_logits(blk, None)
        total = p.sum(axis=-1, keepdims=True)
        out[:, blk] = p @ vh / total
        lse[:, blk] = top + np.log(total)

    def backward(g):
        gh = np.ascontiguousarray(g.reshape(n, heads, d).transpose(1, 0, 2))
        delta = (gh * out).sum(axis=-1, keepdims=True)  # rowsum(dO * O)
        gq, gk, gv = np.empty_like(qh), np.zeros_like(kh), np.zeros_like(vh)
        for blk in blocks:
            p, _ = exp_logits(blk, lse[:, blk])
            gv += p.transpose(0, 2, 1) @ gh[:, blk]
            gs = gh[:, blk] @ vh.transpose(0, 2, 1)
            gs -= delta[:, blk]
            gs *= p
            gq[:, blk] = gs @ kh
            gk += gs.transpose(0, 2, 1) @ qh[:, blk]
        gq *= scale
        return tuple(t.transpose(1, 0, 2).reshape(n, dim) for t in (gq, gk, gv))

    return _make(out.transpose(1, 0, 2).reshape(n, dim), (q, k, v), backward)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data
    n = x.shape[-1]

    def backward(g):
        gxhat = g * gain.data
        gvar = (gxhat * xc).sum(axis=-1, keepdims=True) * (-0.5) * inv**3
        gmu = -(gxhat * inv).sum(axis=-1, keepdims=True) + gvar * (-2.0 / n) * xc.sum(axis=-1, keepdims=True)
        gx = gxhat * inv + gvar * 2.0 * xc / n + gmu / n
        ggain = _unbroadcast(g * xhat, gain.data.shape)
        gbias = _unbroadcast(g, bias.data.shape)
        return gx, ggain, gbias

    return _make(out, (a, gain, bias), backward)


# -- parameter utilities --------------------------------------------------


def collect_params(obj, prefix: str = "") -> list[tuple[str, Tensor]]:
    """Walk an object tree and return (name, tensor) pairs for every parameter.

    Recurses through attributes, lists and tuples; a ``Tensor`` with
    ``requires_grad`` is a parameter.  Names mirror the attribute path, so
    they are stable across runs and usable as checkpoint keys.
    """
    found: list[tuple[str, Tensor]] = []
    if isinstance(obj, Tensor):
        if obj.requires_grad:
            found.append((prefix, obj))
        return found
    if isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            found.extend(collect_params(item, f"{prefix}.{i}" if prefix else str(i)))
        return found
    if hasattr(obj, "__dict__"):
        for name in sorted(vars(obj)):
            child = getattr(obj, name)
            if isinstance(child, (Tensor, list, tuple)) or hasattr(child, "__dict__"):
                sub_prefix = f"{prefix}.{name}" if prefix else name
                found.extend(collect_params(child, sub_prefix))
    return found


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def global_grad_norm(params: Iterable[Tensor]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            flat = p.grad.ravel()
            total += float(np.dot(flat, flat))
    return float(np.sqrt(total))


def clip_grad_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm."""
    norm = global_grad_norm(params)
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm
