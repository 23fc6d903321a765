"""Dense f64 tensors with reverse-mode automatic differentiation.

Every value flowing through the model is a `Tensor` wrapping a numpy
float64 array. Operations record their inputs and a backward closure;
`backward()` on a scalar loss walks the graph in reverse topological
order and accumulates gradients into every tensor created with
`requires_grad=True`. Gradients accumulate across calls until
`zero_grad()` is invoked, matching the usual training-loop contract.

No operation here performs an eigenvalue or Cholesky decomposition.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, ShapeError


def _as_f64(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A dense float64 array participating in the differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_f64(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        # copy the first gradient: `g` may be shared with a sibling parent
        # (add) or be a view of the child's gradient (reshape, transpose)
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def backward(self) -> None:
        """Populate gradients of every reachable `requires_grad` tensor.

        Gradients accumulate: call `zero_grad` on parameters between
        optimizer steps.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other if isinstance(other, Tensor) else Tensor(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return add(self, scale(other, -1.0))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = False
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- elementwise and structural primitives -------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    data = a.data * c

    def backward(g):
        a._accumulate(g * c)

    return _make(data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    # subgradient at exactly 0 is 0
    mask = a.data > 0.0
    data = np.where(mask, a.data, 0.0)

    def backward(g):
        a._accumulate(g * mask)

    return _make(data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    data = np.empty_like(x)
    pos = x >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    data[~pos] = e / (1.0 + e)

    def backward(g):
        a._accumulate(g * data * (1.0 - data))

    return _make(data, (a,), backward)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for stability."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        a._accumulate(data * (g - dot))

    return _make(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward(g):
        a._accumulate(g / a.data)

    return _make(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(
            f"matmul needs rank >= 2 operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    data = a.data @ b.data

    def backward(g):
        a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make(data, (a, b), backward)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = np.transpose(a.data, axes)
    inverse = np.argsort(axes)

    def backward(g):
        a._accumulate(np.transpose(g, inverse))

    return _make(data, (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)
    original = a.data.shape

    def backward(g):
        a._accumulate(g.reshape(original))

    return _make(data, (a,), backward)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    ref = tensors[0].data.shape
    for t in tensors[1:]:
        other = t.data.shape
        if len(other) != len(ref) or any(
            o != r for i, (o, r) in enumerate(zip(other, ref)) if i != axis % len(ref)
        ):
            raise ShapeError(f"concat shapes incompatible off axis {axis}: {ref} vs {other}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            t._accumulate(g[tuple(idx)])

    return _make(data, tuple(tensors), backward)


def stack(tensors: list[Tensor], axis: int) -> Tensor:
    expanded = [reshape(t, t.data.shape[:axis] + (1,) + t.data.shape[axis:]) for t in tensors]
    return concat(expanded, axis)


def slice_axis(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = a.data[idx]

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[idx] += g

    return _make(data, (a,), backward)


def sum_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return _make(data, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    data = np.array(a.data.sum())

    def backward(g):
        a._accumulate(np.full_like(a.data, float(g)))

    return _make(data, (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_all(a), 1.0 / a.data.size)


def conv1d(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """Length-preserving 1D cross-correlation with symmetric "same" padding.

    x: (batch, C_in, L); w: (C_out, C_in, k) with k odd.
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError(f"conv1d expects rank-3 operands, got {x.data.shape}, {w.data.shape}")
    c_out, c_in, k = w.data.shape
    if k % 2 == 0:
        raise ConfigError(f"conv1d kernel size must be odd for same padding, got {k}")
    if x.data.shape[1] != c_in:
        raise ShapeError(
            f"conv1d channel mismatch: input {x.data.shape} vs weight {w.data.shape}"
        )
    pad = k // 2
    length = x.data.shape[2]
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad)))
    data = np.zeros((x.data.shape[0], c_out, length))
    for j in range(k):
        data += np.einsum("bcl,oc->bol", xp[:, :, j : j + length], w.data[:, :, j])
    if bias is not None:
        data += bias.data[None, :, None]

    def backward(g):
        gx = np.zeros_like(xp)
        gw = np.zeros_like(w.data)
        for j in range(k):
            gx[:, :, j : j + length] += np.einsum("bol,oc->bcl", g, w.data[:, :, j])
            gw[:, :, j] = np.einsum("bol,bcl->oc", g, xp[:, :, j : j + length])
        x._accumulate(gx[:, :, pad : pad + length] if pad else gx)
        w._accumulate(gw)
        if bias is not None:
            bias._accumulate(g.sum(axis=(0, 2)))

    parents = (x, w) if bias is None else (x, w, bias)
    return _make(data, parents, backward)


def sliding_windows(a: Tensor, width: int) -> Tensor:
    """Stride-1 windows of the last axis: (..., L) -> (..., L - width + 1, width).

    out[..., m, k] = a[..., m + k].
    """
    length = a.data.shape[-1]
    if not (1 <= width <= length):
        raise ConfigError(f"window length {width} outside [1, {length}]")
    count = length - width + 1
    data = np.lib.stride_tricks.sliding_window_view(a.data, width, axis=-1).copy()

    def backward(g):
        grad = np.zeros_like(a.data)
        for k in range(width):
            grad[..., k : k + count] += g[..., k]
        a._accumulate(grad)

    return _make(data, (a,), backward)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over rows of -log softmax(logits)[label], fused for stability.

    The log-softmax is formed from max-shifted logits, so the loss stays
    finite whenever the logits are finite.
    """
    rows = np.arange(labels.size)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = np.array(-log_p[rows, labels].mean())

    def backward(g):
        grad = np.exp(log_p)
        grad[rows, labels] -= 1.0
        logits._accumulate(grad * (float(g) / labels.size))

    return _make(data, (logits,), backward)
