"""Dense f64 tensors with reverse-mode automatic differentiation.

Every value flowing through the model is a `Tensor` wrapping a numpy
float64 array. Operations record their inputs and a backward closure;
`backward()` on a scalar loss walks the graph in reverse topological
order and accumulates gradients into every tensor created with
`requires_grad=True`. Constant leaves (no `requires_grad`, no parents)
receive none. Gradients accumulate across calls until `zero_grad()` is
invoked, matching the usual training-loop contract.

A graph serves one `backward()`. The walk releases each op node's closure
and parents once the node has passed its gradient on, so every activation
and intermediate gradient is freed once its last consumer has run. A node
the caller still holds keeps its `.data` and `.grad`; a further
`backward()` through any released node raises `ContractError` before it
writes a gradient.

Gradients are adopted, never written in place: a tensor keeps the first
gradient array it receives and sums later ones out of place, so one array
may serve several tensors (both parents of `add`) and a non-leaf gradient
may be a view of its child's (`reshape`, `transpose`).

`conv1d`, `sliding_windows` and `mean_all` are compositions of the other
ops and define no backward of their own: the first two multiply by a
constant 0/1 shift matrix (`_shift_matrix`, built once per shape per
process and read-only) and reshape, and `mean_all` multiplies the sum by
the constant 1/size. Scaling by a constant is `mul` with a constant
`Tensor`, which gets no gradient.

Three ops have a backward of their own, because the composition they replace
holds whole arrays that theirs does not: `gram` and `softmax_relu_rows` add
their ridge in place on the diagonal (`_add_ridge`), and `gram`'s backward makes
nothing the size of its output; `softmax_relu_rows` keeps no relu output; and
`multihop` forms A's gradient as one product instead of r products and r - 1
sums. Each computes the forward of its composition bit for bit: `matmul`,
`transpose`, `relu`, `mul`, `add` and the row softmax of `tests/reference.py`.

`gram` is the one exception: it multiplies a by a copy of its transpose, so
it matches `matmul(a, transpose(a))` to rounding, not bit for bit. Given an
array and a transposed view of that same array, numpy takes a symmetric rank-k
update (BLAS syrk) one matrix at a time and then mirrors the triangle; at the
model's Gram shapes that is 2-4x slower than the general product on a separate
operand. So no product of the model gets operands that share memory, and
`gram`'s result is symmetric only to rounding. The copy is written into one
reused buffer per thread, so `gram` allocates nothing but its result.

Every node allocates a fresh array, and a step frees its whole graph at once.
glibc's malloc by default moves its mmap and trim thresholds with the largest
block freed so far, so whether a step's arrays stay in the heap or go back to
the kernel depends on the process's allocation history: at N=14, B=32 some
processes would page-fault about 2,500 times (10 MB) in every step, a quarter
of the step's time, and others not at all. On glibc, importing this module
fixes both thresholds (`_hold_freed_memory`), so the memory a step frees is
the memory the next one uses.

No operation here performs an eigenvalue or Cholesky decomposition.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters, malloc.h


def _hold_freed_memory() -> None:
    """Fix glibc malloc's thresholds for this process; do nothing on another C library.

    Blocks up to 32 MiB (glibc's own ceiling for its moving threshold) come from the heap,
    not from a fresh mmap each time, and the heap is not trimmed until 128 MiB at its top
    are free, more than a step at N=128 frees.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not (libc or "").startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)


_hold_freed_memory()


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

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
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
        # kept as it is and never written: `g` may serve a sibling or view the child's gradient
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Populate gradients of every reachable `requires_grad` tensor.

        Gradients accumulate: call `zero_grad` on parameters between
        optimizer steps. The walk frees the graph as it goes, so there is
        one `backward()` per forward: held nodes keep their `.data` and
        `.grad`, and a second call raises `ContractError`.
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
            if node._backward is _freed:
                _freed(None)  # raises before any gradient is written
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf: a parameter or a constant
            if node.grad is not None:
                node._backward(node.grad)
            # every consumer has run: release the closure and, through it, the parents
            node._backward, node._parents = _freed, ()


def _freed(g) -> None:
    """The backward of an op node whose graph a finished `backward()` has released."""
    raise ContractError("backward() through a graph an earlier backward() has freed: "
                        "run the forward again")


def _tracked(t: Tensor) -> bool:
    """Whether gradients flow into `t`: a parameter, or an op output over one. A freed op
    output still counts, so that a new graph through it fails in `backward()`."""
    return t.requires_grad or t._backward is not None


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(_tracked(p) for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- elementwise and structural primitives -------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if _tracked(a):
            a._accumulate(_unbroadcast(g, a.data.shape))
        if _tracked(b):
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        if _tracked(a):
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if _tracked(b):
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    data = np.fmax(a.data, 0.0)  # NaN -> 0: relu is 0 wherever a > 0 is false
    data += 0.0  # fmax keeps -0.0 on some array lengths; this makes it +0.0

    def backward(g):
        a._accumulate(g * (data > 0.0))  # subgradient at exactly 0 is 0

    return _make(data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    e = np.exp(-np.abs(a.data))  # never overflows
    data = np.where(a.data >= 0, 1.0, e) / (1.0 + e)

    def backward(g):
        a._accumulate(g * data * (1.0 - data))

    return _make(data, (a,), backward)


def _add_ridge(x: np.ndarray, ridge: float) -> np.ndarray:
    """x + ridge*I over the last two axes, in place on the diagonal of the C-contiguous x."""
    if ridge:
        x.reshape(x.shape[:-2] + (-1,))[..., ::x.shape[-1] + 1] += ridge
    return x


def softmax_relu_rows(a: Tensor, ridge: float = 0.0) -> Tensor:
    """Softmax over the last axis, max-shifted, of relu(a + ridge*I), as one node."""
    data = _add_ridge(a.data.copy(), ridge)
    positive = data > 0.0
    np.fmax(data, 0.0, out=data)
    data -= data.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)

    def backward(g):
        grad = g * data
        np.subtract(g, grad.sum(axis=-1, keepdims=True), out=grad)
        grad *= data
        grad *= positive
        a._accumulate(grad)

    return _make(data, (a,), backward)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y or ShapeError: the package takes every matrix product here, forward and backward."""
    if x.ndim < 2 or y.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {x.shape} and {y.shape}")
    if x.shape[-1] != y.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {x.shape} x {y.shape}")
    return x @ y


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = _product(a.data, b.data)

    def backward(g):
        if _tracked(a):
            a._accumulate(_operand_grad(np.swapaxes(g, -1, -2), np.swapaxes(b.data, -1, -2),
                                        a.data))
        if _tracked(b):
            b._accumulate(_operand_grad(a.data, g, b.data))

    return _make(data, (a, b), backward)


def _operand_grad(x: np.ndarray, y: np.ndarray, like: np.ndarray) -> np.ndarray:
    """The gradient x^T y of a matmul operand shaped like `like`, summed over broadcast axes.

    A 2-D operand gets one product over the flattened batch, in its own memory
    order: (y^T x)^T for a view W^T, so that W's gradient is C-contiguous.
    """
    if like.ndim > 2:
        return _unbroadcast(_product(np.swapaxes(x, -1, -2), y), like.shape)
    x, y = x.reshape(-1, x.shape[-1]), y.reshape(-1, y.shape[-1])
    if like.flags.f_contiguous and not like.flags.c_contiguous:
        return _product(y.T, x).T
    return _product(x.T, y)


_scratch = threading.local()


def _transposed_copy(a: np.ndarray) -> np.ndarray:
    """a^T over the last two axes, written into this thread's one buffer, which grows to the
    largest operand seen. Only the product in `gram` reads it, before the next call."""
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < a.size or buf.dtype != a.dtype:
        buf = _scratch.buf = np.empty(a.size, a.dtype)
    out = buf[:a.size].reshape(a.shape[:-2] + (a.shape[-1], a.shape[-2]))
    np.copyto(out, np.swapaxes(a, -1, -2))
    return out


def gram(a: Tensor, ridge: float = 0.0) -> Tensor:
    """a a^T + ridge*I over the last two axes as one node, with the backward g a + g^T a.

    The transpose is copied so that numpy runs a general product, not its slower syrk path
    for an operand and its own transposed view. `np.ascontiguousarray` would not do: the
    transpose of a 2-D F-ordered operand is already contiguous and comes back as the same
    memory. The copy goes into a reused buffer (`_transposed_copy`), not a fresh array.
    """
    data = _add_ridge(_product(a.data, _transposed_copy(a.data)), ridge)

    def backward(g):
        grad = _operand_grad(np.swapaxes(g, -1, -2), a.data, a.data)
        a._accumulate(np.add(grad, _operand_grad(g, a.data, a.data), out=grad))

    return _make(data, (a,), backward)


def multihop(a: Tensor, u: Tensor, r: int, gate: Tensor | None = None) -> Tensor:
    """sum_{j=1..r} (D A)^j U as one node, D = diag(1 + gate); A broadcasts over U's batch axes.

    The forward runs the loop t = A h, h = gate*t + t of `matmul`, `mul` and `add`, bit for
    bit. The backward forms A's gradient as one product [dt_1 ... dt_r][h_0 ... h_{r-1}]^T.
    """
    if r < 1:
        raise ConfigError(f"hop count must be >= 1, got {r}")
    gated = gate is not None
    hs, ts, out = [u.data], [], None  # the hop inputs h_{j-1}; if gated, the products A h_{j-1}
    for _ in range(r):
        t = _product(a.data, hs[-1])
        if gated:
            ts.append(t)
            t = gate.data * t + t
        hs.append(t)
        out = t if out is None else out + t
    hs.pop()

    def backward(g):
        dts, carry, dgate = [], None, 0.0
        for j in reversed(range(r)):
            dh = g if carry is None else g + carry
            if gated:
                dgate = dgate + dh * ts[j]
                dh = gate.data * dh + dh
            dts.append(dh)
            carry = _product(np.swapaxes(a.data, -1, -2), dh)
        if _tracked(u):
            u._accumulate(carry)
        if gated and _tracked(gate):
            gate._accumulate(_unbroadcast(dgate, gate.data.shape))
        if _tracked(a):
            dt = np.concatenate(dts[::-1], axis=-1)
            h = np.concatenate(hs, axis=-1)
            a._accumulate(_operand_grad(np.swapaxes(dt, -1, -2), np.swapaxes(h, -1, -2), a.data))

    return _make(out, (a, u) if gate is None else (a, u, gate), backward)


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


def slice_axis(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = a.data[idx]

    def backward(g):
        grad = np.zeros_like(a.data)
        grad[idx] = g
        a._accumulate(grad)

    return _make(data, (a,), backward)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    data = a.data.sum(axis=axis)

    def backward(g):
        a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    return _make(data, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    data = np.array(a.data.sum())

    def backward(g):
        a._accumulate(np.full_like(a.data, float(g)))

    return _make(data, (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    return mul(sum_all(a), Tensor(1.0 / a.data.size))


@functools.lru_cache(maxsize=32)
def _shift_matrix(length: int, shifts: int, pad: int) -> np.ndarray:
    """0/1 matrix E of shape (length, shifts * out) with out = length + 2*pad - shifts + 1.

    Column j*out + l picks position l + j - pad of a length-`length` axis, or
    nothing where that falls in the padding, so x @ E lays the `shifts`
    shifted copies of x side by side. Built once per shape per process and
    read-only: every caller shares the one array.
    """
    out = length + 2 * pad - shifts + 1
    padded = np.eye(length, length + 2 * pad, pad)
    windows = np.lib.stride_tricks.sliding_window_view(padded, out, axis=1)
    matrix = windows.reshape(length, shifts * out)
    matrix.flags.writeable = False
    return matrix


def conv1d(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """Length-preserving 1D cross-correlation with symmetric "same" padding.

    x: (batch, C_in, L); w: (C_out, C_in, k) with k odd. Lowered to one
    product with the (C_in*k, L) patch matrix of each sample (im2col).
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
    batch, _, length = x.data.shape
    rows = reshape(x, (batch * c_in, length))
    shifted = matmul(rows, Tensor(_shift_matrix(length, k, k // 2)))
    patches = reshape(shifted, (batch, c_in * k, length))
    out = matmul(reshape(w, (c_out, c_in * k)), patches)
    return out if bias is None else add(out, reshape(bias, (c_out, 1)))


def sliding_windows(a: Tensor, width: int) -> Tensor:
    """Stride-1 windows of the last axis: (..., L) -> (..., L - width + 1, width).

    out[..., m, k] = a[..., m + k].
    """
    length = a.data.shape[-1]
    if not (1 <= width <= length):
        raise ConfigError(f"window length {width} outside [1, {length}]")
    count = length - width + 1
    rows = reshape(a, (-1, length))
    windows = matmul(rows, Tensor(_shift_matrix(length, count, 0)))
    return reshape(windows, a.data.shape[:-1] + (count, width))


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
