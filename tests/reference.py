"""Dense reference definitions of the SPD embedding and the ADB stages.

The model never forms the (B, N, N, M) window Gram stack U: `scs`, `adb` and
`fusion` take each stage from the feature blocks or the window factors, by the
identities stated in the `scs` docstring. These functions form U and compute
each stage from it as the paper defines it. The tests use them as independent
oracles for the production stages: `dense_forward` in `test_factored.py`
composes them block by block, and the model must reproduce its predictions and
gradients.
"""

from __future__ import annotations

import numpy as np

from hsmgnn import adb, scs
from hsmgnn import tensor as T
from hsmgnn.errors import ShapeError
from hsmgnn.tensor import Tensor


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for stability."""
    data = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)

    def backward(g):
        grad = g * data
        np.subtract(g, grad.sum(axis=-1, keepdims=True), out=grad)
        grad *= data
        a._accumulate(grad)

    return T._make(data, (a,), backward)


def window_covariance(p_d: Tensor, z_s: int, eps_spd: float) -> Tensor:
    """Sliding-window Gram matrices: (B, N, W_p) -> (B, N, N, M).

    Each stride-1 window W of width z_s contributes W W^T + eps*I, which
    is symmetric by construction and strictly positive definite.
    """
    w = scs.window_covariance(p_d, z_s)
    u = T.matmul(w, T.transpose(w, (0, 1, 3, 2)))
    u = T.add(u, Tensor(eps_spd * np.eye(w.shape[2])))
    return T.transpose(u, (0, 2, 3, 1))


def node_features(u_d: Tensor) -> Tensor:
    """Flatten SPD slices (B, N, N, M) into per-node vectors (B, N, N*M)."""
    b, n, n2, m = u_d.shape
    return T.reshape(u_d, (b, n, n2 * m))


def base_adjacency(u_d: Tensor) -> Tensor:
    """softmax(relu(Z Z^T)) over flattened node features; rows sum to 1."""
    z = node_features(u_d)
    return softmax_rows(T.relu(T.matmul(z, T.transpose(z, (0, 2, 1)))))


def bilinear_query(u_d: Tensor, bank: Tensor) -> Tensor:
    """Per window slice: Xi^T U_m Xi. (B, N, N, M) -> (B, M_q, M_q, M)."""
    b, n, n2, m = u_d.shape
    if bank.shape[0] != n:
        raise ShapeError(f"memory bank rows {bank.shape} do not match N={n}")
    u = T.transpose(u_d, (0, 3, 1, 2))          # (B, M, N, N)
    right = T.matmul(u, bank)                   # (B, M, N, M_q)
    q = T.matmul(T.transpose(bank, (1, 0)), right)  # (B, M, M_q, M_q)
    return T.transpose(q, (0, 2, 3, 1))


def ndv(q: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Nonlinear distance vector from the query stack.

    Flattens all window slices jointly, applies affine -> relu -> affine
    -> sigmoid; output lies in (0, 1)^N.
    """
    b = q.shape[0]
    flat = T.reshape(q, (b, q.size // b))
    h = T.relu(T.add(T.matmul(flat, T.transpose(w1, (1, 0))), b1))
    return T.sigmoid(T.add(T.matmul(h, T.transpose(w2, (1, 0))), b2))


def refine_adjacency(alpha: Tensor, a_base: Tensor) -> Tensor:
    """Residual row rescaling: row i of the result is (1 + alpha_i) * row i."""
    gate = adb.refine_adjacency(alpha)
    return T.add(T.mul(gate, a_base), a_base)
