"""Adaptive distance bank: memory-driven refinement of the SPD-branch graph.

The base adjacency comes from a node-feature dot product; a trainable
memory matrix queried bilinearly against the SPD slices feeds a small
FFN that emits one sigmoid scaling factor per sensor, applied as a
residual row rescaling. No eigen or Cholesky decomposition anywhere:
everything is plain matrix multiplication.

The model calls the factored forms, which take the window factors W
(B, M, N, z_s) of the slices U_m = W_m W_m^T + eps*I and never form U:

- `factored_base_adjacency` uses Z Z^T = sum_m U_m^2
  = [W_m (W_m^T W_m + 2 eps I)]_m [W_m]_m^T + M eps^2 I, one
  (N, M*z_s) x (M*z_s, N) product;
- `factored_query` uses Xi^T U_m Xi = (Xi^T W_m)(Xi^T W_m)^T + eps Xi^T Xi.

`base_adjacency` and `bilinear_query` take the dense (B, N, N, M) stack
and are the reference definitions the factored forms must reproduce.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .tensor import Tensor


def node_features(u_d: Tensor) -> Tensor:
    """Flatten SPD slices (B, N, N, M) into per-node vectors (B, N, N*M)."""
    b, n, n2, m = u_d.shape
    return T.reshape(u_d, (b, n, n2 * m))


def base_adjacency(u_d: Tensor) -> Tensor:
    """softmax(relu(Z Z^T)) over flattened node features; rows sum to 1."""
    z = node_features(u_d)
    return T.softmax_rows(T.relu(T.matmul(z, T.transpose(z, (0, 2, 1)))))


def bilinear_query(u_d: Tensor, bank: Tensor) -> Tensor:
    """Per window slice: Xi^T U_m Xi. (B, N, N, M) -> (B, M_q, M_q, M)."""
    b, n, n2, m = u_d.shape
    if bank.shape[0] != n:
        raise ShapeError(f"memory bank rows {bank.shape} do not match N={n}")
    u = T.transpose(u_d, (0, 3, 1, 2))          # (B, M, N, N)
    right = T.matmul(u, bank)                   # (B, M, N, M_q)
    q = T.matmul(T.transpose(bank, (1, 0)), right)  # (B, M, M_q, M_q)
    return T.transpose(q, (0, 2, 3, 1))


def factored_base_adjacency(w: Tensor, eps_spd: float) -> Tensor:
    """`base_adjacency` of the stack with factors w (B, M, N, z_s); (B, N, N)."""
    b, m, n, z = w.shape
    w_t = T.transpose(w, (0, 1, 3, 2))                               # (B, M, z, N)
    gram = T.add(T.matmul(w_t, w), Tensor(2.0 * eps_spd * np.eye(z)))  # (B, M, z, z)
    left = T.reshape(T.transpose(T.matmul(w, gram), (0, 2, 1, 3)), (b, n, m * z))
    scores = T.matmul(left, T.reshape(w_t, (b, m * z, n)))
    scores = T.add(scores, Tensor(m * eps_spd ** 2 * np.eye(n)))
    return T.softmax_rows(T.relu(scores))


def factored_query(w: Tensor, bank: Tensor, eps_spd: float) -> Tensor:
    """`bilinear_query` of the stack with factors w (B, M, N, z_s); (B, M_q, M_q, M)."""
    if bank.shape[0] != w.shape[2]:
        raise ShapeError(f"memory bank rows {bank.shape} do not match N={w.shape[2]}")
    m_q = bank.shape[1]
    bank_t = T.transpose(bank, (1, 0))
    # both factors of V V^T as products, so that numpy multiplies contiguous arrays
    v = T.matmul(bank_t, w)                                          # (B, M, M_q, z)
    v_t = T.matmul(T.transpose(w, (0, 1, 3, 2)), bank)               # (B, M, z, M_q)
    q = T.transpose(T.matmul(v, v_t), (0, 2, 3, 1))                  # (B, M_q, M_q, M)
    ridge = T.reshape(T.scale(T.matmul(bank_t, bank), eps_spd), (m_q, m_q, 1))
    return T.add(q, ridge)


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
    if (alpha.data < 0).any():
        raise ContractError("negative distance factors are not admissible")
    b, n = alpha.shape
    gate = T.reshape(alpha, (b, n, 1))
    return T.add(T.mul(gate, a_base), a_base)
