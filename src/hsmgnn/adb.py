"""Adaptive distance bank: memory-driven refinement of the SPD-branch graph.

The base adjacency comes from a node-feature dot product; a trainable
memory matrix queried bilinearly against the SPD slices feeds a small
FFN that emits one sigmoid scaling factor per sensor, applied as a
residual row rescaling. No eigen or Cholesky decomposition anywhere:
everything is plain matrix multiplication.

The model calls the factored forms, which never form U; the identities
they use are stated in `scs`:

- `factored_base_adjacency` forms Z Z^T from the feature blocks P
  (B, N, W_p) and the constant K, with one (N, W_p) x (W_p, N) product; the
  M eps^2 ridge goes on the diagonal inside the one `T.softmax_relu_rows`
  node, so no N x N identity is made;
- `factored_ndv` takes the window factors W (B, M, N, z_s) and the bilinear
  query identity, or for N < M_q folds Xi into the FFN weights against a
  (B, M, N, N) Gram stack;
- the refined D A, D = diag(1 + alpha), is never formed: (D A)^j U is j rounds
  of h <- D (A h), so `fusion.multihop_conv` rescales each hop by `refine_gate`,
  inside the one node of the hop recursion.

`base_adjacency`, `ndv` of `bilinear_query` and `refine_adjacency` take the
dense forms and are the reference definitions the factored forms must reproduce.
"""

from __future__ import annotations

import numpy as np

from . import scs
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


def factored_base_adjacency(p: Tensor, z_s: int, eps_spd: float) -> Tensor:
    """`base_adjacency` of the window stack of blocks p (B, N, W_p), width z_s; (B, N, N)."""
    w_p = p.shape[2]
    c = scs.window_coverage(w_p, z_s)
    k = T.matmul(c, T.transpose(c, (1, 0)))                          # K = C C^T
    p_t = T.transpose(p, (0, 2, 1))
    gram = T.mul(T.add(T.matmul(p_t, p), Tensor(2.0 * eps_spd * np.eye(w_p))), k)
    scores = T.matmul(T.matmul(p, gram), p_t)
    return T.softmax_relu_rows(scores, ridge=c.shape[1] * eps_spd ** 2)


def factored_ndv(w: Tensor, bank: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                 b2: Tensor, eps_spd: float) -> Tensor:
    """`ndv` of the `bilinear_query` of the stack with factors w (B, M, N, z_s); (B, N).

    Hidden unit d is sum_m <W1_{d,m}, Xi^T U_m Xi> + b1_d, W1_{d,m} its (M_q, M_q)
    weights on slice m. <W1_{d,m}, Xi^T W_m W_m^T Xi> = <Xi W1_{d,m} Xi^T, W_m W_m^T>
    is taken on the smaller side, and eps <W1_{d,m}, Xi^T Xi> once per call.
    """
    b, m, n, _ = w.shape
    m_d, m_q = w1.shape[0], bank.shape[1]  # a bank without N rows fails a product
    bank_t, w_t = T.transpose(bank, (1, 0)), T.transpose(w, (0, 1, 3, 2))
    w1_q = T.reshape(w1, (m_d, m_q, m_q, m))         # the column order of the flat query
    xi_gram = T.reshape(T.mul(T.matmul(bank_t, bank), Tensor(eps_spd)), (m_q * m_q, 1))
    ridge = T.matmul(T.reshape(T.sum_axis(w1_q, 3), (m_d, m_q * m_q)), xi_gram)
    w1_q = T.transpose(w1_q, (0, 3, 1, 2))           # (m_d, M, M_q, M_q)
    if n < m_q:  # per block, M N^2 (z_s + m_d) flops here against M M_q^2 (z_s + m_d)
        stack = T.matmul(w, w_t)                                     # (B, M, N, N)
        weight = T.matmul(T.matmul(bank, w1_q), bank_t)              # (m_d, M, N, N)
    else:  # both factors of V V^T as products, so that numpy multiplies contiguous arrays
        stack = T.matmul(T.matmul(bank_t, w), T.matmul(w_t, bank))   # (B, M, M_q, M_q)
        weight = w1_q
    flat = T.reshape(stack, (b, -1))
    h = T.matmul(flat, T.transpose(T.reshape(weight, (m_d, -1)), (1, 0)))
    h = T.relu(T.add(T.add(h, T.reshape(ridge, (m_d,))), b1))
    return T.sigmoid(T.add(T.matmul(h, T.transpose(w2, (1, 0))), b2))


def ndv(q: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Nonlinear distance vector from the query stack.

    Flattens all window slices jointly, applies affine -> relu -> affine
    -> sigmoid; output lies in (0, 1)^N.
    """
    b = q.shape[0]
    flat = T.reshape(q, (b, q.size // b))
    h = T.relu(T.add(T.matmul(flat, T.transpose(w1, (1, 0))), b1))
    return T.sigmoid(T.add(T.matmul(h, T.transpose(w2, (1, 0))), b2))


def refine_gate(alpha: Tensor) -> Tensor:
    """The distance factors (B, N) as a (B, N, 1) row gate; negative factors are rejected."""
    if (alpha.data < 0).any():
        raise ContractError("negative distance factors are not admissible")
    b, n = alpha.shape
    return T.reshape(alpha, (b, n, 1))


def refine_adjacency(alpha: Tensor, a_base: Tensor) -> Tensor:
    """Residual row rescaling: row i of the result is (1 + alpha_i) * row i."""
    gate = refine_gate(alpha)
    return T.add(T.mul(gate, a_base), a_base)
