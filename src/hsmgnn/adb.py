"""Adaptive distance bank: memory-driven refinement of the SPD-branch graph.

The base adjacency comes from a node-feature dot product; a trainable
memory matrix queried bilinearly against the SPD slices feeds a small
FFN that emits one sigmoid scaling factor per sensor, applied as a
residual row rescaling. No eigen or Cholesky decomposition anywhere:
everything is plain matrix multiplication.

Each stage has one function; the identities they use are stated in `scs`:

- `base_adjacency` forms Z Z^T from the feature blocks P (B, N, W_p) and the
  `T.gram` nodes P^T P + 2 eps I and K = C C^T, with one (N, W_p) x (W_p, N)
  product; the M eps^2 ridge goes on the diagonal inside `T.softmax_relu_rows`;
- `ndv` reads the window factors W (B, M, N, z_s) through
  <W1_{d,m}, Xi^T U_m Xi> = <Xi W1_{d,m} Xi^T, U_m>: for N < M_q against the
  (B, M, N, N) slices U_m, one `T.gram` node, otherwise against `bilinear_query`;
- the refined D A, D = diag(1 + alpha), is never formed: (D A)^j U is j rounds
  of h <- D (A h), so `fusion.multihop_conv` rescales each hop by the gate
  `refine_adjacency` returns, inside the one node of the hop recursion.

The dense forms these reproduce, which build U, are the test suite's oracles
(`tests/reference.py`).
"""

from __future__ import annotations

from . import scs
from . import tensor as T
from .errors import ContractError
from .tensor import Tensor


def base_adjacency(p: Tensor, z_s: int, eps_spd: float) -> Tensor:
    """softmax(relu(Z Z^T)) for the window stack Z of blocks p (B, N, W_p), width z_s;
    (B, N, N), rows sum to 1."""
    c = scs.window_coverage(p.shape[2], z_s)
    p_t = T.transpose(p, (0, 2, 1))
    gram = T.mul(T.gram(p_t, 2.0 * eps_spd), T.gram(c))              # K = C C^T
    scores = T.matmul(T.matmul(p, gram), p_t)
    return T.softmax_relu_rows(scores, ridge=c.shape[1] * eps_spd ** 2)


def bilinear_query(w: Tensor, bank: Tensor, eps_spd: float) -> Tensor:
    """The memory-bank query Xi^T U_m Xi = V_m V_m^T + eps Xi^T Xi, V_m = Xi^T W_m, of the stack
    with factors w (B, M, N, z_s), for the bank Xi (N, M_q): (B, M, M_q, M_q)."""
    bank_t = T.transpose(bank, (1, 0))
    stack = T.gram(T.matmul(bank_t, w))
    return T.add(stack, T.mul(T.gram(bank_t), Tensor(eps_spd)))


def ndv(w: Tensor, bank: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
        b2: Tensor, eps_spd: float) -> Tensor:
    """Nonlinear distance vector of the stack with factors w (B, M, N, z_s); (B, N) in (0, 1).

    affine -> relu -> affine -> sigmoid over the flattened query stack
    Xi^T U_m Xi. Hidden unit d is sum_m <W1_{d,m}, Xi^T U_m Xi> + b1_d, W1_{d,m} its
    (M_q, M_q) weights on slice m; <W1_{d,m}, Xi^T U_m Xi> = <Xi W1_{d,m} Xi^T, U_m> is taken
    on the smaller side.
    """
    b, m, n, _ = w.shape
    m_d, m_q = w1.shape[0], bank.shape[1]  # a bank without N rows fails a product
    # the column order of the flat query, read as (m_d, M, M_q, M_q)
    w1_q = T.transpose(T.reshape(w1, (m_d, m_q, m_q, m)), (0, 3, 1, 2))
    if n < m_q:  # per block, M N^2 (z_s + m_d) flops here against M M_q^2 (z_s + m_d)
        stack = T.gram(w, eps_spd)                                   # U_m, (B, M, N, N)
        weight = T.matmul(T.matmul(bank, w1_q), T.transpose(bank, (1, 0)))  # (m_d, M, N, N)
    else:
        stack, weight = bilinear_query(w, bank, eps_spd), w1_q
    flat = T.reshape(stack, (b, -1))
    h = T.matmul(flat, T.transpose(T.reshape(weight, (m_d, -1)), (1, 0)))
    h = T.relu(T.add(h, b1))
    return T.sigmoid(T.add(T.matmul(h, T.transpose(w2, (1, 0))), b2))


def refine_adjacency(alpha: Tensor) -> Tensor:
    """The refinement diag(1 + alpha) of the distance factors (B, N), as the (B, N, 1) row
    gate alpha that the hop recursion applies as h + alpha * h. Rejects negative factors."""
    if (alpha.data < 0).any():
        raise ContractError("negative distance factors are not admissible")
    b, n = alpha.shape
    return T.reshape(alpha, (b, n, 1))
