"""Submanifold cross-segment embedding.

Raw series are cut into non-overlapping temporal blocks, pushed through
a two-layer temporal CNN, and each feature block is lifted to a stack of
strictly positive-definite window Gram matrices. All functions take a
leading batch axis; W_p and z_s are plain ints (see `ModelConfig`).

Every Gram slice is U_m = W_m W_m^T + eps*I, where the window factor W_m
is the (N, z_s) stride-1 window m of a feature block P (N, W_p). Let C be
the constant (W_p, M) 0/1 matrix with C[t, m] = 1 where window m covers
step t (`window_coverage`), and K = C C^T, which counts the windows that
cover both t and s. The model forms the U_m only in the distance FFN, at
N < M_q (the third identity below). It uses three exact identities, with
Z the (N, N*M) flattened stack and P_m the rows k*M + m of a projection
P_s (N*M, F):

- base adjacency: Z Z^T = sum_m U_m^2 = P (K . (P^T P + 2 eps I)) P^T
  + M eps^2 I, with . the elementwise product (`adb.base_adjacency`);
- projection: Z P_s = P R + eps sum_m P_m, where row t of R is p_t^T P~_t,
  p_t is column t of P and P~_t = sum_m C[t, m] P_m is built from the
  weights once per forward (`fusion.factored_multihop`);
- bilinear query: Xi^T U_m Xi = V_m V_m^T + eps Xi^T Xi, V_m = Xi^T W_m, on
  the window factors W that `window_covariance` returns (`adb.bilinear_query`).
  The distance FFN alone reads W (`adb.ndv`). It weighs the query by W1
  through <W1_{d,m}, Xi^T U_m Xi> = <Xi W1_{d,m} Xi^T, U_m>, so when
  N < M_q it reads the (M, N, N) slices U_m = W_m W_m^T + eps I in place of
  the larger (M, M_q, M_q) query stack.

The first two follow from W_m W_m^T = P diag(c_m) P^T, with c_m column m
of C: summed over m, the diagonal masks become K or the rows of C.
The dense (B, N, N, M) stack is the test suite's reference definition of
the SPD embedding, in `tests/reference.py`.
"""

from __future__ import annotations

import functools

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


def block_partition(series: Tensor, w_p: int) -> Tensor:
    """(B, N, T) -> (B, N, L, W_p); trailing T mod W_p steps are dropped."""
    b, n, t = series.shape
    if t < w_p:
        raise ConfigError(f"series length {t} shorter than block length {w_p}")
    l = t // w_p
    return T.reshape(T.slice_axis(series, 2, 0, l * w_p), (b, n, l, w_p))


def temporal_cnn(blocks: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two conv1d+relu layers along the within-block axis.

    blocks: (B, N, L, W_p); the L blocks act as input channels and the
    output carries D feature blocks: (B, N, D, W_p). W_p is preserved by
    same padding.
    """
    b, n, l, w_p = blocks.shape
    h = T.relu(T.conv1d(T.reshape(blocks, (b * n, l, w_p)), w1, b1))
    p = T.relu(T.conv1d(h, w2, b2))
    return T.reshape(p, (b, n, p.shape[1], w_p))


def window_coverage(w_p: int, z_s: int) -> Tensor:
    """The constant (W_p, M) coverage of the width-z_s windows: C[t, m] = 1 if m <= t < m + z_s.
    The array is built once per (W_p, z_s) per process and is read-only."""
    return Tensor(_coverage(w_p, z_s))


@functools.lru_cache(maxsize=32)
def _coverage(w_p: int, z_s: int) -> np.ndarray:
    m = w_p - z_s + 1
    c = T._shift_matrix(w_p, m, 0).reshape(w_p, m, z_s).sum(axis=2)
    c.flags.writeable = False
    return c


def window_covariance(p_d: Tensor, z_s: int) -> Tensor:
    """The covariance stack of blocks (B, N, W_p) in factored form: the stride-1 windows of
    width z_s as Gram factors W_m, (B, M, N, z_s), of the slices U_m = W_m W_m^T + eps*I."""
    return T.transpose(T.sliding_windows(p_d, z_s), (0, 2, 1, 3))
