"""Submanifold cross-segment embedding.

Raw series are cut into non-overlapping temporal blocks, pushed through
a two-layer temporal CNN, and each feature block is lifted to a stack of
strictly positive-definite window Gram matrices. All functions take a
leading batch axis.

Every Gram slice is U_m = W_m W_m^T + eps*I, where the window factor W_m
is the (N, z_s) stride-1 window m of a feature block. The model never
forms the (N, N, M) stack: it runs on the factors W (`window_factors`),
using three exact identities (see `adb` and `fusion`):

- base adjacency: Z Z^T = sum_m U_m^2
  = [W_m (W_m^T W_m + 2 eps I)]_m [W_m]_m^T + M eps^2 I;
- bilinear query: Xi^T U_m Xi = (Xi^T W_m)(Xi^T W_m)^T + eps Xi^T Xi;
- projection: Z P = sum_m W_m (W_m^T P_m) + eps sum_m P_m, which commutes
  with multi-hop propagation, (A^r Z) P = A^r (Z P).

`window_covariance` builds the dense stack and is kept as the reference
definition of the SPD embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


@dataclass
class ScsConfig:
    w_p: int              # block length in time steps
    delta: float          # cross-decomposition ratio in (0, 1)
    d_out: int            # number of output feature blocks
    hidden: int           # CNN hidden channel count
    eps_spd: float = 1e-6
    kernel: int = 3

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if self.w_p < 1 or self.d_out < 1 or self.hidden < 1:
            raise ConfigError("w_p, d_out and hidden must be positive")
        if self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd, got {self.kernel}")

    @property
    def z_s(self) -> int:
        # the ratio rarely yields an integer window; round, floor at 1
        return max(1, round(self.delta * self.w_p))

    @property
    def num_windows(self) -> int:
        return self.w_p - self.z_s + 1

    def num_blocks(self, t: int) -> int:
        if t < self.w_p:
            raise ConfigError(f"series length {t} shorter than block length {self.w_p}")
        return t // self.w_p


def fold_channels(series: np.ndarray) -> np.ndarray:
    """Fold an (N, T, C) array into (N*C, T) virtual sensors; C=1 squeezes."""
    n, t, c = series.shape
    return series.transpose(0, 2, 1).reshape(n * c, t)


def block_partition(series: Tensor, cfg: ScsConfig) -> Tensor:
    """(B, N, T) -> (B, N, W_p, L); trailing T mod W_p steps are dropped."""
    b, n, t = series.shape
    l = cfg.num_blocks(t)
    kept = T.slice_axis(series, 2, 0, l * cfg.w_p)
    return T.transpose(T.reshape(kept, (b, n, l, cfg.w_p)), (0, 1, 3, 2))


def temporal_cnn(blocks: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two conv1d+relu layers along the within-block axis.

    blocks: (B, N, W_p, L); the L blocks act as input channels and the
    output carries D feature blocks: (B, N, W_p, D). W_p is preserved by
    same padding.
    """
    b, n, w_p, l = blocks.shape
    x = T.reshape(T.transpose(blocks, (0, 1, 3, 2)), (b * n, l, w_p))
    h = T.relu(T.conv1d(x, w1, b1))
    p = T.relu(T.conv1d(h, w2, b2))
    d = p.shape[1]
    return T.transpose(T.reshape(p, (b, n, d, w_p)), (0, 1, 3, 2))


def window_factors(p_d: Tensor, z_s: int) -> Tensor:
    """Stride-1 windows of width z_s as Gram factors: (B, N, W_p) -> (B, M, N, z_s)."""
    return T.transpose(T.sliding_windows(p_d, z_s), (0, 2, 1, 3))


def window_covariance(p_d: Tensor, z_s: int, eps_spd: float) -> Tensor:
    """Sliding-window Gram matrices: (B, N, W_p) -> (B, N, N, M).

    Each stride-1 window W of width z_s contributes W W^T + eps*I, which
    is symmetric by construction and strictly positive definite.
    """
    w = window_factors(p_d, z_s)
    u = T.matmul(w, T.transpose(w, (0, 1, 3, 2)))
    u = T.add(u, Tensor(eps_spd * np.eye(w.shape[2])))
    return T.transpose(u, (0, 2, 3, 1))


def build_spd_tensor(p: Tensor, cfg: ScsConfig) -> Tensor:
    """Stack window covariances over all D blocks: (B, N, N, M, D)."""
    b, n, w_p, d = p.shape
    per_block = [
        window_covariance(T.reshape(T.slice_axis(p, 3, i, 1), (b, n, w_p)),
                          cfg.z_s, cfg.eps_spd)
        for i in range(d)
    ]
    return T.stack(per_block, 4)
