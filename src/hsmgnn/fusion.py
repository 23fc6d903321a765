"""Fusion graph convolution and the prediction head.

Both branches run multi-hop propagation (sums of adjacency powers times
node features, computed by repeated multiplication), get projected to a
common per-branch width, and are fused by fixed weights before a 4-layer
MLP emits the prediction.

Propagation and projection are both linear, so (A^r Z) P = A^r (Z P).
The SPD branch (`factored_multihop`) therefore projects first and
propagates f_s columns instead of the N*M columns of the flattened stack
Z. It never forms Z either: with U_m = W_m W_m^T + eps*I and P_m the rows
k*M + m of P, Z P = sum_m W_m (W_m^T P_m) + eps sum_m P_m. The bias is
added after propagation. `multihop_conv` followed by `branch_features` on
the dense stack is the reference definition.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor


def euclidean_adjacency(p_k: Tensor) -> Tensor:
    """softmax(relu(P P^T)) on raw block features, (B, N, W_p) -> (B, N, N)."""
    return T.softmax_rows(T.relu(T.matmul(p_k, T.transpose(p_k, (0, 2, 1)))))


def multihop_conv(u: Tensor, a: Tensor, r: int) -> Tensor:
    """Sum_{j=1..r} A^j U via repeated multiplication."""
    if r < 1:
        raise ConfigError(f"hop count must be >= 1, got {r}")
    h = T.matmul(a, u)
    out = h
    for _ in range(r - 1):
        h = T.matmul(a, h)
        out = T.add(out, h)
    return out


def factored_multihop(w: Tensor, a: Tensor, r: int, proj_w: Tensor,
                      proj_b: Tensor, eps_spd: float) -> Tensor:
    """Projected SPD-branch features from window factors w (B, M, N, z_s).

    Equals sum_{j=1..r} A^j Z P + b for the flattened Gram stack Z
    (B, N, N*M) and P = proj_w (N*M, F); returns (B, N, F).
    """
    b, m, n, z = w.shape
    f = proj_w.shape[1]
    p = T.transpose(T.reshape(proj_w, (n, m, f)), (1, 0, 2))       # P_m: (M, N, F)
    w_t_p = T.reshape(T.matmul(T.transpose(w, (0, 1, 3, 2)), p), (b, m * z, f))
    w_cols = T.reshape(T.transpose(w, (0, 2, 1, 3)), (b, n, m * z))
    zp = T.add(T.matmul(w_cols, w_t_p), T.scale(T.sum_axis(p, 0), eps_spd))
    return T.add(multihop_conv(zp, a, r), proj_b)


def branch_features(per_block: list[Tensor], w: Tensor, b: Tensor) -> Tensor:
    """Project each (B, N, F_raw) block output and stack: (B, D, N, F_target).

    The affine map is shared across blocks.
    """
    f_raw = per_block[0].shape[-1]
    for blk in per_block[1:]:
        if blk.shape[-1] != f_raw:
            raise ShapeError(f"inconsistent block feature widths: {f_raw} vs {blk.shape[-1]}")
    projected = [T.add(T.matmul(blk, w), b) for blk in per_block]
    return T.stack(projected, 1)


def fuse_and_predict(u_s_c: Tensor | None, u_e_c: Tensor | None,
                     w_s: float, w_e: float, mlp: dict[str, Tensor]) -> Tensor:
    """Weighted concat of branch features through the MLP head.

    Either branch may be absent (ablations); at least one must be given.
    Output is (B, 1) for regression or (B, n_classes) for classification.
    """
    parts = []
    if u_s_c is not None:
        b = u_s_c.shape[0]
        parts.append(T.reshape(T.scale(u_s_c, w_s), (b, u_s_c.size // b)))
    if u_e_c is not None:
        b = u_e_c.shape[0]
        parts.append(T.reshape(T.scale(u_e_c, w_e), (b, u_e_c.size // b)))
    if not parts:
        raise ContractError("fuse_and_predict needs at least one branch")
    u = parts[0] if len(parts) == 1 else T.concat(parts, 1)
    if u.shape[1] != mlp["w1"].shape[1]:
        raise ShapeError(
            f"fused width {u.shape[1]} does not match MLP input {mlp['w1'].shape[1]}"
        )
    h = u
    for i in (1, 2, 3):
        h = T.relu(T.add(T.matmul(h, T.transpose(mlp[f"w{i}"], (1, 0))), mlp[f"b{i}"]))
    return T.add(T.matmul(h, T.transpose(mlp["w4"], (1, 0))), mlp["b4"])


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error over the batch."""
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    if target.size == 0:
        raise ContractError("empty batch")
    if pred.size != target.size:
        raise ShapeError(f"prediction count {pred.size} != target count {target.size}")
    diff = T.add(T.reshape(pred, (target.size,)), Tensor(-target))
    return T.mean_all(T.mul(diff, diff))


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy with integer class labels, finite for finite logits."""
    labels = np.asarray(labels).reshape(-1).astype(int)
    if labels.size == 0:
        raise ContractError("empty batch")
    if logits.shape[0] != labels.size:
        raise ShapeError(f"batch mismatch: {logits.shape[0]} logits vs {labels.size} labels")
    return T.softmax_cross_entropy(logits, labels)
