"""Fusion graph convolution and the prediction head.

Both branches run multi-hop propagation (sums of adjacency powers times
node features, computed by repeated multiplication in one `T.multihop`
node), get projected to a common per-branch width, and are fused by fixed
weights before a 4-layer MLP emits the prediction. The Euclidean adjacency
softmax(relu(P P^T)) is one `T.softmax_relu_rows` node.

Propagation and projection are both linear, so (A^r Z) P_s = A^r (Z P_s).
The SPD branch (`factored_multihop`) therefore projects first and
propagates f_s columns instead of the N*M columns of the flattened stack
Z. It never forms Z either: it takes Z P_s from the feature blocks and the
projection weights (the identity is stated in `scs`). The bias is added
after propagation. `multihop_conv` followed by `branch_features` on the
dense stack of `tests/reference.py` is the reference definition. The ADB
refinement D A, D = diag(1 + alpha), enters the same way: (D A)^j U is j
rounds of h <- D (A h), so the hop outputs are rescaled by the gate that
`adb.refine_adjacency` returns and D A is never formed. The whole hop
recursion, gate included, is one node.
"""

from __future__ import annotations

import numpy as np

from . import scs
from . import tensor as T
from .errors import ContractError, ShapeError
from .tensor import Tensor


def euclidean_adjacency(p_k: Tensor) -> Tensor:
    """softmax(relu(P P^T)) on raw block features, (B, N, W_p) -> (B, N, N)."""
    return T.softmax_relu_rows(T.gram(p_k))


def multihop_conv(u: Tensor, a: Tensor, r: int, gate: Tensor | None = None) -> Tensor:
    """Sum_{j=1..r} A^j U as one `T.multihop` node; gated, A is diag(1 + gate) A."""
    return T.multihop(a, u, r, gate)


def factored_multihop(p: Tensor, a: Tensor, r: int, proj_w: Tensor, proj_b: Tensor,
                      z_s: int, eps_spd: float, gate: Tensor | None = None) -> Tensor:
    """Projected SPD-branch features from blocks p (B, N, W_p) and window width z_s.

    Equals sum_{j=1..r} A^j Z P_s + b for the flattened Gram stack Z
    (B, N, N*M) and P_s = proj_w (N*M, F), with A gated as in `multihop_conv`;
    returns (B, N, F).
    """
    n, w_p = p.shape[1:]
    c = scs.window_coverage(w_p, z_s)
    p_m = T.reshape(proj_w, (n, c.shape[1], proj_w.shape[1]))  # P_m = p_m[:, m]
    p_tilde = T.transpose(T.matmul(c, p_m), (1, 0, 2))           # P~_t: (W_p, N, F)
    r_t = T.matmul(T.transpose(p, (2, 0, 1)), p_tilde)           # R[t] = p_t^T P~_t: (W_p, B, F)
    ridge = T.mul(T.sum_axis(p_m, 1), Tensor(eps_spd))           # eps sum_m P_m
    zp = T.add(T.matmul(p, T.transpose(r_t, (1, 0, 2))), ridge)
    return T.add(multihop_conv(zp, a, r, gate), proj_b)


def branch_features(u: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Project block outputs with one shared affine map: (..., F_raw) -> (..., F_target)."""
    return T.add(T.matmul(u, w), b)


def fuse_and_predict(u_s: Tensor | None, u_e: Tensor | None,
                     w_s: float, w_e: float, mlp: dict[str, Tensor]) -> Tensor:
    """Weighted concat of flat branch features (B, F_s) and (B, F_e) through the MLP head.

    Either branch may be absent (ablations); at least one must be given.
    Output is (B, 1) for regression or (B, n_classes) for classification.
    """
    parts = [T.mul(u, Tensor(w)) for u, w in ((u_s, w_s), (u_e, w_e)) if u is not None]
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
    target = np.asarray(target, dtype=np.float64)
    if target.size == 0:
        raise ContractError("empty batch")
    if pred.size != target.size:
        raise ShapeError(f"prediction count {pred.size} != target count {target.size}")
    diff = T.add(pred, Tensor(-target.reshape(pred.shape)))
    return T.mean_all(T.mul(diff, diff))


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy with integer class labels, finite for finite logits."""
    labels = np.asarray(labels).reshape(-1).astype(int)
    if labels.size == 0:
        raise ContractError("empty batch")
    if logits.shape[0] != labels.size:
        raise ShapeError(f"batch mismatch: {logits.shape[0]} logits vs {labels.size} labels")
    return T.softmax_cross_entropy(logits, labels)
