"""The factored SPD branch against the dense Gram-stack reference.

The model runs the SPD branch on window factors and never forms the
(B, N, N, M) stack. `dense_forward` composes the dense reference stages
(`window_covariance`, `base_adjacency`, `bilinear_query`, `node_features`,
`multihop_conv`, `branch_features`) into the original forward pass; the
factored forward must reproduce its predictions and every parameter
gradient.
"""

import numpy as np
import pytest

from hsmgnn import HSMGNN, ModelConfig, ablate
from hsmgnn import adb, fusion, scs
from hsmgnn import tensor as T
from hsmgnn.tensor import Tensor

RTOL = 1e-10


def dense_forward(model: HSMGNN, x: np.ndarray) -> Tensor:
    """The SPD-variant forward pass through the dense (B, N, N, M) stack."""
    cfg, prm = model.cfg, model.params
    b = x.shape[0]
    blocks = scs.block_partition(Tensor(x), cfg.scs_cfg)
    p = scs.temporal_cnn(blocks, prm["cnn.w1"], prm["cnn.b1"], prm["cnn.w2"], prm["cnn.b2"])
    spd_blocks, euc_blocks = [], []
    for d in range(cfg.d_blocks):
        p_d = T.reshape(T.slice_axis(p, 3, d, 1), (b, cfg.n, cfg.w_p))
        u_d = scs.window_covariance(p_d, cfg.scs_cfg.z_s, cfg.eps_spd)
        a_s = adb.base_adjacency(u_d)
        if cfg.has_adb:
            q = adb.bilinear_query(u_d, prm["adb.bank"])
            alpha = adb.ndv(q, prm["adb.ffn_w1"], prm["adb.ffn_b1"],
                            prm["adb.ffn_w2"], prm["adb.ffn_b2"])
            a_s = adb.refine_adjacency(alpha, a_s)
        spd_blocks.append(fusion.multihop_conv(adb.node_features(u_d), a_s, cfg.r_s))
        if cfg.has_euclid:
            euc_blocks.append(fusion.multihop_conv(p_d, fusion.euclidean_adjacency(p_d),
                                                   cfg.r_e))
    u_s_c = fusion.branch_features(spd_blocks, prm["proj_s.w"], prm["proj_s.b"])
    u_e_c = (fusion.branch_features(euc_blocks, prm["proj_e.w"], prm["proj_e.b"])
             if cfg.has_euclid else None)
    mlp = {k.split(".", 1)[1]: v for k, v in prm.items() if k.startswith("mlp.")}
    return fusion.fuse_and_predict(u_s_c, u_e_c, cfg.w_s, cfg.w_e, mlp)


def rel_diff(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300))


def predictions_and_grads(model: HSMGNN, forward, x, y):
    for p in model.params.values():
        p.zero_grad()
    pred = forward(x)
    model.loss(pred, y).backward()
    return pred.data.copy(), {k: p.grad.copy() for k, p in model.params.items()}


@pytest.mark.parametrize("n", [3, 14, 64])
@pytest.mark.parametrize("variant", ["complete", "no-adb", "no-fgcn"])
def test_factored_forward_matches_dense_reference(variant, n):
    model = HSMGNN(ablate(variant, ModelConfig(n=n, t=30)), seed=n)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(3, n, 30))
    y = rng.normal(size=3)
    pred, grads = predictions_and_grads(model, model.forward, x, y)
    ref_pred, ref_grads = predictions_and_grads(model, lambda v: dense_forward(model, v), x, y)
    assert rel_diff(pred, ref_pred) < RTOL
    for name, ref in ref_grads.items():
        assert np.any(ref != 0.0), name
        assert rel_diff(grads[name], ref) < RTOL, name


@pytest.mark.parametrize("n", [1, 5, 40])
def test_factored_stages_match_dense_stages(n):
    rng = np.random.default_rng(n)
    eps, z_s = 1e-2, 3  # a large eps so that the eps terms are visible
    p_d = Tensor(rng.normal(size=(2, n, 10)))
    bank = Tensor(rng.normal(size=(n, 4)))
    proj_w = Tensor(rng.normal(size=(n * 8, 5)))
    proj_b = Tensor(rng.normal(size=5))
    u = scs.window_covariance(p_d, z_s, eps)
    w = scs.window_factors(p_d, z_s)
    assert w.shape == (2, 8, n, z_s)

    a = adb.factored_base_adjacency(w, eps)
    assert rel_diff(a.data, adb.base_adjacency(u).data) < RTOL
    q = adb.factored_query(w, bank, eps)
    assert rel_diff(q.data, adb.bilinear_query(u, bank).data) < RTOL
    feats = fusion.factored_multihop(w, a, 2, proj_w, proj_b, eps)
    dense = fusion.branch_features([fusion.multihop_conv(adb.node_features(u), a, 2)],
                                   proj_w, proj_b)
    assert rel_diff(feats.data, dense.data[:, 0]) < RTOL


def test_window_factors_rebuild_the_covariance_stack():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(2, 4, 6))
    u = scs.window_covariance(Tensor(p), 3, 1e-6).data
    for m in range(4):
        win = p[:, :, m:m + 3]
        expected = win @ win.transpose(0, 2, 1) + 1e-6 * np.eye(4)
        assert np.max(np.abs(u[:, :, :, m] - expected)) < 1e-13


def test_training_graph_never_holds_a_gram_stack():
    """No node of a training step is as large as the (B, N, N, M) stack."""
    b = 8
    cfg = ModelConfig(n=32, t=30, m_q=8, m_d=8, mlp_widths=(8, 8, 8))
    model = HSMGNN(cfg, seed=0)
    rng = np.random.default_rng(0)
    loss = model.loss(model.forward(rng.normal(size=(b, cfg.n, cfg.t))), rng.normal(size=b))
    limit = b * cfg.n * cfg.n * cfg.num_windows
    seen, stack, largest = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        largest = max(largest, node.data.size)
        stack.extend(node._parents)
    assert len(seen) > 100
    assert largest < limit, f"a node holds {largest} elements, limit {limit}"
