"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 6 and 7 need the real turbofan dataset on disk; point
HSMGNN_CMAPSS_DIR at a directory containing train_FD001.txt,
test_FD001.txt and RUL_FD001.txt to enable them.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

import reference
from conftest import max_rel_err, numeric_grad
from hsmgnn import HSMGNN, ModelConfig, TrainConfig, ablate, evaluate, train
from hsmgnn import adb, data as D, fusion
from hsmgnn import tensor as T
from hsmgnn.checkpoint import load_checkpoint
from hsmgnn.tensor import Tensor

CMAPSS_DIR = os.environ.get("HSMGNN_CMAPSS_DIR")


def acceptance_config():
    return ModelConfig(n=3, t=8, w_p=4, delta=0.5, d_blocks=2, cnn_hidden=2,
                       m_q=2, m_d=3, f_s=4, f_e=4, r_s=2, r_e=2,
                       mlp_widths=(8, 8, 8))


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    model = HSMGNN(acceptance_config(), seed=0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 8))
    y = rng.normal(size=2)

    loss = model.loss(model.forward(x), y)
    loss.backward()

    def f():
        return float(model.loss(model.forward(x), y).data)

    worst = 0.0
    for name, p in model.params.items():
        fd = numeric_grad(f, p.data, h=1e-6)
        rel = max_rel_err(p.grad, fd)
        assert rel < 1e-4, f"{name}: relative error {rel}"
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 (gradient suite): PASS, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_geometric_invariants():
    rng = np.random.default_rng(2)
    cfg = ModelConfig(n=1, t=6, w_p=6, delta=0.4)
    n, checked = 4, 0
    while checked < 1000:
        p = Tensor(rng.normal(size=(8, n, cfg.w_p)))
        u = reference.window_covariance(p, cfg.z_s, cfg.eps_spd).data  # (8, n, n, M)
        for b in range(8):
            for m in range(cfg.num_windows):
                s = u[b, :, :, m]
                assert np.max(np.abs(s - s.T)) == 0.0
                xs = rng.normal(size=(100, n))
                quad = np.einsum("ki,ij,kj->k", xs, s, xs)
                norms = np.einsum("ki,ki->k", xs, xs)
                assert np.all(quad >= cfg.eps_spd * norms - 1e-9)
                checked += 1
                if checked >= 1000:
                    break
            if checked >= 1000:
                break

    u_d = Tensor(rng.normal(size=(4, 5, 5, 3)))
    a0 = reference.base_adjacency(u_d)
    assert np.max(np.abs(a0.data.sum(axis=-1) - 1.0)) < 1e-12
    a_s = adb.base_adjacency(p, cfg.z_s, cfg.eps_spd)  # the model's, from the last blocks
    assert np.max(np.abs(a_s.data.sum(axis=-1) - 1.0)) < 1e-12
    alpha = rng.uniform(0.0, 1.0, size=(4, 5))
    refined = reference.refine_adjacency(Tensor(alpha), a0)
    assert np.max(np.abs(refined.data.sum(axis=-1) - (1.0 + alpha))) < 1e-12
    print("ACCEPTANCE 2 (geometric invariants): PASS, 1000 slices checked")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(3)
    n, m, m_q = 2, 3, 2
    u = rng.normal(size=(1, n, n, m))

    # base adjacency vs brute-force recomputation
    z = u.reshape(n, n * m)
    scores = np.maximum(z @ z.T, 0.0)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    expected_a = e / e.sum(axis=1, keepdims=True)
    got_a = reference.base_adjacency(Tensor(u)).data[0]
    assert np.max(np.abs(got_a - expected_a)) < 1e-10

    # bilinear query vs per-slice loops
    xi = rng.normal(size=(n, m_q))
    got_q = reference.bilinear_query(Tensor(u), Tensor(xi)).data[0]
    for mm in range(m):
        expected_q = xi.T @ u[0, :, :, mm] @ xi
        assert np.max(np.abs(got_q[:, :, mm] - expected_q)) < 1e-10

    # two-hop convolution vs explicit powers
    a = rng.uniform(0, 1, size=(n, n))
    feats = rng.normal(size=(n, 4))
    got_c = fusion.multihop_conv(Tensor(feats[None]), Tensor(a[None]), 2).data[0]
    assert np.max(np.abs(got_c - (a @ feats + a @ a @ feats))) < 1e-10

    # MSE vs direct summation
    pred = rng.normal(size=5)
    target = rng.normal(size=5)
    got_l = float(fusion.mse_loss(Tensor(pred.reshape(5, 1)), target).data)
    assert abs(got_l - ((pred - target) ** 2).sum() / 5) < 1e-10
    print("ACCEPTANCE 3 (oracle equivalence): PASS")


def test_criterion_4_closed_form_anchors():
    rng = np.random.default_rng(4)
    # identity adjacency sums to r copies
    for r in (1, 2, 5):
        u = rng.normal(size=(1, 3, 2))
        out = fusion.multihop_conv(Tensor(u), Tensor(np.eye(3)[None]), r)
        assert np.allclose(out.data, r * u, atol=1e-12)

    # w_s = 0 kills all SPD-branch parameter gradients
    cfg = acceptance_config()
    gated = replace(cfg, w_s=0.0)
    model = HSMGNN(gated, seed=0)
    loss = model.loss(model.forward(rng.normal(size=(2, 3, 8))), rng.normal(size=2))
    loss.backward()
    # the temporal CNN is shared with the Euclidean branch; only the
    # SPD-exclusive parameters must be gated off
    spd_params = [k for k in model.params if k.startswith(("adb.", "proj_s."))]
    assert spd_params
    for k in spd_params:
        assert np.all(model.params[k].grad == 0.0), k

    # window arithmetic: block length 4 with window 2 gives 3 windows
    c = ModelConfig(n=1, t=4, w_p=4, delta=0.5)
    assert c.z_s == 2 and c.num_windows == 3
    print("ACCEPTANCE 4 (closed-form anchors): PASS")


def test_criterion_5_overfit_sanity():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    n, t = 3, 8
    x = rng.normal(size=(64, n, t))
    w = rng.normal(size=(n, t)) * 0.1
    y = np.einsum("bnt,nt->b", x, w)
    sset = D.SampleSet(x[:, :, :, None], y, "regression")
    cfg = ModelConfig(n=n, t=t, w_p=4, delta=0.5, d_blocks=2, cnn_hidden=4,
                      m_q=4, m_d=8, f_s=4, f_e=4, mlp_widths=(32, 16, 8))
    tc = TrainConfig(batch_size=64, epochs=2000, lr=1e-4, patience=10 ** 6,
                     seed=0, max_steps=2000)
    model, _ = train(cfg, tc, sset, sset)
    mse = float(np.mean((model.predict(sset.model_inputs()) - y) ** 2))
    elapsed = time.perf_counter() - started
    assert mse < 1e-2, f"training MSE {mse}"
    assert elapsed < 300.0
    print(f"ACCEPTANCE 5 (overfit sanity): PASS, MSE {mse:.2e} in {elapsed:.0f}s")


@pytest.mark.skipif(CMAPSS_DIR is None,
                    reason="set HSMGNN_CMAPSS_DIR to the turbofan data directory")
def test_criterion_6_fd001_quantitative_gate():
    train_full = D.load_cmapss(CMAPSS_DIR, "FD001")
    test_set = D.load_cmapss(CMAPSS_DIR, "FD001", split="test")
    train_set, valid_set = D.carve_validation(train_full, 0.1, seed=0)
    n, t, _ = train_set.shape
    cfg = ModelConfig(n=n, t=t)
    tc = TrainConfig(seed=0)
    model, _ = train(cfg, tc, train_set, valid_set)
    report = evaluate(model, test_set)

    baseline_rmse = float(np.sqrt(np.mean(
        (train_set.labels.mean() - test_set.labels) ** 2)))
    assert report.rmse <= 16.0, f"test RMSE {report.rmse}"
    assert report.rmse <= 0.7 * baseline_rmse, \
        f"RMSE {report.rmse} vs baseline {baseline_rmse}"
    print(f"ACCEPTANCE 6 (FD001 gate): PASS, RMSE {report.rmse:.2f} "
          f"vs baseline {baseline_rmse:.2f}")


@pytest.mark.skipif(CMAPSS_DIR is None,
                    reason="set HSMGNN_CMAPSS_DIR to the turbofan data directory")
def test_criterion_7_ablation_ordering():
    from hsmgnn.training import run_ablations

    train_full = D.load_cmapss(CMAPSS_DIR, "FD001")
    test_set = D.load_cmapss(CMAPSS_DIR, "FD001", split="test")
    train_set, valid_set = D.carve_validation(train_full, 0.1, seed=0)
    n, t, _ = train_set.shape
    cfg = ModelConfig(n=n, t=t)
    tc = TrainConfig(epochs=20, patience=5)
    rows = run_ablations(cfg, tc, train_set, valid_set, test_set, seeds=[0, 1, 2])
    mean_rmse = {}
    for variant in ("complete", "no-scs", "no-adb", "no-fgcn"):
        mean_rmse[variant] = np.mean([r["rmse"] for r in rows if r["variant"] == variant])
    for variant in ("no-scs", "no-adb", "no-fgcn"):
        assert mean_rmse["complete"] <= mean_rmse[variant] + 0.5, mean_rmse
    print(f"ACCEPTANCE 7 (ablation ordering): PASS, {mean_rmse}")


def test_criterion_8_complexity_contract(monkeypatch):
    def chains(n, m_q=32, m=8, m_d=16, z_s=3, f_s=8, eps=1e-6):
        """At N = n: the reference bilinear_query -> ndv -> refine_adjacency chain on a dense
        (1, N, N, M) stack, and the chain the model runs on window factors (1, M, N, z_s) and
        a block (1, N, W_p), adb.ndv -> adb.refine_adjacency -> gated factored_multihop."""
        rng = np.random.default_rng(0)
        u = Tensor(rng.normal(size=(1, n, n, m)))
        a = Tensor(np.abs(rng.normal(size=(1, n, n))))
        bank = Tensor(rng.normal(size=(n, m_q)))
        w1 = Tensor(rng.normal(size=(m_d, m_q * m_q * m)) * 0.1)
        b1 = Tensor(np.zeros(m_d))
        w2 = Tensor(rng.normal(size=(n, m_d)) * 0.1)
        b2 = Tensor(np.zeros(n))
        w = Tensor(rng.normal(size=(1, m, n, z_s)))
        proj_w = Tensor(rng.normal(size=(n * m, f_s)))
        proj_b = Tensor(np.zeros(f_s))
        p = Tensor(rng.normal(size=(1, n, m + z_s - 1)))

        def dense():
            q = reference.bilinear_query(u, bank)
            alpha = reference.ndv(q, w1, b1, w2, b2)
            reference.refine_adjacency(alpha, a)

        def factored():
            gate = adb.refine_adjacency(adb.ndv(w, bank, w1, b1, w2, b2, eps))
            fusion.factored_multihop(p, a, 2, proj_w, proj_b, z_s, eps, gate)
        return {"dense": dense, "factored": factored}

    def median_seconds(chain, reps=100):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            chain()
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    def matmul_madds(chain):
        """Multiply-adds of every forward product the chain computes, those of `T.matmul` and
        the r hops inside `T.multihop` alike: deterministic, unlike its time."""
        total, product = 0, T._product

        def counted(x, y):
            nonlocal total
            out = product(x, y)
            total += out.size * x.shape[-1]
            return out

        with monkeypatch.context() as patch:
            patch.setattr(T, "_product", counted)
            chain()
        return total

    small, large = chains(64), chains(128)
    ratios = {name: median_seconds(large[name]) / median_seconds(small[name]) for name in small}
    for name, ratio in ratios.items():
        assert ratio <= 5.0, f"{name}: doubling N scaled time by {ratio:.2f}"
    # quadratic work gives 4 and cubic work 8. Counted from N = 128, where one added
    # (1, N, N) @ (1, N, N) product outweighs the factored chain's linear terms; from N = 64
    # those terms hold the ratio with such a product at 4.2
    larger = chains(256)
    madds = {name: matmul_madds(larger[name]) / matmul_madds(large[name]) for name in large}
    for name, ratio in madds.items():
        assert ratio <= 4.5, f"{name}: doubling N scaled matmul multiply-adds by {ratio:.2f}"
    print(f"ACCEPTANCE 8 (complexity contract): PASS, time ratios {ratios}, "
          f"multiply-add ratios {madds}")


def test_criterion_9_serialization(tmp_path):
    # model checkpoint round trip
    model = HSMGNN(acceptance_config(), seed=0)
    p1 = tmp_path / "a.hsmg"
    p2 = tmp_path / "b.hsmg"
    model.save(p1)
    other = HSMGNN(acceptance_config(), seed=1)
    other.load(p1)
    other.save(p2)
    assert p1.read_bytes() == p2.read_bytes()

    # canonical dataset round trip
    rng = np.random.default_rng(9)
    sset = D.SampleSet(rng.normal(size=(5, 3, 8, 1)), rng.normal(size=5), "regression")
    d1 = tmp_path / "a.mtsd"
    d2 = tmp_path / "b.mtsd"
    D.save_canonical(d1, sset)
    D.save_canonical(d2, D.load_canonical(d1))
    assert d1.read_bytes() == d2.read_bytes()

    # the no-adb variant carries no memory-bank tensors
    no_adb = HSMGNN(ablate("no-adb", acceptance_config()), seed=0)
    p3 = tmp_path / "noadb.hsmg"
    no_adb.save(p3)
    assert not any(k.startswith("adb.") for k in load_checkpoint(p3))
    print("ACCEPTANCE 9 (serialization): PASS")
