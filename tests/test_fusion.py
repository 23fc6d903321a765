import numpy as np
import pytest

from hsmgnn import fusion
from hsmgnn import tensor as T
from hsmgnn.errors import ConfigError, ContractError, ShapeError
from hsmgnn.tensor import Tensor


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def make_mlp(f_u, widths=(4, 4, 4), out=1, rng=None, zero_bias=False):
    rng = rng or np.random.default_rng(0)
    dims = (f_u,) + widths + (out,)
    mlp = {}
    for i in range(4):
        mlp[f"w{i + 1}"] = Tensor(rng.normal(size=(dims[i + 1], dims[i])) * 0.2,
                                  requires_grad=True)
        bias = np.zeros(dims[i + 1]) if zero_bias else rng.normal(size=dims[i + 1]) * 0.2
        mlp[f"b{i + 1}"] = Tensor(bias, requires_grad=True)
    return mlp


class TestEuclideanAdjacency:
    def test_zero_features_uniform(self):
        out = fusion.euclidean_adjacency(Tensor(np.zeros((1, 4, 3))))
        assert np.allclose(out.data, 0.25, atol=1e-15)

    def test_single_node(self):
        out = fusion.euclidean_adjacency(Tensor(np.ones((1, 1, 5))))
        assert np.array_equal(out.data, [[[1.0]]])

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=(1, 3, 4))
        out = fusion.euclidean_adjacency(Tensor(p)).data
        expected = softmax(np.maximum(p[0] @ p[0].T, 0.0))
        assert np.max(np.abs(out[0] - expected)) < 1e-12


class TestMultihopConv:
    def test_identity_adjacency_scales(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(1, 4, 3))
        out = fusion.multihop_conv(Tensor(u), Tensor(np.eye(4)[None]), 3)
        assert np.allclose(out.data, 3 * u, atol=1e-12)

    def test_zero_adjacency(self):
        out = fusion.multihop_conv(Tensor(np.ones((1, 3, 2))),
                                   Tensor(np.zeros((1, 3, 3))), 2)
        assert np.array_equal(out.data, np.zeros((1, 3, 2)))

    def test_two_hop_brute_force(self):
        a = np.array([[0.2, 0.8], [0.5, 0.5]])
        u = np.array([[1.0, -1.0], [2.0, 0.5]])
        out = fusion.multihop_conv(Tensor(u[None]), Tensor(a[None]), 2)
        expected = a @ u + a @ a @ u
        assert np.max(np.abs(out.data[0] - expected)) < 1e-10

    def test_zero_hops_rejected(self):
        with pytest.raises(ConfigError):
            fusion.multihop_conv(Tensor(np.ones((1, 2, 2))),
                                 Tensor(np.ones((1, 2, 2))), 0)

    def test_linearity_in_features(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.uniform(0, 1, size=(1, 4, 4)))
        u1 = rng.normal(size=(1, 4, 3))
        u2 = rng.normal(size=(1, 4, 3))
        lhs = fusion.multihop_conv(Tensor(2.0 * u1 + 3.0 * u2), a, 3).data
        rhs = (2.0 * fusion.multihop_conv(Tensor(u1), a, 3).data
               + 3.0 * fusion.multihop_conv(Tensor(u2), a, 3).data)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestBranchFeatures:
    def test_single_block(self):
        rng = np.random.default_rng(4)
        blk = rng.normal(size=(2, 3, 5))
        w = Tensor(rng.normal(size=(5, 4)))
        b = Tensor(rng.normal(size=4))
        out = fusion.branch_features([Tensor(blk)], w, b)
        assert out.shape == (2, 1, 3, 4)
        assert np.allclose(out.data[:, 0], blk @ w.data + b.data, atol=1e-12)

    def test_identity_projection(self):
        rng = np.random.default_rng(5)
        blocks = [rng.normal(size=(1, 3, 4)) for _ in range(2)]
        w = Tensor(np.eye(4))
        b = Tensor(np.zeros(4))
        out = fusion.branch_features([Tensor(x) for x in blocks], w, b)
        for d in range(2):
            assert np.array_equal(out.data[:, d], blocks[d])

    def test_shape_contract(self):
        rng = np.random.default_rng(6)
        out = fusion.branch_features([Tensor(rng.normal(size=(2, 3, 5))) for _ in range(4)],
                                     Tensor(rng.normal(size=(5, 2))), Tensor(np.zeros(2)))
        assert out.shape == (2, 4, 3, 2)

    def test_inconsistent_widths(self):
        with pytest.raises(ShapeError):
            fusion.branch_features([Tensor(np.zeros((1, 2, 3))),
                                    Tensor(np.zeros((1, 2, 4)))],
                                   Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))


class TestFuseAndPredict:
    def test_spd_gate_kills_spd_gradients(self):
        rng = np.random.default_rng(7)
        u_s = Tensor(rng.normal(size=(2, 2, 3, 2)), requires_grad=True)
        u_e = Tensor(rng.normal(size=(2, 2, 3, 2)), requires_grad=True)
        mlp = make_mlp(24, rng=rng)
        pred = fusion.fuse_and_predict(u_s, u_e, 0.0, 1.0, mlp)
        T.sum_all(pred).backward()
        assert np.all(u_s.grad == 0.0)
        assert np.any(u_e.grad != 0.0)

    def test_spd_gate_output_invariance(self):
        rng = np.random.default_rng(8)
        u_e = Tensor(rng.normal(size=(1, 2, 3, 2)))
        mlp = make_mlp(18, rng=rng)
        a = fusion.fuse_and_predict(Tensor(rng.normal(size=(1, 1, 3, 2))), u_e, 0.0, 1.0, mlp)
        b = fusion.fuse_and_predict(Tensor(rng.normal(size=(1, 1, 3, 2))), u_e, 0.0, 1.0, mlp)
        assert np.array_equal(a.data, b.data)

    def test_all_gates_zero_returns_final_bias(self):
        rng = np.random.default_rng(9)
        mlp = make_mlp(12, zero_bias=True, rng=rng)
        mlp["b4"] = Tensor(np.array([2.5]))
        pred = fusion.fuse_and_predict(Tensor(rng.normal(size=(1, 1, 3, 2))),
                                       Tensor(rng.normal(size=(1, 1, 3, 2))),
                                       0.0, 0.0, mlp)
        assert np.allclose(pred.data, 2.5, atol=1e-15)

    def test_fused_width_mismatch(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ShapeError):
            fusion.fuse_and_predict(Tensor(rng.normal(size=(1, 2, 3, 2))), None,
                                    1.0, 1.0, make_mlp(13, rng=rng))

    def test_no_branches_rejected(self):
        with pytest.raises(ContractError):
            fusion.fuse_and_predict(None, None, 1.0, 1.0, make_mlp(4))


class TestLosses:
    def test_perfect_prediction_zero_loss(self):
        target = np.array([1.0, -2.0, 0.5])
        loss = fusion.mse_loss(Tensor(target.reshape(3, 1)), target)
        assert float(loss.data) == 0.0

    def test_single_error(self):
        loss = fusion.mse_loss(Tensor([[0.0]]), np.array([3.0]))
        assert float(loss.data) == 9.0

    def test_batch_mse_matches_direct_summation(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            pred = rng.normal(size=6)
            target = rng.normal(size=6)
            loss = fusion.mse_loss(Tensor(pred.reshape(6, 1)), target)
            expected = float(((pred - target) ** 2).sum() / 6)
            assert abs(float(loss.data) - expected) < 1e-12

    def test_empty_batch(self):
        with pytest.raises(ContractError):
            fusion.mse_loss(Tensor(np.zeros((0, 1))), np.zeros(0))

    def test_cross_entropy_matches_manual(self):
        logits = np.array([[2.0, 0.5, -1.0], [0.0, 1.0, 0.0]])
        labels = np.array([0, 2])
        loss = fusion.cross_entropy_loss(Tensor(logits), labels)
        probs = softmax(logits)
        expected = -np.mean([np.log(probs[0, 0]), np.log(probs[1, 2])])
        assert abs(float(loss.data) - expected) < 1e-12

    def test_cross_entropy_finite_for_saturated_logits(self):
        logits = Tensor(np.array([[800.0, 0.0], [0.0, 1.0]]), requires_grad=True)
        loss = fusion.cross_entropy_loss(logits, np.array([1, 1]))
        assert np.isfinite(float(loss.data))
        assert float(loss.data) == pytest.approx((800.0 + np.log1p(np.exp(-1.0))) / 2)
        loss.backward()
        assert np.all(np.isfinite(logits.grad))
