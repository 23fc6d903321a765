import numpy as np
import pytest

import reference
from conftest import max_rel_err, numeric_grad
from hsmgnn import adb
from hsmgnn import tensor as T
from hsmgnn.errors import ContractError, ShapeError
from hsmgnn.tensor import Tensor


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestBaseAdjacency:
    def test_zero_features_give_uniform_rows(self):
        a = reference.base_adjacency(Tensor(np.zeros((1, 3, 3, 2))))
        assert np.allclose(a.data, 1.0 / 3.0, atol=1e-15)

    def test_single_node(self):
        a = reference.base_adjacency(Tensor(np.ones((1, 1, 1, 4))))
        assert np.array_equal(a.data, [[[1.0]]])

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(1, 2, 2, 3))
        out = reference.base_adjacency(Tensor(u)).data
        z = u.reshape(2, 6)
        expected = softmax(np.maximum(z @ z.T, 0.0))
        assert np.max(np.abs(out[0] - expected)) < 1e-12

    def test_rows_stochastic(self):
        rng = np.random.default_rng(1)
        out = reference.base_adjacency(Tensor(rng.normal(size=(2, 5, 5, 4)))).data
        assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12
        assert np.all(out >= 0.0)


class TestBilinearQuery:
    def test_identity_bank_returns_input(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(1, 3, 3, 2))
        q = adb.bilinear_query(Tensor(u), Tensor(np.eye(3)))
        assert np.allclose(q.data, u, atol=1e-14)

    def test_zero_bank(self):
        q = adb.bilinear_query(Tensor(np.ones((1, 3, 3, 2))), Tensor(np.zeros((3, 2))))
        assert np.array_equal(q.data, np.zeros((1, 2, 2, 2)))

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(1, 4, 4, 3))
        u = base + base.transpose(0, 2, 1, 3)
        q = adb.bilinear_query(Tensor(u), Tensor(rng.normal(size=(4, 2)))).data
        assert np.max(np.abs(q - q.transpose(0, 2, 1, 3))) < 1e-12

    def test_bank_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adb.bilinear_query(Tensor(np.zeros((1, 3, 3, 2))), Tensor(np.zeros((4, 2))))


class TestNdv:
    def _ffn(self, n, m_q, m, m_d, zero=False, rng=None):
        rng = rng or np.random.default_rng(4)
        init = (lambda s: np.zeros(s)) if zero else (lambda s: rng.normal(size=s) * 0.3)
        return (Tensor(init((m_d, m_q * m_q * m)), requires_grad=True),
                Tensor(init((m_d,)), requires_grad=True),
                Tensor(init((n, m_d)), requires_grad=True),
                Tensor(init((n,)), requires_grad=True))

    def test_zero_parameters_give_half(self):
        w1, b1, w2, b2 = self._ffn(3, 2, 2, 4, zero=True)
        q = Tensor(np.random.default_rng(5).normal(size=(1, 2, 2, 2)))
        alpha = reference.ndv(q, w1, b1, w2, b2)
        assert np.allclose(alpha.data, 0.5, atol=1e-15)

    def test_zero_query_zero_biases(self):
        rng = np.random.default_rng(6)
        w1, b1, w2, b2 = self._ffn(3, 2, 2, 4, rng=rng)
        b1.data[:] = 0.0
        b2.data[:] = 0.0
        alpha = reference.ndv(Tensor(np.zeros((1, 2, 2, 2))), w1, b1, w2, b2)
        assert np.allclose(alpha.data, 0.5, atol=1e-15)

    def test_output_in_open_unit_interval(self):
        rng = np.random.default_rng(7)
        w1, b1, w2, b2 = self._ffn(4, 3, 2, 5, rng=rng)
        alpha = reference.ndv(Tensor(rng.normal(size=(2, 3, 3, 2)) * 5), w1, b1, w2, b2)
        assert np.all(alpha.data > 0.0) and np.all(alpha.data < 1.0)


class TestRefineAdjacency:
    def test_zero_alpha_is_identity(self):
        a = np.random.default_rng(8).dirichlet(np.ones(3), size=(1, 3))
        out = reference.refine_adjacency(Tensor(np.zeros((1, 3))), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_unit_alpha_doubles(self):
        a = np.random.default_rng(9).dirichlet(np.ones(3), size=(1, 3))
        out = reference.refine_adjacency(Tensor(np.ones((1, 3))), Tensor(a))
        assert np.allclose(out.data, 2 * a, atol=1e-15)

    def test_row_sums_scale(self):
        a = np.random.default_rng(10).dirichlet(np.ones(4), size=(1, 2))
        alpha = Tensor(np.array([[0.5, 0.25]]))
        out = reference.refine_adjacency(alpha, Tensor(a))
        assert np.allclose(out.data.sum(axis=-1), [[1.5, 1.25]], atol=1e-12)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ContractError):
            adb.refine_adjacency(Tensor(np.array([[-0.1, 0.2]])))


class TestGradientFlow:
    def test_bank_gradient_through_refined_adjacency(self):
        """Loss on A^s must reach the memory bank; checked against finite differences."""
        rng = np.random.default_rng(11)
        n, m_q, m, m_d = 3, 2, 2, 3
        u = Tensor(rng.normal(size=(1, n, n, m)))
        bank = Tensor(rng.normal(size=(n, m_q)), requires_grad=True)
        w1 = Tensor(rng.normal(size=(m_d, m_q * m_q * m)) * 0.3, requires_grad=True)
        b1 = Tensor(rng.normal(size=m_d) * 0.3, requires_grad=True)
        w2 = Tensor(rng.normal(size=(n, m_d)) * 0.3, requires_grad=True)
        b2 = Tensor(rng.normal(size=n) * 0.3, requires_grad=True)
        weights = rng.normal(size=(1, n, n))

        def forward():
            a0 = reference.base_adjacency(u)
            alpha = reference.ndv(adb.bilinear_query(u, bank), w1, b1, w2, b2)
            return T.sum_all(T.mul(reference.refine_adjacency(alpha, a0), Tensor(weights)))

        forward().backward()
        assert bank.grad is not None and np.any(bank.grad != 0.0)

        def f():
            return float(forward().data)

        for p in (bank, w1, b1, w2, b2):
            grad = p.grad.copy()
            assert max_rel_err(grad, numeric_grad(f, p.data)) < 1e-4
            p.zero_grad()
