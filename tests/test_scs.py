import numpy as np
import pytest

import reference
from conftest import max_rel_err, numeric_grad
from hsmgnn import scs
from hsmgnn import tensor as T
from hsmgnn.errors import ConfigError
from hsmgnn.model import ModelConfig
from hsmgnn.tensor import Tensor


def cfg(w_p=4, delta=0.5, d_out=2, hidden=2, **kw):
    return ModelConfig(n=1, t=w_p, w_p=w_p, delta=delta, d_blocks=d_out, cnn_hidden=hidden,
                       **kw)


class TestBlockPartition:
    def test_trailing_steps_dropped(self):
        series = Tensor(np.arange(2 * 2 * 10, dtype=float).reshape(2, 2, 10))
        out = scs.block_partition(series, 4)
        assert out.shape == (2, 2, 2, 4)  # L = 2, last 2 steps gone

    def test_single_block_is_identity(self):
        x = np.random.default_rng(0).normal(size=(1, 3, 4))
        out = scs.block_partition(Tensor(x), 4)
        assert np.array_equal(out.data[:, :, 0, :], x)

    def test_ramp_block_offsets(self):
        # ramp 0..T-1: block l starts at value (l-1) * W_p
        t = 12
        x = np.tile(np.arange(float(t)), (1, 1, 1))
        out = scs.block_partition(Tensor(x), 4)
        assert out.data[0, 0, 1, 0] == 4.0
        assert out.data[0, 0, 2, 0] == 8.0

    def test_too_short_series(self):
        with pytest.raises(ConfigError):
            scs.block_partition(Tensor(np.zeros((1, 2, 3))), 4)


class TestTemporalCnn:
    def _weights(self, l, hidden, d, k=3, rng=None):
        rng = rng or np.random.default_rng(0)
        return (Tensor(rng.normal(size=(hidden, l, k)), requires_grad=True),
                Tensor(np.zeros(hidden), requires_grad=True),
                Tensor(rng.normal(size=(d, hidden, k)), requires_grad=True),
                Tensor(np.zeros(d), requires_grad=True))

    def test_zero_input_zero_output(self):
        w1, b1, w2, b2 = self._weights(2, 3, 2)
        out = scs.temporal_cnn(Tensor(np.zeros((1, 2, 2, 4))), w1, b1, w2, b2)
        assert np.array_equal(out.data, np.zeros((1, 2, 2, 4)))

    def test_identity_channel_map(self):
        # k=1 identity kernels with hidden = L = D pass relu(X) through
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 3, 4))
        eye = np.eye(3)[:, :, None]
        w1 = Tensor(eye)
        w2 = Tensor(eye)
        zeros = Tensor(np.zeros(3))
        out = scs.temporal_cnn(Tensor(x), w1, zeros, w2, zeros)
        assert np.allclose(out.data, np.maximum(x, 0.0), atol=1e-14)

    def test_output_shape_contract(self):
        w1, b1, w2, b2 = self._weights(3, 5, 4)
        out = scs.temporal_cnn(Tensor(np.random.default_rng(2).normal(size=(2, 3, 3, 6))),
                               w1, b1, w2, b2)
        assert out.shape == (2, 3, 4, 6)


class TestWindowCovariance:
    def test_window_count(self):
        # W_p=4 with z_s=2 gives three overlapping windows
        out = reference.window_covariance(Tensor(np.ones((1, 2, 4))), 2, 1e-6)
        assert out.shape == (1, 2, 2, 3)

    def test_identity_window(self):
        p = Tensor(np.eye(2)[None, :, :])
        out = reference.window_covariance(p, 2, 1e-6)
        assert np.allclose(out.data[0, :, :, 0], np.eye(2) * (1 + 1e-6), atol=1e-15)

    def test_hand_product(self):
        p = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        out = reference.window_covariance(p, 2, 1e-6)
        expected = np.array([[5.0, 11.0], [11.0, 25.0]]) + 1e-6 * np.eye(2)
        assert np.allclose(out.data[0, :, :, 0], expected, atol=1e-15)

    def test_window_longer_than_block(self):
        with pytest.raises(ConfigError):
            scs.window_covariance(Tensor(np.ones((1, 2, 4))), 5)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        p = Tensor(rng.normal(size=(1, 2, 4)), requires_grad=True)
        weights = rng.normal(size=(1, 2, 2, 3))
        T.sum_all(T.mul(reference.window_covariance(p, 2, 1e-6), Tensor(weights))).backward()

        def f():
            acc = 0.0
            for m in range(3):
                win = p.data[0, :, m:m + 2]
                acc += ((win @ win.T + 1e-6 * np.eye(2)) * weights[0, :, :, m]).sum()
            return acc

        assert max_rel_err(p.grad, numeric_grad(f, p.data)) < 1e-4


def block_batch(p: np.ndarray) -> Tensor:
    """CNN features (B, N, D, W_p) as the model's (B*D, N, W_p) block batch."""
    b, n, d, w_p = p.shape
    return Tensor(p.transpose(0, 2, 1, 3).reshape(b * d, n, w_p))


class TestSpdTensor:
    def test_block_batch_matches_per_block_calls(self):
        rng = np.random.default_rng(4)
        p = rng.normal(size=(2, 3, 3, 4))
        c = cfg(d_out=3)
        batched = reference.window_covariance(block_batch(p), c.z_s, c.eps_spd).data
        for d in range(3):
            direct = reference.window_covariance(Tensor(p[:, :, d]), c.z_s, c.eps_spd).data
            assert np.array_equal(batched[d::3], direct)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        p = rng.normal(size=(1, 4, 2, 4))
        perm = np.array([2, 0, 3, 1])
        pm = np.eye(4)[perm]
        c = cfg()
        u = reference.window_covariance(block_batch(p), c.z_s, c.eps_spd).data
        u_perm = reference.window_covariance(block_batch(p[:, perm]), c.z_s, c.eps_spd).data
        for m in range(c.num_windows):
            for d in range(2):
                conjugated = pm @ u[d, :, :, m] @ pm.T
                assert np.allclose(u_perm[d, :, :, m], conjugated, atol=1e-12)

    def test_window_arithmetic_from_ratio(self):
        c = cfg(w_p=10, delta=0.3)
        assert c.z_s == 3
        assert c.num_windows == 8

    def test_window_count_law(self):
        for w_p in (4, 7, 10):
            for delta in (0.1, 0.3, 0.5, 0.7, 0.9):
                c = cfg(w_p=w_p, delta=delta)
                assert c.num_windows == w_p - c.z_s + 1
                assert c.num_windows >= 1


class TestSpdInvariants:
    def test_exact_symmetry_and_positive_definiteness(self):
        rng = np.random.default_rng(6)
        c = cfg(w_p=6, delta=0.4)
        p = rng.normal(size=(2, 4, 2, 6))
        u = reference.window_covariance(block_batch(p), c.z_s, c.eps_spd).data
        for bd in range(4):
            for m in range(c.num_windows):
                s = u[bd, :, :, m]
                assert np.max(np.abs(s - s.T)) == 0.0
                for _ in range(20):
                    x = rng.normal(size=4)
                    assert x @ s @ x >= c.eps_spd * (x @ x) - 1e-9

    def test_min_eigenvalue_oracle(self):
        # offline eigen check only; the forward path never decomposes
        rng = np.random.default_rng(7)
        c = cfg(w_p=5, delta=0.5)
        p = rng.normal(size=(1, 3, 2, 5))
        u = reference.window_covariance(block_batch(p), c.z_s, c.eps_spd).data
        for m in range(c.num_windows):
            for d in range(2):
                ev = np.linalg.eigvalsh(u[d, :, :, m])
                assert ev.min() >= c.eps_spd - 1e-9


def test_delta_out_of_range():
    with pytest.raises(ConfigError):
        cfg(delta=1.5)
