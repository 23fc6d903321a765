import numpy as np
import pytest

from conftest import max_rel_err, numeric_grad
from hsmgnn import tensor as T
from hsmgnn.errors import ConfigError, ContractError, NumericsError, ShapeError
from hsmgnn.optim import Adam
from hsmgnn.tensor import Tensor


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_hand_product(self):
        # [[1,2],[3,4]] times its transpose, multiplied out by hand
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(a), Tensor(a.T))
        assert np.array_equal(out.data, [[5.0, 11.0], [11.0, 25.0]])

    def test_grad_of_sum_wrt_left(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)))
        T.sum_all(T.matmul(a, b)).backward()
        expected = np.ones((3, 5)) @ b.data.T
        assert np.allclose(a.grad, expected, atol=1e-12)

    def test_finite_difference(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        T.sum_all(T.mul(T.matmul(a, b), T.matmul(a, b))).backward()

        def f():
            return float((a.data @ b.data * (a.data @ b.data)).sum())

        assert max_rel_err(a.grad, numeric_grad(f, a.data)) < 1e-4
        assert max_rel_err(b.grad, numeric_grad(f, b.data)) < 1e-4

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched_broadcast(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        out = T.matmul(a, b)
        assert out.shape == (4, 2, 5)
        T.sum_all(out).backward()
        assert a.grad.shape == (4, 2, 3)
        assert b.grad.shape == (3, 5)


class TestConv1d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 5)))
        w = Tensor(np.eye(3)[:, :, None])  # k=1 identity channel map
        assert np.allclose(T.conv1d(x, w).data, x.data, atol=1e-15)

    def test_zero_input(self):
        x = Tensor(np.zeros((1, 2, 6)))
        w = Tensor(np.random.default_rng(0).normal(size=(4, 2, 3)))
        assert np.array_equal(T.conv1d(x, w).data, np.zeros((1, 4, 6)))

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 7))
        w = rng.normal(size=(4, 3, 3))
        out = T.conv1d(Tensor(x), Tensor(w)).data

        pad = 1
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
        expected = np.zeros((2, 4, 7))
        for b in range(2):
            for o in range(4):
                for t in range(7):
                    for c in range(3):
                        for j in range(3):
                            expected[b, o, t] += xp[b, c, t + j] * w[o, c, j]
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            T.conv1d(Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros((1, 2, 2))))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros((1, 3, 3))))

    def test_finite_difference(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 2, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        out = T.conv1d(x, w, b)
        T.sum_all(T.mul(out, out)).backward()

        def f():
            pad = np.pad(x.data, ((0, 0), (0, 0), (1, 1)))
            y = np.zeros((2, 3, 5))
            for j in range(3):
                y += np.einsum("bcl,oc->bol", pad[:, :, j:j + 5], w.data[:, :, j])
            y += b.data[None, :, None]
            return float((y * y).sum())

        for p in (x, w, b):
            assert max_rel_err(p.grad, numeric_grad(f, p.data)) < 1e-4


class TestElementwise:
    def test_relu_values(self):
        assert np.array_equal(T.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_relu_subgradient_at_zero_is_zero(self):
        x = Tensor([0.0], requires_grad=True)
        T.sum_all(T.relu(x)).backward()
        assert x.grad[0] == 0.0

    def test_softmax_zero_row(self):
        out = T.softmax_rows(Tensor([[0.0, 0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, 0.25, atol=1e-15)

    def test_softmax_large_values_no_overflow(self):
        out = T.softmax_rows(Tensor([[1000.0, 1000.0]]))
        assert np.allclose(out.data, 0.5, atol=1e-15)
        assert np.all(np.isfinite(out.data))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = T.softmax_rows(Tensor(rng.normal(size=(10, 7)) * 10))
        assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) < 1e-12
        assert np.all(out.data > 0.0) and np.all(out.data <= 1.0)

    @pytest.mark.parametrize("op,ref", [
        (T.relu, lambda x: np.maximum(x, 0.0)),
        (T.sigmoid, lambda x: 1 / (1 + np.exp(-x))),
        (T.softmax_rows, lambda x: np.exp(x) / np.exp(x).sum(-1, keepdims=True)),
        (T.log, np.log),
    ])
    def test_finite_difference(self, op, ref):
        rng = np.random.default_rng(6)
        x = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        weights = rng.normal(size=(3, 4))
        T.sum_all(T.mul(op(x), Tensor(weights))).backward()

        def f():
            return float((ref(x.data) * weights).sum())

        assert max_rel_err(x.grad, numeric_grad(f, x.data)) < 1e-4


class TestStructural:
    def test_concat_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)

    def test_concat_backward_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = T.concat([a, b], axis=1)
        T.sum_all(T.mul(out, out)).backward()
        assert a.grad.shape == (2, 2) and b.grad.shape == (2, 3)
        assert np.allclose(a.grad, 2.0) and np.allclose(b.grad, 2.0)

    def test_slice_sum_transpose_reshape_grads(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        weights = rng.normal(size=(4, 2, 3))
        out = T.transpose(T.slice_axis(x, 2, 1, 2), (1, 2, 0))
        T.sum_all(T.mul(out, Tensor(weights))).backward()

        def f():
            return float((x.data[:, :, 1:3].transpose(1, 2, 0) * weights).sum())

        assert max_rel_err(x.grad, numeric_grad(f, x.data)) < 1e-4

    def test_sum_axis_keepdims(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = T.sum_axis(x, 1, keepdims=True)
        assert out.shape == (2, 1)
        T.sum_all(out).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))


class TestBackward:
    def test_relu_all_positive(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.sum_all(T.relu(x)).backward()
        assert np.array_equal(x.grad, np.ones(3))

    def test_square_analytic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.sum_all(T.mul(x, x)).backward()
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            Tensor(np.zeros(3), requires_grad=True).backward()

    def test_accumulation_without_zeroing(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.sum_all(T.mul(x, x)).backward()
        T.sum_all(T.mul(x, x)).backward()
        assert np.array_equal(x.grad, [4.0, 8.0])
        x.zero_grad()
        assert x.grad is None

    def test_determinism(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 4))

        def run():
            x = Tensor(a, requires_grad=True)
            out = T.softmax_rows(T.relu(T.matmul(x, T.transpose(x, (1, 0)))))
            return T.sum_all(out).data.copy()

        assert np.array_equal(run(), run())


class TestAdam:
    def test_zero_grad_leaves_params(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam({"p": p})
        for _ in range(5):
            opt.step()
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_single_step_moves_by_lr(self):
        # bias-corrected first step: m_hat = g, v_hat = g^2, delta ~ lr
        p = Tensor([0.0], requires_grad=True)
        p.grad = np.array([1.0])
        Adam({"p": p}, lr=1e-4).step()
        assert abs(p.data[0] + 1e-4) < 1e-9

    def test_quadratic_loss_decreases(self):
        p = Tensor([3.0], requires_grad=True)

        def loss():
            return float(p.data[0] ** 2)

        opt = Adam({"p": p}, lr=1e-2)
        before = loss()
        for _ in range(2):
            p.zero_grad()
            l = T.mul(p, p)
            T.sum_all(l).backward()
            opt.step()
        assert loss() < before

    def test_nan_grad_names_parameter(self):
        p = Tensor([0.0], requires_grad=True)
        p.grad = np.array([np.nan])
        with pytest.raises(NumericsError, match="theta"):
            Adam({"theta": p}).step()


class TestSlidingWindows:
    def test_values(self):
        x = Tensor(np.arange(10.0).reshape(2, 5))
        out = T.sliding_windows(x, 3)
        assert out.shape == (2, 3, 3)
        assert np.array_equal(out.data[1, 2], [7.0, 8.0, 9.0])
        assert np.array_equal(out.data[0, :, 0], [0.0, 1.0, 2.0])

    def test_full_width_is_one_window(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4))
        out = T.sliding_windows(Tensor(x), 4)
        assert np.array_equal(out.data[:, :, 0], x)

    def test_width_outside_axis_rejected(self):
        with pytest.raises(ConfigError):
            T.sliding_windows(Tensor(np.zeros((2, 4))), 5)
        with pytest.raises(ConfigError):
            T.sliding_windows(Tensor(np.zeros((2, 4))), 0)

    def test_finite_difference(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 3, 7)), requires_grad=True)
        weights = rng.normal(size=(2, 3, 5, 3))
        T.sum_all(T.mul(T.sliding_windows(x, 3), Tensor(weights))).backward()

        def f():
            win = np.lib.stride_tricks.sliding_window_view(x.data, 3, axis=-1)
            return float((win * weights).sum())

        assert max_rel_err(x.grad, numeric_grad(f, x.data)) < 1e-4


class TestSoftmaxCrossEntropy:
    def test_finite_for_saturated_logits(self):
        x = Tensor(np.array([[800.0, 0.0]]), requires_grad=True)
        loss = T.softmax_cross_entropy(x, np.array([1]))
        assert float(loss.data) == pytest.approx(800.0)
        loss.backward()
        assert np.allclose(x.grad, [[1.0, -1.0]], atol=1e-15)

    def test_finite_difference(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        labels = np.array([0, 2, 1, 2])
        T.softmax_cross_entropy(x, labels).backward()

        def f():
            z = x.data - x.data.max(axis=1, keepdims=True)
            log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return float(-log_p[np.arange(4), labels].mean())

        assert max_rel_err(x.grad, numeric_grad(f, x.data)) < 1e-4


class TestGradientAccumulation:
    def test_shared_gradient_not_aliased(self):
        # add hands the same gradient array to both parents
        x = Tensor(np.ones(3), requires_grad=True)
        y = T.add(x, x)
        T.sum_all(y).backward()
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])
        assert np.array_equal(y.grad, [1.0, 1.0, 1.0])

    def test_view_gradient_not_aliased(self):
        # reshape and transpose hand views of the child's gradient
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        t = T.transpose(x, (1, 0))
        out = T.add(T.sum_all(T.mul(t, t)), T.sum_all(T.reshape(x, (6,))))
        out.backward()
        assert np.array_equal(t.grad, 2.0 * t.data)
        assert np.array_equal(x.grad, 2.0 * x.data + 1.0)

    def test_overlapping_slices_accumulate(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        a = T.slice_axis(x, 0, 0, 3)
        b = T.slice_axis(x, 0, 2, 3)
        T.add(T.sum_all(T.mul(a, a)), T.sum_all(b)).backward()
        assert np.array_equal(x.grad, [0.0, 2.0, 5.0, 1.0, 1.0])
