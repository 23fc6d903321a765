import ast
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reference
from conftest import max_rel_err, numeric_grad
from hsmgnn import optim
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


def raw_products(source: str) -> list[int]:
    """Lines of `source` that take a matrix product outside a function named `_product`:
    an `@` or `@=`, any `.dot`, `.einsum`, `.tensordot` or `.multi_dot`, or `np.matmul`."""
    tree = ast.parse(source)
    ledger = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_product"
              for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in ledger:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and (
                node.attr in ("dot", "einsum", "tensordot", "multi_dot")
                or node.attr == "matmul" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy") \
                and {a.name for a in node.names} & {"matmul", "dot", "einsum", "tensordot"}:
            lines.append(node.lineno)
    return lines


def test_every_product_of_the_package_is_taken_in_product():
    """`tensor._product` is the one place a matrix product is taken, forward or backward,
    so that criterion 8's multiply-add count sees every product the model computes."""
    package = Path(T.__file__).parent
    found = {path.name: raw_products(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert raw_products("def _product(x, y):\n    return x @ y\n") == []
    assert raw_products("def f(x, y):\n    return x @ y\n") == [2]
    assert raw_products("y = np.matmul(a, b) + a.dot(b)\n") == [1, 1]


STEP_FAULTS = textwrap.dedent("""
    import resource
    import numpy as np
    from hsmgnn import HSMGNN, ModelConfig
    from hsmgnn.optim import Adam

    model = HSMGNN(ModelConfig(n=14, t=30), seed=0)
    opt = Adam(model.params, lr=1e-3)
    x, y = np.random.default_rng(0).normal(size=(32, 14, 30)), np.ones(32)
    for step in range(6):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        model.loss(model.forward(x), y).backward()
        opt.step()
        opt.zero_grad()
        if step >= 2:
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux") or not (
    os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"), reason="glibc only")
def test_a_training_step_reuses_the_memory_the_step_before_freed():
    """Under glibc's moving malloc thresholds a step at N=14, B=32 page-faulted in about
    2,500 pages of the arrays the step before had freed, in some processes and not in
    others. A fresh interpreter has the allocation history of a plain run."""
    src = str(Path(T.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", STEP_FAULTS], env=env, check=True,
                         capture_output=True, text=True).stdout
    faults = [int(line) for line in out.split()]
    assert len(faults) == 4 and max(faults) < 250, faults


class TestMatmulGradients:
    """Gradients of every operand against central differences, for the 2-D
    operand shapes that get one flattened product and the batched ones that
    are summed over their broadcast axes."""

    @staticmethod
    def _check(a_val, b_val, a_view=None, b_view=None):
        rng = np.random.default_rng(a_val.size + b_val.size)
        a = Tensor(a_val, requires_grad=True)
        b = Tensor(b_val, requires_grad=True)
        left = a if a_view is None else a_view(a)
        right = b if b_view is None else b_view(b)
        out = T.matmul(left, right)
        weights = rng.normal(size=out.shape)
        T.sum_all(T.mul(out, Tensor(weights))).backward()

        def f():
            x = a.data if a_view is None else a_view(Tensor(a.data)).data
            y = b.data if b_view is None else b_view(Tensor(b.data)).data
            return float(((x @ y) * weights).sum())

        for p in (a, b):
            assert p.grad.flags.c_contiguous or p.data.ndim > 2  # 2-D: a weight, read as W or W^T
            assert max_rel_err(p.grad, numeric_grad(f, p.data)) < 1e-6

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((3, 4), (5, 4, 2)),           # 2-D @ 3-D
        ((2, 5, 3, 4), (4, 2)),        # 4-D @ 2-D
        ((5, 3, 4), (4, 2)),           # 3-D @ 2-D
        ((3, 4), (2, 1, 4, 2)),        # 2-D @ 4-D with a size-1 batch axis
        ((2, 1, 3, 4), (1, 3, 4, 2)),  # 4-D @ 4-D, size-1 batch axes on both
        ((1, 3, 4), (2, 3, 4, 2)),     # 3-D @ 4-D
    ])
    def test_broadcast_operands(self, a_shape, b_shape):
        rng = np.random.default_rng(len(a_shape) * 10 + len(b_shape))
        self._check(rng.normal(size=a_shape), rng.normal(size=b_shape))

    @pytest.mark.parametrize("a_shape,b_shape,side", [
        ((4, 3), (5, 4, 2), "left"),   # W^T @ 3-D
        ((2, 3, 4), (2, 4), "right"),  # 3-D @ W^T
        ((4, 3), (2, 4), "both"),      # 2-D @ 2-D, as in the MLP head
        ((5, 3, 4), (2, 5, 2, 4), "right"),  # a batched operand read transposed
    ])
    def test_transposed_view_operands(self, a_shape, b_shape, side):
        rng = np.random.default_rng(len(a_shape) + 7 * len(b_shape))

        def swap(t):
            k = t.data.ndim
            return T.transpose(t, (*range(k - 2), k - 1, k - 2))

        self._check(rng.normal(size=a_shape), rng.normal(size=b_shape),
                    swap if side in ("left", "both") else None,
                    swap if side in ("right", "both") else None)


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

    @staticmethod
    def _loop_conv(x, w, b):
        """Five-fold loop over the definition, zero outside the input."""
        batch, c_in, length = x.shape
        c_out, _, k = w.shape
        y = np.zeros((batch, c_out, length)) + b[None, :, None]
        for i in range(batch):
            for o in range(c_out):
                for t in range(length):
                    for c in range(c_in):
                        for j in range(k):
                            if 0 <= t + j - k // 2 < length:
                                y[i, o, t] += x[i, c, t + j - k // 2] * w[o, c, j]
        return y

    # k=3 with L >= k is the case of the two tests above
    @pytest.mark.parametrize("k,length", [(1, 6), (5, 6), (5, 2), (3, 1)])
    def test_kernel_sizes_against_loop_oracle(self, k, length):
        rng = np.random.default_rng(k * 10 + length)
        x = rng.normal(size=(2, 3, length))
        w, b = rng.normal(size=(4, 3, k)), rng.normal(size=4)
        out = T.conv1d(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.max(np.abs(out - self._loop_conv(x, w, b))) < 1e-12

    @pytest.mark.parametrize("k,length", [(1, 5), (5, 5), (5, 2)])
    def test_kernel_sizes_finite_difference(self, k, length):
        rng = np.random.default_rng(k * 10 + length)
        x = Tensor(rng.normal(size=(2, 2, length)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, k)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        out = T.conv1d(x, w, b)
        T.sum_all(T.mul(out, out)).backward()

        def f():
            y = self._loop_conv(x.data, w.data, b.data)
            return float((y * y).sum())

        for p in (x, w, b):
            assert max_rel_err(p.grad, numeric_grad(f, p.data)) < 1e-4


class TestElementwise:
    def test_relu_values(self):
        assert np.array_equal(T.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("length", [1, 3, 8, 17, 64])
    def test_relu_maps_nan_negative_zero_and_minus_inf_to_plus_zero(self, length):
        # at every position, so that vectorised bodies and scalar tails both run
        for special in (np.nan, -0.0, -np.inf):
            for pos in range(length):
                x = np.ones(length)
                x[pos] = special
                out = T.relu(Tensor(x)).data[pos]
                assert out == 0.0 and not np.signbit(out), (special, pos)

    def test_relu_subgradient_at_zero_is_zero(self):
        x = Tensor([0.0], requires_grad=True)
        T.sum_all(T.relu(x)).backward()
        assert x.grad[0] == 0.0

    def test_softmax_zero_row(self):
        out = reference.softmax_rows(Tensor([[0.0, 0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, 0.25, atol=1e-15)

    def test_softmax_large_values_no_overflow(self):
        out = reference.softmax_rows(Tensor([[1000.0, 1000.0]]))
        assert np.allclose(out.data, 0.5, atol=1e-15)
        assert np.all(np.isfinite(out.data))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = reference.softmax_rows(Tensor(rng.normal(size=(10, 7)) * 10))
        assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) < 1e-12
        assert np.all(out.data > 0.0) and np.all(out.data <= 1.0)

    @pytest.mark.parametrize("op,ref", [
        (T.relu, lambda x: np.maximum(x, 0.0)),
        (T.sigmoid, lambda x: 1 / (1 + np.exp(-x))),
        (reference.softmax_rows, lambda x: np.exp(x) / np.exp(x).sum(-1, keepdims=True)),
        (T.softmax_relu_rows, lambda x: np.exp(np.maximum(x, 0.0))
         / np.exp(np.maximum(x, 0.0)).sum(-1, keepdims=True)),
    ])
    def test_finite_difference(self, op, ref):
        rng = np.random.default_rng(6)
        x = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        weights = rng.normal(size=(3, 4))
        T.sum_all(T.mul(op(x), Tensor(weights))).backward()

        def f():
            return float((ref(x.data) * weights).sum())

        assert max_rel_err(x.grad, numeric_grad(f, x.data)) < 1e-4


def softmax_relu_composed(a: Tensor, ridge: float) -> Tensor:
    return reference.softmax_rows(T.relu(T.add(a, Tensor(ridge * np.eye(a.shape[-1])))))


def multihop_loop(a: Tensor, u: Tensor, r: int, gate: Tensor | None) -> Tensor:
    """sum_{j=1..r} (D A)^j U hop by hop from `matmul`, `mul` and `add`."""
    h, out = u, None
    for _ in range(r):
        h = T.matmul(a, h)
        if gate is not None:
            h = T.add(T.mul(gate, h), h)
        out = h if out is None else T.add(out, h)
    return out


class TestSoftmaxReluRows:
    """The fused node against central differences and, bit for bit, the composition."""

    def test_finite_difference_mixed_signs_with_ridge(self):
        rng = np.random.default_rng(11)
        ridge = 0.25  # |entries| >= 0.5, so every entry of a + ridge*I is 0.25 or more from 0
        x = rng.choice([-1.0, 1.0], size=(2, 4, 4)) * rng.uniform(0.5, 2.0, size=(2, 4, 4))
        a = Tensor(x, requires_grad=True)
        weights = rng.normal(size=(2, 4, 4))
        T.sum_all(T.mul(T.softmax_relu_rows(a, ridge), Tensor(weights))).backward()

        def f():
            e = np.exp(np.maximum(a.data + ridge * np.eye(4), 0.0))
            return float((e / e.sum(-1, keepdims=True) * weights).sum())

        assert max_rel_err(a.grad, numeric_grad(f, a.data)) < 1e-4

    @pytest.mark.parametrize("ridge", [0.0, 0.3])
    def test_matches_the_composition_bit_for_bit(self, ridge):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 5, 5))
        x[0, 1] = -np.abs(x[0, 1]) - ridge   # a row without a positive entry
        x[1, 2] = 0.0                        # a row of exact zeros
        x[2, 3, :2] = -0.0                   # negative zeros, which relu maps to +0.0
        x[2, 4, 4] = -ridge                  # exactly 0 once the ridge is added
        weights = rng.normal(size=x.shape)
        outs, grads = [], []
        for op in (T.softmax_relu_rows, softmax_relu_composed):
            a = Tensor(x.copy(), requires_grad=True)
            out = op(a, ridge)
            T.sum_all(T.mul(out, Tensor(weights))).backward()
            outs.append(out.data)
            grads.append(a.grad)
        for got, ref in (outs, grads):  # bit patterns, so that a sign of zero counts
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def gram_composed(a: Tensor, ridge: float) -> Tensor:
    k = a.data.ndim
    out = T.matmul(a, T.transpose(a, (*range(k - 2), k - 1, k - 2)))
    return T.add(out, Tensor(ridge * np.eye(out.shape[-1])))


class TestGram:
    """`T.gram` bit for bit against the composition a a^T + ridge*I, and its gradient against
    central differences, for 2-D, batched and transposed-view operands."""

    CASES = [((4, 3), False), ((2, 3, 4, 5), False), ((3, 4), True), ((2, 5, 4), True)]

    @staticmethod
    def _operand(shape, transposed, seed):
        """A leaf of `shape` and the operand read from it: the leaf, or its transpose node."""
        leaf = Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)
        k = len(shape)
        return leaf, T.transpose(leaf, (*range(k - 2), k - 1, k - 2)) if transposed else leaf

    @pytest.mark.parametrize("shape,transposed", CASES)
    @pytest.mark.parametrize("ridge", [0.0, 0.3])
    def test_matches_the_composition(self, shape, transposed, ridge):
        outs, grads = [], []
        for op in (T.gram, gram_composed):
            leaf, a = self._operand(shape, transposed, 13)
            out = op(a, ridge)
            weights = np.random.default_rng(14).normal(size=out.shape)
            T.sum_all(T.mul(out, Tensor(weights))).backward()
            outs.append(out.data)
            grads.append(leaf.grad)
        assert np.array_equal(outs[0].view(np.uint64), outs[1].view(np.uint64))
        assert np.max(np.abs(grads[0] - grads[1])) <= 1e-14 * np.max(np.abs(grads[1]))

    @pytest.mark.parametrize("shape,transposed", CASES)
    @pytest.mark.parametrize("ridge", [0.0, 0.3])
    def test_finite_difference(self, shape, transposed, ridge):
        leaf, a = self._operand(shape, transposed, 15)
        out = T.gram(a, ridge)
        weights = np.random.default_rng(16).normal(size=out.shape)
        T.sum_all(T.mul(out, Tensor(weights))).backward()

        def f():
            x = np.swapaxes(leaf.data, -1, -2) if transposed else leaf.data
            gram = x @ np.swapaxes(x, -1, -2) + ridge * np.eye(x.shape[-2])
            return float((gram * weights).sum())

        assert leaf.grad.flags.c_contiguous or leaf.data.ndim > 2  # 2-D: read as W or W^T
        assert max_rel_err(leaf.grad, numeric_grad(f, leaf.data)) < 1e-6


class TestMultihop:
    """`T.multihop` against central differences and against the hop-by-hop loop."""

    @staticmethod
    def _operands(r, gated, broadcast, seed):
        rng = np.random.default_rng(seed + 10 * r + 2 * gated + broadcast)
        a = Tensor(rng.uniform(-0.5, 1.0, size=(1 if broadcast else 2, 4, 4)), requires_grad=True)
        u = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        gate = Tensor(rng.uniform(0.0, 1.0, size=(2, 4, 1)), requires_grad=True) if gated else None
        return a, u, gate, rng.normal(size=(2, 4, 3))

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("gated", [False, True])
    @pytest.mark.parametrize("broadcast", [False, True])
    def test_finite_difference(self, r, gated, broadcast):
        a, u, gate, weights = self._operands(r, gated, broadcast, 0)
        T.sum_all(T.mul(T.multihop(a, u, r, gate), Tensor(weights))).backward()

        def f():
            d = 1.0 + (gate.data if gated else 0.0)
            h, out = u.data, 0.0
            for _ in range(r):
                h = d * (a.data @ h)
                out = out + h
            return float((out * weights).sum())

        for p in (a, u) + ((gate,) if gated else ()):
            assert max_rel_err(p.grad, numeric_grad(f, p.data)) < 1e-4

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("gated", [False, True])
    @pytest.mark.parametrize("broadcast", [False, True])
    def test_matches_the_loop(self, r, gated, broadcast):
        results = []
        for op in (T.multihop, multihop_loop):
            a, u, gate, weights = self._operands(r, gated, broadcast, 1)
            out = op(a, u, r, gate)
            T.sum_all(T.mul(out, Tensor(weights))).backward()
            results.append([out.data] + [p.grad for p in (a, u, gate) if p is not None])
        fused, loop = results
        assert np.array_equal(fused[0], loop[0])
        for got, want in zip(fused[1:], loop[1:]):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 2, 2\).*\(1, 3, 2\)"):
            T.multihop(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 3, 2))), 2)


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

    def test_second_backward_of_a_graph_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.sum_all(T.mul(x, x))
        loss.backward()
        with pytest.raises(ContractError, match="freed"):
            loss.backward()
        assert np.array_equal(x.grad, [2.0, 4.0])
        assert np.array_equal(loss.grad, 1.0)

    def test_backward_through_a_freed_node_raises_before_any_write(self):
        # two losses share h; the first backward frees h's graph
        x = Tensor([1.0, 2.0], requires_grad=True)
        z = Tensor([3.0, 4.0], requires_grad=True)
        h = T.mul(x, x)
        T.sum_all(h).backward()
        with pytest.raises(ContractError, match="freed"):
            T.sum_all(T.add(T.mul(h, z), z)).backward()
        assert np.array_equal(x.grad, [2.0, 4.0]) and z.grad is None
        assert np.array_equal(h.grad, [1.0, 1.0])

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
            out = reference.softmax_rows(T.relu(T.matmul(x, T.transpose(x, (1, 0)))))
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

    def test_non_finite_gradient_changes_nothing(self):
        rng = np.random.default_rng(0)
        sizes = {"a": 10, "b": 40_000, "c": 7}
        params = {k: Tensor(rng.normal(size=n), requires_grad=True) for k, n in sizes.items()}
        opt = Adam(params, lr=1e-2)
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
        opt.step()
        params["b"].grad[35_000] = np.inf  # in the second 32k block of the middle one
        before = [{k: p.data.copy() for k, p in params.items()},
                  {k: m.copy() for k, m in opt.m.items()}, {k: v.copy() for k, v in opt.v.items()}]
        with pytest.raises(NumericsError, match="'b'"):
            opt.step()
        assert opt.t == 1
        after = [{k: p.data for k, p in params.items()}, opt.m, opt.v]
        for old, new in zip(before, after):
            for k in sizes:
                assert np.array_equal(old[k], new[k]), k

    def test_gradient_whose_square_overflows_changes_nothing(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        opt = Adam({"theta": p}, lr=1e-2)
        p.grad = np.array([0.5, -0.5])
        opt.step()
        before = [p.data.copy(), opt.m["theta"].copy(), opt.v["theta"].copy()]
        p.grad = np.array([0.5, -1e155])  # finite, but its square is not
        with pytest.raises(NumericsError, match="'theta'"):  # and no RuntimeWarning
            opt.step()
        assert opt.t == 1
        for old, new in zip(before, (p.data, opt.m["theta"], opt.v["theta"])):
            assert np.array_equal(old, new)
        p.grad = np.array([optim.GRAD_LIMIT, -optim.GRAD_LIMIT])  # the largest square is finite
        opt.step()
        assert np.isfinite(opt.v["theta"]).all()

    def test_matches_the_whole_array_formula_bit_for_bit(self):
        def reference(p, m, v, g, t, lr):
            root_c2 = np.sqrt(1.0 - optim.BETA2 ** t)
            step_size, eps = lr * root_c2 / (1.0 - optim.BETA1 ** t), optim.EPS * root_c2
            m *= optim.BETA1
            m += (1.0 - optim.BETA1) * g
            v *= optim.BETA2
            v += (1.0 - optim.BETA2) * np.square(g)
            p -= step_size * m / (np.sqrt(v) + eps)

        rng = np.random.default_rng(3)
        shapes = {"large": (100_003,), "scalar": (), "strided": (300, 500)}  # blocks of 32k
        init = {k: rng.normal(size=s) for k, s in shapes.items()}
        base = init["strided"].copy()
        params = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
        params["strided"] = Tensor(base[:, ::2], requires_grad=True)  # a non-contiguous view
        assert not params["strided"].data.flags.c_contiguous
        ref = {k: [p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)]
               for k, p in params.items()}
        opt = Adam(params, lr=1e-2)
        for t in range(1, 6):
            for k, p in params.items():
                p.grad = rng.normal(size=p.shape)
                reference(*ref[k], p.grad, t, 1e-2)
            opt.step()
            for k, p in params.items():
                for got, want in zip((p.data, opt.m[k], opt.v[k]), ref[k]):
                    assert got.tobytes() == want.tobytes(), (k, t)
        assert params["strided"].data.base is base  # updated through the view
        assert np.array_equal(base[:, ::2], ref["strided"][0])

    def test_step_allocates_no_parameter_sized_array(self):
        p = Tensor(np.ones(10**6), requires_grad=True)
        p.grad = np.full(10**6, 0.5)
        opt = Adam({"p": p})
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"step() traced a {peak / 2**20:.1f} MiB peak"


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

    @pytest.mark.parametrize("width", [1, 7])  # 3 is the case above
    def test_widths_finite_difference(self, width):
        rng = np.random.default_rng(width)
        x = Tensor(rng.normal(size=(2, 3, 7)), requires_grad=True)
        weights = rng.normal(size=(2, 3, 8 - width, width))
        T.sum_all(T.mul(T.sliding_windows(x, width), Tensor(weights))).backward()

        def f():
            win = np.lib.stride_tricks.sliding_window_view(x.data, width, axis=-1)
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

    def test_overlapping_slices_of_a_shared_gradient(self):
        # add hands y and z one gradient array; the slices' gradients then
        # reach y, and no retained gradient may change under them
        x = Tensor(np.arange(5.0), requires_grad=True)
        z = Tensor(np.ones(5), requires_grad=True)
        y = T.reshape(x, (5,))
        s = T.add(y, z)
        a = T.slice_axis(y, 0, 0, 3)
        b = T.slice_axis(y, 0, 2, 3)
        w = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        loss = T.add(T.sum_all(T.mul(s, Tensor(w))),
                     T.add(T.sum_all(T.mul(a, a)), T.sum_all(b)))
        loss.backward()
        assert np.array_equal(s.grad, w)
        assert np.array_equal(z.grad, w)
        assert np.array_equal(a.grad, 2.0 * x.data[:3])
        assert np.array_equal(b.grad, np.ones(3))
        assert np.array_equal(y.grad, w + [0.0, 2.0, 5.0, 1.0, 1.0])
        assert np.array_equal(x.grad, y.grad)

    def test_overlapping_slices_accumulate(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        a = T.slice_axis(x, 0, 0, 3)
        b = T.slice_axis(x, 0, 2, 3)
        T.add(T.sum_all(T.mul(a, a)), T.sum_all(b)).backward()
        assert np.array_equal(x.grad, [0.0, 2.0, 5.0, 1.0, 1.0])
