"""The batched, factored forward pass against the per-block dense reference.

The model runs every feature block of a batch as one (B*K, N, W_p) batch,
and runs the SPD branch on the blocks themselves (the distance FFN on the
window factors of `scs.window_covariance`) without forming the (B, N, N, M)
stack. Its stages are `adb.base_adjacency`, `adb.ndv`, `adb.refine_adjacency`
and `fusion.factored_multihop`. `dense_forward` is the independent oracle: it
loops over the blocks (the D CNN blocks, or the L raw blocks of `no-scs`),
composes the dense reference stages of `tests/reference.py`
(`window_covariance`, `base_adjacency`, `node_features`, `bilinear_query`,
`ndv`, `refine_adjacency`) with `fusion.multihop_conv` and
`fusion.branch_features` block by block, and combines the blocks with
`T.concat`. The model must reproduce its predictions and every parameter
gradient.
"""

import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import reference
from hsmgnn import HSMGNN, ModelConfig, ablate, evaluate
from hsmgnn import adb, fusion, scs
from hsmgnn import tensor as T
from hsmgnn.data import SampleSet
from hsmgnn.errors import ContractError, ShapeError
from hsmgnn.optim import BLOCK, Adam
from hsmgnn.tensor import Tensor

RTOL = 1e-10


def dense_forward(model: HSMGNN, x: np.ndarray) -> Tensor:
    """The forward pass, one block at a time, through the dense (B, N, N, M) stack."""
    cfg, prm = model.cfg, model.params
    b = x.shape[0]
    blocks = scs.block_partition(Tensor(x), cfg.w_p)
    if cfg.has_spd:
        blocks = scs.temporal_cnn(blocks, prm["cnn.w1"], prm["cnn.b1"],
                                  prm["cnn.w2"], prm["cnn.b2"])
    spd_blocks, euc_blocks = [], []
    for d in range(blocks.shape[2]):
        p_d = T.reshape(T.slice_axis(blocks, 2, d, 1), (b, cfg.n, cfg.w_p))
        if cfg.has_spd:
            u_d = reference.window_covariance(p_d, cfg.z_s, cfg.eps_spd)
            a_s = reference.base_adjacency(u_d)
            if cfg.has_adb:
                q = reference.bilinear_query(u_d, prm["adb.bank"])
                alpha = reference.ndv(q, prm["adb.ffn_w1"], prm["adb.ffn_b1"],
                                      prm["adb.ffn_w2"], prm["adb.ffn_b2"])
                a_s = reference.refine_adjacency(alpha, a_s)
            h_s = fusion.multihop_conv(reference.node_features(u_d), a_s, cfg.r_s)
            h_s = fusion.branch_features(h_s, prm["proj_s.w"], prm["proj_s.b"])
            spd_blocks.append(T.reshape(h_s, (b, cfg.n * cfg.f_s)))
        if cfg.has_euclid:
            h_e = fusion.multihop_conv(p_d, fusion.euclidean_adjacency(p_d), cfg.r_e)
            h_e = fusion.branch_features(h_e, prm["proj_e.w"], prm["proj_e.b"])
            euc_blocks.append(T.reshape(h_e, (b, cfg.n * cfg.f_e)))
    u_s = T.concat(spd_blocks, 1) if spd_blocks else None
    u_e = T.concat(euc_blocks, 1) if euc_blocks else None
    mlp = {k.split(".", 1)[1]: v for k, v in prm.items() if k.startswith("mlp.")}
    return fusion.fuse_and_predict(u_s, u_e, cfg.w_s, cfg.w_e, mlp)


def rel_diff(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300))


def predictions_and_grads(model: HSMGNN, forward, x, y):
    for p in model.params.values():
        p.zero_grad()
    pred = forward(x)
    model.loss(pred, y).backward()
    return pred.data.copy(), {k: p.grad.copy() for k, p in model.params.items()}


@pytest.mark.parametrize("n", [3, 14, 64])
@pytest.mark.parametrize("variant", ["complete", "no-adb", "no-fgcn", "no-scs"])
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
    proj_w = Tensor(rng.normal(size=(n * 8, 5)))
    proj_b = Tensor(rng.normal(size=5))
    u = reference.window_covariance(p_d, z_s, eps)
    w = scs.window_covariance(p_d, z_s)
    assert w.shape == (2, 8, n, z_s)

    a = adb.base_adjacency(p_d, z_s, eps)
    assert rel_diff(a.data, reference.base_adjacency(u).data) < RTOL
    feats = fusion.factored_multihop(p_d, a, 2, proj_w, proj_b, z_s, eps)
    dense = fusion.branch_features(fusion.multihop_conv(reference.node_features(u), a, 2),
                                   proj_w, proj_b)
    assert rel_diff(feats.data, dense.data) < RTOL


@pytest.mark.parametrize("z_s", [1, 10])
def test_coverage_stages_match_dense_stages_at_the_window_extremes(z_s):
    """z_s = 1 makes C the identity and K = I; z_s = W_p makes one window, C a column of ones."""
    rng = np.random.default_rng(z_s)
    eps, n = 1e-2, 5
    p_d = Tensor(rng.normal(size=(2, n, 10)))
    m = 10 - z_s + 1
    proj_w, proj_b = Tensor(rng.normal(size=(n * m, 4))), Tensor(rng.normal(size=4))
    u = reference.window_covariance(p_d, z_s, eps)
    a = adb.base_adjacency(p_d, z_s, eps)
    assert rel_diff(a.data, reference.base_adjacency(u).data) < RTOL
    feats = fusion.factored_multihop(p_d, a, 1, proj_w, proj_b, z_s, eps)
    dense = fusion.branch_features(fusion.multihop_conv(reference.node_features(u), a, 1),
                                   proj_w, proj_b)
    assert rel_diff(feats.data, dense.data) < RTOL


@pytest.mark.parametrize("n", [4, 5, 6])  # m_q - 1 (the folded side), m_q and m_q + 1
def test_factored_ndv_matches_dense_query_and_ndv(n):
    rng = np.random.default_rng(n)
    eps, z_s, m_q, m_d = 0.5, 3, 5, 6  # a large eps so that the ridge terms are visible

    def leaf(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    p_d, bank = leaf(3, n, 10), leaf(n, m_q)
    w1, b1, w2, b2 = leaf(m_d, m_q * m_q * 8), leaf(m_d), leaf(n, m_d), leaf(n)
    leaves = {"w": p_d, "bank": bank, "w1": w1, "b1": b1, "w2": w2, "b2": b2}
    y = rng.normal(size=(3, n))

    def output_and_grads(alpha):
        for leaf_t in leaves.values():
            leaf_t.zero_grad()
        T.sum_all(T.mul(alpha, Tensor(y))).backward()
        return alpha.data, {k: v.grad.copy() for k, v in leaves.items()}

    got, grads = output_and_grads(
        adb.ndv(scs.window_covariance(p_d, z_s), bank, w1, b1, w2, b2, eps))
    q = reference.bilinear_query(reference.window_covariance(p_d, z_s, eps), bank)
    ref, ref_grads = output_and_grads(reference.ndv(q, w1, b1, w2, b2))
    assert rel_diff(got, ref) < RTOL
    for name, ref_grad in ref_grads.items():
        assert np.any(ref_grad != 0.0), name
        assert rel_diff(grads[name], ref_grad) < RTOL, name
    with pytest.raises(ShapeError):
        adb.ndv(scs.window_covariance(p_d, z_s), leaf(n + 1, m_q), w1, b1, w2, b2, eps)


def test_window_factors_rebuild_the_covariance_stack():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(2, 4, 6))
    u = reference.window_covariance(Tensor(p), 3, 1e-6).data
    for m in range(4):
        win = p[:, :, m:m + 3]
        expected = win @ win.transpose(0, 2, 1) + 1e-6 * np.eye(4)
        assert np.max(np.abs(u[:, :, :, m] - expected)) < 1e-13


def training_graph(cfg: ModelConfig, b: int = 4) -> list[Tensor]:
    """Every node of the graph of one training step's loss."""
    model = HSMGNN(cfg, seed=0)
    rng = np.random.default_rng(0)
    loss = model.loss(model.forward(rng.normal(size=(b, cfg.n, cfg.t))), rng.normal(size=b))
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_training_graph_never_holds_a_gram_stack():
    """No node of a training step is as large as the (B, N, N, M) stack."""
    b = 8
    cfg = ModelConfig(n=32, t=30, m_q=8, m_d=8, mlp_widths=(8, 8, 8))
    nodes = training_graph(cfg, b)
    limit = b * cfg.n * cfg.n * cfg.num_windows
    largest = max(node.data.size for node in nodes)
    assert len(nodes) > 100
    assert largest < limit, f"a node holds {largest} elements, limit {limit}"


def test_training_graph_below_m_q_holds_nothing_larger_than_the_query_stack():
    """At N < m_q the (B*K, M, N, N) slices U_m replace the (B*K, M_q, M_q, M) query stack."""
    b = 4
    cfg = ModelConfig(n=14, t=30, m_q=32, m_d=8, mlp_widths=(8, 8, 8))
    nodes = training_graph(cfg, b)
    limit = b * cfg.d_blocks * cfg.m_q * cfg.m_q * cfg.num_windows
    largest = max(node.data.size for node in nodes)
    assert largest < limit, f"a node holds {largest} elements, limit {limit}"


def test_training_graph_below_m_q_holds_one_slice_stack():
    """At N < m_q the ridged slices U_m = W_m W_m^T + eps I are one `T.gram` node: the graph
    holds a single (B*K, M, N, N) array, not the product beside its ridged copy."""
    b = 3
    cfg = ModelConfig(n=14, t=30, m_q=32)
    shape = (b * cfg.d_blocks, cfg.num_windows, cfg.n, cfg.n)
    assert shape[0] != cfg.m_d  # the FFN weights (m_d, M, N, N) are not counted
    nodes = training_graph(cfg, b)
    assert sum(node.shape == shape for node in nodes) == 1


@pytest.mark.parametrize("variant", ["complete", "no-adb", "no-fgcn", "no-scs"])
def test_graph_size_does_not_grow_with_the_block_count(variant):
    """The blocks are a batch axis: one op node per stage, whatever K is."""
    if variant == "no-scs":   # K = L = t // w_p raw blocks
        configs = [ModelConfig(n=5, t=t, variant=variant) for t in (30, 60)]
    else:                     # K = d_blocks CNN feature blocks
        configs = [ModelConfig(n=5, t=30, d_blocks=d, variant=variant) for d in (1, 4)]
    ops = [sum(1 for node in training_graph(cfg) if node._parents) for cfg in configs]
    assert ops[0] == ops[1], f"op nodes per step: {ops}"


@pytest.mark.parametrize("variant,limit", [("complete", 84), ("no-scs", 23),
                                           ("no-adb", 63), ("no-fgcn", 55)])
def test_op_nodes_per_training_step(variant, limit):
    """Each forward tensor has the layout its consumer reads: no op only undoes a reshape."""
    nodes = training_graph(ModelConfig(n=14, t=30, variant=variant))
    ops = sum(node._backward is not None for node in nodes)
    assert ops <= limit, f"{ops} op nodes per step, limit {limit}"


@pytest.mark.parametrize("variant,n,b,limit", [
    ("complete", 14, 32, 43_383_840), ("no-scs", 14, 32, 5_894_400),
    ("no-adb", 14, 32, 23_084_064), ("no-fgcn", 14, 32, 14_891_040),
    ("complete", 128, 8, 156_259_872),
])
def test_multiply_adds_per_training_step(variant, n, b, limit, monkeypatch):
    """Every product of a step's forward and backward goes through `T._product`, so its
    multiply-adds are a deterministic ledger: an added product fails here, at any speed."""
    total, product = 0, T._product

    def counted(x, y):
        nonlocal total
        out = product(x, y)
        total += out.size * x.shape[-1]
        return out

    monkeypatch.setattr(T, "_product", counted)
    model = HSMGNN(ModelConfig(n=n, t=30, variant=variant), seed=0)
    x = np.random.default_rng(0).normal(size=(b, n, 30))
    model.loss(model.forward(x), np.ones(b)).backward()
    assert total <= limit, f"{total:,} multiply-adds per step, limit {limit:,}"


@pytest.mark.parametrize("n,m_q", [(14, 32), (6, 4)], ids=["n<m_q", "n>=m_q"])
def test_no_product_gets_operands_that_share_memory(n, m_q, monkeypatch):
    """numpy hands an operand and its own transposed view to BLAS syrk, which is slower than
    a general product at every Gram shape of the model: `T.gram` multiplies by a copy. Over
    a training step and a `predict`, on both sides of the distance FFN's N < M_q fork."""
    shared, product = [], T._product

    def recorded(x, y):
        if np.shares_memory(x, y):
            shared.append((x.shape, y.shape))
        return product(x, y)

    monkeypatch.setattr(T, "_product", recorded)
    model = HSMGNN(ModelConfig(n=n, t=30, m_q=m_q), seed=0)
    x = np.random.default_rng(0).normal(size=(4, n, 30))
    model.loss(model.forward(x), np.ones(4)).backward()
    model.predict(x)
    assert shared == []


def test_gram_results_do_not_change_when_its_buffer_is_reused():
    """`T.gram` writes each transposed copy into one reused buffer: a later, smaller or larger
    Gram leaves earlier results as they were, and no result is a view of the buffer."""
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=shape) for shape in ((3, 4, 5), (2, 4, 5), (6, 5, 3), (4, 7))]
    results = [T.gram(Tensor(a), 0.5).data for a in arrays]
    kept = [r.copy() for r in results]
    T.gram(Tensor(rng.normal(size=(9, 8, 7))))
    for a, r, k in zip(arrays, results, kept):
        assert np.array_equal(r, k)
        assert not np.shares_memory(r, T._scratch.buf)
        expected = a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(a.shape[-2])
        np.testing.assert_allclose(r, expected, rtol=1e-14, atol=1e-14)


def test_gram_buffers_are_per_thread():
    """Threads taking Grams of different shapes at once each write their own buffer."""
    rng = np.random.default_rng(1)
    arrays = [rng.normal(size=(8, 6 + i, 5 + i)) for i in range(4)]
    errors = []

    def work(a):
        want = a @ np.swapaxes(a, -1, -2)
        for _ in range(300):
            if not np.allclose(T.gram(Tensor(a)).data, want, rtol=1e-13, atol=1e-13):
                errors.append(a.shape)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(a,)) for a in arrays]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_a_second_forward_builds_no_constant_matrix():
    """The shift matrices of `conv1d` and `sliding_windows` and the window coverage are built
    once per shape per process."""
    model = HSMGNN(ModelConfig(n=5, t=30), seed=0)
    x = np.zeros((2, 5, 30))
    model.forward(x)
    builders = (T._shift_matrix, scs._coverage)
    before = [f.cache_info() for f in builders]
    model.forward(x)
    after = [f.cache_info() for f in builders]
    assert [a.misses for a in after] == [b.misses for b in before]
    assert all(a.hits > b.hits for a, b in zip(after, before))


def test_cached_constants_are_read_only_and_equal_a_fresh_build(monkeypatch):
    """Every array the two caches hand a forward is shared, so none may be written; each is
    bit for bit the array its builder makes without the cache."""
    builders, handed = (T._shift_matrix, scs._coverage), []

    def recording(f):
        def build(*args):
            handed.append((f, args, f(*args)))
            return handed[-1][2]
        return build

    for module, f in zip((T, scs), builders):
        monkeypatch.setattr(module, f.__name__, recording(f))
    HSMGNN(ModelConfig(n=5, t=30), seed=0).forward(np.zeros((2, 5, 30)))
    assert {f for f, _, _ in handed} == set(builders)
    for f, args, array in handed:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 2.0
        fresh = f.__wrapped__(*args)
        assert fresh is not array
        assert fresh.dtype == array.dtype and np.array_equal(fresh, array)


@pytest.mark.parametrize("variant,calls", [("complete", 1), ("no-scs", 0),
                                           ("no-adb", 0), ("no-fgcn", 0)])
def test_only_the_distance_ffn_builds_window_factors(variant, calls, monkeypatch):
    """The base adjacency and the projection read the blocks: the window factors are built
    once, by `scs.window_covariance` for `adb.ndv`, and never without the ADB."""
    built = []
    window_covariance = scs.window_covariance
    monkeypatch.setattr(scs, "window_covariance",
                        lambda *args: built.append(args) or window_covariance(*args))
    HSMGNN(ModelConfig(n=5, t=30, variant=variant), seed=0).forward(np.zeros((2, 5, 30)))
    assert len(built) == calls


@pytest.mark.parametrize("variant", ["complete", "no-adb", "no-fgcn", "no-scs"])
def test_constant_leaves_get_no_gradient(variant):
    """Shift matrices, the window coverage, scalar weights and the loss target receive no
    gradient."""
    nodes = training_graph(ModelConfig(n=5, t=30, variant=variant))
    constants = [node for node in nodes if not node.requires_grad and not node._parents]
    params = [node for node in nodes if node.requires_grad]
    nodes[0].backward()  # the loss is the walk's first node
    assert constants and params
    assert [node.shape for node in constants if node.grad is not None] == []
    assert all(node.grad is not None for node in params)


@pytest.mark.parametrize("variant", ["complete", "no-adb", "no-fgcn", "no-scs"])
def test_parameter_gradients_are_c_contiguous_and_writeable(variant):
    """Gradients are adopted, not copied; Adam still gets plain arrays."""
    nodes = training_graph(ModelConfig(n=5, t=30, variant=variant))
    nodes[0].backward()
    params = [node for node in nodes if node.requires_grad]
    assert params
    for p in params:
        assert p.grad.flags.c_contiguous and p.grad.flags.writeable, p.name


def test_backward_frees_the_graph_it_walks():
    """Only the nodes the caller holds outlive backward(), with their gradients."""
    model = HSMGNN(ModelConfig(n=5, t=30), seed=0)
    rng = np.random.default_rng(0)
    pred = model.forward(rng.normal(size=(4, 5, 30)))
    loss = model.loss(pred, rng.normal(size=4))
    interior = weakref.ref(pred._parents[0])  # the head's last product
    assert interior() is not None
    loss.backward()
    assert interior() is None
    assert loss._parents == () and pred._parents == ()
    assert pred.grad is not None and all(p.grad is not None for p in model.params.values())


@pytest.mark.parametrize("n,b", [(14, 32), (128, 8)])
def test_training_step_peak_stays_near_the_forward_graph(n, b):
    """Forward, backward and Adam peak within the forward graph, the parameter gradients,
    Adam's two block-sized scratch arrays and a slack of 1.5 (B*K, N, N) arrays.

    The slack is the adjacency gradient in flight: softmax(relu)'s backward forms a second
    one from the first while the head's activations are already freed. Any added copy the
    size of the parameters exceeds it.
    """
    cfg = ModelConfig(n=n, t=30)
    model = HSMGNN(cfg, seed=0)
    opt = Adam(model.params)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(b, n, 30)), rng.normal(size=b)
    tracemalloc.start()
    try:
        loss = model.loss(model.forward(x), y)
        held = tracemalloc.get_traced_memory()[0]
        opt.zero_grad()
        loss.backward()
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grads = sum(p.data.nbytes for p in model.params.values())
    slack = 1.5 * b * cfg.d_blocks * n * n * 8
    bound = held + grads + 2 * BLOCK * 8 + slack
    assert peak <= bound, (f"step peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB "
                           f"(forward graph {held / 1e6:.2f} MB)")


def test_evaluate_peaks_below_a_training_step():
    """`evaluate` at its default batch over 64 windows of an N=128 model holds no more
    than one training step at batch 8 does."""
    cfg = ModelConfig(n=128, t=30)
    model = HSMGNN(cfg, seed=0)
    opt = Adam(model.params)
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(64, 128, 30)), rng.normal(size=64)

    def step():
        model.loss(model.forward(x[:8]), y[:8]).backward()
        opt.step()

    peaks = []
    for run in (step, lambda: evaluate(model, SampleSet(x[..., None], y, "regression"))):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        opt.zero_grad()
    step, evaluation = peaks
    assert evaluation <= step, f"evaluate {evaluation / 1e6:.1f} MB, step {step / 1e6:.1f} MB"


def test_adb_adds_no_node_of_the_adjacency_shape():
    """The refinement rescales the hop outputs: `complete` holds no more
    (B*K, N, N) nodes than `no-adb` (base and Euclidean adjacency only)."""
    b, cfg = 4, ModelConfig(n=6, t=30)
    shape = (b * cfg.d_blocks, cfg.n, cfg.n)
    counts = [sum(node.shape == shape for node in training_graph(ablate(v, cfg), b))
              for v in ("complete", "no-adb")]
    assert counts == [4, 4], counts


def test_negative_distance_factors_stop_the_forward_pass(monkeypatch):
    """The model gates the hop outputs with alpha and rejects alpha < 0, as
    `refine_adjacency` does."""
    model = HSMGNN(ModelConfig(n=4, t=30), seed=0)
    monkeypatch.setattr(adb, "ndv",
                        lambda w, *rest: Tensor(-np.ones((w.shape[0], w.shape[2]))))
    with pytest.raises(ContractError, match="negative distance factors"):
        model.forward(np.zeros((2, 4, 30)))
