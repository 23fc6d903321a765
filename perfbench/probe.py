"""Outside-in instrumentation of hsmgnn.

Every span is taken by replacing a public attribute of an hsmgnn module or
class from here, and every replacement is undone on `Patches.restore`.
Nothing under `src/` knows that it is being measured.

`StepClock` is the only probe of an end-to-end run: one clock read at the
entry of `HSMGNN.forward` and one at the end of `Adam.step`. `Tracer` adds
the per-layer spans of a traced run.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from hsmgnn import adb, data, fusion, model, optim, scs, training
from hsmgnn import tensor as T

clock = time.perf_counter

# Public stage functions, by the module attribute the model calls them through.
STAGES = (
    (scs, "temporal_cnn", "scs.cnn"),
    (scs, "window_covariance", "scs.gram"),
    (adb, "base_adjacency", "adb.base_adj"),
    (adb, "bilinear_query", "adb.query"),
    (adb, "ndv", "adb.ndv"),
    (adb, "refine_adjacency", "adb.refine"),
    (fusion, "euclidean_adjacency", "fusion.euc_adj"),
    (fusion, "multihop_conv", "fusion.multihop"),
    (fusion, "branch_features", "fusion.project"),
    (fusion, "fuse_and_predict", "fusion.head"),
    (fusion, "mse_loss", "fusion.loss"),
    (fusion, "cross_entropy_loss", "fusion.loss"),
)
STAGE_NAMES = tuple(dict.fromkeys(name for _, _, name in STAGES))
# Nodes made outside every stage span (block partition, per-block slicing).
UNSTAGED = "model.unstaged"


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._saved.append((owner, name, original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class StepClock:
    """Times every optimizer step of every `training.train` call.

    A step runs from the entry of the last `HSMGNN.forward` before an
    `Adam.step` to the end of that `Adam.step`: forward, loss, backward and
    the update. The batch gather just before the forward (tens of
    microseconds) falls outside. Each call is recorded with its variant and
    its step times, also when it aborts.
    """

    def __init__(self):
        self.calls: list[dict] = []
        self._call: dict | None = None
        self._mark = 0.0

    def install(self, patches: Patches) -> None:
        patches.wrap(training, "train", self._wrap_train)
        patches.wrap(model.HSMGNN, "forward", self._wrap_forward)
        patches.wrap(optim.Adam, "step", self._wrap_step)

    def _wrap_train(self, train):
        def clocked_train(model_cfg, *args, **kwargs):
            call = {"variant": model_cfg.variant, "steps": []}
            self.calls.append(call)
            self._call = call
            try:
                return train(model_cfg, *args, **kwargs)
            finally:
                self._call = None
        return clocked_train

    def _wrap_forward(self, forward):
        def marked_forward(model_self, x):
            self._mark = clock()
            return forward(model_self, x)
        return marked_forward

    def _wrap_step(self, step):
        def timed_step(opt_self):
            step(opt_self)
            if self._call is not None:
                self._call["steps"].append(clock() - self._mark)
        return timed_step


class Tracer:
    """Per-layer spans and counts for the steps of measured train calls.

    Forward time of a stage is its outermost span. Backward time of a stage
    is the summed time of the backward closures of the nodes created inside
    that span, so stage backward times include the `_accumulate` calls those
    closures make: `tensor.accumulate_ms` overlaps them and is not additive
    with them. Only train calls of the `complete` variant are measured, the
    one variant every workload trains; forwards run by `training.evaluate`
    are not.
    """

    def __init__(self):
        self.sums: dict[str, float] = defaultdict(float)
        self.steps = 0
        self.train_calls = 0
        self.valid_eval_calls: list[float] = []
        self.io: dict[str, list[float]] = defaultdict(list)
        self.mtsd_bytes: list[int] = []
        self._in_train = False
        self._measuring = False
        self._stage: str | None = None

    # -- installation ---------------------------------------------------

    def install_io(self, patches: Patches) -> None:
        """Data-layer and checkpoint timers; cheap, left on for a whole run."""
        for name in ("load_cmapss", "load_canonical"):
            patches.wrap(data, name, lambda fn, name=name: self._timed_io(fn, name))
        patches.wrap(data, "save_canonical", self._wrap_save_canonical)
        patches.wrap(model.HSMGNN, "save", lambda fn: self._timed_io(fn, "checkpoint.save"))
        patches.wrap(model.HSMGNN, "load", lambda fn: self._timed_io(fn, "checkpoint.load"))

    def install_spans(self, patches: Patches) -> None:
        """Stage, op and engine spans; installed only for traced sessions."""
        patches.wrap(training, "train", self._wrap_train)
        patches.wrap(training, "evaluate", self._wrap_evaluate)
        for module, attr, name in STAGES:
            patches.wrap(module, attr, lambda fn, name=name: self._wrap_stage(fn, name))
        for attr, value in list(vars(T).items()):
            if (callable(value) and not attr.startswith("_") and not isinstance(value, type)
                    and getattr(value, "__module__", None) == T.__name__):
                patches.wrap(T, attr, self._wrap_op)
        patches.wrap(T.Tensor, "_accumulate",
                     lambda fn: self._timed_method(fn, "tensor.accumulate", count=True))
        patches.wrap(T.Tensor, "backward", lambda fn: self._timed_method(fn, "tensor.backward"))
        patches.wrap(model.HSMGNN, "forward", lambda fn: self._timed_method(fn, "model.forward"))
        patches.wrap(optim.Adam, "step", self._wrap_adam)

    # -- wrappers ---------------------------------------------------------

    def _timed_io(self, fn, name):
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.io[name].append(clock() - start)
        return timed

    def _wrap_save_canonical(self, fn):
        timed = self._timed_io(fn, "save_canonical")

        def save(path, sset):
            timed(path, sset)
            self.mtsd_bytes.append(os.path.getsize(path))
        return save

    def _wrap_train(self, train):
        def traced_train(model_cfg, *args, **kwargs):
            self.train_calls += 1
            self._in_train = True
            self._measuring = model_cfg.variant == "complete"
            try:
                return train(model_cfg, *args, **kwargs)
            finally:
                self._in_train = self._measuring = False
        return traced_train

    def _wrap_evaluate(self, evaluate):
        def traced_evaluate(*args, **kwargs):
            measuring, self._measuring = self._measuring, False
            start = clock()
            try:
                return evaluate(*args, **kwargs)
            finally:
                if self._in_train:
                    self.valid_eval_calls.append(clock() - start)
                self._measuring = measuring
        return traced_evaluate

    def _wrap_stage(self, fn, name):
        key = name + ".fwd"

        def staged(*args, **kwargs):
            if not self._measuring or self._stage is not None:
                return fn(*args, **kwargs)
            self._stage = name
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.sums[key] += clock() - start
                self._stage = None
        return staged

    def _wrap_op(self, fn):
        def op(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._measuring and isinstance(out, T.Tensor):
                self._adopt(out)
            return out
        return op

    def _adopt(self, node) -> None:
        """Count a new graph node once and time its backward closure."""
        backward = node._backward
        if backward is None or hasattr(backward, "stage"):
            return
        stage = self._stage or UNSTAGED
        sums = self.sums
        sums["tensor.nodes"] += 1
        sums["tensor.graph_bytes"] += node.data.nbytes
        key = stage + ".bwd"

        def timed_backward(grad):
            start = clock()
            backward(grad)
            sums[key] += clock() - start

        timed_backward.stage = stage
        node._backward = timed_backward

    def _timed_method(self, fn, name, count=False):
        sums = self.sums
        calls = name + ".calls"

        def timed(obj, *args, **kwargs):
            if not self._measuring:
                return fn(obj, *args, **kwargs)
            start = clock()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                sums[name] += clock() - start
                if count:
                    sums[calls] += 1
        return timed

    def _wrap_adam(self, step):
        timed = self._timed_method(step, "optim.adam")

        def traced_step(opt_self):
            timed(opt_self)
            if self._measuring:
                self.steps += 1
        return traced_step

    # -- results ----------------------------------------------------------

    def per_step_ms(self, key: str) -> float:
        return 1e3 * self.sums[key] / self.steps

    def stage_table(self) -> list[tuple[str, float, float]]:
        """(stage, fwd ms/step, bwd ms/step), largest total first.

        The unstaged forward is `model.forward` minus the stage spans inside
        it (every stage but the loss).
        """
        rows = [(name, self.per_step_ms(name + ".fwd"), self.per_step_ms(name + ".bwd"))
                for name in STAGE_NAMES]
        inside = sum(fwd for name, fwd, _ in rows if name != "fusion.loss")
        rows.append((UNSTAGED, self.per_step_ms("model.forward") - inside,
                     self.per_step_ms(UNSTAGED + ".bwd")))
        return sorted(rows, key=lambda r: -(r[1] + r[2]))
