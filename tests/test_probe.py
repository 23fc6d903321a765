"""The benchmark probe's stage names against the functions the model calls.

`perfbench/probe.py` times each stage by replacing a module attribute by name,
and books every node made outside those spans to `model.unstaged`. A stage the
model no longer calls through its listed name silently reads 0 there.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from hsmgnn import HSMGNN, ModelConfig
from hsmgnn.optim import Adam

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def load_stages():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe.STAGES


def test_every_probe_stage_exists_and_a_training_step_enters_it(monkeypatch):
    """Each listed attribute exists, and every stage is entered by a `complete` step: at
    N = 14 < m_q the distance FFN folds the bank into its weights, and at N = 6 >= m_q = 4 it
    calls `adb.bilinear_query`. A traced run still books the query to `adb.ndv`, the outermost
    span, so `adb.query` reads 0 there."""
    stages = load_stages()
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in stages
               if not callable(getattr(module, attr, None))]
    assert missing == []

    entered = Counter()
    for module, attr, name in stages:
        def counted(*args, fn=getattr(module, attr), name=name, **kwargs):
            entered[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)

    names = {name for _, _, name in stages}
    rng = np.random.default_rng(0)
    for cfg in (ModelConfig(n=14, t=30), ModelConfig(n=6, t=30, m_q=4)):
        entered.clear()
        model = HSMGNN(cfg, seed=0)
        opt = Adam(model.params)
        x = rng.normal(size=(4, cfg.n, cfg.t))
        model.loss(model.forward(x), rng.normal(size=4)).backward()
        opt.step()
        query = {"adb.query"} if cfg.n < cfg.m_q else set()
        assert set(entered) == names - query, (cfg.n, sorted(names ^ set(entered)))
