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
    """Each listed attribute exists, and one `complete` step enters every stage but the
    dense `adb.query`, which the distance FFN fuses."""
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

    model = HSMGNN(ModelConfig(n=14, t=30), seed=0)
    rng = np.random.default_rng(0)
    opt = Adam(model.params)
    model.loss(model.forward(rng.normal(size=(4, 14, 30))), rng.normal(size=4)).backward()
    opt.step()
    names = {name for _, _, name in stages}
    assert set(entered) == names - {"adb.query"}, sorted(names - set(entered))
