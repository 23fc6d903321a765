"""Training loop, metrics, early stopping and sensitivity sweeps."""

from __future__ import annotations

import time
from dataclasses import asdict, astuple, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import SampleSet
from .errors import ConfigError, NumericsError
from .model import HSMGNN, ModelConfig, VARIANTS, ablate, check_fields
from .optim import Adam


@dataclass
class TrainConfig:
    batch_size: int = 32
    epochs: int = 80
    lr: float = 1e-4
    patience: int = 10
    seed: int = 0
    max_steps: int | None = None   # optional hard cap, mostly for smoke runs

    def __post_init__(self):
        check_fields(self)
        small = [k for k in ("batch_size", "epochs", "patience", "max_steps")
                 if getattr(self, k) is not None and getattr(self, k) < 1]
        if small:
            raise ConfigError(f"{', '.join(small)} must be >= 1")
        if self.lr < 0 or self.seed < 0:
            raise ConfigError("lr and seed must be non-negative")


@dataclass
class MetricsReport:
    task: str
    mae: float | None = None
    mse: float | None = None
    rmse: float | None = None
    accu: float | None = None
    mf1: float | None = None
    loss_curve: list[float] = field(default_factory=list)
    wall_clock: float = 0.0

    @staticmethod
    def headline(metrics: dict) -> tuple[str, float, int]:
        """The printed name and value of a report's main metric (RMSE for regression, accuracy
        for classification), found in its fields, and the sign that makes lower better."""
        if metrics["task"] == "regression":
            return "RMSE", metrics["rmse"], 1
        return "Accu", metrics["accu"], -1

    @property
    def monitor(self) -> float:
        """Early-stopping objective: lower is better."""
        _, value, sign = self.headline(vars(self))
        return sign * value

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def regression_metrics(pred: np.ndarray, target: np.ndarray) -> MetricsReport:
    err = pred - target
    mse = float(np.mean(err ** 2))
    return MetricsReport("regression", mae=float(np.mean(np.abs(err))),
                         mse=mse, rmse=float(np.sqrt(mse)))


def classification_metrics(pred: np.ndarray, target: np.ndarray) -> MetricsReport:
    pred = pred.astype(int)
    target = target.astype(int)
    accu = float(np.mean(pred == target))
    f1s = []
    for c in np.unique(target):
        tp = np.sum((pred == c) & (target == c))
        fp = np.sum((pred == c) & (target != c))
        fn = np.sum((pred != c) & (target == c))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return MetricsReport("classification", accu=accu, mf1=float(np.mean(f1s)))


def evaluate(model: HSMGNN, sset: SampleSet, batch_size: int = 64) -> MetricsReport:
    if len(sset) == 0:
        raise ConfigError("cannot evaluate on an empty set")
    inputs = sset.model_inputs()
    preds = []
    for start in range(0, len(sset), batch_size):
        preds.append(model.predict(inputs[start:start + batch_size]))
    preds = np.concatenate(preds)
    if sset.task == "classification":
        return classification_metrics(preds, sset.labels)
    return regression_metrics(preds, sset.labels)


def train(model_cfg: ModelConfig, train_cfg: TrainConfig, train_set: SampleSet,
          valid_set: SampleSet) -> tuple[HSMGNN, MetricsReport]:
    """Fit a model, retaining the best-validation parameters.

    Deterministic for a fixed seed: initialization, batch order and the
    optimizer trajectory are all derived from `train_cfg.seed`.
    """
    if len(train_set) == 0 or len(valid_set) == 0:
        raise ConfigError("empty training or validation set")
    start_time = time.perf_counter()
    rng = np.random.default_rng(train_cfg.seed)
    model = HSMGNN(model_cfg, seed=train_cfg.seed)
    opt = Adam(model.params, lr=train_cfg.lr)
    inputs = train_set.model_inputs()
    labels = train_set.labels
    batches = range(0, len(train_set), train_cfg.batch_size)
    n_steps = min(train_cfg.epochs * len(batches), train_cfg.max_steps or np.inf)

    best_state, best_report = model.state_dict(), None
    best_monitor = np.inf
    bad_epochs = 0
    loss_curve: list[float] = []
    step = 0
    for epoch in range(-(-n_steps // len(batches))):  # only the last may stop short
        order = rng.permutation(len(train_set))
        epoch_losses = []
        for lo in batches[:n_steps - step]:
            idx = order[lo:lo + train_cfg.batch_size]
            pred = model.forward(inputs[idx])
            loss = model.loss(pred, labels[idx])
            value = float(loss.data)
            if not np.isfinite(value):
                raise NumericsError(f"non-finite loss at epoch {epoch}, step {step}")
            opt.zero_grad()
            loss.backward()
            opt.step()
            del pred, loss  # frees the step's graph before the next forward
            epoch_losses.append(value)
            step += 1
        loss_curve.append(float(np.mean(epoch_losses)))
        val = evaluate(model, valid_set)
        if val.monitor < best_monitor:
            best_monitor, best_state, best_report = val.monitor, model.state_dict(), val
            bad_epochs = 0
        else:
            bad_epochs += 1
        if bad_epochs >= train_cfg.patience:
            break

    model.load_state_dict(best_state)
    # the best epoch's report describes best_state; evaluate only if no epoch improved
    report = best_report if best_report is not None else evaluate(model, valid_set)
    report.loss_curve = loss_curve
    report.wall_clock = time.perf_counter() - start_time
    return model, report


def _train_grid(runs: list[tuple[dict, ModelConfig, TrainConfig, Path | None]],
                train_set: SampleSet, valid_set: SampleSet,
                test_set: SampleSet | None) -> list[dict]:
    """One row per (labels, model config, train config, checkpoint path or None) run: its
    labels and the metrics on `test_set`, or else the report `train` returns. Runs that build
    the same model (equal configs, or delta values that round to the same z_s) share one
    training, which saves its model to the run's checkpoint path, if any."""
    rows, scores = [], {}
    for labels, model_cfg, run_cfg, checkpoint in runs:
        key = (tuple({**asdict(model_cfg), "delta": model_cfg.z_s}.items()), astuple(run_cfg))
        if key not in scores:
            model, report = train(model_cfg, run_cfg, train_set, valid_set)
            if checkpoint is not None:
                model.save(checkpoint)
            scores[key] = (report if test_set is None else evaluate(model, test_set)).to_dict()
        rows.append({**labels, **scores[key]})
    return rows


def run_ablations(base_cfg: ModelConfig, train_cfg: TrainConfig, train_set: SampleSet,
                  valid_set: SampleSet, test_set: SampleSet | None,
                  seeds: list[int] | None = None,
                  variants: tuple[str, ...] = VARIANTS,
                  checkpoint_dir: Path | None = None) -> list[dict]:
    """Train every requested variant over the seed list; one row per run, scored as in
    `_train_grid`, so a repeated seed shares its variant's run.

    With `checkpoint_dir`, the first seed's model of each variant is saved
    there as `checkpoint-<variant>-seed<seed>.hsmg`.
    """
    # built before any training or output, so every seed is checked first
    train_cfgs = [train_cfg] if seeds is None else [replace(train_cfg, seed=s) for s in seeds]
    runs = [({"variant": v, "seed": tc.seed}, ablate(v, base_cfg), tc,
             Path(checkpoint_dir) / f"checkpoint-{v}-seed{tc.seed}.hsmg"
             if checkpoint_dir is not None and tc.seed == train_cfgs[0].seed else None)
            for v in variants for tc in train_cfgs]
    if checkpoint_dir is not None:
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
    return _train_grid(runs, train_set, valid_set, test_set)


# each sweep parameter and the config field(s) one of its values sets
SWEEP_PARAMS = {"delta": ("delta",), "m_d": ("m_d",), "m_q": ("m_q",),
                "fusion_weights": ("w_s", "w_e")}


def sweep(param: str, values: list, base_cfg: ModelConfig, train_cfg: TrainConfig,
          train_set: SampleSet, valid_set: SampleSet,
          test_set: SampleSet | None) -> list[dict]:
    """One row per value, scored as in `_train_grid`; every config is built before any
    training. A value of a multi-field parameter (`fusion_weights`) is a tuple with one
    entry per field.
    """
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {param!r}, choose from {[*SWEEP_PARAMS]}")
    fields = SWEEP_PARAMS[param]
    runs = []
    for value in values:
        parts = value if isinstance(value, tuple) else (value,)
        if len(parts) != len(fields):
            raise ConfigError(f"{param} takes {len(fields)} number(s) per value, got {value!r}")
        cfg = replace(base_cfg, **dict(zip(fields, parts)))
        value = [getattr(cfg, f) for f in fields]
        label = value[0] if len(value) == 1 else ",".join(map(str, value))
        runs.append(({"param": param, "value": label, "seed": train_cfg.seed}, cfg, train_cfg,
                     None))
    return _train_grid(runs, train_set, valid_set, test_set)
