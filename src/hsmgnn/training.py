"""Training loop, metrics, early stopping and sensitivity sweeps."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import SampleSet
from .errors import ConfigError, NumericsError
from .model import HSMGNN, ModelConfig, VARIANTS, ablate
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
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be positive")


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

    @property
    def monitor(self) -> float:
        """Early-stopping objective: lower is better."""
        return self.rmse if self.task == "regression" else -self.accu

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

    best_state = model.state_dict()
    best_monitor = np.inf
    bad_epochs = 0
    loss_curve: list[float] = []
    step = 0
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(len(train_set))
        epoch_losses = []
        for lo in range(0, len(order), train_cfg.batch_size):
            idx = order[lo:lo + train_cfg.batch_size]
            pred = model.forward(inputs[idx])
            loss = model.loss(pred, labels[idx])
            value = float(loss.data)
            if not np.isfinite(value):
                raise NumericsError(f"non-finite loss at epoch {epoch}, step {step}")
            opt.zero_grad()
            loss.backward()
            opt.step()
            epoch_losses.append(value)
            step += 1
            if train_cfg.max_steps is not None and step >= train_cfg.max_steps:
                break
        loss_curve.append(float(np.mean(epoch_losses)))
        val = evaluate(model, valid_set)
        if val.monitor < best_monitor:
            best_monitor = val.monitor
            best_state = model.state_dict()
            bad_epochs = 0
        else:
            bad_epochs += 1
        if bad_epochs >= train_cfg.patience:
            break
        if train_cfg.max_steps is not None and step >= train_cfg.max_steps:
            break

    model.load_state_dict(best_state)
    report = evaluate(model, valid_set)
    report.loss_curve = loss_curve
    report.wall_clock = time.perf_counter() - start_time
    return model, report


def run_ablations(base_cfg: ModelConfig, train_cfg: TrainConfig, train_set: SampleSet,
                  valid_set: SampleSet, test_set: SampleSet,
                  seeds: list[int] | None = None,
                  variants: tuple[str, ...] = VARIANTS,
                  checkpoint_dir: Path | None = None) -> list[dict]:
    """Train every requested variant over the seed list; one row per run.

    With `checkpoint_dir`, the first seed's model of each variant is saved
    there as `checkpoint-<variant>-seed<seed>.hsmg`.
    """
    seeds = seeds if seeds is not None else [train_cfg.seed]
    rows = []
    for variant in variants:
        cfg = ablate(variant, base_cfg)
        for seed in seeds:
            model, _ = train(cfg, replace(train_cfg, seed=seed), train_set, valid_set)
            if checkpoint_dir is not None and seed == seeds[0]:
                model.save(Path(checkpoint_dir) / f"checkpoint-{variant}-seed{seed}.hsmg")
            report = evaluate(model, test_set)
            rows.append({"variant": variant, "seed": seed, **report.to_dict()})
    return rows


SWEEP_PARAMS = ("delta", "m_d", "m_q", "fusion_weights")


def _apply_sweep_value(cfg: ModelConfig, param: str, value) -> ModelConfig:
    d = cfg.to_dict()
    if param == "delta":
        d["delta"] = float(value)
    elif param in ("m_d", "m_q"):
        d[param] = int(value)
    else:
        w_s, w_e = value
        d["w_s"], d["w_e"] = float(w_s), float(w_e)
    return ModelConfig.from_dict(d)


def validate_sweep(param: str, values: list) -> None:
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {param!r}, expected one of {SWEEP_PARAMS}")
    for v in values:
        if param == "delta":
            if not (0.0 < float(v) < 1.0):
                raise ConfigError(f"delta value {v} outside (0, 1)")
        elif param in ("m_d", "m_q"):
            if int(v) < 1:
                raise ConfigError(f"{param} value {v} must be a positive integer")
        else:
            w_s, w_e = v
            if float(w_s) < 0 or float(w_e) < 0:
                raise ConfigError(f"fusion weights {v} must be non-negative")


def sweep(param: str, values: list, base_cfg: ModelConfig, train_cfg: TrainConfig,
          train_set: SampleSet, valid_set: SampleSet,
          test_set: SampleSet) -> list[dict]:
    """One train+evaluate per value; all values validated up front."""
    validate_sweep(param, values)
    rows = []
    for value in values:
        cfg = _apply_sweep_value(base_cfg, param, value)
        model, _ = train(cfg, train_cfg, train_set, valid_set)
        report = evaluate(model, test_set)
        label = f"{value[0]},{value[1]}" if param == "fusion_weights" else value
        rows.append({"param": param, "value": label, "seed": train_cfg.seed,
                     **report.to_dict()})
    return rows
