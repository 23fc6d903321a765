"""Command-line entry point: prepare, train, eval, ablate, sweep.

Every run directory receives a resolved-config.json capturing the fully
merged configuration, sufficient to reproduce the run bit for bit.
Exit codes: 0 success, 1 I/O error, 2 config/format error, 3 numerical
abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import data as D
from . import training
from .errors import ConfigError, ContractError, FormatError, NumericsError, ShapeError
from .model import HSMGNN, ModelConfig, VARIANTS, check_value
from .training import MetricsReport, TrainConfig

MODEL_KEYS = set(ModelConfig.__dataclass_fields__) - {"n", "t"}
TRAIN_KEYS = set(TrainConfig.__dataclass_fields__)
EXTRA_KEYS = {"valid_frac"}
ALLOWED_KEYS = MODEL_KEYS | TRAIN_KEYS | EXTRA_KEYS


def parse_value(raw: str):
    """A `--set` value or `--values` item: JSON, else an int or float literal, else the text."""
    for parse in (json.loads, int, float):
        try:
            return parse(raw)
        except ValueError:
            pass
    return raw


def load_run_config(path: str | None, overrides: list[str], seed: int | None) -> dict:
    cfg: dict = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise IOError(f"missing config file: {p}")
        try:
            cfg = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise FormatError(f"{p}: invalid JSON ({exc})") from None
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        cfg[key] = parse_value(raw)
    unknown = set(cfg) - ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if seed is not None:
        cfg["seed"] = seed
    elif "seed" not in cfg and os.environ.get("HSMGNN_SEED"):
        cfg["seed"] = parse_value(os.environ["HSMGNN_SEED"])
    return cfg


def build_configs(args) -> tuple[D.SampleSet, ModelConfig, TrainConfig, float]:
    """The --data set and the resolved model and train configs of a run command."""
    cfg = load_run_config(args.config, args.set, args.seed)
    sset = D.load_canonical(args.data)
    n, t, c = sset.shape
    model_kwargs = {k: v for k, v in cfg.items() if k in MODEL_KEYS}
    if sset.task == "classification":
        model_kwargs.setdefault("head", "classification")
        model_kwargs.setdefault("n_classes", sset.n_classes)
    model_cfg = ModelConfig(n=n * c, t=t, **model_kwargs)
    train_cfg = TrainConfig(**{k: v for k, v in cfg.items() if k in TRAIN_KEYS})
    return sset, model_cfg, train_cfg, check_value("valid_frac", cfg.get("valid_frac", 0.1), float)


def setup_run(args) -> tuple[ModelConfig, TrainConfig, float,
                             D.SampleSet, D.SampleSet, D.SampleSet | None]:
    """The configs, valid_frac, and the train, validation and test sets of train, ablate and
    sweep. Without --test-data the test set is None, and each run is scored by the report of
    its best validation epoch."""
    sset, model_cfg, train_cfg, valid_frac = build_configs(args)
    train_set, valid_set = D.carve_validation(sset, valid_frac, train_cfg.seed)
    test_set = D.load_canonical(args.test_data) if args.test_data else None
    return model_cfg, train_cfg, valid_frac, train_set, valid_set, test_set


def write_outputs(out_dir: Path, model_cfg: ModelConfig, train_cfg: TrainConfig, extra: dict,
                  rows: list[dict], line: str) -> int:
    """Write resolved-config.json, metrics.json and metrics.csv, print `line` once per row,
    formatted with the row's fields and its headline metric's `name` and `metric`, and
    return the exit code 0."""
    resolved = model_cfg.to_dict()
    resolved.update({f"train.{k}": v for k, v in vars(train_cfg).items()}, **extra)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved-config.json").write_text(json.dumps(resolved, indent=2) + "\n")
    cleaned = [{k: v for k, v in row.items() if k != "loss_curve"} for row in rows]
    (out_dir / "metrics.json").write_text(json.dumps(rows, indent=2) + "\n")
    fields = list(dict.fromkeys(k for row in cleaned for k in row))  # in first-seen order
    with open(out_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(cleaned)
    for row in rows:
        name, metric, _ = MetricsReport.headline(row)
        print(line.format(**row, name=name, metric=metric))
    return 0


def cmd_prepare(args) -> int:
    """Build every split before writing any, so a failing split leaves no partial output."""
    if args.dataset == "cmapss":
        out = Path(args.output)
        test_path = out.with_name(out.stem + "_test" + out.suffix)
        outputs = {path: D.load_cmapss(args.input, args.subset, window=args.window,
                                       rul_cap=args.rul_cap, split=split)
                   for path, split in ((args.output, "train"), (test_path, "test"))}
    else:
        outputs = {args.output: D.load_csv(args.input, label_column=args.label_column,
                                           window=args.window, task=args.task)}
    for path, sset in outputs.items():
        D.save_canonical(path, sset)
        print(f"wrote {path}: S={len(sset)} N={sset.shape[0]} "
              f"T={sset.shape[1]} C={sset.shape[2]} task={sset.task}")
    return 0


def cmd_train(args) -> int:
    model_cfg, train_cfg, valid_frac, train_set, valid_set, _ = setup_run(args)
    model, report = training.train(model_cfg, train_cfg, train_set, valid_set)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "checkpoint.hsmg")
    return write_outputs(out, model_cfg, train_cfg, {"valid_frac": valid_frac},
                         [{"split": "valid", **report.to_dict()}],
                         "final validation {name}: {metric:.6f}")


def cmd_eval(args) -> int:
    sset, model_cfg, train_cfg, _ = build_configs(args)
    model = HSMGNN(model_cfg, seed=train_cfg.seed)
    model.load(args.checkpoint)
    report = training.evaluate(model, sset)
    return write_outputs(Path(args.out), model_cfg, train_cfg, {"checkpoint": args.checkpoint},
                         [{"split": "eval", **report.to_dict()}], "eval {name}: {metric:.6f}")


def cmd_ablate(args) -> int:
    model_cfg, train_cfg, valid_frac, *sets = setup_run(args)
    seeds = [parse_value(s) for s in args.seeds.split(",")] if args.seeds else [train_cfg.seed]
    out = Path(args.out)
    rows = training.run_ablations(model_cfg, train_cfg, *sets, seeds=seeds,
                                  variants=(args.variant,) if args.variant else VARIANTS,
                                  checkpoint_dir=out)
    return write_outputs(out, model_cfg, train_cfg, {"valid_frac": valid_frac, "seeds": seeds},
                         rows, "{variant} seed={seed}: {metric:.6f}")


def cmd_sweep(args) -> int:
    model_cfg, train_cfg, _, *sets = setup_run(args)
    values = [tuple(map(parse_value, item.split(":"))) for item in args.values.split(",")]
    rows = training.sweep(args.param, values, model_cfg, train_cfg, *sets)
    return write_outputs(Path(args.out), model_cfg, train_cfg,
                         {"param": args.param, "values": args.values}, rows,
                         "{param}={value}: {metric:.6f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hsmgnn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="convert a raw dataset to the canonical container")
    p.add_argument("--dataset", choices=["cmapss", "csv"], required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--subset", default="FD001")
    p.add_argument("--window", type=int, default=30)
    p.add_argument("--rul-cap", type=float, default=125.0)
    p.add_argument("--label-column", default="label")
    p.add_argument("--task", choices=["regression", "classification"], default=None)
    p.set_defaults(func=cmd_prepare)

    def common(p):
        p.add_argument("--config", default=None)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p = sub.add_parser("train", help="train a model on a canonical dataset")
    common(p)
    p.set_defaults(func=cmd_train, test_data=None)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and compare ablation variants")
    common(p)
    p.add_argument("--test-data", default=None)
    p.add_argument("--variant", choices=list(VARIANTS), default=None)
    p.add_argument("--seeds", default=None, help="comma-separated seed list")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="sensitivity sweep over one hyperparameter")
    common(p)
    p.add_argument("--test-data", default=None)
    p.add_argument("--param", choices=list(training.SWEEP_PARAMS), required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated; fusion weight pairs as ws:we")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError, ShapeError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
