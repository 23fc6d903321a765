"""Command-line entry point: prepare, train, eval, ablate, sweep.

Every run directory receives a resolved-config.json capturing the fully
merged configuration, sufficient to reproduce the run bit for bit.
Exit codes: 0 success, 1 I/O error, 2 any other package error (config,
format, shape, contract) or a config too large for memory, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import data as D
from . import training
from .checkpoint import load_checkpoint
from .errors import ConfigError, FormatError, HsmgnnError, NumericsError
from .model import HSMGNN, ModelConfig, VARIANTS
from .training import MetricsReport, TrainConfig

MODEL_KEYS = set(ModelConfig.__dataclass_fields__) - {"n", "t"}
TRAIN_KEYS = set(TrainConfig.__dataclass_fields__)
ALLOWED_KEYS = MODEL_KEYS | TRAIN_KEYS


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
        try:
            cfg = json.loads(p.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{p}: invalid JSON ({exc})") from None
        if not isinstance(cfg, dict):
            raise FormatError(f"{p}: expected a JSON object, got {json.dumps(cfg)[:40]}")
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
    return cfg


def build_configs(args, n_classes: int = 0) -> tuple[D.SampleSet, ModelConfig, TrainConfig]:
    """The --data set and the resolved model and train configs of a run command. `n_classes`
    defaults to the given count, else the set's class count or 1 for regression, and must
    fit the set."""
    cfg = load_run_config(args.config, args.set, args.seed)
    sset = D.load_canonical(args.data)
    n, t, c = sset.shape
    model_kwargs = {k: v for k, v in cfg.items() if k in MODEL_KEYS}
    classify = sset.task == "classification"
    model_kwargs.setdefault("n_classes", n_classes or (sset.n_classes if classify else 1))
    model_cfg = ModelConfig(n=n * c, t=t, **model_kwargs)
    if (model_cfg.n_classes > 1) != classify or model_cfg.n_classes < sset.n_classes:
        need = f">= {max(2, sset.n_classes)}" if classify else "1"
        raise ConfigError(f"n_classes={model_cfg.n_classes} does not fit {args.data}: "
                          f"its {sset.task} labels need n_classes {need}")
    train_cfg = TrainConfig(**{k: v for k, v in cfg.items() if k in TRAIN_KEYS})
    return sset, model_cfg, train_cfg


def setup_run(args) -> tuple[ModelConfig, TrainConfig,
                             D.SampleSet, D.SampleSet, D.SampleSet | None]:
    """The configs and the train, validation and test sets of train, ablate and sweep.
    Without --test-data the test set is None, and each run is scored by the report of its
    best validation epoch."""
    sset, model_cfg, train_cfg = build_configs(args)
    train_set, valid_set = D.carve_validation(sset, train_cfg.valid_frac, train_cfg.seed)
    test_set = D.load_canonical(args.test_data) if args.test_data else None
    return model_cfg, train_cfg, train_set, valid_set, test_set


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
    """Build every split before writing any, so a failing split leaves no partial output.
    The turbofan test split is normalized with the train split's statistics, so the
    training table is parsed once."""
    if args.dataset == "cmapss":
        out = Path(args.output)
        train = D.load_cmapss(args.input, args.subset, window=args.window, rul_cap=args.rul_cap)
        test = D._cmapss_test(args.input, args.subset, args.window, args.rul_cap,
                              train.sensor_names, train.norm_stats)
        outputs = {args.output: train, out.with_name(out.stem + "_test" + out.suffix): test}
    else:
        outputs = {args.output: D.load_csv(args.input, label_column=args.label_column,
                                           window=args.window, task=args.task)}
    for path, sset in outputs.items():
        D.save_canonical(path, sset)
        print(f"wrote {path}: S={len(sset)} N={sset.shape[0]} "
              f"T={sset.shape[1]} C={sset.shape[2]} task={sset.task}")
    return 0


def cmd_train(args) -> int:
    model_cfg, train_cfg, train_set, valid_set, _ = setup_run(args)
    model, report = training.train(model_cfg, train_cfg, train_set, valid_set)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "checkpoint.hsmg")
    return write_outputs(out, model_cfg, train_cfg, {}, [{"split": "valid", **report.to_dict()}],
                         "final validation {name}: {metric:.6f}")


def cmd_eval(args) -> int:
    """The head's width, not the evaluated set's labels, sets the default class count. The
    model takes the checkpoint's arrays as its parameters: nothing is drawn or copied."""
    state = load_checkpoint(args.checkpoint)
    head = state.get("mlp.b4")
    sset, model_cfg, train_cfg = build_configs(args, 0 if head is None else head.size)
    model = HSMGNN.from_state(model_cfg, state)
    report = training.evaluate(model, sset)
    return write_outputs(Path(args.out), model_cfg, train_cfg, {"checkpoint": args.checkpoint},
                         [{"split": "eval", **report.to_dict()}], "eval {name}: {metric:.6f}")


def cmd_ablate(args) -> int:
    model_cfg, train_cfg, *sets = setup_run(args)
    seeds = [parse_value(s) for s in args.seeds.split(",")] if args.seeds else [train_cfg.seed]
    out = Path(args.out)
    rows = training.run_ablations(model_cfg, train_cfg, *sets, seeds=seeds,
                                  variants=(args.variant,) if args.variant else VARIANTS,
                                  checkpoint_dir=out)
    return write_outputs(out, model_cfg, train_cfg, {"seeds": seeds},
                         rows, "{variant} seed={seed}: {metric:.6f}")


def cmd_sweep(args) -> int:
    model_cfg, train_cfg, *sets = setup_run(args)
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
    except NumericsError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except (HsmgnnError, MemoryError) as exc:  # numpy names the size it could not allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
