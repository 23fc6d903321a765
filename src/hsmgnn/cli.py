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
from .model import HSMGNN, ModelConfig, VARIANTS
from .training import TrainConfig

MODEL_KEYS = set(ModelConfig.__dataclass_fields__) - {"n", "t"}
TRAIN_KEYS = set(TrainConfig.__dataclass_fields__)
EXTRA_KEYS = {"valid_frac"}
ALLOWED_KEYS = MODEL_KEYS | TRAIN_KEYS | EXTRA_KEYS


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
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    unknown = set(cfg) - ALLOWED_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if seed is not None:
        cfg["seed"] = seed
    elif "seed" not in cfg and os.environ.get("HSMGNN_SEED"):
        cfg["seed"] = int(os.environ["HSMGNN_SEED"])
    return cfg


def build_configs(cfg: dict, sset: D.SampleSet) -> tuple[ModelConfig, TrainConfig, float]:
    n, t, c = sset.shape
    model_kwargs = {k: v for k, v in cfg.items() if k in MODEL_KEYS}
    if sset.task == "classification":
        model_kwargs.setdefault("head", "classification")
        model_kwargs.setdefault("n_classes", sset.n_classes)
    if "mlp_widths" in model_kwargs:
        model_kwargs["mlp_widths"] = tuple(model_kwargs["mlp_widths"])
    model_cfg = ModelConfig(n=n * c, t=t, **model_kwargs)
    train_cfg = TrainConfig(**{k: v for k, v in cfg.items() if k in TRAIN_KEYS})
    return model_cfg, train_cfg, float(cfg.get("valid_frac", 0.1))


def write_outputs(out_dir: Path, resolved: dict, rows: list[dict]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved-config.json").write_text(json.dumps(resolved, indent=2) + "\n")
    cleaned = [{k: v for k, v in row.items() if k != "loss_curve"} for row in rows]
    (out_dir / "metrics.json").write_text(json.dumps(rows, indent=2) + "\n")
    fields: list[str] = []
    for row in cleaned:
        fields += [k for k in row if k not in fields]
    with open(out_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(cleaned)


def resolved_dict(model_cfg: ModelConfig, train_cfg: TrainConfig, extra: dict) -> dict:
    d = model_cfg.to_dict()
    d["mlp_widths"] = list(d["mlp_widths"])
    d.update({f"train.{k}": v for k, v in vars(train_cfg).items()})
    d.update(extra)
    return d


def cmd_prepare(args) -> int:
    if args.dataset == "cmapss":
        sset = D.load_cmapss(args.input, args.subset, window=args.window,
                             rul_cap=args.rul_cap, split="train")
        D.save_canonical(args.output, sset)
        out = Path(args.output)
        test_path = out.with_name(out.stem + "_test" + out.suffix)
        test = D.load_cmapss(args.input, args.subset, window=args.window,
                             rul_cap=args.rul_cap, split="test")
        D.save_canonical(test_path, test)
        print(f"wrote {args.output}: S={len(sset)} N={sset.shape[0]} "
              f"T={sset.shape[1]} C={sset.shape[2]} task={sset.task}")
        print(f"wrote {test_path}: S={len(test)} task={test.task}")
    else:
        sset = D.load_csv(args.input, label_column=args.label_column,
                          window=args.window, task=args.task)
        D.save_canonical(args.output, sset)
        print(f"wrote {args.output}: S={len(sset)} N={sset.shape[0]} "
              f"T={sset.shape[1]} C={sset.shape[2]} task={sset.task}")
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.set, args.seed)
    sset = D.load_canonical(args.data)
    model_cfg, train_cfg, valid_frac = build_configs(cfg, sset)
    train_set, valid_set = D.carve_validation(sset, valid_frac, train_cfg.seed)
    model, report = training.train(model_cfg, train_cfg, train_set, valid_set)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "checkpoint.hsmg")
    write_outputs(out, resolved_dict(model_cfg, train_cfg, {"valid_frac": valid_frac}),
                  [{"split": "valid", **report.to_dict()}])
    rmse = report.rmse if report.task == "regression" else report.accu
    print(f"final validation {'RMSE' if report.task == 'regression' else 'Accu'}: {rmse:.6f}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config, args.set, args.seed)
    sset = D.load_canonical(args.data)
    model_cfg, train_cfg, _ = build_configs(cfg, sset)
    model = HSMGNN(model_cfg, seed=train_cfg.seed)
    model.load(args.checkpoint)
    report = training.evaluate(model, sset)
    out = Path(args.out)
    write_outputs(out, resolved_dict(model_cfg, train_cfg, {"checkpoint": args.checkpoint}),
                  [{"split": "eval", **report.to_dict()}])
    key = "RMSE" if report.task == "regression" else "Accu"
    value = report.rmse if report.task == "regression" else report.accu
    print(f"eval {key}: {value:.6f}")
    return 0


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config, args.set, args.seed)
    sset = D.load_canonical(args.data)
    model_cfg, train_cfg, valid_frac = build_configs(cfg, sset)
    train_set, valid_set, test_set = _load_sets_from(sset, args, valid_frac, train_cfg.seed)
    variants = (args.variant,) if args.variant else VARIANTS
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [train_cfg.seed]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = training.run_ablations(model_cfg, train_cfg, train_set, valid_set, test_set,
                                  seeds=seeds, variants=variants, checkpoint_dir=out)
    write_outputs(out, resolved_dict(model_cfg, train_cfg,
                                     {"valid_frac": valid_frac, "seeds": seeds}), rows)
    for row in rows:
        metric = row.get("rmse", row.get("accu"))
        print(f"{row['variant']} seed={row['seed']}: {metric:.6f}")
    return 0


def _load_sets_from(sset, args, valid_frac, seed):
    train_set, valid_set = D.carve_validation(sset, valid_frac, seed)
    test_set = D.load_canonical(args.test_data) if args.test_data else valid_set
    return train_set, valid_set, test_set


def cmd_sweep(args) -> int:
    cfg = load_run_config(args.config, args.set, args.seed)
    sset = D.load_canonical(args.data)
    model_cfg, train_cfg, valid_frac = build_configs(cfg, sset)
    if args.param == "fusion_weights":
        values = [tuple(float(x) for x in pair.split(":")) for pair in args.values.split(",")]
    elif args.param == "delta":
        values = [float(v) for v in args.values.split(",")]
    else:
        values = [int(v) for v in args.values.split(",")]
    training.validate_sweep(args.param, values)
    train_set, valid_set, test_set = _load_sets_from(sset, args, valid_frac, train_cfg.seed)
    rows = training.sweep(args.param, values, model_cfg, train_cfg,
                          train_set, valid_set, test_set)
    write_outputs(Path(args.out), resolved_dict(model_cfg, train_cfg,
                                                {"param": args.param,
                                                 "values": args.values}), rows)
    for row in rows:
        metric = row.get("rmse", row.get("accu"))
        print(f"{row['param']}={row['value']}: {metric:.6f}")
    return 0


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
        p.add_argument("--test-data", default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p = sub.add_parser("train", help="train a model on a canonical dataset")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and compare ablation variants")
    common(p)
    p.add_argument("--variant", choices=list(VARIANTS), default=None)
    p.add_argument("--seeds", default=None, help="comma-separated seed list")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="sensitivity sweep over one hyperparameter")
    common(p)
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
