"""Benchmark entry point for hsmgnn.

    python3 perfbench/run.py --workload fd001_train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root. The program is imported from `src/` of the
checkout this file sits in; nothing else is built. Each workload runs in
its own single-threaded process (`all` starts one child per workload, one
after the other). Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a traced run with `--trace 1`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin BLAS and OpenMP to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fd001_train", "wide_n128", "cli_session")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import hsmgnn from this checkout's src/, or exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "hsmgnn" / "__init__.py").is_file():
        print(f"error: no hsmgnn sources under {src}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import hsmgnn
    if src.resolve() not in Path(hsmgnn.__file__).resolve().parents:
        print(f"error: hsmgnn imported from {hsmgnn.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def environment(args) -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "omp_num_threads": os.environ["OMP_NUM_THREADS"],
    }


def end_to_end(res: dict) -> dict:
    import workloads
    wl, steps = res["workload"], res["steps"]
    return {
        "setup_s": (statistics.median(res["setup_times"]), "s"),
        "train_samples_per_s": (wl.batch * len(steps) / sum(steps), "samples/s"),
        "train_step_p50_ms": (1e3 * statistics.median(steps), "ms"),
        "train_step_tail_ms": (1e3 * workloads.tail(steps, wl.tail_pct), "ms"),
        "eval_windows_per_s": (statistics.median(res["eval_rates"]), "windows/s"),
        "valid_rmse": (res["valid_rmse"], "cycles"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "session_s": (statistics.median(res["session_times"]), "s"),
    }


def per_layer(res: dict) -> dict:
    from probe import STAGE_NAMES
    tr = res["tracer"]
    s = tr.sums
    out = {}
    for stage in STAGE_NAMES:
        out[stage + ".fwd_ms"] = (tr.per_step_ms(stage + ".fwd"), "ms")
        out[stage + ".bwd_ms"] = (tr.per_step_ms(stage + ".bwd"), "ms")

    def mean(values, scale=1.0):
        return scale * statistics.fmean(values)

    untraced = statistics.median(res["steps"])
    traced = statistics.median(res["traced_steps"])
    out.update({
        "tensor.nodes_per_step": (s["tensor.nodes"] / tr.steps, "count"),
        "tensor.accumulate_calls_per_step": (s["tensor.accumulate.calls"] / tr.steps, "count"),
        "tensor.accumulate_ms": (tr.per_step_ms("tensor.accumulate"), "ms"),
        "tensor.graph_mb_per_step": (s["tensor.graph_bytes"] / tr.steps / 1e6, "MB"),
        "tensor.backward_ms": (tr.per_step_ms("tensor.backward"), "ms"),
        "model.forward_ms": (tr.per_step_ms("model.forward"), "ms"),
        "optim.adam_ms": (tr.per_step_ms("optim.adam"), "ms"),
        "training.train_calls": (tr.train_calls / res["traced_sessions"], "count"),
        "training.valid_eval_s": (sum(tr.valid_eval_calls) / tr.train_calls, "s"),
        "data.ingest_s": (mean(tr.io[res["workload"].ingest]), "s"),
        "data.save_canonical_s": (mean(tr.io["save_canonical"]), "s"),
        "data.load_canonical_s": (mean(tr.io["load_canonical"]), "s"),
        "data.mtsd_mb": (mean(tr.mtsd_bytes, 1e-6), "MB"),
        "checkpoint.save_ms": (mean(tr.io["checkpoint.save"], 1e3), "ms"),
        "checkpoint.load_ms": (mean(tr.io["checkpoint.load"], 1e3), "ms"),
        "trace.overhead_ms": (1e3 * (traced - untraced), "ms"),
        "trace.overhead_pct": (100.0 * (traced / untraced - 1.0), "%"),
    })
    return out


def report(args, res: dict, metrics: dict) -> None:
    tally = res["tally"]
    wl = res["workload"]
    print(f"env {json.dumps(environment(args), sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':<36} {tally.failed / tally.attempted:>14.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    print(f"  sessions={len(res['session_times'])} timed_steps={len(res['steps'])} "
          f"tail=p{wl.tail_pct} evals={len(res['eval_rates'])}")
    if args.workload == "cli_session":
        print(f"  prepare_s (= setup_s) {statistics.median(res['setup_times']):.6g} s; "
              f"ablate_s (= session_s) {statistics.median(res['session_times']):.6g} s")
    if args.trace:
        print("  stage ranking, ms per step (fwd + bwd):")
        for stage, fwd, bwd in res["tracer"].stage_table():
            print(f"    {stage:<20} {fwd:9.3f} + {bwd:9.3f} = {fwd + bwd:9.3f}")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")


def run_all(args) -> int:
    """Each workload in its own child process, one after the other."""
    code = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        child = subprocess.run([sys.executable, __file__, "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)], cwd=ROOT, check=False)
        code = code or child.returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    import workloads
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = per_layer(res) if args.trace else end_to_end(res)
    report(args, res, metrics)
    tally = res["tally"]
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
