"""The three benchmark workloads and the schedule that times them.

Each workload makes its inputs from the seed (`generate`, untimed), then
runs cycles of set-up, one session and forward-only evaluation until the
run's seconds are spent, and finally checks its outputs. A session is one
`training.train` call for the model workloads and one `hsmgnn ablate`
command for cli_session; the optimizer steps inside sessions are timed by
`probe.StepClock`. The load on a shared machine drifts over seconds, so
set-up and evaluation are repeated in every cycle rather than timed once
at one end of the run: each median then spans the whole run.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
from pathlib import Path

import numpy as np

import gen
from probe import Patches, StepClock, Tracer, clock
from hsmgnn import cli, data, training
from hsmgnn.errors import NumericsError
from hsmgnn.model import HSMGNN, ModelConfig
from hsmgnn.training import TrainConfig

MIN_SETUPS = 3
EVAL_SHARE = 0.2           # evaluation time per cycle, as a share of its session
LR = 1e-3                  # above the 1e-4 default so that the fixed steps visibly learn
TRAIN_SEED = 0             # model init, batch order and validation carve


class Tally:
    """Operations attempted and failed: steps, commands, evaluations, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def _finite(x) -> bool:
    return x is not None and bool(np.all(np.isfinite(x)))


def _mtsd_round_trip(src: Path, dst: Path) -> bool:
    """`load_canonical` then `save_canonical` must reproduce the file byte for byte."""
    data.save_canonical(dst, data.load_canonical(src))
    return src.read_bytes() == dst.read_bytes()


class ModelWorkload:
    """Shared by fd001_train and wide_n128: in-process `training.train` sessions."""

    n: int
    batch: int
    steps: int             # optimizer steps per session
    tail_pct: int          # fixed so that min_sessions * steps leave >= 10 samples above it
    eval_batch = 64
    min_sessions = 2
    ingest = "load_cmapss"  # the data-layer call that reads the raw input

    def __init__(self, workdir: Path, seed: int, tally: Tally):
        self.dir = workdir
        self.seed = seed
        self.tally = tally
        self.model = None

    def configs(self) -> None:
        self.model_cfg = ModelConfig(n=self.n, t=gen.WINDOW)
        self.train_cfg = TrainConfig(batch_size=self.batch, lr=LR, seed=TRAIN_SEED,
                                     max_steps=self.steps)

    def session(self) -> tuple[float, float] | None:
        """One `training.train` call: (seconds, validation RMSE), None if it aborted."""
        start = clock()
        try:
            self.model, report = training.train(self.model_cfg, self.train_cfg,
                                                self.fit_set, self.valid_set)
        except NumericsError as exc:
            self.tally.check(False, f"training aborted: {exc}")
            return None
        wall = clock() - start
        self.tally.check(_finite(report.rmse), "validation RMSE is finite")
        return wall, report.rmse

    def evaluations(self, budget: float) -> list[float]:
        """Windows/s of `training.evaluate` calls on the held-out set, for `budget` s."""
        rates = []
        until = clock() + budget
        while not rates or clock() < until:
            start = clock()
            report = training.evaluate(self.model, self.eval_set, batch_size=self.eval_batch)
            rates.append(len(self.eval_set) / (clock() - start))
            self.tally.check(_finite(report.rmse), "evaluation RMSE is finite")
        return rates

    def checks(self) -> None:
        src, dst = self.round_trip_files()
        self.tally.check(_mtsd_round_trip(src, dst), ".mtsd load->save is byte-identical")
        path = self.dir / "model.hsmg"
        self.model.save(path)
        fresh = HSMGNN(self.model_cfg, seed=TRAIN_SEED + 1)
        fresh.load(path)
        inputs = self.eval_set.model_inputs()
        same = all(np.array_equal(self.model.predict(inputs[lo:lo + self.eval_batch]),
                                  fresh.predict(inputs[lo:lo + self.eval_batch]))
                   for lo in range(0, len(inputs), self.eval_batch))
        self.tally.check(same, "reloaded checkpoint reproduces predictions exactly")


class Fd001Train(ModelWorkload):
    """FD001 shape: N=14, T=30, batch 32, default ModelConfig, complete variant."""

    n = 14
    batch = 32
    steps = 64
    tail_pct = 90
    valid_frac = 0.05

    def generate(self) -> None:
        gen.write_turbofan(self.dir / "raw", self.seed)

    def setup(self) -> None:
        raw = self.dir / "raw"
        train_set = data.load_cmapss(raw, "FD001", window=gen.WINDOW, rul_cap=gen.RUL_CAP)
        self.eval_set = data.load_cmapss(raw, "FD001", window=gen.WINDOW, rul_cap=gen.RUL_CAP,
                                         split="test")
        gen.check_sampleset(train_set, self.n, gen.TRAIN_WINDOWS)
        gen.check_sampleset(self.eval_set, self.n, gen.N_UNITS)
        self.fit_set, self.valid_set = data.carve_validation(train_set, self.valid_frac,
                                                             TRAIN_SEED)
        self.configs()

    def round_trip_files(self) -> tuple[Path, Path]:
        first = self.dir / "test.mtsd"
        data.save_canonical(first, self.eval_set)
        return first, self.dir / "test-again.mtsd"


class WideN128(ModelWorkload):
    """N=128 sensors, batch 8: the N^3 SPD-branch terms dominate.

    Every forward holds at most 8 windows: `training.train` validates in
    batches of 64, so the validation set is kept at exactly 8 windows, and
    evaluation runs in batches of 8.
    """

    n = 128
    batch = 8
    steps = 12
    tail_pct = 55
    eval_batch = 8
    ingest = "load_canonical"
    train_windows = 1032
    valid_windows = 8
    eval_windows = 32

    def generate(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        parts = (("wide.mtsd", self.train_windows, 0),
                 ("wide-eval.mtsd", self.eval_windows, self.train_windows))
        for name, count, offset in parts:
            windows, labels = gen.wide_windows(self.seed, count, self.n, offset)
            data.save_canonical(self.dir / name, data.SampleSet(windows, labels, "regression"))

    def setup(self) -> None:
        train_set = data.load_canonical(self.dir / "wide.mtsd")
        self.eval_set = data.load_canonical(self.dir / "wide-eval.mtsd")
        gen.check_sampleset(train_set, self.n, self.train_windows)
        gen.check_sampleset(self.eval_set, self.n, self.eval_windows)
        self.fit_set, self.valid_set = data.carve_validation(
            train_set, self.valid_windows / self.train_windows, TRAIN_SEED)
        if len(self.valid_set) != self.valid_windows:
            raise ValueError(f"validation carve gave {len(self.valid_set)} windows, "
                             f"expected {self.valid_windows}")
        self.configs()

    def round_trip_files(self) -> tuple[Path, Path]:
        return self.dir / "wide-eval.mtsd", self.dir / "wide-eval-again.mtsd"


class CliSession:
    """`hsmgnn prepare`, then repeated `hsmgnn ablate` + `hsmgnn eval` sessions.

    Set-up is `prepare` on the synthetic turbofan text. A session is one
    `ablate` over all four variants with one seed (it calls `training.train`
    twice per variant) followed by three `eval` commands of the complete
    checkpoint on the test container. Step figures are the complete
    variant's steps inside `ablate`.
    """

    n = 14
    batch = 32
    steps = 20
    tail_pct = 90
    min_sessions = 3
    ingest = "load_cmapss"
    valid_frac = 0.01
    evals_per_session = 3

    def __init__(self, workdir: Path, seed: int, tally: Tally):
        self.dir = workdir
        self.seed = seed
        self.tally = tally
        self.mtsd = workdir / "fd001.mtsd"
        self.test_mtsd = workdir / "fd001_test.mtsd"
        self.checkpoint = workdir / "ablate" / f"checkpoint-complete-seed{TRAIN_SEED}.hsmg"
        self.settings = ["--seed", str(TRAIN_SEED), "--set", f"lr={LR}",
                         "--set", f"batch_size={self.batch}", "--set", f"max_steps={self.steps}",
                         "--set", f"valid_frac={self.valid_frac}"]
        self.eval_walls: list[float] = []  # this session's eval commands
        self.eval_rmses: list[float] = []  # every eval command of the run

    def command(self, *argv: str) -> float | None:
        """Run one `hsmgnn` command in-process: its seconds, or None if it failed."""
        start = clock()
        code = cli.main(list(argv))
        elapsed = clock() - start
        return elapsed if self.tally.check(code == 0, f"hsmgnn {argv[0]} exited {code}") else None

    def generate(self) -> None:
        gen.write_turbofan(self.dir / "raw", self.seed)

    def setup(self) -> None:
        self.command("prepare", "--dataset", "cmapss", "--input", str(self.dir / "raw"),
                     "--output", str(self.mtsd), "--subset", "FD001",
                     "--window", str(gen.WINDOW), "--rul-cap", str(gen.RUL_CAP))

    def session(self) -> tuple[float, float] | None:
        """One `ablate`, then the `eval` commands: (ablate seconds, complete RMSE)."""
        out = self.dir / "ablate"
        wall = self.command("ablate", "--data", str(self.mtsd), "--out", str(out),
                            "--seeds", str(TRAIN_SEED), *self.settings)
        if wall is None:
            return None
        rows = json.loads((out / "metrics.json").read_text())
        self.tally.check(len(rows) == 4 and all(_finite(r["rmse"]) for r in rows),
                         "ablate reports a finite RMSE for all four variants")
        self.eval_walls = []
        for _ in range(self.evals_per_session):
            ev = self.dir / "eval"
            elapsed = self.command("eval", "--data", str(self.test_mtsd),
                                   "--checkpoint", str(self.checkpoint), "--out", str(ev),
                                   *self.settings)
            if elapsed is not None:
                self.eval_walls.append(elapsed)
                self.eval_rmses.append(json.loads((ev / "metrics.json").read_text())[0]["rmse"])
        complete = [r["rmse"] for r in rows if r["variant"] == "complete"]
        return wall, complete[0] if complete else math.nan

    def evaluations(self, budget: float) -> list[float]:
        """Windows/s of this session's `hsmgnn eval` commands, each timed whole."""
        return [gen.N_UNITS / wall for wall in self.eval_walls]

    def checks(self) -> None:
        self.tally.check(len(set(self.eval_rmses)) == 1 and _finite(self.eval_rmses),
                         "every hsmgnn eval reports the same finite RMSE")
        fresh = HSMGNN(ModelConfig(n=self.n, t=gen.WINDOW), seed=TRAIN_SEED + 1)
        fresh.load(self.checkpoint)
        rmse = training.evaluate(fresh, data.load_canonical(self.test_mtsd)).rmse
        self.tally.check(self.eval_rmses[:1] == [rmse],
                         "reloaded checkpoint reproduces the eval RMSE exactly")
        for src in (self.test_mtsd, self.mtsd):
            self.tally.check(_mtsd_round_trip(src, self.dir / "again.mtsd"),
                             f".mtsd load->save is byte-identical for {src.name}")


WORKLOADS = {"fd001_train": Fd001Train, "wide_n128": WideN128, "cli_session": CliSession}


def tail(values: list[float], pct: int) -> float:
    """The `pct` percentile, refusing it when fewer than 10 samples lie above it."""
    if len(values) - math.ceil(len(values) * pct / 100) < 10:
        raise ValueError(f"{len(values)} step samples leave fewer than 10 above p{pct}")
    return float(np.percentile(values, pct))


def run(name: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    """Run one workload and return its raw measurements.

    In a traced run every other session (the 2nd, 4th, ...) runs with the
    per-layer spans installed; the others are timed as in an untraced run,
    which gives the tracing overhead.
    """
    tally = Tally()
    wl = WORKLOADS[name](workdir, seed, tally)
    wl.generate()
    patches = Patches()
    step_clock = StepClock()
    step_clock.install(patches)
    tracer = Tracer()
    if trace:
        tracer.install_io(patches)
    try:
        setup_times, sessions, eval_rates = [], [], []
        steps = {False: [], True: []}
        begin = clock()
        while len(sessions) < wl.min_sessions or clock() - begin < seconds:
            if clock() - begin > 4 * seconds:
                raise RuntimeError(f"only {len(sessions)} sessions completed in "
                                   f"{4 * seconds} s")
            start = clock()
            wl.setup()
            setup_times.append(clock() - start)
            traced = trace and len(sessions) % 2 == 1
            span_patches = Patches()
            if traced:
                tracer.install_spans(span_patches)
            first_call = len(step_clock.calls)
            try:
                outcome = wl.session()
            finally:
                span_patches.restore()
            calls = step_clock.calls[first_call:]
            tally.attempted += sum(len(call["steps"]) for call in calls)
            if outcome is None:
                continue
            sessions.append(outcome)
            for call in calls:
                if call["variant"] == "complete":
                    steps[traced] += call["steps"]
            eval_rates += wl.evaluations(EVAL_SHARE * outcome[0])
        while len(setup_times) < MIN_SETUPS:
            start = clock()
            wl.setup()
            setup_times.append(clock() - start)

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rmses = [rmse for _, rmse in sessions]
        tally.check(len(set(rmses)) == 1, "every session reaches the same validation RMSE")
        wl.checks()
    finally:
        patches.restore()

    return {
        "workload": wl,
        "tally": tally,
        "tracer": tracer,
        "setup_times": setup_times,
        "session_times": [wall for wall, _ in sessions],
        "valid_rmse": rmses[0],
        "steps": steps[False],
        "traced_steps": steps[True],
        "traced_sessions": len(sessions) // 2 if trace else 0,
        "eval_rates": eval_rates,
        "peak_rss_mb": peak_rss_mb,
    }
