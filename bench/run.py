#!/usr/bin/env python3
"""Benchmark for the ``ceda`` CLI: end-to-end metrics and a traced per-layer breakdown.

    python3 bench/run.py --workload select-ex4 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --smoke --trace 1

It runs the CLI as a user does: one fresh process per run, on inputs that
``ceda simulate`` wrote beforehand.  Runs form a closed loop, one at a time;
the next starts when the previous one exits.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced runs with
runs under ``bench/tracer.py`` and reports the per-layer metrics.  The last
line of stdout is one JSON object; a fuller record, with the environment and
every sample, goes to ``.bench_out/``.  Workload choices and sizes are
explained in ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
TRACER = BENCH / "tracer.py"

sys.path.insert(0, str(BENCH))
from tracer import ROOT_SPAN, SPAN_NAMES  # noqa: E402

# Every process of one workload's invocation must end within this many seconds.
HARD_LIMIT_S = 170.0
# run_s_hi is the sample with this many samples above it.
HI_TAIL = 10
# Input i of a run with seed s is simulated (and analysed) with seed s + i * stride.
SEED_STRIDE = 100_000
DEFAULT_SEED = 1
# setup_s is the median of at least this many `ceda simulate` runs.
SETUP_RUNS = 7


def _quantile10(columns):
    return ",".join(f"{c}=quantile:10" for c in columns)


X4 = [f"X{i}" for i in range(1, 5)]
X10 = [f"X{i}" for i in range(1, 11)]


def _planted_ex4(report: dict) -> bool:
    return report["chief"] == ["X1"] and report["interactions"] == [["X2", "X3"]]


def _planted_ex6(report: dict) -> bool:
    return report["chief"] == ["X1", "X2", "X3"] and report["alternatives"] == [
        ["X4", "X5", "X6"]
    ]


def _planted_ex3(report: dict) -> bool:
    cells = report["cells"]
    return len(cells) == 16 and all(c["status"] == "confirmed" for c in cells)


@dataclass(frozen=True)
class Workload:
    name: str
    example: str
    n: int
    command: tuple
    replicates: int
    planted: object
    inputs: int
    # Timed runs are all at --threads 1: on a small shared machine the wall
    # time of a multi-threaded run measures how many vCPUs the host lends at
    # that moment (see NOTES.md).  A workload with check_threads > 1 runs
    # input 0 once more at that many threads per invocation, which must give
    # the same report bytes, and records its time without gating it.
    check_threads: int = 1
    # Check the planted answer on every input, or on the default seed's
    # first input only where the answer is not recovered on every data set
    # at this size.
    planted_everywhere: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="select-ex4",
            example="ex4",
            n=2000,
            command=(
                "select", "--response", "Y", "--covariates", ",".join(X4),
                "--categorize", _quantile10(X4), "--max-order", "2",
            ),
            replicates=200,
            planted=_planted_ex4,
            inputs=3,
        ),
        Workload(
            name="select-ex6-noise",
            example="ex6",
            n=2000,
            command=(
                "select", "--response", "Y", "--covariates", ",".join(X10),
                "--categorize", _quantile10(X10), "--noise", "X7,X8,X9,X10",
                "--max-order", "2",
            ),
            replicates=150,
            planted=_planted_ex6,
            inputs=3,
            check_threads=2,
            planted_everywhere=False,
        ),
        Workload(
            name="grid-ex3",
            example="ex3_rho",
            n=5000,
            command=(
                "grid", "--response", "Y", "--covariates", "X",
                "--y-ladder", "12,22,32,102", "--x-ladder", "12,22,32,102",
            ),
            replicates=200,
            planted=_planted_ex3,
            inputs=12,
        ),
    )
}

# Smoke mode: tiny inputs, one input, two runs each; no planted-answer check.
# select-ex6-noise keeps n = 2000 so that its order-2 tables clear the cell
# floor and the padding path (padded_ce_samples) still runs.
SMOKE_SIZES = {"select-ex4": (300, 10), "select-ex6-noise": (2000, 10), "grid-ex3": (400, 10)}

END_TO_END = (
    ("run_ref", "ref"),
    ("cpu_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# A fixed job run before and after every CLI run, in a process of its own.  It
# imports numpy but not ceda, so no change to the program moves it; dividing by
# it cancels the shared machine's drift in speed (see NOTES.md).
REFERENCE_JOB = """
import numpy as np
rng = np.random.default_rng(0)
labels = rng.integers(0, 12, (2000, 2))
for _ in range(150):
    np.unique(labels, axis=0, return_inverse=True)
for _ in range(100):
    rng.binomial(50, 0.3, size=(200, 12))
total = 0
for i in range(200_000):
    total += i * i
"""

# (span, metric suffix, field, unit).  Field "s" is self time and "incl_s"
# inclusive time; ratios divide a per-call tally by the call count.
PER_LAYER = (
    ("cli.ingest_csv", "s", "s", "s"),
    ("cli.cmd_simulate", "s", "s", "s"),
    ("genlab.sample", "s", "s", "s"),
    ("categorize.product_categories", "calls", "calls", "count"),
    ("categorize.product_categories", "s", "s", "s"),
    ("tabulate.crosstab", "calls", "calls", "count"),
    ("tabulate.crosstab", "s", "s", "s"),
    ("tabulate.crosstab", "cells", "cells", "cells"),
    ("categorize.quantile_bins", "calls", "calls", "count"),
    ("categorize.quantile_bins", "s", "s", "s"),
    ("categorize.apply_bins", "calls", "calls", "count"),
    ("categorize.apply_bins", "s", "s", "s"),
    ("nullsim.synthetic_noise_series", "calls", "calls", "count"),
    ("nullsim.synthetic_noise_series", "s", "s", "s"),
    ("categorize.kmeans_fit", "calls", "calls", "count"),
    ("categorize.kmeans_fit", "s", "s", "s"),
    ("categorize.kmeans_fit", "iters", "iters", "count"),
    ("categorize.kmeans_fit", "cap_hits", "cap_hits", "count"),
    ("nullsim.mimic_ce_samples", "calls", "calls", "count"),
    ("nullsim.mimic_ce_samples", "s", "s", "s"),
    ("nullsim.mimic_ce_samples", "draw_cells", "draw_cells", "cells-computed"),
    ("nullsim.null_band", "calls", "calls", "count"),
    ("nullsim.null_band", "s", "s", "s"),
    ("nullsim.null_band", "dup_ratio", "dups", "ratio"),
    ("protocol.build_ledger", "s", "incl_s", "s"),
    ("protocol.select_major_factors", "s", "incl_s", "s"),
    ("protocol.mi_grid", "s", "incl_s", "s"),
    ("protocol.SubsetEvaluator.reference_band", "calls", "calls", "count"),
    ("protocol.SubsetEvaluator.reference_band", "hit_ratio", "leaf_calls", "ratio"),
    ("protocol.SubsetEvaluator.padded_ce_samples", "calls", "calls", "count"),
    ("protocol.SubsetEvaluator.padded_ce_samples", "hit_ratio", "leaf_calls", "ratio"),
)
OVERHEAD = ("trace.overhead_s", "s")
PER_LAYER_UNITS = {f"{span}.{suffix}": unit for span, suffix, _, unit in PER_LAYER}
PER_LAYER_UNITS[OVERHEAD[0]] = OVERHEAD[1]
END_TO_END_UNITS = dict(END_TO_END)

# Why each workload is here: the layers whose self time should dominate it
# (as a share of the traced process wall time) and the least share expected.
REASONS = {
    "select-ex4": (("categorize.product_categories", "tabulate.crosstab"), 0.5),
    "select-ex6-noise": (("nullsim.mimic_ce_samples",), 0.5),
    "grid-ex3": (("categorize.kmeans_fit",), 0.4),
}


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list, log_path: Path, deadline: float) -> Sample:
    """Run argv in a child process, to exit.

    Wall time runs from spawn to reap; CPU time and peak RSS come from wait4.
    The child is killed at ``deadline`` (a ``time.perf_counter`` value).
    """
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=log, stderr=log, cwd=ROOT, env=child_env()
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
    )


def cli_argv(traced_to: Path | None = None) -> list:
    if traced_to is None:
        return [sys.executable, "-m", "ceda.cli"]
    return [sys.executable, str(TRACER), str(traced_to)]


def trimmed_mean(values: list) -> float:
    """Mean without the lowest and the highest value (of three or more).

    The runs of one invocation cycle through inputs of different cost, so
    the mean of a mixture is steadier from seed to seed than its median;
    dropping the extremes keeps one stalled run from moving it.
    """
    ordered = sorted(values)
    return statistics.mean(ordered[1:-1] if len(ordered) >= 3 else ordered)


def hi_sample(values: list) -> tuple[float, int]:
    """Highest sample with at least HI_TAIL samples above it, and its percentile.

    With fewer than HI_TAIL + 1 samples there is none; the maximum stands in.
    """
    ordered = sorted(values)
    index = len(ordered) - HI_TAIL - 1 if len(ordered) > HI_TAIL else len(ordered) - 1
    return ordered[index], round(100 * (index + 1) / len(ordered))


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "platform": platform.platform(),
    }


class Run:
    """One workload's invocation: inputs, runs, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, work: Path):
        self.w = workload
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.deadline = time.perf_counter() + HARD_LIMIT_S
        self.n, self.replicates = SMOKE_SIZES[workload.name] if smoke else (workload.n, workload.replicates)
        self.inputs = 1 if smoke else workload.inputs
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.reports: dict = {}
        self.detail: dict = {}
        self.spans: list = []

    def data_seed(self, i: int) -> int:
        return self.seed + i * SEED_STRIDE

    def csv(self, i: int) -> Path:
        return self.work / f"input{i}.csv"

    def simulate(self, i: int, traced_to: Path | None = None, out: Path | None = None) -> Sample:
        out = out or self.csv(i)
        argv = cli_argv(traced_to) + [
            "simulate", "--example", self.w.example, "--n", str(self.n),
            "--seed", str(self.data_seed(i)), "--out", str(out),
        ]
        sample = spawn(argv, self.work / "simulate.log", self.deadline)
        if sample.code != 0 or not out.exists():
            raise BenchError(f"ceda simulate failed ({sample.code}): {self._log('simulate')}")
        return sample

    def _log(self, name: str) -> str:
        path = self.work / f"{name}.log"
        return path.read_text(errors="replace")[-2000:] if path.exists() else ""

    def analyse(self, i: int, threads: int, traced_to: Path | None = None) -> Sample:
        """One CLI run on input i, checked against the first report of that input."""
        report = self.work / "report.json"
        report.unlink(missing_ok=True)
        argv = cli_argv(traced_to) + list(self.w.command) + [
            "--input", str(self.csv(i)), "--seed", str(self.data_seed(i)),
            "--replicates", str(self.replicates),
            "--threads", str(threads),
            "--format", "json", "--out", str(report),
        ]
        sample = spawn(argv, self.work / "run.log", self.deadline)
        self.attempted += 1
        what = f"input {i} at {threads} threads" + (" traced" if traced_to else "")
        if sample.code != 0 or not report.exists():
            self.fail(f"{what}: exit {sample.code}: {self._log('run')}")
            return sample
        body = report.read_bytes()
        first = self.reports.get(i)
        if first is None:
            self.reports[i] = body
            if self.checks_planted(i) and not self.recovers_planted(body):
                self.fail(f"{what}: planted answer not recovered")
        elif body != first:
            self.fail(f"{what}: report differs from the first report of this input")
        return sample

    def checks_planted(self, i: int) -> bool:
        if self.smoke:
            return False
        return self.w.planted_everywhere or (self.seed == DEFAULT_SEED and i == 0)

    def recovers_planted(self, body: bytes) -> bool:
        try:
            return self.w.planted(json.loads(body))
        except (ValueError, KeyError, TypeError):
            return False

    def fail(self, problem: str):
        self.failed += 1
        self.problems.append(problem)

    def reference(self) -> Sample:
        """One run of the reference job."""
        sample = spawn([sys.executable, "-c", REFERENCE_JOB], self.work / "ref.log", self.deadline)
        if sample.code != 0:
            raise BenchError(f"reference job failed ({sample.code}): {self._log('ref')}")
        return sample

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics over a closed loop cycling through the inputs.

        Each CLI run sits between two runs of the reference job; ``run_ref``
        and ``cpu_ref`` divide the CLI's wall and CPU time by the mean of its
        two neighbours', and take the trimmed mean of these ratios.
        """
        setup = [self.simulate(i).wall_s for i in range(self.inputs)]
        again = self.work / "again.csv"
        for k in range(self.inputs, SETUP_RUNS):
            i = k % self.inputs
            setup.append(self.simulate(i, out=again).wall_s)
            self.attempted += 1
            if again.read_bytes() != self.csv(i).read_bytes():
                self.fail(f"simulate of input {i} wrote a different CSV the second time")
        refs = [self.reference()]

        def step(k):
            sample = self.analyse(k % self.inputs, 1)
            refs.append(self.reference())
            return sample

        # every input at least once, and input 0 twice so that the repeat check runs
        samples = self.loop(seconds, self.inputs + 1, step)
        threaded = self.analyse(0, self.w.check_threads) if self.w.check_threads > 1 else None
        ref_wall = [(a.wall_s + b.wall_s) / 2 for a, b in zip(refs, refs[1:])]
        ref_cpu = [(a.cpu_s + b.cpu_s) / 2 for a, b in zip(refs, refs[1:])]
        walls = [s.wall_s for s in samples]
        hi, pct = hi_sample(walls)
        self.detail = {
            "runs": len(samples),
            "run_s": statistics.median(walls),
            "run_s_hi": hi,
            "run_s_hi_percentile": pct,
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "reference_s": statistics.median(s.wall_s for s in refs),
            "samples": [s.__dict__ for s in samples],
            "reference_samples": [s.__dict__ for s in refs],
            "setup_samples_s": setup,
            "threaded_check": threaded and {"threads": self.w.check_threads, **threaded.__dict__},
        }
        return {
            "run_ref": trimmed_mean([s.wall_s / r for s, r in zip(samples, ref_wall)]),
            "cpu_ref": trimmed_mean([s.cpu_s / r for s, r in zip(samples, ref_cpu)]),
            "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
            "setup_s": statistics.median(setup),
        }

    def loop(self, seconds: float, least: int, step) -> list:
        """Call step(k) for k = 0, 1, ... at least ``least`` times, then while the
        next call is expected to end within ``seconds`` of the first.  Smoke mode
        stops after two calls."""
        if self.smoke:
            least, seconds = 2, 0.0
        start = time.perf_counter()
        results, spans = [], []
        while True:
            began = time.perf_counter()
            results.append(step(len(results)))
            spans.append(time.perf_counter() - began)
            if len(results) >= least and (
                time.perf_counter() + statistics.median(spans) > start + seconds
            ):
                return results

    def trace(self, seconds: float) -> dict:
        """Per-layer metrics from traced runs on input 0, alternated with untraced runs.

        Both run at one thread, like the timed runs, so that
        counts repeat exactly and self times add up to at most the wall time.
        """
        self.simulate(0)
        sim_trace = self.work / "simulate-trace.json"
        traced_csv = self.work / "traced.csv"
        self.simulate(0, traced_to=sim_trace, out=traced_csv)
        self.attempted += 1
        if traced_csv.read_bytes() != self.csv(0).read_bytes():
            self.fail("traced simulate wrote a different CSV")
        sim_spans = json.loads(sim_trace.read_text())["spans"]
        sim_spans.pop(ROOT_SPAN, None)

        def pair(k):
            path = self.work / f"trace{k}.json"
            plain = self.analyse(0, 1).wall_s
            traced = self.analyse(0, 1, traced_to=path).wall_s
            return plain, traced, path

        plain, traced, spans = [], [], []
        for p, t, path in self.loop(seconds, 2, pair):
            plain.append(p)
            traced.append(t)
            if path.exists():
                spans.append({**json.loads(path.read_text())["spans"], **sim_spans})
        if not spans:
            raise BenchError("no traced run completed")
        values = [layer_values(s) for s in spans]
        counts = [{k: v for k, v in vals.items() if not k.endswith(".s")} for vals in values]
        if any(c != counts[0] for c in counts):
            self.fail("per-layer counts differ between traced runs at one thread")
        metrics = {k: statistics.median(v[k] for v in values) for k in values[0]}
        metrics.update(counts[0])
        # paired, so that drift in the machine's speed between pairs cancels
        metrics[OVERHEAD[0]] = statistics.median(t - p for p, t in zip(plain, traced))
        layers, least = REASONS[self.w.name]
        share = sum(statistics.median(s.get(name, {}).get("s", 0.0) for s in spans) for name in layers)
        share /= statistics.median(traced)
        self.detail = {
            "untraced_s": plain,
            "traced_s": traced,
            "spans": spans,
            "reason": {"layers": layers, "share": share, "least": least},
        }
        self.spans = spans
        return metrics


def layer_values(spans: dict) -> dict:
    out = {}
    for span, suffix, field, _ in PER_LAYER:
        entry = spans.get(span, {})
        value = entry.get(field, 0)
        if PER_LAYER_UNITS[f"{span}.{suffix}"] == "ratio":
            value = value / entry["calls"] if entry.get("calls") else 0.0
        out[f"{span}.{suffix}"] = value
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, env: dict):
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(workload, seed, smoke, work)
        metrics = run.trace(seconds) if trace else run.measure(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "size": {
            "n": run.n,
            "replicates": run.replicates,
            "inputs": 1 if trace else run.inputs,
            "threads": 1,
        },
        "environment": env,
        "problems": run.problems,
        "detail": run.detail,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    tag = "smoke" if smoke else f"seed{seed}"
    (OUT / f"{name}-{tag}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    report(record, run)
    return result, run


def report(record: dict, run: Run):
    result, size = record["result"], record["size"]
    mode = "traced" if record["trace"] else "untraced"
    print(
        f"== {record['workload']} ({mode}): n={size['n']} replicates={size['replicates']} "
        f"threads={size['threads']} inputs={size['inputs']} seed={record['seed']}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    detail = record["detail"]
    print(
        f"  {'fail_rate':48s} {result['failed'] / result['attempted']:14.6g} ratio"
        f"  ({result['failed']} of {result['attempted']} runs)"
    )
    if not record["trace"]:
        runs = detail["runs"]
        print(f"  {'run_s':48s} {detail['run_s']:14.6g} s  (median of {runs} runs; not gated)")
        print(
            f"  {'run_s_hi':48s} {detail['run_s_hi']:14.6g} s"
            f"  (p{detail['run_s_hi_percentile']} of {runs} runs; not gated)"
        )
        print(f"  {'cpu_s':48s} {detail['cpu_s']:14.6g} s  (median of {runs} runs; not gated)")
        print(f"  {'reference job':48s} {detail['reference_s']:14.6g} s  (median of {runs + 1} runs)")
        threaded = detail["threaded_check"]
        if threaded:
            print(
                f"  {'run_s at --threads ' + str(threaded['threads']):48s} {threaded['wall_s']:14.6g} s"
                f"  (one run of input 0, cpu {threaded['cpu_s']:.6g} s; not gated)"
            )
    else:
        reason = detail["reason"]
        verdict = "holds" if reason["share"] >= reason["least"] else "does not hold"
        print(
            f"  reason: self time of {' + '.join(reason['layers'])} is "
            f"{reason['share']:.1%} of the traced run (expected >= {reason['least']:.0%}): {verdict}"
        )
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")


def check_coverage(runs: list) -> list:
    """Span names that recorded no call on any workload's traced runs."""
    called = {name for run in runs for spans in run.spans for name, e in spans.items() if e.get("calls")}
    return [name for name in SPAN_NAMES if name not in called]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, two runs each, seconds ignored")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "ceda" / "cli.py").is_file():
        print(f"bench: no ceda sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    results, runs = {}, []
    try:
        for name in names:
            result, run = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.smoke, env
            )
            results[name] = result
            runs.append(run)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    missing = check_coverage(runs) if args.trace else []
    if missing:
        print(f"  FAILED: no calls recorded on any workload for {missing}")
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()) and not missing,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}/{k}": v for name, r in results.items() for k, v in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
