"""End-to-end and per-layer benchmark of `riskboot estimate`.

Usage (from the repository root):

    python3 bench/run.py --workload golden --seed 11 --seconds 36 --trace 0

Each repetition runs one `riskboot estimate` process to completion before
the next starts: a closed loop with one client. The process runs the
checkout's own `src/` tree, exactly as the installed `riskboot` script
would. Every repetition's tables are checked, and the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics
of BENCHMARK.json; with --trace 1 they are its per-layer metrics, taken
from runs under bench/tracer.py alternating with untraced runs.

End-to-end times are host-normalized. The speed of a shared host drifts
by up to 2x over minutes, far more than the bounds, so the untraced loop
runs a fixed reference job (bench/reference.py, which never imports
riskboot) right after every repetition. Each of a repetition's times is
scaled by REF_S over the wall time of the reference job that followed
it, and each time metric is the median of the scaled values: seconds on
a host that runs the reference job in REF_S seconds. The raw medians are
printed too.

Workloads, and why each one is here, are listed in BENCHMARK.json and in
WORKLOADS below. Generated inputs come from --seed through numpy alone,
never from `riskboot synth`, so the library under test cannot change its
own inputs; they live in a temporary directory under .bench_work/ that
is removed when the run ends. The exit code is 0 when every output check
passed, 1 when one failed and 2 when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
WORK = ROOT / ".bench_work"
TRACER = BENCH_DIR / "tracer.py"
REFERENCE = BENCH_DIR / "reference.py"
SPEC_PATH = ROOT / "BENCHMARK.json"

# What the installed `riskboot` console script runs.
ENTRY = "import sys; from riskboot.cli import main; sys.exit(main())"

GOLDEN_SEED = 11          # master seed of the committed golden tables
GOLDEN_RESAMPLES = 5000
MIN_REPS = 3              # untraced repetitions per run
SETUPS = 3                # setup_s samples per untraced run, one after each of the first repetitions
REF_S = 1.7               # nominal wall time of the reference job: its median on the
                          # 2-vCPU VM this was tuned on, so normalized times read as seconds there
MIN_PAIRS = 2             # untraced + traced pairs per traced run
RUN_LIMIT_S = 170.0       # any process still running this long into a run is killed
POSITIONS = 2             # every workload runs --position both
LOADERS = ("load_returns", "load_prices")
CLI_CHILDREN = LOADERS + (
    "log_returns", "drop_zero_returns", "summary_stats", "to_losses", "run_grid",
    "build_summary_table", "build_measure_table", "to_csv", "to_text", "to_kv")


# ----------------------------------------------------------------------
# workloads and their inputs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Input:
    name: str       # file name inside the input directory
    rows: int       # data rows in the file
    n: int          # returns riskboot estimates from
    size: int       # bytes


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, Path], tuple[Path, list[Input]]]
    flags: tuple[str, ...]
    resamples: int
    workers: int
    params: int               # grid parameters per (contract, position)
    extension: str            # table file extension for the chosen --format
    tables: tuple[str, ...]

    def argv(self, inputs, seed, out_dir):
        args = ["estimate"]
        for one in inputs:
            args += ["--input", one.name]
        return args + list(self.flags) + [
            "--resamples", str(self.resamples), "--workers", str(self.workers),
            "--seed", str(seed), "--out", str(out_dir)]

    def cells(self, inputs):
        return len(inputs) * POSITIONS * self.params

    def elements(self, inputs):
        """Resample elements the grid requires: the sum over cells of B * n."""
        return sum(POSITIONS * self.params * self.resamples * one.n for one in inputs)


def _dates(count, first):
    return np.datetime_as_string(np.datetime64(first) + np.arange(count), unit="D")


def _write_csv(path, header, dates, values):
    text = header + "\n" + "".join(f"{d},{v!r}\n" for d, v in zip(dates, values.tolist()))
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def golden_inputs(seed, scratch):
    """The five committed 400-row return files of the acceptance test."""
    directory = DATA / "inputs"
    inputs = []
    for name in ("c1.csv", "c2.csv", "c3.csv", "c4.csv", "c5.csv"):
        data = (directory / name).read_bytes()
        rows = data.count(b"\n") - 1
        inputs.append(Input(name, rows, rows, len(data)))
    return directory, inputs


PAPER_N = 3392


def paper_inputs(seed, scratch):
    """Two paper-length return files: Student-t with 4 degrees of freedom,
    and a normal with a 10 % left-shifted, three times wider contaminant."""
    rng = np.random.default_rng([seed, 1])
    heavy = rng.standard_t(4, PAPER_N) * 0.01
    skewed = rng.normal(0.0, 0.012, PAPER_N)
    hit = rng.random(PAPER_N) < 0.1
    skewed[hit] = rng.normal(-0.036, 0.036, int(hit.sum()))
    dates = _dates(PAPER_N, "1990-01-01")
    inputs = []
    for name, values in (("t4.csv", heavy), ("skewmix.csv", skewed)):
        size = _write_csv(scratch / name, "date,return", dates, values)
        inputs.append(Input(name, PAPER_N, PAPER_N, size))
    return scratch, inputs


LONG_ROWS = 100_000


def long_history_inputs(seed, scratch):
    """One settlement-price file of LONG_ROWS daily rows in which about 3 %
    of the days repeat the previous price, as holiday padding does."""
    rng = np.random.default_rng([seed, 2])
    steps = rng.standard_t(5, LONG_ROWS) * 0.012
    prices = 100.0 * np.exp(np.cumsum(steps - steps.mean()))
    padded = rng.random(LONG_ROWS) < 0.03
    padded[0] = False
    prices = prices[np.maximum.accumulate(np.where(padded, 0, np.arange(LONG_ROWS)))]
    # the returns riskboot keeps: log price ratios that are not exactly zero
    n = int(np.count_nonzero(np.log(prices[1:] / prices[:-1]) != 0.0))
    size = _write_csv(scratch / "settle.csv", "date,settle",
                      _dates(LONG_ROWS, "1750-01-01"), prices)
    return scratch, [Input("settle.csv", LONG_ROWS, n, size)]


WORKLOADS = {wl.name: wl for wl in (
    # The release-gate command on the committed inputs: short cells, so
    # start-up and per-cell overhead weigh most; single-thread baseline.
    Workload("golden", golden_inputs, ("--return-col", "return", "--format", "csv"),
             resamples=GOLDEN_RESAMPLES, workers=1, params=11, extension="csv",
             tables=("summary", "var", "es", "srm")),
    # Paper scale: resample draw, gather and sort dominate; two threads.
    Workload("paper", paper_inputs, ("--return-col", "return", "--format", "text"),
             resamples=5000, workers=2, params=11, extension="txt",
             tables=("summary", "var", "es", "srm")),
    # Long price history: ingest and chunk memory dominate, one parameter
    # per sample, so work shared across a sample's cells cannot help.
    Workload("long_history", long_history_inputs,
             ("--price-col", "settle", "--drop-zero-returns", "--measure", "es",
              "--alpha", "0.99", "--format", "csv"),
             resamples=1000, workers=2, params=1, extension="csv",
             tables=("summary", "es")),
)}


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------

@dataclass
class Rep:
    """One finished process."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)


def _kill(pid):
    # Signals the pid directly: Popen.kill would poll, and so could reap
    # the child before os.wait4 collects its rusage.
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd, cwd, log_path, deadline) -> Rep:
    """Run cmd to completion and take its wall time and rusage; the process
    is killed if it is still running at `deadline` (time.monotonic())."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            _kill(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    return Rep(code=proc.returncode, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
               rss_mb=usage.ru_maxrss / 1024.0)


def scipy_import_s(importtime_log):
    """scipy's cumulative import time in `-X importtime` output: the sum over
    scipy modules that no other scipy module imported."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = len(name) - len(name.lstrip())
        entries.append((depth, int(cumulative), name.strip()))
    total_us = 0
    stack = []  # (depth, inside scipy); reversed output lists parents first
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        outer = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not outer:
            total_us += cumulative
        stack.append((depth, outer or is_scipy))
    return total_us / 1e6


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def summary_counts(data, extension):
    """The n row of a rendered summary table, one count per contract."""
    text = data.decode("utf-8", "replace")
    if extension == "csv":
        return [int(r[5]) for r in csv.reader(io.StringIO(text)) if len(r) > 5 and r[3] == "n"]
    for line in text.splitlines():
        tokens = line.split()
        if tokens and tokens[0] == "n":
            return [int(t) for t in tokens[1:]]
    return []


def _cell_keys(data):
    return [row[:5] for row in csv.reader(io.StringIO(data.decode("utf-8", "replace")))]


def golden_problems(outputs, seed, resamples):
    """At the golden seed and B every file must equal its golden copy. Any
    other seed still has the golden summary and the golden table layout."""
    golden = DATA / "golden"
    if seed == GOLDEN_SEED and resamples == GOLDEN_RESAMPLES:
        return [f"{p.name} departs from its golden copy" for p in sorted(golden.iterdir())
                if outputs.get(p.name) != p.read_bytes()]
    problems = []
    if outputs["summary.csv"] != (golden / "summary.csv").read_bytes():
        problems.append("summary.csv departs from its golden copy")
    for name in ("var.csv", "es.csv", "srm.csv"):
        if _cell_keys(outputs[name]) != _cell_keys((golden / name).read_bytes()):
            problems.append(f"{name} does not have the golden table layout")
    return problems


def check(wl, inputs, seed, out_dir, code, first):
    """Problems with one repetition's outputs, and the outputs themselves;
    `first` is the first repetition's outputs, or None for the first."""
    problems = [] if code == 0 else [f"exit code {code}"]
    outputs = {}
    if out_dir.is_dir():
        outputs = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    expected = {f"{t}.{wl.extension}" for t in wl.tables} | {"run.kv"}
    missing = sorted(expected - outputs.keys())
    if missing:
        problems.append(f"missing {', '.join(missing)}")
    else:
        meta = outputs["run.kv"].decode("utf-8", "replace").splitlines()
        for line in (f"seed = {seed}", f"resamples = {wl.resamples}",
                     f"workers = {wl.workers}", "failed_cells = 0"):
            if line not in meta:
                problems.append(f"run.kv lacks {line!r}")
        try:
            counts = summary_counts(outputs[f"summary.{wl.extension}"], wl.extension)
        except ValueError as exc:
            counts = f"unparseable ({exc})"
        if counts != [one.n for one in inputs]:
            problems.append(f"summary n row {counts}, expected {[one.n for one in inputs]}")
        if wl.name == "golden":
            problems += golden_problems(outputs, seed, wl.resamples)
    if first is not None:
        differ = sorted(name for name in first.keys() | outputs.keys()
                        if first.get(name) != outputs.get(name))
        if differ:
            problems.append(f"{', '.join(differ)} differ from the first repetition")
    return problems, outputs


def tally(reps, cells):
    """(attempted, failed) cells: every cell of a repetition with any problem fails."""
    return cells * len(reps), cells * sum(1 for rep in reps if rep.problems)


# ----------------------------------------------------------------------
# per-layer metrics from spans
# ----------------------------------------------------------------------

def covered(parent, children):
    """Seconds of the parent interval that the union of children covers."""
    clipped = sorted((max(c0, parent[0]), min(c1, parent[1])) for c0, c1 in children)
    total, end = 0.0, parent[0]
    for c0, c1 in clipped:
        if c1 > end:
            total += c1 - max(c0, end)
            end = c1
    return total


NO_SPANS = {"import_s": 0.0, "peak_alloc_bytes": 0, "spans": []}


def layer_metrics(trace, workers, elements):
    """Per-layer metrics of one traced process. A span that never fired
    (say, after a redesign removed the function) contributes zeros."""
    spans = defaultdict(list)
    for name, _tid, t0, t1, rows in trace["spans"]:
        spans[name].append((t0, t1, rows))

    def total(*names):
        return sum(t1 - t0 for name in names for t0, t1, _ in spans[name])

    cells = sorted(t1 - t0 for t0, t1, _ in spans["bootstrap_estimate"])
    cell_intervals = [(t0, t1) for t0, t1, _ in spans["bootstrap_estimate"]]
    children = [(t0, t1) for name in CLI_CHILDREN for t0, t1, _ in spans[name]]
    load_s = total(*LOADERS)
    rows = sum(r for name in LOADERS for _, _, r in spans[name] if r is not None)
    run_grid_s = total("run_grid")
    busy_s = sum(cells)
    return {
        "startup.import_s": trace["import_s"],
        "ingest.load_s": load_s,
        "ingest.rows_per_s": rows / load_s if load_s > 0 else 0.0,
        "ingest.transform_s": total("log_returns", "drop_zero_returns"),
        "ingest.summary_s": total("summary_stats"),
        "measures.to_losses_s": total("to_losses"),
        "bootstrap.run_grid_s": run_grid_s,
        "bootstrap.cells": len(cells),
        "bootstrap.cell_s.p50": float(np.percentile(cells, 50)) if cells else 0.0,
        "bootstrap.cell_s.p90": float(np.percentile(cells, 90)) if cells else 0.0,
        "bootstrap.busy_s": busy_s,
        "bootstrap.ns_per_elem": busy_s / elements * 1e9,
        "bootstrap.worker_busy_share":
            busy_s / (workers * run_grid_s) if run_grid_s > 0 else 0.0,
        "bootstrap.self_s": sum(t1 - t0 - covered((t0, t1), cell_intervals)
                                for t0, t1, _ in spans["run_grid"]),
        "bootstrap.stream_s": total("cell_stream"),
        "bootstrap.peak_alloc_mb": trace["peak_alloc_bytes"] / 2 ** 20,
        "report.build_s": total("build_summary_table", "build_measure_table"),
        "report.render_s": total("to_csv", "to_text", "to_kv"),
        "cli.self_s": sum(t1 - t0 - covered((t0, t1), children)
                          for t0, t1, _ in spans["main"]),
    }


def end_to_end(reps, setups, refs, elements):
    """Measured medians and the host-normalized end-to-end metrics.

    refs[i] is the wall time of the reference job that ran right after
    reps[i] and setups[i]; their times are scaled by REF_S / refs[i].
    Pairing each process with the job next to it, rather than the run's
    medians with each other, also cancels the host's shifts within a run.
    """
    scales = [REF_S / ref for ref in refs]
    raw = {"wall_s": statistics.median(r.wall_s for r in reps),
           "setup_s": statistics.median(setups),
           "cpu_s": statistics.median(r.cpu_s for r in reps),
           "reference_s": statistics.median(refs)}
    wall_s = statistics.median(r.wall_s * k for r, k in zip(reps, scales, strict=True))
    return raw, {
        "wall_s": wall_s,
        "setup_s": statistics.median(t * k for t, k in zip(setups, scales)),
        "cpu_s": statistics.median(r.cpu_s * k for r, k in zip(reps, scales)),
        "melem_per_s": elements / wall_s / 1e6,
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
    }


# ----------------------------------------------------------------------
# one benchmark run
# ----------------------------------------------------------------------

@dataclass
class Result:
    workload: Workload
    seed: int
    trace: bool
    inputs: list[Input]
    reps: list[Rep]
    traced: list[Rep]
    refs: list[float]          # wall times of the reference jobs
    raw: dict[str, float]      # medians as measured, before host normalization
    metrics: dict[str, float]
    problems: list[str]
    attempted: int
    failed: int

    @property
    def correct(self):
        return not self.problems


def measure(wl, seed, seconds, trace) -> Result:
    """Repeat the workload's estimate until `seconds` of repetitions have
    run (at least MIN_REPS, or MIN_PAIRS traced pairs) and summarize."""
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        scratch = Path(tmp)
        in_dir, inputs = wl.make_inputs(seed, scratch)
        python = sys.executable
        version_cmd = [python, "-c", ENTRY, "--version"]
        problems = []
        warm = spawn(version_cmd, scratch, scratch / "warm.log", deadline)  # fills the file cache
        if warm.code != 0:
            problems.append(f"riskboot --version exit code {warm.code}")

        def reference_job(i):
            ref = spawn([python, str(REFERENCE), str(wl.workers)],
                        scratch, scratch / f"reference{i}.log", deadline)
            if ref.code != 0:
                problems.append(f"reference job exit code {ref.code}")
            return ref.wall_s

        reps, traced, setups, refs, scipy_s, layers = [], [], [], [], [], []
        first = None
        loop_start = time.monotonic()
        while True:
            i = len(reps)
            out = scratch / f"out{i}"
            rep = spawn([python, "-c", ENTRY, *wl.argv(inputs, seed, out)],
                        in_dir, scratch / f"rep{i}.log", deadline)
            rep.problems, outputs = check(wl, inputs, seed, out, rep.code, first)
            first = outputs if first is None else first
            reps.append(rep)
            shutil.rmtree(out, ignore_errors=True)
            if trace:
                spans = scratch / f"spans{i}.json"
                one = spawn([python, str(TRACER), str(spans), *wl.argv(inputs, seed, out)],
                            in_dir, scratch / f"traced{i}.log", deadline)
                one.problems, _ = check(wl, inputs, seed, out, one.code, first)
                traced.append(one)
                shutil.rmtree(out, ignore_errors=True)
                if spans.is_file():
                    spans_json = json.loads(spans.read_text())
                else:
                    one.problems.append("tracer wrote no spans")
                    spans_json = NO_SPANS
                layers.append(layer_metrics(spans_json, wl.workers, wl.elements(inputs)))
                log = scratch / f"importtime{i}.log"
                spawn([python, "-X", "importtime", "-c", "import riskboot"], scratch, log, deadline)
                scipy_s.append(scipy_import_s(log.read_text(encoding="utf-8", errors="replace")))
            else:
                if len(setups) < SETUPS:  # later iterations go to the estimate alone
                    setup = spawn(version_cmd, scratch, scratch / f"setup{i}.log", deadline)
                    if setup.code != 0:
                        problems.append(f"riskboot --version exit code {setup.code}")
                    setups.append(setup.wall_s)
                refs.append(reference_job(i))
            done = len(reps)
            elapsed = time.monotonic() - loop_start
            if done >= (MIN_PAIRS if trace else MIN_REPS) and elapsed * (done + 1) / done > seconds:
                break

    cells = wl.cells(inputs)
    attempted, failed = tally(reps + traced, cells)
    for label, group in (("repetition", reps), ("traced repetition", traced)):
        for i, rep in enumerate(group):
            problems += [f"{label} {i}: {p}" for p in rep.problems]
    if trace:
        raw = {"wall_s": statistics.median(r.wall_s for r in reps)}
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["startup.scipy_import_s"] = statistics.median(scipy_s)
        metrics["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - raw["wall_s"]
    else:
        raw, metrics = end_to_end(reps, setups, refs, wl.elements(inputs))
    return Result(wl, seed, trace, inputs, reps, traced, refs, raw, metrics, problems,
                  attempted, failed)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def load_spec():
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def report(result, spec, out=sys.stdout):
    """Print the run in readable lines, then the one-line JSON result."""
    declared = spec["per_layer" if result.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result.metrics):
        raise RuntimeError(f"metrics {sorted(result.metrics)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    wl = result.workload
    print(f"workload {wl.name}: seed {result.seed}, B {wl.resamples}, workers {wl.workers}, "
          f"closed loop with 1 client, {len(result.reps)} untraced and "
          f"{len(result.traced)} traced repetitions", file=out)
    for one in result.inputs:
        print(f"input {one.name}: {one.rows} rows, {one.size} bytes, n {one.n}", file=out)
    print("untraced wall_s per repetition, in order: "
          + " ".join(f"{r.wall_s:.3f}" for r in result.reps), file=out)
    if result.refs:
        print("reference job wall_s, in order: "
              + " ".join(f"{s:.3f}" for s in result.refs), file=out)
        print(f"host normalization: each time x {REF_S} s / the reference job after it; "
              "measured medians: "
              + ", ".join(f"{k} = {v:.4f} s" for k, v in result.raw.items()), file=out)
    for name, value in result.metrics.items():
        print(f"{name} = {value:.6g} {units[name]}", file=out)
    share = result.failed / result.attempted
    print(f"fail_share = {share:.6g} ratio ({result.failed} of {result.attempted} cells failed)",
          file=out)
    for problem in result.problems:
        print(f"[fail] {problem}", file=out)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }), file=out)


def _seed(text):
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=_seed, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [SPEC_PATH, SRC / "riskboot" / "cli.py"]
    if args.workload == "golden":
        needed += [DATA / "inputs", DATA / "golden"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print(f"bench: this checkout lacks {', '.join(absent)}", file=sys.stderr)
        return 2

    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    result = measure(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace))
    report(result, spec)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
