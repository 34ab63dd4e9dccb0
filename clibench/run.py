#!/usr/bin/env python3
"""End-to-end benchmark of the gmrafilters command line.

    python3 clibench/run.py --workload spectral --seed 1 --seconds 25 --trace 0

Run from anywhere; the program under test is the ``src`` tree next to
this directory.  With ``--trace 0`` every operation is a CLI subcommand in
a fresh process, one at a time (a closed loop with one client), and the
end-to-end metrics are printed.  With ``--trace 1`` the same operations
are replayed in this process through ``gmrafilters.cli.main``, once with
spans around each layer and once without, and the per-layer metrics are
printed.  The last line of standard output is the JSON result.  See
README.md beside this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

# The dense eigensolve dominates the spectral workload; one BLAS thread
# (at most nproc) keeps its time steady on a machine shared with others.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_ROUNDS = 2
IMPORT_SAMPLES = 5
OP_TIMEOUT_S = 60.0
# Each workload has a fixed calibration task that uses nothing from this
# repository and is shaped like the work that dominates the workload.  The
# reference machine is shared, and its speed drifts by up to 2x over
# minutes, differently for different kinds of work.  The lower quartile of
# the task's times in a run measures the machine's speed for that work
# during the run (a slow sample is noise, a fast one is not), and the
# timed end-to-end metrics are scaled by it.
#
# Interpreter start, the standard and numpy imports the CLI also makes, a
# pure-Python loop, a small dense eigensolve, and a JSON round trip of
# float strings shaped like bundle samples.
MIXED_TASK = """
import argparse, dataclasses, fractions, json, math, typing
import numpy as np
x = 0
for i in range(400000):
    x += i * i
np.linalg.eig(np.random.default_rng(0).random((300, 300)))
rows = [[repr(i / 7), repr(i / 3)] for i in range(40000)]
json.loads(json.dumps(rows, indent=2))
"""
# The complex dense eigensolve (LAPACK zgeev) that dominates `spectral`,
# on a 4 MB matrix, as large as a per-core L2 cache; the workload's are larger.
EIG_TASK = """
import numpy as np
rng = np.random.default_rng(0)
np.linalg.eig(rng.random((500, 500)) + 1j * rng.random((500, 500)))
"""
# Per workload: the task, and a reference time that only sets the scale
# (about the task's lower quartile on the reference machine, 2 cores,
# 2.0 GHz Xeon, under moderate load).
CALIBRATION = {
    "spectral": (EIG_TASK, 0.6),
    "fine_grid": (MIXED_TASK, 0.4),
    "defaults": (MIXED_TASK, 0.4),
}
# Calibration is repeated whenever this much time has passed since the last.
CALIBRATION_EVERY_S = 2.0
# The CLI's default tol_eig: a passing spectrum row lies this close to |lambda| = 1.
UNIT_TOL = 1e-8
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

INPUTS = {
    "spectral": [("haar", 10), ("constant", 10), ("journe", 5)],
    "fine_grid": [("haar", 16), ("shannon", 14), ("journe", 9)],
    "defaults": [
        (g, None) for g in ("haar", "shannon", "constant", "journe_step", "journe")
    ],
}

END_TO_END_UNITS = {"round_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output must look like."""

    key: str
    argv: tuple[str, ...]
    out: Path
    exit_code: int = 0
    status: Optional[str] = None  # classify verdict
    passing_rows: Optional[int] = None  # spectrum rows that pass the eigen test
    same_as: Optional[Path] = None  # generate: the bundle it must reproduce

    @property
    def sub(self) -> str:
        return self.argv[0]

    def command(self) -> list[str]:
        return [*self.argv, "--out", str(self.out)]


@dataclass(frozen=True)
class Workload:
    setup: tuple[Op, ...]  # writes the input bundles
    rounds: tuple[Op, ...]  # one timed round
    calibration: tuple[str, float]  # task, reference seconds


def _generate(gen: str, depth: Optional[int], out: Path, same_as=None) -> Op:
    argv = ("generate", gen) + (() if depth is None else ("--depth", str(depth)))
    return Op(f"generate:{out.parent.name}/{out.name}", argv, out, same_as=same_as)


def make_workload(name: str, seed: int, work: Path) -> Workload:
    """The workload's operations; the seed reaches the program only as verify --seed."""
    rng = random.Random(seed)
    setup, rounds = [], []
    for gen, depth in INPUTS[name]:
        stem = f"{gen}-{'default' if depth is None else f'd{depth}'}"
        bundle = work / "in" / f"{stem}.json"
        out = work / "out"
        constant = gen == "constant"
        setup.append(_generate(gen, depth, bundle))
        if name in ("fine_grid", "defaults"):
            rounds.append(_generate(gen, depth, out / f"{stem}.json", same_as=bundle))
            verify_seed = str(rng.randrange(2**31))
            rounds.append(
                Op(f"verify:{stem}", ("verify", str(bundle), "--seed", verify_seed),
                   out / f"{stem}.verify.json")
            )
        if name in ("spectral", "defaults"):
            rounds.append(
                Op(f"classify:{stem}", ("classify", str(bundle)),
                   out / f"{stem}.classify.json",
                   exit_code=3 if constant else 0,
                   status="not_pure_certified" if constant else "pure_certified")
            )
        if name == "defaults" or (name == "spectral" and constant):
            rounds.append(
                Op(f"spectrum:{stem}", ("spectrum", str(bundle)),
                   out / f"{stem}.spectrum.csv", passing_rows=1 if constant else 0)
            )
    return Workload(tuple(setup), tuple(rounds), CALIBRATION[name])


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GMRAFILTERS_")}
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def summary(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values), "samples": values}
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        if len(values) * (100.0 - p) / 100.0 >= 10:
            out[f"p{p:g}"] = ordered[math.ceil(p / 100.0 * len(values)) - 1]
            break
    return out


def _as_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _problems_of(op: Op, rc, stderr: str) -> tuple[list[str], Optional[bytes]]:
    """Check one finished call against the fixed expectation table."""
    problems = []
    if stderr:
        problems.append(f"stderr: {stderr.strip().splitlines()[-1][:200]}")
    if rc != op.exit_code:
        problems.append(f"exit {rc}, expected {op.exit_code}")
    try:
        data = op.out.read_bytes()
    except OSError as exc:
        return problems + [f"no output: {exc}"], None
    if op.sub in ("verify", "classify"):
        try:
            report = json.loads(data)
        except ValueError as exc:
            return problems + [f"report is not JSON: {exc}"], None
        if op.sub == "verify" and report.get("ok") is not True:
            problems.append("verify report is not ok")
        if op.sub == "classify" and report.get("status") != op.status:
            problems.append(f"status {report.get('status')!r}, expected {op.status!r}")
        report.pop("timings", None)
        return problems, json.dumps(report, sort_keys=True).encode()
    if op.sub == "spectrum":
        rows = data.decode("utf-8", "replace").splitlines()
        moduli = [r.split(",")[2] for r in rows[1:] if r.endswith(",true")]
        if len(moduli) != op.passing_rows or not all(
            abs(_as_float(m) - 1.0) <= UNIT_TOL for m in moduli
        ):
            problems.append(f"expected {op.passing_rows} passing row(s) at modulus 1")
    if op.same_as is not None and data != op.same_as.read_bytes():
        problems.append(f"bundle differs from {op.same_as.name}")
    return problems, data


class Bench:
    """Runs operations, gates their outputs and keeps the failure count."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, bytes] = {}
        self.peak_rss_kb = 0
        (work / "in").mkdir(parents=True, exist_ok=True)
        (work / "out").mkdir(parents=True, exist_ok=True)

    def _record(self, op: Op, rc, stderr: str) -> None:
        self.attempted += 1
        problems, normal = _problems_of(op, rc, stderr)
        if normal is not None and self.reference.setdefault(op.key, normal) != normal:
            problems.append("output differs from this run's first call")
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.key}: {'; '.join(problems)}")

    def _spawn(self, argv: list[str]):
        """Run one child to its end: wall time, exit code, stderr, rusage."""
        with open(self.work / "stderr.txt", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    env=child_env(), cwd=self.work)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        return wall, proc.returncode, stderr, usage

    def run_child(self, op: Op) -> float:
        """One subcommand in a fresh interpreter; returns its wall time."""
        op.out.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "gmrafilters.cli", *op.command()]
        wall, rc, stderr, usage = self._spawn(argv)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self._record(op, rc, stderr)
        return wall

    def calibrate(self, task: str) -> float:
        """Wall time of a calibration task in a fresh interpreter."""
        wall, rc, stderr, _ = self._spawn([sys.executable, "-c", task])
        if rc != 0 or stderr:
            raise RuntimeError(f"calibration task failed: {stderr.strip()[-300:]}")
        return wall

    def run_inprocess(self, op: Op, main: Callable) -> float:
        """One subcommand through ``main`` in this process; returns its wall time."""
        op.out.unlink(missing_ok=True)
        sink_out, sink_err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                rc = main(op.command())
        except Exception:  # a crash is a failed op, not the end of the run
            rc = None
            sink_err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        self._record(op, rc, sink_err.getvalue())
        return wall


def measure(workload: Workload, bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced closed loop of fresh processes: end-to-end metrics and detail."""
    task, reference_s = workload.calibration
    calibration = [bench.calibrate(task)]
    last = time.perf_counter()

    def timed(op: Op) -> float:
        nonlocal last
        wall = bench.run_child(op)
        if time.perf_counter() - last >= CALIBRATION_EVERY_S:
            calibration.append(bench.calibrate(task))
            last = time.perf_counter()
        return wall

    setup = [sum(timed(op) for op in workload.setup) for _ in range(SETUP_REPEATS)]
    rounds, by_sub, op_walls = [], defaultdict(list), defaultdict(list)
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        per_sub = defaultdict(float)
        for op in workload.rounds:
            wall = timed(op)
            per_sub[op.sub] += wall
            op_walls[op.sub].append(wall)
        rounds.append(sum(per_sub.values()))
        for sub, total in per_sub.items():
            by_sub[f"{sub}_s"].append(total)
    calibration.append(bench.calibrate(task))
    scale = reference_s / statistics.quantiles(calibration, n=4)[0]
    metrics = {
        "round_s": summary([r * scale for r in rounds]),
        "setup_s": summary([s * scale for s in setup]),
        "peak_rss_mb": {"median": bench.peak_rss_kb / 1024.0, "n": bench.attempted},
    }
    detail = {
        "speed_scale": scale,
        "calibration_ref_s": reference_s,
        "calibration_s": summary(calibration),
        "wall": {"round_wall_s": summary(rounds), "setup_wall_s": summary(setup)},
        "per_round_by_subcommand": {k: summary(v) for k, v in by_sub.items()},
        "per_call": {f"call.{k}_s": summary(v) for k, v in op_walls.items()},
    }
    return metrics, detail


def _import_cli():
    sys.path.insert(0, str(SRC))
    import gmrafilters.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "gmrafilters":
        raise RuntimeError(f"imported gmrafilters from {cli.__file__}, not {SRC}")
    return cli


def import_seconds() -> float:
    """Wall time of a fresh interpreter that only imports the CLI."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gmrafilters.cli"], env=child_env(),
                   cwd=ROOT, check=True, timeout=OP_TIMEOUT_S)
    return time.perf_counter() - t0


def trace(workload: Workload, bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Traced and untraced in-process replays, alternating: per-layer metrics."""
    from spans import COUNT_NAMES, ROOT_SPAN, Tracer, installed

    cli = _import_cli()
    imports = [import_seconds() for _ in range(IMPORT_SAMPLES)]
    # Warm lazy set-up in this process before the first replay is timed.
    warm = bench.work / "in" / "warm.json"
    for op in (_generate("haar", None, warm),
               Op("classify:warm", ("classify", str(warm)), bench.work / "out" / "warm.json",
                  status="pure_certified")):
        bench.run_inprocess(op, cli.main)

    ops = workload.setup + workload.rounds
    overheads, self_times, identity = [], defaultdict(list), []
    start = time.perf_counter()
    while not overheads or time.perf_counter() - start < seconds:
        totals = {}
        order = (True, False) if len(overheads) % 2 == 0 else (False, True)
        for traced in order:
            if traced:
                tracer = Tracer()
                with installed(tracer):
                    main = tracer.wrap(ROOT_SPAN, cli.main)
                    totals[True] = sum(bench.run_inprocess(op, main) for op in ops)
                times = tracer.self_times()
                for name, value in times.items():
                    self_times[name].append(value)
                identity.append(sum(times.values()) - totals[True])
            else:
                totals[False] = sum(bench.run_inprocess(op, cli.main) for op in ops)
        overheads.append(totals[True] - totals[False])

    metrics = {"cli.import_s": summary(imports)}
    for name, values in self_times.items():
        key = "cli.self_s" if name == ROOT_SPAN else f"{name}_s"
        metrics[key] = summary(values)
    for name in COUNT_NAMES:
        metrics[name] = {"median": tracer.counts[name], "n": len(overheads)}
    metrics["trace.overhead_s"] = summary(overheads)
    detail = {
        # Sum of self times minus the harness-timed traced replay, per replay.
        "self_time_identity_s": identity,
        "spans": tracer.spans,
    }
    return metrics, detail


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("bytes") else "count"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


PROBE = """
import json, sys
import numpy
import gmrafilters.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception:
    blas = "unknown"
print(json.dumps({"cli": gmrafilters.cli.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "blas": blas}))
"""


def environment(args) -> dict:
    """Versions and settings, from a child that imports the CLI under test."""
    probe = subprocess.run([sys.executable, "-c", PROBE], env=child_env(), cwd=ROOT,
                           capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import gmrafilters.cli: {probe.stderr.strip()[-300:]}")
    found = json.loads(probe.stdout.splitlines()[-1])
    if Path(found.pop("cli")).resolve().parent != SRC / "gmrafilters":
        raise RuntimeError(f"gmrafilters is not imported from {SRC}")
    return {
        "commit": commit(),
        "src_sha256": source_digest(),
        **found,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args) -> dict:
    """Measure one workload and return the full record."""
    env = environment(args)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(work)
        workload = make_workload(args.workload, args.seed, work)
        if args.trace:
            metrics, detail = trace(workload, bench, args.seconds)
        else:
            metrics, detail = measure(workload, bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "environment": env,
        "metrics": metrics,
        "detail": detail,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "error_rate": bench.failed / bench.attempted,
        "problems": bench.problems,
    }


def result_line(record: dict, trace_on: bool) -> dict:
    unit = per_layer_unit if trace_on else END_TO_END_UNITS.__getitem__
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["median"], "unit": unit(name)}
            for name, m in sorted(record["metrics"].items())
        },
    }


def _print_rows(rows) -> None:
    for name, m, unit in rows:
        tail = next((f"  {k}={v:.6g}" for k, v in m.items()
                     if k[0] == "p" and k[1:2].isdigit()), "")
        print(f"  {name:40s} {m['median']:14.6g} {unit:6s} n={m['n']}{tail}")


def print_table(record: dict, line: dict) -> None:
    env, detail = record["environment"], record["detail"]
    print(f"clibench workload={env['workload']} seed={env['seed']} "
          f"trace={env['trace']} seconds={env['seconds']}")
    _print_rows([(name, m, line["metrics"][name]["unit"])
                 for name, m in record["metrics"].items()])
    print(f"  {'error_rate':40s} {record['error_rate']:14.6g} ratio  "
          f"({record['failed']}/{record['attempted']})")
    if "speed_scale" in detail:
        print(f"  round_s and setup_s are wall times scaled by {detail['speed_scale']:.6g}"
              f" = {detail['calibration_ref_s']} s / lower quartile of calibration;"
              " unscaled wall times:")
        rows = [("calibration_s", detail["calibration_s"], "s")]
        for group in ("wall", "per_round_by_subcommand", "per_call"):
            rows += [(name, m, "s") for name, m in detail[group].items()]
        _print_rows(rows)
    print("environment " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gmrafilters" / "cli.py").is_file():
        print(f"clibench: no gmrafilters source under {SRC}", file=sys.stderr)
        return 2
    # Before numpy is first imported, here or in a child.
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    try:
        record = run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"clibench: {exc}", file=sys.stderr)
        return 2
    line = result_line(record, bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for problem in record["problems"]:
        print(f"clibench: failed {problem}", file=sys.stderr)
    print_table(record, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
