#!/usr/bin/env python3
"""Self-test of the benchmark: its correctness gate and its span accounting.

    python3 clibench/selftest.py

Prints one [PASS]/[FAIL] line per check and exits 0 only if all pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from spans import Tracer


def report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    return ok


def corrupt_one_sample(path) -> None:
    bundle = json.loads(path.read_text())
    re, im = bundle["entries"][0]["samples"][0]
    bundle["entries"][0]["samples"][0] = [repr(float(re) + 0.5), im]
    path.write_text(json.dumps(bundle))


def gate_trips_on_corrupted_sample(work) -> bool:
    """Calls on a haar bundle pass the gate; with one sample corrupted they fail it."""
    rates = {}
    for corrupt in (False, True):
        bench = run.Bench(work / f"gate-{corrupt}")
        workload = run.make_workload("defaults", 0, bench.work)
        haar = workload.setup[0]
        bench.run_child(haar)
        if corrupt:
            corrupt_one_sample(haar.out)
        for op in workload.rounds:
            if str(haar.out) in op.argv:
                bench.run_child(op)
        rates[corrupt] = (bench.failed, bench.attempted, bench.problems)
    clean, bad = rates[False], rates[True]
    return report(
        "one corrupted sample trips the gate and raises error_rate",
        clean[0] == 0 and bad[0] == bad[1] - 1 and bad[0] >= 1,
        f"clean {clean[0]}/{clean[1]} failed, corrupted {bad[0]}/{bad[1]} failed",
    )


def self_times_of_nested_spans() -> bool:
    tracer = Tracer()
    tracer.spans = [
        ["cli", 0.0, 10.0, None],
        ["ruelle.classify_purity", 1.0, 4.0, 0],
        ["ruelle.eig", 2.0, 3.0, 1],
        ["ruelle.classify_purity", 5.0, 6.0, 0],
    ]
    got = tracer.self_times()
    want = {"cli": 6.0, "ruelle.classify_purity": 3.0, "ruelle.eig": 1.0}
    return report(
        "self time is span time less the time its children cover",
        all(got[k] == v for k, v in want.items()) and sum(got.values()) == 10.0,
        str({k: got[k] for k in want}),
    )


def traced_run_adds_up(work) -> bool:
    """Self times sum to the in-process total within trace.overhead_s."""
    bench = run.Bench(work / "trace")
    workload = run.make_workload("defaults", 0, bench.work)
    metrics, detail = run.trace(workload, bench, seconds=0)
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {m["name"] for m in spec["per_layer"]}
    overhead = abs(metrics["trace.overhead_s"]["median"])
    gaps = detail["self_time_identity_s"]
    ok_names = report("the traced run reports exactly the per-layer metrics",
                      set(metrics) == wanted, str(sorted(set(metrics) ^ wanted)))
    ok_sum = report(
        "traced self times sum to the in-process total within trace.overhead_s",
        bench.failed == 0 and all(abs(g) <= overhead + 1e-3 for g in gaps),
        f"gaps {gaps}, overhead {overhead:.6f} s, failed {bench.failed}",
    )
    ok_e2e = report(
        "the untraced run reports exactly the end-to-end metrics",
        set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]},
    )
    return ok_names and ok_sum and ok_e2e


def main() -> int:
    os.environ.update({var: str(run.BLAS_THREADS) for var in run.THREAD_VARS})
    work = run.WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        results = [
            self_times_of_nested_spans(),
            gate_trips_on_corrupted_sample(work),
            traced_run_adds_up(work),
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
