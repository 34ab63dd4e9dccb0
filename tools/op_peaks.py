"""Peak RSS and wall time of every command line operation, for two
checkouts side by side.

Usage::

    python3 tools/op_peaks.py OLD NEW [--repeat N]

OLD and NEW are checkouts of this repository.  For each, the script runs
the operations of the ``spectral``, ``fine_grid`` and ``defaults``
workloads of ``clibench/run.py`` (the ``generate`` that writes each input
bundle, then the subcommands run on it) as ``python3 -m gmrafilters.cli``
with that checkout's ``src`` on the path and one BLAS thread, each in a
fresh child, reads the child's ``ru_maxrss`` with ``os.wait4`` and times
it from spawn to reap.  Operations alternate between the two checkouts,
``--repeat`` times each (default 3), and the medians are printed: the
peak in MB of 1024 KiB, as ``peak_rss_mb`` counts them, and the wall time
in seconds, unscaled.  Each workload's ``all ops`` row holds its largest
peak (the op that sets its ``peak_rss_mb``) and the sum of its ops'
times.  The last line of standard output is the same table as JSON.

A child's peak includes its parent's resident set at ``exec``, so this
script imports nothing beyond the standard modules it needs, and reads
no bundle.  Per-op peaks also move by about 0.35 MB with the directory a
tree sits in, the same tree reading differently at two paths, so the
checkouts should have paths of equal length; the script warns when they
differ.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (generator, depth or None for the default, subcommands run on its
# bundle), as clibench/run.py's INPUTS and make_workload lay them out.
WORKLOADS = {
    "spectral": [
        ("haar", 10, ("classify",)),
        ("constant", 10, ("classify", "spectrum")),
        ("journe", 5, ("classify",)),
    ],
    "fine_grid": [
        ("haar", 16, ("verify",)),
        ("shannon", 14, ("verify",)),
        ("journe", 9, ("verify",)),
    ],
    "defaults": [
        (gen, None, ("verify", "classify", "spectrum"))
        for gen in ("haar", "shannon", "constant", "journe_step", "journe")
    ],
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def operations(work: Path) -> list[tuple[str, str, list[str]]]:
    """(workload, label, argv) of every operation, bundles under ``work``."""
    ops = []
    for workload, inputs in WORKLOADS.items():
        for gen, depth, subcommands in inputs:
            depth_args = [] if depth is None else ["--depth", str(depth)]
            stem = f"{workload}-{gen}-{'default' if depth is None else f'd{depth}'}"
            bundle = str(work / f"{stem}.json")
            label = f"{gen} {'default' if depth is None else depth}"
            ops.append((workload, f"generate {label}",
                        ["generate", gen, *depth_args, "--out", bundle]))
            for sub in subcommands:
                out = str(work / f"{stem}.{sub}.out")
                ops.append((workload, f"{sub} {label}", [sub, bundle, "--out", out]))
    return ops


def peak_and_wall(checkout: Path, argv: list[str], work: Path) -> tuple[int, float]:
    """The ru_maxrss, in KiB, and the wall time of one CLI call in a fresh child."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GMRAFILTERS_")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(checkout / "src")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "gmrafilters.cli", *argv],
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, env=env, cwd=work)
    stderr = proc.stderr.read()
    _, _, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stderr.close()
    if stderr:
        raise RuntimeError(f"{checkout}: {' '.join(argv)}: {stderr.decode()[-300:]}")
    return usage.ru_maxrss, wall


def main(argv: list[str]) -> int:
    args = list(argv)
    repeat = 3
    if "--repeat" in args:
        at = args.index("--repeat")
        repeat = int(args[at + 1])
        del args[at:at + 2]
    if len(args) != 2 or repeat < 1:
        print("usage: op_peaks.py OLD NEW [--repeat N]", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in args]
    if len(str(trees[0])) != len(str(trees[1])):
        print(f"warning: the checkout paths differ in length ({len(str(trees[0]))} "
              f"and {len(str(trees[1]))} characters); per-op peaks move by about "
              "0.35 MB with the directory layout", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / "old", Path(tmp) / "new"]
        for work in works:
            work.mkdir()
        plans = [operations(work) for work in works]
        runs = [[[] for _ in plans[0]] for _ in trees]  # (KiB, s) per call
        for _ in range(repeat):
            for k in range(len(plans[0])):
                for side in (0, 1) if k % 2 == 0 else (1, 0):
                    argv = plans[side][k][2]
                    runs[side][k].append(peak_and_wall(trees[side], argv, works[side]))
    rows = []
    for k, (workload, label, _) in enumerate(plans[0]):
        row = {"workload": workload, "op": label}
        for side, name in enumerate(("old", "new")):
            kib, wall = zip(*runs[side][k])
            row[f"{name}_mb"] = statistics.median(kib) / 1024.0
            row[f"{name}_s"] = statistics.median(wall)
        rows.append(row)
    for workload in WORKLOADS:
        mine = [r for r in rows if r["workload"] == workload]
        rows.append({"workload": workload, "op": "all ops",
                     **{f"{name}_mb": max(r[f"{name}_mb"] for r in mine)
                        for name in ("old", "new")},
                     **{f"{name}_s": sum(r[f"{name}_s"] for r in mine)
                        for name in ("old", "new")}})
    print(f"old: {trees[0]}\nnew: {trees[1]}\nmedian of {repeat} per op: peak in MB, "
          "wall time in s (all ops: largest peak, summed time)")
    print(f"{'workload':<10}{'op':<28}{'old MB':>8}{'new MB':>8}{'new-old':>9}"
          f"{'old s':>9}{'new s':>9}{'new-old':>9}")
    for r in rows:
        print(f"{r['workload']:<10}{r['op']:<28}{r['old_mb']:8.2f}{r['new_mb']:8.2f}"
              f"{r['new_mb'] - r['old_mb']:+9.2f}{r['old_s']:9.4f}{r['new_s']:9.4f}"
              f"{r['new_s'] - r['old_s']:+9.4f}")
    print(json.dumps({"old": str(trees[0]), "new": str(trees[1]), "repeat": repeat,
                      "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
