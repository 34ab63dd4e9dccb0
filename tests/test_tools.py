"""The scripts under ``tools/``, run on this checkout."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Exit codes of every job of tools/output_corpus.py: (verify, classify,
# spectrum), after a ``generate`` that exits 0 for the jobs it writes.
CORPUS_CODES = {
    **dict.fromkeys(
        ["haar", "haar_8", "haar_10", "shannon", "shannon_7", "journe",
         "journe_4", "journe_5", "journe_half_turn", "journe_delta_0.05",
         "journe_10", "journe_delta_0.05_10",
         "journe_step", "journe_step_4", "journe_step_8",
         "journe_step_half_turn"],
        (0, 0, 0, 0),
    ),
    **dict.fromkeys(
        ["constant", "constant_8", "constant_10", "constant_13"], (0, 0, 3, 0)
    ),
    "haar_13": (0, 0, 0, 2),
    **dict.fromkeys(
        ["planted_scale_3", "planted_lambda_1", "planted_two_channel",
         "planted_two_channel_scale_3", "planted_three_channel",
         "identity_two_channel"],
        (0, 3, 0),
    ),
    "near_constant": (0, 0, 0),
    "unimodular": (0, 4, 0),
    "haar_pair": (0, 0, 0),
    **dict.fromkeys(
        ["journe_step_column_violation", "haar_huge_sample",
         "signed_zero_and_nan_runs"],
        (1, 1, 1),
    ),
}


def test_output_corpus_writes_every_job(tmp_path):
    out = tmp_path / "corpus"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_corpus.py"), str(ROOT), str(out)],
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    codes: dict = {}
    for line in (out / "exit_codes.txt").read_text(encoding="utf-8").splitlines():
        job, step, code = line.split()
        codes.setdefault(job, {})[step] = int(code)
    steps = ("generate", "verify", "classify", "spectrum")
    assert codes == {
        job: dict(zip(steps[-len(expected):], expected))
        for job, expected in CORPUS_CODES.items()
    }
    for job, by_step in codes.items():
        files = {"bundle.json", "verify.json", "classify.json"}
        if by_step["spectrum"] == 0:
            files.add("spectrum.csv")
        assert {p.name for p in (out / job).iterdir()} == files, job


def _load(path: Path, name: str, monkeypatch):
    """The script at ``path`` imported as module ``name``; nothing runs."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _calls(argvs) -> set:
    """(subcommand, generator, depth) of each CLI call; a call on a bundle
    takes the generator and depth of the ``generate`` that wrote it."""
    written, calls = {}, set()
    for argv in argvs:
        if argv[0] == "generate":
            depth = int(argv[argv.index("--depth") + 1]) if "--depth" in argv else None
            key = written[argv[argv.index("--out") + 1]] = (argv[1], depth)
        else:
            key = written[argv[1]]
        calls.add((argv[0], *key))
    return calls


@pytest.mark.parametrize("workload", ["spectral", "fine_grid", "defaults"])
def test_op_peaks_runs_the_benchmark_operations(tmp_path, monkeypatch, workload):
    bench = _load(ROOT / "clibench" / "run.py", "clibench_run", monkeypatch)
    peaks = _load(ROOT / "tools" / "op_peaks.py", "op_peaks", monkeypatch)
    assert set(peaks.WORKLOADS) == set(bench.INPUTS)
    plan = bench.make_workload(workload, 1, tmp_path)
    expected = _calls(op.command() for op in plan.setup + plan.rounds)
    got = _calls(argv for name, _, argv in peaks.operations(tmp_path) if name == workload)
    assert got == expected
