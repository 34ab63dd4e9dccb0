"""Write the command line's outputs on a fixed corpus, for byte comparison.

Usage::

    python3 tools/output_corpus.py SRC OUT

SRC is a checkout of this repository (the package is imported from
SRC/src) and OUT a directory to create.  For every job of the corpus the
script writes a bundle, with ``generate`` or, for the filters no
generator makes, with ``emit_bundle`` from a seeded builder in this
script's own checkout's ``tests/helpers.py`` (so one copy of the script
runs on any two checkouts).  It then runs ``verify``, ``classify`` and
``spectrum`` in this process through ``gmrafilters.cli.main`` and
writes, under OUT/<job>/, the bundle, the verify and classify reports
without their ``timings`` and ``bundle`` keys (both vary from run to
run), and the spectrum CSV; OUT/exit_codes.txt lists every exit code.
BLAS is held to one thread before numpy is imported, because the
spectrum's last bits depend on the thread count.  Running the script on two checkouts and comparing with
``diff -r`` shows whether a change keeps every output byte for byte.
"""

from __future__ import annotations

import cmath
import json
import os
import sys
from pathlib import Path

# (job name, generate arguments)
JOBS = [
    ("haar", ["haar"]),
    ("shannon", ["shannon"]),
    ("constant", ["constant"]),
    ("journe_step", ["journe_step"]),
    ("journe", ["journe"]),
    ("haar_8", ["haar", "--depth", "8"]),
    ("haar_10", ["haar", "--depth", "10"]),
    ("constant_8", ["constant", "--depth", "8"]),
    ("constant_10", ["constant", "--depth", "10"]),
    ("shannon_7", ["shannon", "--depth", "7"]),
    ("journe_step_4", ["journe_step", "--depth", "4"]),
    ("journe_4", ["journe", "--depth", "4"]),
    ("journe_5", ["journe", "--depth", "5"]),
    ("journe_step_half_turn", ["journe_step", "--half-turn-phases"]),
    ("journe_half_turn", ["journe", "--half-turn-phases"]),
    ("journe_delta_0.05", ["journe", "--delta", "0.05"]),
    # Past the dense cap at its own grid: classify decides, and spectrum
    # solves the coarsest grid the filter repeats on and exits 0.
    ("constant_13", ["constant", "--depth", "13"]),
    ("journe_step_8", ["journe_step", "--depth", "8"]),
    # Past the dense cap with no coarser grid, and K's largest strongly
    # connected component past it too: spectrum exits 2.
    ("haar_13", ["haar", "--depth", "13"]),
    # Depth 10 reaches profile cells where an array square would round the
    # last bit apart from the scalar x ** 2 (see filters.journe_profile).
    # Past the dense cap with no coarser grid, but K splits into small
    # components: spectrum solves them and exits 0.
    ("journe_10", ["journe", "--depth", "10"]),
    ("journe_delta_0.05_10", ["journe", "--delta", "0.05", "--depth", "10"]),
]

PLANTED_LAMBDA = cmath.exp(2j * cmath.pi * 0.3)
BUILT_SEED = 0


def _column_violation(h, rng):
    from gmrafilters import make_journe_step

    # Cell 58 of 224 lies outside sigma_2, and its double inside sigma_1.
    return h.with_sample(make_journe_step(depth=3), 0, 1, 58, 0.5)


def _huge_sample(h, rng):
    from gmrafilters import make_haar

    return h.with_sample(make_haar(), 0, 0, 3, 1e200)


def _signed_zero_and_nan_runs(h, rng):
    import numpy as np
    from gmrafilters import FilterMatrix, refine

    filt = h.planted_unitary_filter(rng, 2, 3, PLANTED_LAMBDA)[0]
    samples = np.array(filt.samples, order="C")
    samples[0, 1, :4] = complex(-0.0, -0.0)
    # NaNs with two payloads and both signs: repr writes each as "nan".
    nans = samples[1, 0, 2:6].view(np.uint64).reshape(4, 2)
    nans[:2] = 0x7FF8000000000001
    nans[2:] = [0xFFF8000000000000, 0x8000000000000000]
    filt = FilterMatrix(filt.scale, filt.chain, filt.grid, samples)
    # Each refinement doubles every run: 8 cells become 64.
    return refine(refine(refine(filt)))


# (job name, builder of the filter from the tests/helpers module and a
# generator seeded with BUILT_SEED).  They reach what no generator does:
# an accepted eigenvalue other than 1, an accepted eigenvalue 1 whose
# field is not the constant one, two pairs for one eigenvalue, a pure
# verdict decided at cell 0 by a margin of 1e-3, pure_at_resolution, a
# coarsened spectrum that lifts a two-member cluster (H = I, c = 2), a
# dense two-channel filter at N = 3 (the orbit product of the generalized
# identity off N = 2), three pairs for one eigenvalue at c = 3, a
# certificate whose leading block is the full 2 x 2 block (diag(h, h) for
# Haar h), and three bundles that fail the verification gate: a sample
# breaking the column support rule, a finite sample whose square
# overflows, and long runs of -0.0 and of NaNs with other payloads and
# signs, which bundle text reads and writes one run at a time.
BUILT_JOBS = [
    ("planted_scale_3", lambda h, rng: h.planted_filter(rng, 3, 3, PLANTED_LAMBDA)[0]),
    ("planted_lambda_1", lambda h, rng: h.planted_filter(rng, 2, 4, 1.0)[0]),
    (
        "planted_two_channel",
        lambda h, rng: h.planted_unitary_filter(rng, 2, 3, PLANTED_LAMBDA)[0],
    ),
    (
        "planted_two_channel_scale_3",
        lambda h, rng: h.planted_unitary_filter(rng, 3, 3, PLANTED_LAMBDA)[0],
    ),
    (
        "planted_three_channel",
        lambda h, rng: h.planted_unitary_filter(rng, 2, 3, PLANTED_LAMBDA, 3)[0],
    ),
    ("near_constant", lambda h, rng: h.near_constant_filter(rng)),
    ("unimodular", lambda h, rng: h.near_constant_filter(rng, eps=0.0)),
    ("identity_two_channel", lambda h, rng: h.identity_two_channel()),
    ("haar_pair", lambda h, rng: h.haar_pair()),
    ("journe_step_column_violation", _column_violation),
    ("haar_huge_sample", _huge_sample),
    ("signed_zero_and_nan_runs", _signed_zero_and_nan_runs),
]


def _strip_report(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    report.pop("timings", None)
    report.pop("bundle", None)
    text = json.dumps(report, sort_keys=True, indent=1) + "\n"
    path.write_text(text, encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: output_corpus.py SRC OUT", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    out = Path(argv[1])
    # Read by OpenBLAS when numpy is first imported, just below.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    from gmrafilters import cli

    if Path(cli.__file__).resolve().parent != src / "gmrafilters":
        print(f"gmrafilters imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np

    sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
    import helpers

    out.mkdir(parents=True, exist_ok=False)
    codes = []
    for name, source in JOBS + BUILT_JOBS:
        job = out / name
        job.mkdir()
        bundle = str(job / "bundle.json")
        steps = [
            ("verify", ["verify", bundle, "--out", str(job / "verify.json")]),
            ("classify", ["classify", bundle, "--out", str(job / "classify.json")]),
            ("spectrum", ["spectrum", bundle, "--out", str(job / "spectrum.csv")]),
        ]
        if callable(source):
            filt = source(helpers, np.random.default_rng(BUILT_SEED))
            provenance = {"job": name, "seed": BUILT_SEED}
            Path(bundle).write_text(cli.emit_bundle(filt, provenance), encoding="utf-8")
        else:
            steps.insert(0, ("generate", ["generate", *source, "--out", bundle]))
        for step, cmd in steps:
            codes.append(f"{name} {step} {cli.main(cmd)}")
        for report in ("verify.json", "classify.json"):
            if (job / report).exists():
                _strip_report(job / report)
    (out / "exit_codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
