"""Command line front end: generate, verify, classify, spectrum.

Reports are canonical JSON: keys are sorted, every float is rendered as
its shortest round-tripping decimal string, and anything nondeterministic
(wall-clock timings) lives under the single top-level key ``timings`` so
that two runs on the same input differ at most there.

Exit codes: 0 success (for classify, a certified pure verdict), 1
verification failure, 2 usage or parse problems (including a grid too
large to allocate, and a tolerance or count out of range), 3 a certified
non-pure verdict, 4 a verdict that is neither certified outcome.  Every
exit 2 after argument parsing prints one ``gmrafilters: ...`` line on
stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import math
import sys
import time
from typing import Optional

from .bundleio import (
    canonical_json,
    complex_pair,
    emit_bundle,
    float_str,
    load_bundle,
)
from .errors import GmraFilterError, GridAlignmentError, ResolutionError
from .filters import (
    JOURNE_EPS_SMOOTH,
    FilterMatrix,
    ResidualReport,
    SupportReport,
    filter_equation_residual,
    generalized_filter_residual,
    isometry_defect,
    make_journe_step,
    make_constant,
    make_haar,
    make_journe_family,
    make_shannon,
    support_violations,
)
from .ruelle import (
    NOT_PURE_CERTIFIED,
    PURE_CERTIFIED,
    TOL_EIG,
    TOL_NORM,
    TOL_RES,
    VERIFY_TOL,
    classify_purity,  # noqa: F401  (a name clibench/spans.py wraps)
    isometry_residual,
    transfer_spectrum,
)
from .torus import MAX_CELLS_LOG2, GridSpec, rat_str

# Functions of the certificate modules, which only ``classify`` and
# ``generate journe`` run: bound here on first use from the package.
_LATE = ("derive_journe", "intersection_report")


def _late(name: str):
    """This module's binding of ``name``, made on first use.

    A binding already made is kept, so a wrapper that the benchmark's
    traced replay puts on this module's attribute is the one called.
    """
    if name not in globals():
        globals()[name] = getattr(sys.modules[__package__], name)
    return globals()[name]


def __getattr__(name: str):
    if name not in _LATE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _late(name)


EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NOT_PURE = 3
EXIT_UNDECIDED = 4

GENERATOR_DEPTHS = {
    "haar": 4,
    "shannon": 4,
    "constant": 4,
    "journe_step": 2,
    "journe": 2,
}


# Characters per write: a text stream encodes each write whole, so one
# write of a bundle would hold an encoded copy of all of it.
_WRITE_CHARS = 1 << 16


def _write_text(out: Optional[str], text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            _write_slices(fh, text)
    else:
        _write_slices(sys.stdout, text)


def _write_slices(stream, text: str) -> None:
    for start in range(0, len(text), _WRITE_CHARS):
        stream.write(text[start : start + _WRITE_CHARS])


def _interval_parts(intervals) -> list[list[str]]:
    return [[rat_str(a), rat_str(b)] for a, b in intervals.parts]


def _build_filter(args) -> tuple[FilterMatrix, dict]:
    name = args.generator
    depth = args.depth if args.depth is not None else GENERATOR_DEPTHS[name]
    provenance: dict = {"generator": name, "depth": depth}
    if name == "haar":
        filt = make_haar(depth=depth)
    elif name == "shannon":
        filt = make_shannon(depth=depth)
    elif name == "constant":
        filt = make_constant(depth=depth)
    elif name == "journe_step":
        filt = make_journe_step(depth=depth, half_turn_phases=args.half_turn_phases)
        provenance["half_turn_phases"] = args.half_turn_phases
    else:
        derivation = _late("derive_journe")(args.delta, grid=GridSpec(2, 56, depth))
        filt = make_journe_family(
            derivation.params, half_turn_phases=args.half_turn_phases
        )
        provenance.update(
            {
                "half_turn_phases": args.half_turn_phases,
                "delta": float_str(derivation.delta),
                "r": float_str(derivation.r),
                "r_off_block_budget": float_str(derivation.r1),
                "r_expansion_cap": float_str(derivation.r2),
                "interval_denominator": derivation.interval_denominator,
                "region": _interval_parts(derivation.region),
                "eps_smooth": rat_str(JOURNE_EPS_SMOOTH),
                "transition": "exp_bump",
            }
        )
    return filt, provenance


def cmd_generate(args) -> int:
    filt, provenance = _build_filter(args)
    _write_text(args.out, emit_bundle(filt, provenance))
    return EXIT_OK


def _equation_section(
    filt: FilterMatrix,
) -> tuple[dict, ResidualReport, SupportReport]:
    eq = filter_equation_residual(filt)
    sup = support_violations(filt)
    section = {
        "max_residual": float_str(eq.max_abs_residual),
        "witness_cell": eq.argmax_cell,
        "witness_pair": list(eq.argmax_pair),
        "per_pair": {
            f"{i},{j}": float_str(v) for (i, j), v in sorted(eq.per_pair.items())
        },
        "support": {
            "column_violations": [list(v) for v in sup.column],
            "dilated_row_violations": [list(v) for v in sup.dilated_row],
        },
    }
    return section, eq, sup


def _fails_verification(
    eq: ResidualReport, sup: SupportReport, verify_tol: float
) -> bool:
    """The gate of verify, classify and spectrum; a NaN residual fails it."""
    return not sup.clean() or not (eq.max_abs_residual <= verify_tol)


class _Laps:
    """Wall times of a report's stages: each ``lap`` books the time since
    the previous one under its key, so the stages sum to about ``total_s``."""

    def __init__(self) -> None:
        self.start = self.last = time.perf_counter()
        self.timings: dict = {}

    def lap(self, key: str) -> None:
        now = time.perf_counter()
        self.timings[key] = now - self.last
        self.last = now

    def report(self) -> dict:
        return {**self.timings, "total_s": time.perf_counter() - self.start}


def cmd_verify(args) -> int:
    laps = _Laps()
    filt, provenance = load_bundle(args.bundle)
    laps.lap("parse_s")
    tol = args.tol
    section, eq, sup = _equation_section(filt)
    ok = not _fails_verification(eq, sup, tol)
    laps.lap("residual_s")

    generalized = []
    for order in range(1, args.nmax + 1):
        try:
            rep = generalized_filter_residual(filt, order)
        except (ResolutionError, GridAlignmentError) as exc:
            generalized.append({"order": order, "skipped": str(exc)})
            continue
        generalized.append(
            {
                "order": order,
                "max_residual": float_str(rep.max_abs_residual),
                "witness_cell": rep.argmax_cell,
            }
        )
        ok = ok and rep.max_abs_residual <= tol
    laps.lap("generalized_s")

    iso = isometry_residual(filt, trials=args.trials, seed=args.seed)
    worst, witness = isometry_defect(filt)
    ok = ok and iso <= tol and worst <= tol
    laps.lap("isometry_s")

    report = {
        "command": "verify",
        "bundle": args.bundle,
        "ok": ok,
        "tolerances": {"verify_tol": float_str(tol)},
        "filter_equation": section,
        "generalized_equation": generalized,
        "isometry": {
            "trials": args.trials,
            "seed": args.seed,
            "max_deviation": float_str(iso),
            "worst_case_deviation": float_str(worst),
            "witness_cell": witness,
        },
        "provenance": provenance,
        "timings": laps.report(),
    }
    _write_text(args.out, canonical_json(report))
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _field_section(fld) -> dict:
    return {
        f"component_{i}": [complex_pair(z) for z in fld.values[i]]
        for i in range(fld.values.shape[0])
    }


def cmd_classify(args) -> int:
    laps = _Laps()
    filt, provenance = load_bundle(args.bundle)
    laps.lap("parse_s")
    section, eq, sup = _equation_section(filt)
    laps.lap("residual_s")
    if _fails_verification(eq, sup, args.verify_tol):
        report = {
            "command": "classify",
            "bundle": args.bundle,
            "ok": False,
            "status": "verification_failed",
            "filter_equation": section,
            "provenance": provenance,
            "timings": laps.report(),
        }
        _write_text(args.out, canonical_json(report))
        return EXIT_VERIFY_FAIL

    rep = _late("intersection_report")(
        filt,
        tol_eig=args.tol_eig,
        tol_res=args.tol_res,
        tol_norm=args.tol_norm,
        verify_tol=args.verify_tol,
    )
    laps.lap("analysis_s")
    verdict = rep.verdict
    cell = verdict.fixed_cell
    cert = rep.certificate
    report = {
        "command": "classify",
        "bundle": args.bundle,
        "ok": True,
        "status": verdict.status,
        "tolerances": {
            "tol_eig": float_str(args.tol_eig),
            "tol_res": float_str(args.tol_res),
            "tol_norm": float_str(args.tol_norm),
            "verify_tol": float_str(args.verify_tol),
        },
        "filter_equation": section,
        "purity": {
            "status": verdict.status,
            "dimension": verdict.dimension,
            "eigenpairs": [
                {
                    "eigenvalue": complex_pair(p.eigenvalue),
                    "residual": float_str(p.residual),
                    "unit_norm_deviation": float_str(p.unit_norm_dev),
                    "unit_norm_ok": p.unit_norm_ok,
                    "field": _field_section(p.fld),
                }
                for p in verdict.eigenpairs
            ],
            "candidates_tested": [
                {
                    "eigenvalue": complex_pair(p.eigenvalue),
                    "residual": float_str(p.residual),
                    "passed": p.passed,
                }
                for p in cell.candidates
            ],
            "anomalies": list(verdict.anomalies),
            "fixed_cell": {
                "eigenvalues": [complex_pair(z) for z in cell.eigenvalues.tolist()],
                "margin": float_str(cell.margin),
                "allowance": float_str(cell.allowance),
            },
        },
        "certificate": None
        if cert is None
        else {
            "block_size": cert.block_size,
            "delta": float_str(cert.delta),
            "eps": float_str(cert.eps),
            "region": _interval_parts(cert.region),
            "sigma_min": float_str(cert.sigma_min),
            "off_block_max": float_str(cert.off_block_max),
            "overlap_measure": rat_str(cert.overlap_measure),
        },
        "intersection": {
            "equivalence": rep.equivalence,
            "narrative": rep.narrative,
            "dimension_caution": rep.dimension_caution,
        },
        "provenance": provenance,
        "timings": {**laps.report(), "fixed_cell_s": verdict.fixed_cell_s},
    }
    if verdict.martingale_max_dev is not None:
        report["purity"]["martingale_max_dev"] = [
            float_str(x) for x in verdict.martingale_max_dev
        ]
    _write_text(args.out, canonical_json(report))
    if verdict.status == PURE_CERTIFIED:
        return EXIT_OK
    if verdict.status == NOT_PURE_CERTIFIED:
        return EXIT_NOT_PURE
    return EXIT_UNDECIDED


def cmd_spectrum(args) -> int:
    filt, _ = load_bundle(args.bundle)
    section, eq, sup = _equation_section(filt)
    if _fails_verification(eq, sup, args.verify_tol):
        print(
            f"gmrafilters: {args.bundle} fails verification: defining "
            f"identity residual {section['max_residual']}, support rule "
            f"{'clean' if sup.clean() else 'violated'}",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAIL
    spectrum = transfer_spectrum(filt, tol_eig=args.tol_eig, tol_res=args.tol_res)
    lines = ["eigenvalue_re,eigenvalue_im,modulus,passes_eigen_test"]
    for lam, passed in zip(spectrum.eigenvalues.tolist(), spectrum.passing_flags):
        row = [float_str(lam.real), float_str(lam.imag), float_str(abs(lam))]
        lines.append(",".join(row + ["true" if passed else "false"]))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _tolerance(text: str) -> float:
    """An argparse type: a finite number >= 0, so NaN, inf and negatives exit 2."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _int_in(low: int, high: Optional[int] = None):
    """An argparse type: an integer >= low, and <= high when given."""

    def parse(text: str) -> int:
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        message = f"must be an integer {bound}, got {text!r}"
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(message) from None
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(message)
        return value

    return parse


def _add_spectrum_tolerances(sub) -> None:
    sub.add_argument("--tol-eig", type=_tolerance, default=TOL_EIG)
    sub.add_argument("--tol-res", type=_tolerance, default=TOL_RES)
    sub.add_argument("--verify-tol", type=_tolerance, default=VERIFY_TOL)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmrafilters",
        description="Generalized wavelet filter construction and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a filter bundle")
    gen.add_argument(
        "generator", choices=sorted(GENERATOR_DEPTHS), help="filter family"
    )
    gen.add_argument("--depth", type=int, default=None, help="grid refinement depth")
    gen.add_argument(
        "--delta",
        type=float,
        default=0.1,
        help="requested expansion margin (journe only)",
    )
    gen.add_argument(
        "--half-turn-phases",
        action="store_true",
        help="realize the printed band phases as sign flips",
    )
    gen.add_argument("--out", default=None, help="output path (default stdout)")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="check the defining identities")
    ver.add_argument("bundle")
    ver.add_argument("--tol", type=_tolerance, default=VERIFY_TOL)
    ver.add_argument(
        "--nmax",
        type=_int_in(0, MAX_CELLS_LOG2),
        default=3,
        help="highest identity order",
    )
    ver.add_argument(
        "--trials", type=_int_in(0), default=0, help="random isometry probes"
    )
    ver.add_argument("--seed", type=_int_in(0), default=0)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    cls = sub.add_parser("classify", help="purity verdict with certificate search")
    cls.add_argument("bundle")
    _add_spectrum_tolerances(cls)
    cls.add_argument("--tol-norm", type=_tolerance, default=TOL_NORM)
    cls.add_argument("--out", default=None)
    cls.set_defaults(func=cmd_classify)

    spectrum = sub.add_parser("spectrum", help="adjoint spectrum as CSV")
    spectrum.add_argument("bundle")
    _add_spectrum_tolerances(spectrum)
    spectrum.add_argument("--out", default=None)
    spectrum.set_defaults(func=cmd_spectrum)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (GmraFilterError, OSError, MemoryError) as exc:
        # A MemoryError here is a grid refused by the allocator, such as
        # generate at depth 40: a usage problem, not a failed verification.
        print(f"gmrafilters: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _release_free_heap() -> None:
    """Give back to the system the heap pages that nothing occupies.

    Importing numpy and compiling this package free much of what they
    allocate, but glibc's ``free`` returns memory only from the top of
    the heap, so the free pages below stay resident, more or fewer of
    them as argument and path lengths shift the layout.  ``malloc_trim``
    returns every free page.  Where the C library has no such call,
    nothing happens.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, TypeError):
        # No malloc_trim in this C library; Windows opens no library by None.
        return
    trim(0)


def console_main() -> int:
    """The process entry point: freeze and trim the import-time heap, then
    run ``main``.

    After ``import gmrafilters.cli`` every object numpy and this package
    keep is live, so the collector's passes during the call and at
    interpreter exit would rescan them and free nothing.  ``gc.freeze``
    moves them to the permanent generation those passes skip; objects
    allocated later are collected as before.  The heap the import left
    free is then returned (``_release_free_heap``), so it adds nothing to
    the call's peak.  ``classify`` and ``generate journe`` import their
    certificate module first, so that it is frozen and trimmed with the
    rest, not compiled on top of the bundle; a freeze before that import
    keeps its collections off the heap already imported.  ``main`` itself
    leaves the collector and the heap alone, because tests and the
    benchmark's traced replay call it many times in one process.
    """
    command = sys.argv[1:2]
    if command == ["classify"]:
        late = "intersection_report"
    elif command == ["generate"] and "journe" in sys.argv:
        late = "derive_journe"
    else:
        late = None
    if late:
        gc.freeze()
        _late(late)
    gc.freeze()
    _release_free_heap()
    return main()


if __name__ == "__main__":
    sys.exit(console_main())
