"""The intersection dichotomy, stated through the purity verdict.

A verified filter turns the step fields of each grid into a nested family
of spaces, a tower: level k lives on the filter's fine grid refined k
more times, and the operator embeds each level isometrically into the
next.  The dichotomy concerns the common intersection of the ranges of
the iterated embeddings, which is nonzero exactly when the operator has
a modulus-one eigenvector, so the tower itself never has to be built.
``intersection_report`` runs the certificate search and the purity
classification and phrases their outcome in those terms; a pure verdict
is backed by the block certificate when the search finds one, and
otherwise by the spectrum of the filter at the fixed point 0.  It
deliberately reports no numeric dimension for the intersection: whenever
that space is nonzero in the ambient model it is infinite dimensional,
and a rank count at any single resolution sees only a finite shadow, so
printing one would mislead.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .filters import FilterMatrix
from .lowpass import Certificate, search_certificate
from .ruelle import (
    INCONCLUSIVE,
    NOT_PURE_CERTIFIED,
    PURE_AT_RESOLUTION,
    PURE_CERTIFIED,
    TOL_EIG,
    TOL_NORM,
    TOL_RES,
    VERIFY_TOL,
    PurityVerdict,
    classify_purity,
)


class IntersectionReport(NamedTuple):
    """The purity dichotomy phrased for the tower's common intersection."""

    verdict: PurityVerdict
    certificate: Optional[Certificate]
    equivalence: dict[str, object]
    narrative: str
    dimension_caution: str


_CAUTION = (
    "No dimension is reported for the common intersection.  Whenever that "
    "space is nonzero in the ambient model it is infinite dimensional, and "
    "a rank count at any fixed resolution sees only a finite shadow of it, "
    "so such counts are omitted rather than printed."
)


def intersection_report(
    filt: FilterMatrix,
    tol_eig: float = TOL_EIG,
    tol_res: float = TOL_RES,
    tol_norm: float = TOL_NORM,
    verify_tol: float = VERIFY_TOL,
) -> IntersectionReport:
    """Search for a certificate, classify purity, and narrate the outcome.

    The two sides of the dichotomy are equivalent: the tower's common
    intersection is nonzero exactly when the dilation on the ambient
    space has a modulus-one eigenvector.  The equivalence table records
    what the run established for each side and whether the two findings
    are consistent.  A ``pure_certified`` verdict is narrated through the
    block certificate when the search found one, and otherwise through
    the verdict's cell 0 spectrum; a non-pure one adds a concrete model
    when chi is an eigenvector for 1 (``closed_form_pairs``).
    """
    certificate = search_certificate(filt)
    verdict = classify_purity(
        filt,
        tol_eig=tol_eig,
        tol_res=tol_res,
        tol_norm=tol_norm,
        verify_tol=verify_tol,
        certificate=certificate,
    )
    status = verdict.status
    if status == NOT_PURE_CERTIFIED:
        table = {
            "tail_intersection_nontrivial": "yes",
            "modulus_one_eigenvector": "found",
            "consistent": True,
        }
        lam = verdict.eigenpairs[0].eigenvalue
        # Adding 0.0 prints a part that rounds to -0 as +0.000000.
        real, imag = (round(x, 6) + 0.0 for x in (lam.real, lam.imag))
        lines = [
            "An eigenvector with a modulus-one eigenvalue "
            f"({real:+.6f}{imag:+.6f}i) survives the adjoint "
            "averaging, so a nonzero field is shared by every level of the "
            "tower and the common intersection is nontrivial."
        ]
        if verdict.closed_form_pairs:
            n = filt.scale
            lines.append(
                "A concrete model fits this case.  Take square-summable "
                "sequences indexed by the points of the circle whose "
                f"coordinate is a rational with denominator a power of {n}; "
                "dilation permutes that index set, and the unit mass sitting "
                "at 0 is left fixed.  The accepted eigenpair, eigenvalue 1 "
                "with a field of constant unit modulus, is the finite "
                "resolution shadow of that fixed sequence, and the span it "
                "generates under translation meets every refinement level."
            )
        narrative = "  ".join(lines)
    elif status == PURE_CERTIFIED:
        table = {
            "tail_intersection_nontrivial": "no",
            "modulus_one_eigenvector": "ruled_out",
            "consistent": True,
        }
        if certificate is not None:
            a = certificate.block_size
            narrative = (
                "The certificate settles the dichotomy on the side of purity.  "
                f"On a symmetric region of measure {certificate.region.measure()} "
                f"around 0 the leading {a} x {a} corner of the filter expands "
                f"every vector by at least 1 + {certificate.delta:.6g} while the "
                f"complementary blocks stay below {certificate.eps:.6g}, and the "
                "region meets its own dilation image in positive measure.  "
                "Iterated adjoint averaging therefore drains every field, no "
                "modulus-one eigenvector can exist, and the tower's common "
                "intersection is zero."
            )
        else:
            cell = verdict.fixed_cell
            narrative = (
                "The filter's value at the fixed point 0 settles the dichotomy "
                "on the side of purity.  Every eigenvalue of H(0)^T lies at "
                f"least {cell.margin:.6g} from the unit circle, more than the "
                "eigenvalue tolerance plus the rounding allowance "
                f"{cell.allowance:.3g}.  Any modulus-one eigenvector would be a "
                "step field on the coarse grid whose value at cell 0 is an "
                "eigenvector of H(0)^T for the same eigenvalue, so none exists, "
                "iterated adjoint averaging drains every field, and the tower's "
                "common intersection is zero."
            )
    elif status == PURE_AT_RESOLUTION:
        table = {
            "tail_intersection_nontrivial": "undetermined",
            "modulus_one_eigenvector": "none_found",
            "consistent": True,
        }
        narrative = (
            "No modulus-one eigenvector passed the direct re-test at this "
            "resolution, but no expansion certificate was found and the "
            "spectrum of H(0)^T does not stay clear of the unit circle, so "
            "the dichotomy stays open.  The evidence is consistent with "
            "purity without proving it."
        )
    else:
        assert status == INCONCLUSIVE
        table = {
            "tail_intersection_nontrivial": "undetermined",
            "modulus_one_eigenvector": "found",
            "consistent": False,
        }
        narrative = (
            "The run produced both an expansion certificate and an accepted "
            "modulus-one eigenpair.  Sound inputs cannot do that, so treat "
            "this as evidence of a numerical or data problem rather than a "
            "verdict on the intersection."
        )
    return IntersectionReport(
        verdict=verdict,
        certificate=certificate,
        equivalence=table,
        narrative=narrative,
        dimension_caution=_CAUTION,
    )
