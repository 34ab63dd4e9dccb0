"""Finite towers of refinement spaces and the intersection dichotomy.

A verified filter turns the step fields of each grid into a nested family
of spaces: level k lives on the base fine grid refined k more times, and
the operator embeds each level isometrically into the next.  The tower
here materializes finitely many levels of that picture so the embeddings,
their telescoping into matrix products along dilation orbits, and the
decay of adjoint averages can all be exercised concretely.

The dichotomy itself concerns the common intersection of the ranges of
the iterated embeddings.  ``intersection_report`` combines the purity
classification with a certificate search and phrases the outcome in those
terms.  It deliberately reports no numeric dimension for the
intersection: whenever that space is nonzero in the ambient model it is
infinite dimensional, and a rank count at any single resolution sees only
a finite shadow, so printing one would mislead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionCapError, ParameterError, ResolutionError
from .filters import FilterMatrix, refine
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
    VecField,
    _dim_cap,
    classify_purity,
    ruelle_apply,
)
from .torus import GridSpec


@dataclass(frozen=True, eq=False)
class Tower:
    """Finitely many refinement levels above a base filter.

    Level 0 is the step space of the filter's own fine grid; level k sits
    on that grid refined k times.  ``stages[k - 1]`` is the filter lifted
    to level k, whose coarse grid is level k - 1, so applying the operator
    of that stage is the embedding of level k - 1 into level k.
    """

    base: FilterMatrix
    depth: int
    stages: tuple[FilterMatrix, ...]

    @property
    def levels(self) -> tuple[GridSpec, ...]:
        return (self.base.grid,) + tuple(s.grid for s in self.stages)

    def dimension(self, level: int) -> int:
        """Count of (component, cell) coordinates inside the supports."""
        grid = self.levels[level]
        return sum(
            int(np.count_nonzero(s.cell_mask(grid)))
            for s in self.base.chain.sigmas
        )

    def level_of(self, f: VecField) -> int:
        for k, grid in enumerate(self.levels):
            if grid == f.grid:
                return k
        raise ResolutionError("field does not live on any level of this tower")

    def embed(self, f: VecField) -> VecField:
        """Embed a field one level up."""
        k = self.level_of(f)
        if k >= self.depth:
            raise ResolutionError("field already lives on the top level")
        return ruelle_apply(self.stages[k], f)

    def lift(self, f: VecField, to_level: Optional[int] = None) -> VecField:
        """Embed repeatedly until the field reaches ``to_level`` (default top)."""
        target = self.depth if to_level is None else to_level
        k = self.level_of(f)
        if not (k <= target <= self.depth):
            raise ResolutionError(
                f"cannot lift from level {k} to level {target}"
            )
        for _ in range(target - k):
            f = self.embed(f)
        return f


def build_tower(
    filt: FilterMatrix, depth: int, dim_cap: Optional[int] = None
) -> Tower:
    """Materialize ``depth`` refinement levels above a filter's fine grid."""
    if depth < 0:
        raise ParameterError(f"tower depth must be >= 0, got {depth}")
    cap = _dim_cap() if dim_cap is None else dim_cap
    top_cells = filt.cells * filt.scale**depth
    top_dim = sum(
        s.measure() * top_cells for s in filt.chain.sigmas
    )
    if top_dim.denominator != 1:
        raise ParameterError("support chain does not align with the top grid")
    if int(top_dim) > cap:
        raise DimensionCapError(
            f"top level dimension {int(top_dim)} exceeds cap {cap}"
        )
    stages = []
    lifted = filt
    for _ in range(depth):
        lifted = refine(lifted)
        stages.append(lifted)
    return Tower(base=filt, depth=depth, stages=tuple(stages))


@dataclass(frozen=True, eq=False)
class IntersectionReport:
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


def _is_unimodular_constant(pair) -> bool:
    if abs(pair.eigenvalue - 1.0) > 1e-6:
        return False
    vals = pair.fld.values
    mask = np.abs(vals) > 1e-12
    if not np.any(mask):
        return False
    return float(np.abs(vals[mask] - vals[mask].flat[0]).max()) <= 1e-8


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
    are consistent.
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
        lines = [
            "An eigenvector with a modulus-one eigenvalue "
            f"({lam.real:+.6f}{lam.imag:+.6f}i) survives the adjoint "
            "averaging, so a nonzero field is shared by every level of the "
            "tower and the common intersection is nontrivial."
        ]
        if any(_is_unimodular_constant(p) for p in verdict.eigenpairs):
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
        assert certificate is not None
        table = {
            "tail_intersection_nontrivial": "no",
            "modulus_one_eigenvector": "ruled_out",
            "consistent": True,
        }
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
    elif status == PURE_AT_RESOLUTION:
        table = {
            "tail_intersection_nontrivial": "undetermined",
            "modulus_one_eigenvector": "none_found",
            "consistent": True,
        }
        narrative = (
            "No modulus-one eigenvector passed the direct re-test at this "
            "resolution, but no expansion certificate was found either, so "
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
