"""Block certificates of purity and the derived Journe parameters.

A filter whose matrix, partitioned around a leading a x a block A, is
uniformly expanding on a symmetric region F around 0 (every singular value
of A at least 1 + delta) while the remaining blocks stay below
eps = min(1/8, delta/8), and whose region overlaps its own dilation in
positive measure, generates a pure operator: no modulus-one eigenvector
can exist.  This module checks such certificates cell by cell, searches
for them over the nested grid-aligned regions [-j/M, j/M), and derives the
parameter budget that places the smooth Journe family inside the
certificate regime for a requested delta.  Each such region lies inside
its own dilation image, so its overlap with that image is its measure
2j/M: the search ranks candidates from prefix reductions of the per-cell
norms alone and builds the exact region only for the winner, which
check_certificate re-checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import GridAlignmentError, ParameterError
from .filters import (
    SQRT2,
    FilterMatrix,
    JourneParams,
    _JOURNE_GRID,
    _journe_sets,
    journe_profile,
)
from .smallmat import singular_values
from .torus import GridSpec, IntervalSet

# The smallest margin a certificate may claim.  Moduli and singular values
# are taken in floating point, and a product of unit phases such as
# lambda f(x) / f(Nx) is stored with modulus 1 + 2^-52 at some cells;
# without an allowance its non-pure operator is "certified" pure with
# delta = eps.  8 eps (1.8e-15) covers a few such roundings and lies far
# below every genuine margin measured (the smallest is about 0.007).
MARGIN_ALLOWANCE = 8.0 * float(np.finfo(np.float64).eps)


def certificate_eps(delta: float) -> float:
    """The off-block budget paired with an expansion margin delta."""
    return min(1.0 / 8.0, delta / 8.0)


class Certificate(NamedTuple):
    """A verified block certificate; its existence implies purity."""

    block_size: int
    delta: float
    eps: float
    region: IntervalSet
    sigma_min: float
    off_block_max: float
    overlap_measure: Fraction
    grid: GridSpec


class CertificateFailure(NamedTuple):
    """Why a candidate certificate was rejected, with a witness cell."""

    reason: str
    witness_cell: Optional[int] = None
    detail: str = ""


def _nonfinite_cells(filt: FilterMatrix) -> np.ndarray:
    """The cells, ascending, at which some sample is NaN or infinite."""
    return np.nonzero(~np.isfinite(filt.samples).all(axis=(0, 1)))[0]


def _block_norms(
    filt: FilterMatrix, block_size: int, cells: Union[np.ndarray, slice] = slice(None)
):
    """Per-cell smallest singular value of A and largest of B, C, D."""
    a = block_size
    mats = np.transpose(filt.samples[..., cells], (2, 0, 1))
    smin = singular_values(mats[:, :a, :a])[:, -1]
    off = np.zeros(len(mats))
    for rows, cols in (
        (slice(None, a), slice(a, None)),
        (slice(a, None), slice(None, a)),
        (slice(a, None), slice(a, None)),
    ):
        block = mats[:, rows, cols]
        if block.shape[1] and block.shape[2]:
            off = np.maximum(
                off, singular_values(block)[:, 0]
            )
    return smin, off


def check_certificate(
    filt: FilterMatrix,
    block_size: int,
    delta: float,
    region: IntervalSet,
) -> Union[Certificate, CertificateFailure]:
    """Verify the three block conditions of a certificate on a region.

    Conditions, each checked at every grid cell of the region: the leading
    block satisfies sigma_min(A) >= 1 + delta (equivalently its inverse
    has norm at most 1/(1 + delta)); the other blocks stay strictly below
    eps = min(1/8, delta/8) in operator norm; and the region meets its own
    dilation image in positive measure.  A margin delta within
    ``MARGIN_ALLOWANCE`` of 0 is refused as indistinguishable from
    rounding, and a filter with a non-finite sample anywhere is refused
    before any norm is taken.  Witness cells in failures are the lowest
    offending cell index.
    """
    if not (1 <= block_size <= filt.count):
        raise ParameterError(
            f"block size must lie in [1, {filt.count}], got {block_size}"
        )
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    if not region.aligned(filt.grid):
        raise GridAlignmentError("certificate region must align with the grid")
    if delta <= MARGIN_ALLOWANCE:
        return CertificateFailure(
            "margin within rounding allowance",
            detail=f"delta {delta!r} <= allowance {MARGIN_ALLOWANCE!r}",
        )
    nonfinite = _nonfinite_cells(filt)
    if nonfinite.size:
        return CertificateFailure(
            "non-finite samples",
            witness_cell=int(nonfinite[0]),
            detail=f"a sample at cell {int(nonfinite[0])} is not finite",
        )
    cells = np.nonzero(region.cell_mask(filt.grid))[0]
    if cells.size == 0:
        return CertificateFailure("empty region")
    smin, off = _block_norms(filt, block_size, cells)
    eps = certificate_eps(delta)
    # Both tests are negated so that a NaN norm counts as a failure.
    bad = np.nonzero(~(smin >= 1.0 + delta))[0]
    if bad.size:
        k = int(bad[0])
        kind = "singular" if smin[k] == 0.0 else "insufficiently expanding"
        return CertificateFailure(
            "expansivity failure",
            witness_cell=int(cells[k]),
            detail=(
                f"leading block is {kind} at cell {int(cells[k])}: "
                f"sigma_min {smin[k]!r} < 1 + delta {1.0 + delta!r}"
            ),
        )
    bad = np.nonzero(~(off < eps))[0]
    if bad.size:
        k = int(bad[0])
        return CertificateFailure(
            "off-block failure",
            witness_cell=int(cells[k]),
            detail=(
                f"off-diagonal block norm {off[k]!r} >= eps {eps!r} "
                f"at cell {int(cells[k])}"
            ),
        )
    overlap = region.intersect(region.dilate(filt.scale)).measure()
    if overlap <= 0:
        return CertificateFailure(
            "region does not overlap its dilation image"
        )
    return Certificate(
        block_size=block_size,
        delta=delta,
        eps=eps,
        region=region,
        sigma_min=float(smin.min()),
        off_block_max=float(off.max()),
        overlap_measure=overlap,
        grid=filt.grid,
    )


def _symmetric_region(grid: GridSpec, halfwidth_cells: int) -> IntervalSet:
    m = grid.cells
    j = halfwidth_cells
    return IntervalSet.from_arcs([(Fraction(-j, m), Fraction(j, m))])


def search_certificate(filt: FilterMatrix) -> Optional[Certificate]:
    """Search symmetric grid-aligned regions around 0 for a certificate.

    Candidate regions are [-j/M, j/M) for j = 1 .. M/2 and every block
    size a is tried.  Widening the region from j - 1 to j adds the cell
    pair (j - 1, M - j), so prefix reductions over those pairs, the
    minimum of sigma_min and the maximum of the off-block norms, give
    each candidate's best delta, sigma_min - 1, with no set algebra.
    1 + delta <= sigma_min then holds in floats as it stands: for w >= 1,
    w - 1 is exact below 2^53 and rounds to even above.  The region lies
    inside its own dilation image [-Nj/M, Nj/M), so its overlap with that
    image is 2j/M, and candidates are ranked by (delta, j, -a).  As j
    grows delta only falls and the off-block norm only rises, so the best
    candidate of a block size has the delta of j = 1, which must exceed
    ``MARGIN_ALLOWANCE``, and the largest j that keeps that delta and its
    off-block budget.  Only the winning region is built, and
    check_certificate re-checks it exactly.  Returns None when no region
    certifies, and at once when a sample is not finite.
    """
    if _nonfinite_cells(filt).size:
        return None
    half = filt.cells // 2
    keys = []
    for a in range(1, filt.count + 1):
        lead, off = _block_norms(filt, a)
        deltas = np.minimum.accumulate(np.minimum(lead[:half], lead[::-1][:half])) - 1
        offs = np.maximum.accumulate(np.maximum(off[:half], off[::-1][:half]))
        delta = float(deltas[0])
        if delta > MARGIN_ALLOWANCE:
            kept = (deltas == delta) & (offs < certificate_eps(delta))
            if kept[0]:
                keys.append((delta, int(np.count_nonzero(kept)), -a))
    if not keys:
        return None
    delta, j, neg_a = max(keys)
    found = check_certificate(filt, -neg_a, delta, _symmetric_region(filt.grid, j))
    if not isinstance(found, Certificate):
        raise AssertionError(
            f"search produced a candidate that fails re-checking: {found}"
        )
    return found


class BoundCheck(NamedTuple):
    """One named inequality in a derivation, with its numeric margin."""

    description: str
    lhs: float
    rhs: float
    strict: bool

    @property
    def ok(self) -> bool:
        return self.lhs < self.rhs if self.strict else self.lhs <= self.rhs

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


class JourneDerivation(NamedTuple):
    """The parameter budget placing the Journe family in the certificate regime."""

    delta: float
    r1: float
    r2: float
    r: float
    interval_denominator: int
    region: IntervalSet
    params: JourneParams
    checks: dict[str, BoundCheck]


def derive_journe(delta: float, grid: GridSpec = _JOURNE_GRID) -> JourneDerivation:
    """Derive the deformation size r and region for a requested delta.

    Two constraints cap r: the off-blocks must stay under
    eps = min(1/8, delta/8), which a budget of half of min(1/16, delta/16)
    guarantees with room to spare, and the leading entry must stay
    expanding, which needs sqrt(2) sqrt(1 - 2 r^2) >= 1 + delta and so
    caps r at sqrt((sqrt(2) - (1 + delta)) / (1 + delta)).  That cap is
    real only for delta < sqrt(2) - 1, which bounds the admissible range.
    The region is then the widest aligned [-1/n, 1/n] with n >= 7 on
    which the sampled profile exceeds sqrt(2) sqrt(1 - 2 r^2) and the
    off-diagonal entry stays under eps.
    """
    if not (0.0 < delta < SQRT2 - 1.0):
        raise ParameterError(
            f"delta must lie in (0, sqrt(2) - 1), got {delta!r}"
        )
    r1 = min(1.0 / 16.0, delta / 16.0) / 2.0
    r2 = math.sqrt((SQRT2 - (1.0 + delta)) / (1.0 + delta))
    r = min(r1, r2)
    params = JourneParams(r=r, grid=grid)
    q = journe_profile(params)
    m = grid.cells
    threshold = SQRT2 * math.sqrt(1.0 - 2.0 * r * r)
    eps = certificate_eps(delta)
    band12 = _journe_sets()["band12"].cell_mask(grid)
    h12 = np.abs(np.roll(q, -(m // 2)) * band12)
    for chosen in range(7, m + 1):
        if m % chosen:
            continue
        j = m // chosen
        cells = np.concatenate([np.arange(j), np.arange(m - j, m)])
        if np.all(q[cells] > threshold) and np.all(h12[cells] < eps):
            break
    else:
        raise ParameterError(
            "no aligned region satisfies the derived bounds; refine the grid"
        )
    region = _symmetric_region(grid, j)
    checks = {
        "deformation_keeps_expansion": BoundCheck(
            "1 / (sqrt(2) sqrt(1 - 2 r^2)) stays within 1 / (1 + delta)",
            1.0 / threshold,
            1.0 / (1.0 + delta),
            strict=False,
        ),
        "deformation_keeps_off_blocks_small": BoundCheck(
            "the off-diagonal peak 2 r stays under min(1/8, delta/8)",
            2.0 * r,
            eps,
            strict=True,
        ),
        "half_budget_rule": BoundCheck(
            "r1 is half of min(1/16, delta/16)",
            r1,
            min(1.0 / 16.0, delta / 16.0),
            strict=True,
        ),
        "profile_exceeds_threshold_on_region": BoundCheck(
            "sampled profile exceeds sqrt(2) sqrt(1 - 2 r^2) on the region",
            threshold,
            float(q[cells].min()),
            strict=True,
        ),
        "entry12_below_eps_on_region": BoundCheck(
            "off-diagonal entry stays under eps on the region",
            float(h12[cells].max()),
            eps,
            strict=True,
        ),
    }
    return JourneDerivation(
        delta=delta,
        r1=r1,
        r2=r2,
        r=r,
        interval_denominator=chosen,
        region=region,
        params=params,
        checks=checks,
    )
