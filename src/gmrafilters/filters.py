"""Matrix-valued step filters on the circle and their defining identities.

A filter here is a c x c matrix H of step functions sampled on a uniform
grid, attached to a dilation factor N and a nested chain of supports
sigma_1 >= ... >= sigma_c.  The defining identity, checked cell by cell,
is the coset orthogonality relation

    sum_{z : z^N = 1} sum_j h_{i,j}(w z) conj(h_{i',j}(w z))
        = N delta_{i,i'} chi_{sigma_i}(w^N),

together with the support rule that column j vanishes outside sigma_j.
Because supports and grids are exact rational objects, the identity either
holds at every cell up to float rounding or fails with a concrete witness
cell; there is no quadrature error anywhere.

The generators at the bottom of the module build the classical examples:
the constant filter, the Haar and Shannon filters at multiplicity one, the
classical two-channel Journe step filter, and its smooth one-parameter
deformation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import GridAlignmentError, ParameterError, ResolutionError
from .torus import GridSpec, IntervalSet, RatLike, SigmaChain, as_rat

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class StepFn:
    """A complex step function: one sample per grid cell."""

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.shape != (self.grid.cells,):
            raise ParameterError(
                f"expected {self.grid.cells} samples, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True, eq=False)
class FilterMatrix:
    """A c x c matrix of step functions with a dilation factor and supports.

    ``samples[i, j, t]`` is the value of entry (i, j) on grid cell t.  The
    grid must have depth >= 1 so that each cell has a full coset of
    translates under the kernel of the dilation, and the support chain must
    align with the coarser grid so the right-hand side of the defining
    identity is constant on cells.

    Construction validates only structure.  Whether the defining identity
    and the support rule actually hold is a question for
    :func:`filter_equation_residual` and :func:`support_violations`, so
    that corrupted data can still be loaded and then failed with a witness.
    """

    scale: int
    chain: SigmaChain
    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.grid.scale != self.scale:
            raise ParameterError("grid scale and filter scale disagree")
        if self.grid.depth < 1:
            raise ResolutionError("filter grids need depth >= 1 for coset pairing")
        c = self.chain.count
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.shape != (c, c, self.grid.cells):
            raise ParameterError(
                f"expected samples of shape {(c, c, self.grid.cells)}, "
                f"got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        if not self.chain.aligned(self.grid.coarser()):
            raise GridAlignmentError(
                "support chain must align with the coarser grid"
            )

    @property
    def count(self) -> int:
        return self.chain.count

    @property
    def cells(self) -> int:
        return self.grid.cells

    def coarse_grid(self) -> GridSpec:
        return self.grid.coarser()

    def sigma_masks(self, grid: GridSpec | None = None) -> list[np.ndarray]:
        """Cell masks of the support chain on ``grid`` (default: fine grid)."""
        g = grid if grid is not None else self.grid
        return [s.cell_mask(g) for s in self.chain.sigmas]


@dataclass(frozen=True)
class ResidualReport:
    """Worst-case deviation from an identity, with a witness location.

    Ties are broken deterministically: the lowest cell index wins, then the
    lexicographically smallest index pair.
    """

    max_abs_residual: float
    argmax_cell: int
    argmax_pair: tuple[int, int]
    per_pair: dict[tuple[int, int], float] = field(compare=False)


def _report_from_residuals(res: np.ndarray) -> ResidualReport:
    # res has shape (c, c, cells); argmax in (cell, i, i') order breaks ties
    # toward the lowest cell, then the smallest pair.
    c = res.shape[0]
    by_cell = np.ascontiguousarray(np.moveaxis(res, 2, 0))
    flat = int(np.argmax(by_cell))
    cell, rest = divmod(flat, c * c)
    i, ip = divmod(rest, c)
    per_pair = {
        (a, b): float(res[a, b].max()) for a in range(c) for b in range(c)
    }
    return ResidualReport(
        max_abs_residual=float(by_cell.flat[flat]),
        argmax_cell=int(cell),
        argmax_pair=(int(i), int(ip)),
        per_pair=per_pair,
    )


def filter_equation_residual(filt: FilterMatrix) -> ResidualReport:
    """Exact cell-level check of the defining coset identity.

    For a fine cell t the coset translates are the cells t mod M' + k M'
    with M' = M / N, and the dilation sends cell t onto coarse cell
    t mod M'.  Both sides of the identity are therefore constant on each
    residue class of cells, and the report indexes witnesses by the lowest
    cell of the class.
    """
    return _report_from_residuals(np.abs(_coset_deviation(filt)[0]))


def _coset_deviation(filt: FilterMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Left side minus right side of the defining identity, per coarse cell.

    Returns the complex (c, c, M/N) array G(u) - N diag(chi_sigma_i(u)),
    where G(u) = sum_k H(u + k M/N) H(u + k M/N)* is the coset Gram
    matrix, and the (c, M/N) boolean coarse support masks.
    """
    n = filt.scale
    c = filt.count
    grouped = filt.samples.reshape(c, c, n, filt.cells // n)
    gram = np.einsum("ijkt,pjkt->ipt", grouped, np.conj(grouped))
    masks = np.array(filt.sigma_masks(filt.coarse_grid()))
    for i in range(c):
        gram[i, i] -= n * masks[i]
    return gram, masks


def generalized_filter_residual(filt: FilterMatrix, order: int) -> ResidualReport:
    """Check the n-step product identity obtained by iterating the filter.

    With P(w) the ordered product of transposed filter matrices along the
    dilation orbit of w (n factors), the identity is

        (1/N^n) sum_{z : z^(N^n) = 1} sum_i P_{i,j}(w z) conj(P_{i,j'}(w z))
            = delta_{j,j'} chi_{sigma_j}(w^(N^n)).

    For order 1 this reduces to the defining identity divided by N.
    Requires N**order to divide the number of cells and the supports to
    align with the correspondingly coarser grid.
    """
    if order < 1:
        raise ParameterError("order must be >= 1")
    n = filt.scale
    m = filt.cells
    if order > filt.grid.depth:
        raise ResolutionError(
            f"order {order} exceeds grid depth {filt.grid.depth}"
        )
    block = n**order
    mq = m // block
    target_grid = GridSpec(n, filt.grid.base, filt.grid.depth - order)
    if not filt.chain.aligned(target_grid):
        raise GridAlignmentError(
            f"supports do not align with the depth-{target_grid.depth} grid"
        )
    transposed = np.ascontiguousarray(np.transpose(filt.samples, (2, 1, 0)))
    indices = np.arange(m)
    prod = transposed[indices]
    # A non-finite sample leaves non-finite residuals, without warnings.
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, order):
            prod = prod @ transposed[(indices * n**k) % m]
        gram = np.einsum("tij,tik->jkt", prod, np.conj(prod))
        lhs = gram.reshape(filt.count, filt.count, block, mq).mean(axis=2)
    rhs = np.zeros((filt.count, filt.count, mq))
    masks = filt.sigma_masks(target_grid)
    for j in range(filt.count):
        rhs[j, j] = masks[j].astype(float)
    return _report_from_residuals(np.abs(lhs - rhs))


@dataclass(frozen=True)
class SupportReport:
    """Cells where the support rules fail, by category.

    ``column`` lists (i, j, cell) with a nonzero sample outside sigma_j;
    ``dilated_row`` lists those whose dilated cell leaves sigma_i.  Both
    are checked: ``clean()`` requires both to be empty, and it is the
    support half of the gate that verify, classify and spectrum share.
    """

    column: tuple[tuple[int, int, int], ...]
    dilated_row: tuple[tuple[int, int, int], ...]

    def clean(self) -> bool:
        return not self.column and not self.dilated_row


def support_violations(filt: FilterMatrix) -> SupportReport:
    c = filt.count
    mp = filt.cells // filt.scale
    fine_masks = filt.sigma_masks()
    coarse_masks = filt.sigma_masks(filt.coarse_grid())
    column = []
    dilated_row = []
    nz = filt.samples != 0
    for i in range(c):
        for j in range(c):
            for t in np.nonzero(nz[i, j] & ~fine_masks[j])[0]:
                column.append((i, j, int(t)))
            for t in np.nonzero(nz[i, j] & ~coarse_masks[i][np.arange(filt.cells) % mp])[0]:
                dilated_row.append((i, j, int(t)))
    return SupportReport(tuple(column), tuple(dilated_row))


def refine(filt: FilterMatrix) -> FilterMatrix:
    """Re-sample on the next finer grid; values are duplicated bit for bit."""
    return FilterMatrix(
        filt.scale,
        filt.chain,
        filt.grid.finer(),
        np.repeat(filt.samples, filt.scale, axis=2),
    )


# ---------------------------------------------------------------------------
# generators


def make_constant(depth: int = 4, scale: int = 2) -> FilterMatrix:
    """The multiplicity-one filter h = 1: the identity fails to dilate.

    Satisfies the defining identity exactly because the coset sum is
    1 + ... + 1 = N on the full circle, where N is ``scale``.
    """
    grid = GridSpec(scale, 1, depth)
    samples = np.ones((1, 1, grid.cells), dtype=np.complex128)
    return FilterMatrix(scale, SigmaChain.full_circle(1), grid, samples)


def make_haar(depth: int = 4) -> FilterMatrix:
    """The Haar low-pass filter h(x) = (1 + e^(2 pi i x)) / sqrt(2) at N = 2.

    Samples are taken at cell left endpoints on the first half of the
    circle; the partner cell a half turn away is then written as
    (1 - e^(2 pi i x)) / sqrt(2) from the same exponential, which makes the
    pair identity |h(x)|^2 + |h(x + 1/2)|^2 = 2 hold to rounding at every
    cell rather than only in the limit.
    """
    grid = GridSpec(2, 1, depth)
    m = grid.cells
    z = np.exp(2j * np.pi * np.arange(m // 2) / m)
    samples = np.concatenate([1 + z, 1 - z]) / SQRT2
    return FilterMatrix(2, SigmaChain.full_circle(1), grid, samples[None, None])


def make_shannon(depth: int = 4) -> FilterMatrix:
    """The Shannon filter: sqrt(2) on the quarter arcs around 0, else 0.

    The support [-1/4, 1/4) is a section of the doubling map over the full
    circle, so each coset of a cell meets the support exactly once and the
    coset sum is |sqrt(2)|^2 = 2 everywhere.
    """
    grid = GridSpec(2, 4, depth)
    support = IntervalSet.from_arcs([(Fraction(-1, 4), Fraction(1, 4))])
    samples = np.zeros((1, 1, grid.cells), dtype=np.complex128)
    samples[0, 0, support.cell_mask(grid)] = SQRT2
    return FilterMatrix(2, SigmaChain.full_circle(1), grid, samples)


def journe_sigma_chain() -> SigmaChain:
    """The two-member support chain of the Journe multiplicity function.

    sigma_1 = [-1/2, -3/7) u [-2/7, 2/7) u [3/7, 1/2)  (measure 5/7)
    sigma_2 = [-1/7, 1/7)                              (measure 2/7)
    """
    s1 = IntervalSet.from_arcs(
        [
            (Fraction(-1, 2), Fraction(-3, 7)),
            (Fraction(-2, 7), Fraction(2, 7)),
            (Fraction(3, 7), Fraction(1, 2)),
        ]
    )
    s2 = IntervalSet.from_arcs([(Fraction(-1, 7), Fraction(1, 7))])
    return SigmaChain.of([s1, s2])


def _journe_sets() -> dict[str, IntervalSet]:
    chain = journe_sigma_chain()
    return {
        "sigma1": chain.sigmas[0],
        "sigma2": chain.sigmas[1],
        # sections of the doubling map over sigma_1 and sigma_2
        "e1": IntervalSet.from_arcs(
            [
                (Fraction(-2, 7), Fraction(-1, 4)),
                (Fraction(-1, 7), Fraction(1, 7)),
                (Fraction(1, 4), Fraction(2, 7)),
            ]
        ),
        "e2": IntervalSet.from_arcs(
            [(Fraction(-1, 2), Fraction(-3, 7)), (Fraction(3, 7), Fraction(1, 2))]
        ),
        # supports of the two nonzero entries of the smooth family
        "band11": IntervalSet.from_arcs([(Fraction(-2, 7), Fraction(2, 7))]),
        "band12": IntervalSet.from_arcs([(Fraction(-1, 7), Fraction(1, 7))]),
    }


def make_journe_step(depth: int = 2, half_turn_phases: bool = False) -> FilterMatrix:
    """The classical two-channel Journe step filter.

    The two nonzero entries sit in the first column:

        h_11 = sqrt(2) on E_1,   h_21 = sqrt(2) on E_2,   h_12 = h_22 = 0,

    where E_1 and E_2 are disjoint sections of the doubling map over
    sigma_1 and sigma_2.  Each coset of a cell therefore meets each
    section at most once and the defining identity holds cell by cell.

    The printed form of this filter decorates the moduli with exponential
    phases e^(2 pi i chi_E); taken literally those phases equal 1, which is
    the default here.  ``half_turn_phases`` switches to e^(pi i chi_E),
    flipping the sign on each section.  Either way the moduli, and hence
    all residuals and certificates, are unchanged.
    """
    grid = GridSpec(2, 28, depth)
    sets = _journe_sets()
    sign = -1.0 if half_turn_phases else 1.0
    samples = np.zeros((2, 2, grid.cells), dtype=np.complex128)
    samples[0, 0, sets["e1"].cell_mask(grid)] = sign * SQRT2
    samples[1, 0, sets["e2"].cell_mask(grid)] = sign * SQRT2
    return FilterMatrix(2, journe_sigma_chain(), grid, samples)


# Half-width of the smoothed transitions of the Journe deformation.
JOURNE_EPS_SMOOTH = Fraction(1, 56)


@dataclass(frozen=True)
class JourneParams:
    """Parameters of the smooth one-parameter Journe deformation.

    ``r`` in (0, 1) is the deformation parameter (r -> 0 recovers the
    step profile); floats passed for it are kept at their exact binary
    value.  Every transition is smoothed over the half-width
    ``JOURNE_EPS_SMOOTH``, so the grid must resolve multiples of 1/56.
    """

    r: Union[RatLike, float]
    grid: GridSpec = GridSpec(2, 56, 2)

    def __post_init__(self) -> None:
        r = self.r
        object.__setattr__(
            self, "r", Fraction(r) if isinstance(r, float) else as_rat(r)
        )
        if not (0 < self.r < 1):
            raise ParameterError(f"r must lie in (0, 1), got {self.r}")
        if self.grid.scale != 2 or self.grid.depth < 1:
            raise ParameterError("the Journe family needs scale 2 and depth >= 1")
        m = self.grid.cells
        for p in self.breakpoints():
            if (p * m).denominator != 1:
                raise GridAlignmentError(
                    f"breakpoint {p} does not align with the {m}-cell grid"
                )

    def breakpoints(self) -> tuple[Fraction, ...]:
        e = JOURNE_EPS_SMOOTH
        return (
            Fraction(1, 7) - e,
            Fraction(3, 14) + e,
            Fraction(2, 7) - e,
            Fraction(5, 14) + e,
            Fraction(3, 7) - e,
            Fraction(3, 7) + e,
            Fraction(1, 2),
            Fraction(1, 7),
            Fraction(2, 7),
            Fraction(3, 7),
        )


def _transition(t: float) -> float:
    """Smooth monotone interpolant from 0 at t = 0 to 1 at t = 1."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    g0 = math.exp(-1.0 / t)
    g1 = math.exp(-1.0 / (1.0 - t))
    return g0 / (g0 + g1)


def journe_profile(params: JourneParams) -> np.ndarray:
    """Sample the scalar profile q of the smooth Journe family.

    On the first half of the circle q is piecewise: it falls from
    sqrt(2) sqrt(1 - r^2) at 0 to a zero plateau before 3/14, rises to a
    sqrt(2) plateau across [2/7, 5/14], falls back to a zero plateau
    around 3/7, and rises to sqrt(2) r at 1/2, each transition smoothed
    over the half-width JOURNE_EPS_SMOOTH.  Cells on the second half are
    then forced by the exact complement rule

        q(cell + 1/2) = sqrt(max(0, 2 - q(cell)^2)),

    which is what makes the coset identity of the assembled filter close
    to rounding at every cell.  Samples are taken at cell left endpoints.

    Each piece starts at b = p M, an integer (``JourneParams`` checks it), so
    x < p is t < b and a ramp argument is the int quotient (t - b_a)/(b_b - b_a),
    correctly rounded like float(Fraction).  ``_transition`` (libm exp) and
    the complement's x ** 2 (libm pow) stay scalar: array forms may round apart.
    """
    m = params.grid.cells
    r = float(params.r)
    b1, b2, b3, b4, b5, b6, half = (int(p * m) for p in params.breakpoints()[:7])

    def ramp(a: int, b: int) -> np.ndarray:
        return np.array([_transition((t - a) / (b - a)) for t in range(a, b)])
    q = np.zeros(m)
    q[:b1] = SQRT2 * math.sqrt(1.0 - r * r) * (1.0 - ramp(0, b1))
    q[b2:b3] = SQRT2 * ramp(b2, b3)
    q[b3:b4] = SQRT2
    q[b4:b5] = SQRT2 * (1.0 - ramp(b4, b5))
    q[b6:half] = SQRT2 * r * ramp(b6, half)
    q[half:] = [math.sqrt(max(0.0, 2.0 - x**2)) for x in q[:half].tolist()]
    return q


def make_journe_family(
    params: JourneParams,
    half_turn_phases: bool = False,
    profile: Optional[np.ndarray] = None,
) -> FilterMatrix:
    """The smooth Journe deformation assembled from the profile q.

    The nonzero entries are

        h_11(x) = q(x)        on [-2/7, 2/7),
        h_21(x) = sqrt(2)     on E_2 = [-1/2, -3/7) u [3/7, 1/2),
        h_12(x) = q(x + 1/2)  on [-1/7, 1/7),

    with h_22 = 0.  As with the step filter, the printed exponential
    phases are literally 1 by default and ``half_turn_phases`` flips the
    sign on each band without changing any modulus.  ``profile`` is q as
    ``journe_profile(params)`` returns it, for a caller that has sampled
    it already (``JourneDerivation.profile``); by default it is sampled here.
    """
    grid = params.grid
    m = grid.cells
    sets = _journe_sets()
    if profile is None:
        q = journe_profile(params)
    elif profile.shape == (m,):
        q = profile
    else:
        raise ParameterError(
            f"profile must have shape ({m},) on this grid, got {profile.shape}"
        )
    sign = -1.0 if half_turn_phases else 1.0
    samples = np.zeros((2, 2, m), dtype=np.complex128)
    samples[0, 0] = sign * q * sets["band11"].cell_mask(grid)
    samples[1, 0, sets["e2"].cell_mask(grid)] = sign * SQRT2
    samples[0, 1] = sign * np.roll(q, -(m // 2)) * sets["band12"].cell_mask(grid)
    return FilterMatrix(2, journe_sigma_chain(), grid, samples)
