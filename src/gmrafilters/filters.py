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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Union

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

    The filter keeps ``samples`` only when it is a read-only complex128
    array viewing no writable one; anything else is copied, since a
    caller's writable array, or an earlier view of it, could change the
    samples under the cached residual.  The builders in this package
    freeze their own arrays first, so they copy nothing.
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
        arr = self.samples
        base = getattr(arr, "base", None)
        if not (
            isinstance(arr, np.ndarray)
            and arr.dtype == np.complex128
            and not arr.flags.writeable
            and not (isinstance(base, np.ndarray) and base.flags.writeable)
        ):
            arr = np.array(arr, dtype=np.complex128)
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

    @cached_property
    def _deviation(self) -> np.ndarray:
        deviation = _coset_deviation(self)
        deviation.setflags(write=False)
        return deviation

    @cached_property
    def _residual(self) -> ResidualReport:
        return _report_from_residuals(np.abs(self._deviation))


class ResidualReport(NamedTuple):
    """Worst-case deviation from an identity, with a witness location.

    Ties are broken deterministically: the lowest cell index wins, then the
    lexicographically smallest index pair.
    """

    max_abs_residual: float
    argmax_cell: int
    argmax_pair: tuple[int, int]
    per_pair: dict[tuple[int, int], float]


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

    The coset translates of a fine cell are its fiber (``_fibers``), so
    both sides of the identity are constant on each fiber, and the report
    indexes witnesses by the lowest cell of the fiber.

    The deviation behind the report is cached on the filter, read-only, and
    ``generalized_filter_residual(filt, 1)`` and ``isometry_defect`` read
    it too, so a command forms the order-1 coset Gram matrix once.
    """
    return filt._residual


def _fibers(a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The fiber rule of x -> n x on the last axis of ``a``, M cells.

    x -> n x maps fine cell s onto coarse cell s mod M/n, and s lies
    inside coarse cell s // n.  Every map in the package between a grid
    and its n-times coarser one reads it here: as the view (..., n, M/n),
    whose entry [k, u] is s = k M/n + u, so column u is the fiber over
    coarse cell u; as the view (..., M/n, n), whose row u holds the n
    cells inside u; or, for a few cells, as ``_inside(k, u, n, M)``.
    """
    *lead, m = a.shape
    return a.reshape(*lead, n, m // n), a.reshape(*lead, m // n, n)


def _inside(k, u, n: int, cells: int):
    """The coarse cell that fiber entry [k, u] lies inside (``_fibers``)."""
    return (k * (cells // n) + u) // n


def _coset_deviation(filt: FilterMatrix, order: int = 1) -> np.ndarray:
    """Left side minus right side of the order-n identity, per target cell.

    The order-n identity is the defining identity of the orbit product
    Q(x) = H(N^(n-1) x) ... H(N x) H(x) at dilation N^n.  With
    M' = M / N^n, returns the complex (c, c, M') array
    G(u) - N^n diag(chi_sigma_i(u)), where
    G(u) = sum_k Q(u + k M') Q(u + k M')* is the coset Gram matrix and
    chi the support masks on the M'-cell grid.
    """
    n = filt.scale
    product = filt.samples
    for k in range(1, order):
        # H(N^k x) is the first sample inside the M/N^k cell x maps onto.
        step = _fibers(filt.samples, n**k)[1][..., 0]
        over, _ = _fibers(product, n**k)
        product = np.einsum("ijt,jkbt->ikbt", step, over).reshape(product.shape)
    over, _ = _fibers(product, n**order)
    gram = np.einsum("ijkt,pjkt->ipt", over, np.conj(over))
    target = GridSpec(n, filt.grid.base, filt.grid.depth - order)
    for i, mask in enumerate(filt.sigma_masks(target)):
        gram[i, i] -= n**order * mask
    return gram


def generalized_filter_residual(filt: FilterMatrix, order: int) -> ResidualReport:
    """Check the n-step product identity obtained by iterating the filter.

    It is the defining identity of the orbit product
    Q(x) = H(N^(n-1) x) ... H(N x) H(x) at dilation N^n, divided by N^n:

        (1/N^n) sum_{z : z^(N^n) = 1} sum_j Q_{i,j}(w z) conj(Q_{i',j}(w z))
            = delta_{i,i'} chi_{sigma_i}(w^(N^n)).

    Order 1 is the defining residual divided by N, from the cached
    deviation.  Requires N**order to divide the number of cells and the
    supports to align with the correspondingly coarser grid.
    """
    if order < 1:
        raise ParameterError("order must be >= 1")
    n = filt.scale
    if order > filt.grid.depth:
        raise ResolutionError(
            f"order {order} exceeds grid depth {filt.grid.depth}"
        )
    target_grid = GridSpec(n, filt.grid.base, filt.grid.depth - order)
    if not filt.chain.aligned(target_grid):
        raise GridAlignmentError(
            f"supports do not align with the depth-{target_grid.depth} grid"
        )
    # A non-finite sample leaves non-finite residuals, without warnings.
    with np.errstate(invalid="ignore", over="ignore"):
        deviation = filt._deviation if order == 1 else _coset_deviation(filt, order)
        return _report_from_residuals(np.abs(deviation) / n**order)


def isometry_defect(filt: FilterMatrix) -> tuple[float, int]:
    """Exact worst deviation of ||S_H f||^2 from ||f||^2 over unit fields.

    For a coarse field f, ||S_H f||^2 - ||f||^2 = (1/M) sum_u f(u)* D(u) f(u),
    where D(u) is the conjugate of the coset Gram matrix
    sum_k H(u + k M/N) H(u + k M/N)* minus N I, restricted to the
    components whose support holds coarse cell u: the entries whose moduli
    ``filter_equation_residual`` reports, read from the deviation it
    caches.  As ||f||^2 = (N/M) sum_u |f(u)|^2, the Rayleigh quotient
    bound for the Hermitian D(u) makes the worst case max_u ||D(u)||_2 / N,
    reached by the field concentrated on that u along the top
    eigenvector.  Returns it with the lowest coarse cell u that attains it.

    ||D(u)||_2 is |D(u)| for c = 1, |a + d|/2 + hypot((a - d)/2, |b|) for
    [[a, b], [b*, d]] at c = 2, and the largest |eigenvalue| from
    ``eigvalsh`` only for c >= 3.  A cell with a non-finite entry takes
    its largest |entry| instead: NaN if any entry is NaN (so a NaN is the
    witness and fails a ``<= tol`` gate), else inf, as for a sample whose
    square overflows, without a warning.  A NaN or inf outside the
    supports reads as NaN, as it does for the probes.
    """
    masks = np.array(filt.sigma_masks(filt.coarse_grid()))
    c = filt.count
    with np.errstate(invalid="ignore", over="ignore"):
        d = filt._deviation * (masks[:, None] & masks[None, :])
        norms = np.abs(d).max(axis=(0, 1))
        finite = np.isfinite(norms)
        if c == 2:
            a, b, e = d[0, 0, finite].real, d[0, 1, finite], d[1, 1, finite].real
            norms[finite] = np.abs(a + e) / 2 + np.hypot((a - e) / 2, np.abs(b))
        elif c > 2:
            stack = np.moveaxis(d[:, :, finite], 2, 0)
            norms[finite] = np.abs(np.linalg.eigvalsh(stack)).max(axis=1)
        witness = int(np.argmax(norms))
        return float(norms[witness] / filt.scale), witness


class SupportReport(NamedTuple):
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
    fine = np.array(filt.sigma_masks())
    coarse = np.array(filt.sigma_masks(filt.coarse_grid()))
    nz = filt.samples != 0
    # argwhere lists (i, j, cell) in row-major order: by i, then j, then cell.
    column = np.argwhere(nz & ~fine[None])
    over, _ = _fibers(nz, filt.scale)
    dilated_row = np.argwhere((over & ~coarse[:, None, None]).reshape(nz.shape))
    return SupportReport(
        tuple(map(tuple, column.tolist())), tuple(map(tuple, dilated_row.tolist()))
    )


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only, for a ``FilterMatrix`` to keep without a copy."""
    arr.setflags(write=False)
    return arr


def refine(filt: FilterMatrix) -> FilterMatrix:
    """Re-sample on the next finer grid; values are duplicated bit for bit."""
    grid = filt.grid.finer()
    samples = np.empty((filt.count, filt.count, grid.cells), dtype=np.complex128)
    _fibers(samples, filt.scale)[1][...] = filt.samples[..., None]
    return FilterMatrix(filt.scale, filt.chain, grid, _frozen(samples))


# ---------------------------------------------------------------------------
# generators


def make_constant(depth: int = 4, scale: int = 2) -> FilterMatrix:
    """The multiplicity-one filter h = 1: the identity fails to dilate.

    Satisfies the defining identity exactly because the coset sum is
    1 + ... + 1 = N on the full circle, where N is ``scale``.
    """
    grid = GridSpec(scale, 1, depth)
    samples = np.ones((1, 1, grid.cells), dtype=np.complex128)
    return FilterMatrix(scale, SigmaChain.full_circle(1), grid, _frozen(samples))


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
    samples = _frozen(np.concatenate([1 + z, 1 - z]) / SQRT2)
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
    return FilterMatrix(2, SigmaChain.full_circle(1), grid, _frozen(samples))


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
    return FilterMatrix(2, journe_sigma_chain(), grid, _frozen(samples))


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
        if isinstance(r, float) and not math.isfinite(r):
            raise ParameterError(f"r must lie in (0, 1), got {r!r}")
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

    @cached_property
    def _profile(self) -> np.ndarray:
        # Each piece starts at b = p M, an integer (``__post_init__`` checks
        # it), so x < p is t < b.  The complement's x ** 2 (libm pow) stays
        # scalar: an array square may round apart.
        m = self.grid.cells
        r = float(self.r)
        b1, b2, b3, b4, b5, b6, half = (int(p * m) for p in self.breakpoints()[:7])
        q = np.zeros(m)
        q[:b1] = SQRT2 * math.sqrt(1.0 - r * r) * (1.0 - _ramp(b1))
        q[b2:b3] = SQRT2 * _ramp(b3 - b2)
        q[b3:b4] = SQRT2
        q[b4:b5] = SQRT2 * (1.0 - _ramp(b5 - b4))
        q[b6:half] = SQRT2 * r * _ramp(half - b6)
        q[half:] = [math.sqrt(max(0.0, 2.0 - x**2)) for x in q[:half].tolist()]
        q.flags.writeable = False
        return q


def _ramp(n: int) -> np.ndarray:
    """The smooth monotone step g0 / (g0 + g1), g0 = exp(-1/t) and
    g1 = exp(-1/(1 - t)), at t = k/n for k = 0, ..., n - 1; 0 at t = 0.

    Each t is the int quotient k/n, correctly rounded like float(Fraction),
    and each exp is libm's through ``math.exp``, since numpy's may round
    apart.
    """
    t = np.arange(1, n) / n
    g0 = np.fromiter(map(math.exp, (-1.0 / t).tolist()), float, n - 1)
    g1 = np.fromiter(map(math.exp, (-1.0 / (1.0 - t)).tolist()), float, n - 1)
    return np.concatenate(([0.0], g0 / (g0 + g1)))


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

    The profile is sampled on the first call for a ``JourneParams`` and
    cached on it, read-only, so ``derive_journe`` and
    ``make_journe_family`` share one sampling.
    """
    return params._profile


def make_journe_family(
    params: JourneParams, half_turn_phases: bool = False
) -> FilterMatrix:
    """The smooth Journe deformation assembled from the profile q.

    The nonzero entries are

        h_11(x) = q(x)        on [-2/7, 2/7),
        h_21(x) = sqrt(2)     on E_2 = [-1/2, -3/7) u [3/7, 1/2),
        h_12(x) = q(x + 1/2)  on [-1/7, 1/7),

    with h_22 = 0, and q is ``journe_profile(params)``, sampled once per
    ``params``.  As with the step filter, the printed exponential phases
    are literally 1 by default and ``half_turn_phases`` flips the sign on
    each band without changing any modulus.
    """
    grid = params.grid
    m = grid.cells
    sets = _journe_sets()
    q = journe_profile(params)
    sign = -1.0 if half_turn_phases else 1.0
    samples = np.zeros((2, 2, m), dtype=np.complex128)
    samples[0, 0] = sign * q * sets["band11"].cell_mask(grid)
    samples[1, 0, sets["e2"].cell_mask(grid)] = sign * SQRT2
    samples[0, 1] = sign * np.roll(q, -(m // 2)) * sets["band12"].cell_mask(grid)
    return FilterMatrix(2, journe_sigma_chain(), grid, _frozen(samples))
