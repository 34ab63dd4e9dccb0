"""The operator attached to a filter, its adjoint, and purity analysis.

A filter H acts on vector step functions by the weighted composition

    (S_H f)_j(x) = sum_i H_{i,j}(x) f_i(x^N),

an exact isometry of the graded step spaces whenever the defining filter
identity holds.  Its adjoint averages over dilation fibers,

    (S_H* g)_i(y) = (1/N) sum_{x : x^N = y} conj(H_{i,j}(x)) g_j(x),

and the central dichotomy is spectral: S_H fails to be a pure isometry
precisely when it has an eigenvector of modulus-one eigenvalue, and any
such eigenvector has pointwise norm one almost everywhere.  For a filter
constant on the cells of grid M, every such eigenvector is a step field
f on the coarse grid M/N, and S_H f = lam f reads, fine cell by fine
cell, H(s)^T f(s mod M/N) = lam f(s // N) by the fiber rule that every
map here reads from ``filters._fibers``.  Fine cell 0 is the dilation's
fixed point: there the relation is H(0)^T f(0) = lam f(0), and every
other coarse cell follows from f(0), so lam is an eigenvalue of the
c x c matrix H(0)^T (the cocycle picture of Bratteli and Jorgensen,
Wavelets through a Looking Glass, 2002).

``classify_purity`` decides at that cell (see ``FixedCell``) and builds
no matrix of the operator.  ``transfer_spectrum``, the path of the
``spectrum`` command, solves the quotient matrix K = adjoint o include
on the coarse step space for its eigenvalues, for the coarsest filter
that refines to the given one, one strongly connected component of K's
graph at a time, and takes its eigenpairs on the circle from the same
cell 0 analysis.
"""

from __future__ import annotations

import math
import operator
import random
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionCapError, ParameterError, ResolutionError
from .filters import (
    FilterMatrix,
    StepFn,
    _fibers,
    _inside,
    _run_starts,
    _verification_failure,
    filter_equation_residual,
    support_violations,
)
from . import smallmat
from .torus import GridSpec, SigmaChain

__all__ = [
    "VecField",
    "TransferMatrix",
    "TransferSpectrum",
    "EigenPair",
    "FixedCell",
    "PurityVerdict",
    "PURE_CERTIFIED",
    "PURE_AT_RESOLUTION",
    "NOT_PURE_CERTIFIED",
    "INCONCLUSIVE",
    "ruelle_apply",
    "transfer_apply",
    "isometry_residual",
    "assemble_transfer_matrix",
    "transfer_spectrum",
    "classify_purity",
    "martingale_sequence",
    "decay_probe",
    "random_vecfield",
]

PURE_CERTIFIED = "pure_certified"
PURE_AT_RESOLUTION = "pure_at_resolution"
NOT_PURE_CERTIFIED = "not_pure_certified"
INCONCLUSIVE = "inconclusive"

# Default tolerances of the purity analysis; the library signatures and
# the command line defaults all read these.
TOL_EIG = 1e-8
TOL_RES = 1e-9
TOL_NORM = 1e-6
VERIFY_TOL = 1e-10

# The largest dense block ``spectrum`` solves, counted in the fine
# coordinates its rows of K stand for.
DIM_CAP = 4096

# Unit roundoff of float64, the u of the rounding allowance.
UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0
# Moduli this close to the largest, relatively, tie for the phase reference:
# on a unimodular field they differ in the last bits, which must not choose.
_PHASE_RTOL = 1e-8
# The highest kernel order the martingale diagnostic checks.
MARTINGALE_MAX_ORDER = 3


@dataclass(frozen=True, eq=False)
class VecField:
    """A vector of step functions, component i supported in sigma_i."""

    chain: SigmaChain
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape != (self.chain.count, self.grid.cells):
            raise ParameterError(
                f"expected values of shape "
                f"{(self.chain.count, self.grid.cells)}, got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        for i, sigma in enumerate(self.chain.sigmas):
            off = ~sigma.cell_mask(self.grid)
            if np.any(arr[i, off] != 0):
                raise ParameterError(
                    f"component {i} carries mass outside sigma_{i + 1}"
                )

    @classmethod
    def masked(
        cls, chain: SigmaChain, grid: GridSpec, values: np.ndarray
    ) -> "VecField":
        """Build a field by zeroing everything outside the supports."""
        arr = np.array(values, dtype=np.complex128)
        for i, sigma in enumerate(chain.sigmas):
            arr[i, ~sigma.cell_mask(grid)] = 0.0
        return cls(chain, grid, arr)

    @classmethod
    def ones(cls, chain: SigmaChain, grid: GridSpec) -> "VecField":
        return cls.masked(
            chain, grid, np.ones((chain.count, grid.cells), dtype=np.complex128)
        )

    def norm(self) -> float:
        """Quadrature norm: sqrt of the cell-averaged squared modulus."""
        return float(
            np.sqrt(np.sum(np.abs(self.values) ** 2) / self.grid.cells)
        )

    def inner(self, other: "VecField") -> complex:
        if other.grid != self.grid:
            raise ResolutionError("inner product needs a common grid")
        return complex(
            np.sum(self.values * np.conj(other.values)) / self.grid.cells
        )

    def pointwise_norms(self) -> np.ndarray:
        """The vector norm ||f(cell)|| at every cell."""
        return np.sqrt(np.sum(np.abs(self.values) ** 2, axis=0))

    def refine(self) -> "VecField":
        grid = self.grid.finer()
        values = np.empty((self.chain.count, grid.cells), dtype=np.complex128)
        _fibers(values, self.grid.scale)[1][...] = self.values[:, :, None]
        return VecField(self.chain, grid, values)

    def scaled(self, factor: complex) -> "VecField":
        return VecField(self.chain, self.grid, self.values * factor)


def random_vecfield(chain: SigmaChain, grid: GridSpec, rng) -> VecField:
    """I.i.d. samples uniform on the unit disk, masked to the supports.

    These are the probes of ``isometry_residual``, which ``verify`` draws
    only when asked to (``--trials``), and the random fields of the tests.
    ``rng`` is anything with numpy's ``random(shape)``, returning doubles
    uniform on [0, 1): a ``numpy.random.Generator``, or the standard
    library's Mersenne Twister source that ``isometry_residual`` seeds
    (numpy.random stays unloaded there: its seeding imports OpenSSL
    through ``secrets``, 5.4 MB and 15 ms per ``verify``).  Radius and
    angle come from one draw of shape (2, count, cells); for a numpy
    Generator that gives the same values as two draws of (count, cells).
    """
    radius, turns = rng.random((2, chain.count, grid.cells))
    angle = 2.0 * np.pi * turns
    return VecField.masked(chain, grid, np.sqrt(radius) * np.exp(1j * angle))


class _MersenneUniform:
    """Doubles on [0, 1) from the standard library's Mersenne Twister:
    each is one 32-bit little-endian word of ``randbytes`` times 2**-32."""

    def __init__(self, seed: int):
        self._bits = random.Random(seed)

    def random(self, shape: tuple) -> np.ndarray:
        words = np.frombuffer(self._bits.randbytes(4 * math.prod(shape)), "<u4")
        return (words * 2.0**-32).reshape(shape)


def _pull(filt: FilterMatrix, values: np.ndarray) -> np.ndarray:
    """Fine values sum_i H_ij(x) values_i(x^N) of coarse values (c, M/N);
    H is read fiber by fiber (``filters._fibers``), so nothing is tiled."""
    over, _ = _fibers(filt.samples, filt.scale)
    return np.einsum("ijkt,it->jkt", over, values).reshape(len(values), -1)


def _eigen_residual(filt: FilterMatrix, f: np.ndarray, lam: complex) -> np.ndarray:
    """S_H f - lam f on the fine grid, for the coarse values (c, M/N) of f."""
    image = _pull(filt, f)
    _fibers(image, filt.scale)[1][...] -= lam * f[:, :, None]
    return image


def ruelle_apply(filt: FilterMatrix, f: VecField) -> VecField:
    """Apply the operator: (S_H f)_j(x) = sum_i H_{i,j}(x) f_i(x^N).

    The input lives on the coarser grid of the filter, and the output is
    a fine step field, supported in sigma_j column by column whenever the
    filter obeys its support rule.
    """
    if f.grid != filt.coarse_grid():
        raise ResolutionError("input field must live on the filter's coarse grid")
    return VecField(filt.chain, filt.grid, _pull(filt, f.values))


def _adjoint_weights(filt: FilterMatrix) -> np.ndarray:
    """The adjoint's entry rule: fine coordinate (j, s) enters coarse
    coordinate (i, u), u the cell s maps onto, with weight conj(H_ij(s))/N,
    held at [i, j, k, u] for the fiber entry [k, u] of s (``_fibers``)."""
    return _fibers(np.conj(filt.samples) / filt.scale, filt.scale)[0]


def transfer_apply(filt: FilterMatrix, g: VecField) -> VecField:
    """Apply the adjoint: average conj(H) against g over each dilation fiber."""
    if g.grid != filt.grid:
        raise ResolutionError("input field must live on the filter's fine grid")
    over, _ = _fibers(g.values, filt.scale)
    out = np.einsum("ijkt,jkt->it", _adjoint_weights(filt), over)
    return VecField(filt.chain, filt.coarse_grid(), out)




def isometry_residual(
    filt: FilterMatrix, trials: int = 20, seed: int = 0
) -> float:
    """Worst deviation of ||S_H f||^2 from ||f||^2 over random probes.

    An estimate from below of ``isometry_defect``'s exact worst case: each
    probe evaluates the same quadratic form in one random direction, so
    every deviation it reports is at most that worst case times ||f||^2
    (up to rounding), and it serves as the oracle for it.  With
    ``trials=0`` it draws nothing and returns 0.0.

    A NaN deviation makes the worst NaN, so a gate ``<= tol`` fails it.
    The image is not checked against the supports (a filter that breaks
    its support rule is reported, not refused), and a huge finite sample
    gives an infinite deviation without a warning.

    The probes are drawn one trial at a time from the standard library's
    Mersenne Twister seeded with ``seed`` (an integer >= 0 of any size),
    not from numpy.random: seeding numpy's generators imports OpenSSL
    through ``secrets``, which costs every ``verify`` process about
    5.4 MB of peak RSS and 15 ms.  A given seed therefore draws other
    fields, and gives another deviation in its last bits, than versions
    that used ``numpy.random.default_rng``.
    """
    trials, seed = operator.index(trials), operator.index(seed)
    if trials < 0:
        raise ParameterError("trials must be an integer >= 0")
    if seed < 0:
        raise ParameterError("seed must be an integer >= 0")
    rng = _MersenneUniform(seed)
    coarse = filt.coarse_grid()
    deviations = []
    for _ in range(trials):
        f = random_vecfield(filt.chain, coarse, rng)
        with np.errstate(over="ignore", invalid="ignore"):
            image = _pull(filt, f.values)
            image_norm = float(np.sqrt(np.sum(np.abs(image) ** 2) / filt.cells))
        deviations.append(abs(image_norm**2 - f.norm() ** 2))
    return float(np.max(deviations, initial=0.0))


class TransferMatrix(NamedTuple):
    """The quotient matrix K of "include, then apply the adjoint", as triplets.

    K[rows[t], cols[t]] = weights[t], one triplet per entry that any
    weight lands on, every other entry zero.  The basis is a
    (dimension, 2) array of (component i, coarse cell u) rows,
    lexicographic, holding the cells of the filter's coarse grid whose
    block of N fine cells meets sigma_i.  K and the fine matrix "apply the
    adjoint, then include" are BA and AB for the same pair of maps, so the
    fine spectrum is K's followed by ``fine_dimension - dimension`` zeros.
    """

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    basis: np.ndarray
    fine_dimension: int

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def matrix(self) -> np.ndarray:
        """K as a dense array, built on each read; ``DIM_CAP`` binds the
        fine dimension, and ``transfer_spectrum`` never reads it."""
        _check_cap(self.fine_dimension)
        matrix = np.zeros((self.dimension, self.dimension), dtype=np.complex128)
        matrix[self.rows, self.cols] = self.weights
        return matrix


def _check_cap(dimension: int) -> None:
    if dimension > DIM_CAP:
        raise DimensionCapError(
            f"transfer matrix dimension {dimension} exceeds cap {DIM_CAP}"
        )


def assemble_transfer_matrix(filt: FilterMatrix) -> TransferMatrix:
    """The quotient matrix K on the coarse step space, as summed triplets.

    This is ``_adjoint_weights`` written as a matrix, each fine
    coordinate read from the coarse cell it lies inside (``_fibers``).
    Weights landing on one entry are summed in the order ``np.add.at``
    adds them, which happens when the coarse grid has fewer than N cells;
    a sum can be exactly zero, and entries in the supports can be zero
    samples.  Nothing dense is allocated, so no cap applies here.
    """
    n = filt.scale
    over, inside = _fibers(np.array(filt.sigma_masks()), n)
    # The fine step space's (component j, fiber entry [k, u]): sigma_j's cells.
    fine = np.argwhere(over)
    comp, k, u = fine.T
    coarse = inside.any(axis=-1)
    basis = np.argwhere(coarse)
    position = np.full(coarse.shape, -1)
    position[coarse] = np.arange(len(basis))
    rows = position[:, u]
    cols = np.broadcast_to(position[comp, _inside(k, u, n, filt.cells)], rows.shape)
    weights = _adjoint_weights(filt)[:, comp, k, u]
    keep = rows >= 0
    triplets = _summed(len(basis), rows[keep], cols[keep], weights[keep])
    return TransferMatrix(*triplets, basis, len(fine))


def _summed(size: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray):
    """One triplet per entry of a size x size matrix, in row-major order,
    its weights summed as ``np.add.at`` on the dense matrix sums them."""
    keys = rows * size + cols
    order = np.argsort(keys, kind="stable")
    new = np.diff(keys[order], prepend=-1) != 0
    slot = np.empty_like(order)
    slot[order] = np.cumsum(new) - 1
    summed = np.zeros(int(new.sum()), dtype=weights.dtype)
    np.add.at(summed, slot, weights)
    return *np.divmod(keys[order][new], max(size, 1)), summed


class EigenPair(NamedTuple):
    """A certified eigenpair of the operator itself (not the adjoint)."""

    eigenvalue: complex
    fld: VecField
    residual: float
    unit_norm_dev: float
    unit_norm_ok: bool
    passed: bool


def _candidate_rows(eigenvalues: np.ndarray, tol_eig: float) -> np.ndarray:
    """The rows of the eigenvalues within ``tol_eig`` of the unit circle."""
    return np.nonzero(np.abs(np.abs(eigenvalues) - 1.0) <= tol_eig)[0]


def _by_modulus(eigenvalues: np.ndarray) -> np.ndarray:
    """Descending modulus, real part, imaginary part; exact ties keep their order."""
    z = eigenvalues.astype(np.complex128)
    return z[np.lexsort((-z.imag, -z.real, -np.abs(z)))]


def _clusters(eigenvalues: np.ndarray, rows: np.ndarray, tol_res: float) -> list:
    """Group candidate rows, in order: a row joins the first cluster whose
    leading eigenvalue lies within ``tol_res`` of its own, so only
    eigenvalues that agree to the acceptance tolerance share an eigenspace.
    """
    clusters: list[list[int]] = []
    for k in rows.tolist():
        for cluster in clusters:
            if abs(eigenvalues[k] - eigenvalues[cluster[0]]) <= tol_res:
                cluster.append(k)
                break
        else:
            clusters.append([k])
    return clusters


def _canonical_field(chain: SigmaChain, grid: GridSpec, values: np.ndarray) -> VecField:
    """A field with its first near-largest entry real and positive, at unit norm."""
    mod = np.abs(values)
    pval = values.flat[int(np.argmax(mod >= (1.0 - _PHASE_RTOL) * mod.max()))]
    if pval != 0:
        values = values * (np.conj(pval) / abs(pval))
    return _unit(VecField.masked(chain, grid, values))


def _unit(f: VecField) -> VecField:
    """The field scaled to unit norm; the zero field comes back as is."""
    nrm = f.norm()
    return f.scaled(1.0 / nrm) if nrm > 0 else f


def _retest(
    filt: FilterMatrix, f: VecField, lam: complex, tol_res: float, tol_norm: float
) -> EigenPair:
    """Re-test a coarse field directly against S_H f = lam f.

    The pair records the quadrature residual ||S_H f - lam f||, and passes
    when it is within ``tol_res`` (a NaN residual fails).  It also records
    the largest deviation of ||f(cell)|| from one over the cells of
    sigma_1, where an eigenvector of a non-pure operator must have unit
    pointwise norm, judged against ``tol_norm``.
    """
    deviation = np.abs(_eigen_residual(filt, f.values, lam))
    residual = float(np.sqrt(np.sum(deviation**2) / filt.cells))
    norms = f.pointwise_norms()[filt.chain.positive_set().cell_mask(f.grid)]
    dev = float(np.abs(norms - 1.0).max()) if norms.size else 0.0
    return EigenPair(lam, f, residual, dev, dev <= tol_norm, residual <= tol_res)


class TransferSpectrum(NamedTuple):
    """The spectrum of K and the rows the operator's eigenpairs carry.

    ``eigenvalues`` is the fine spectrum, one row per coordinate of the
    given filter's fine step space: the solved K's eigenvalues by
    descending modulus, then real part, then imaginary part, then an exact
    zero for every coordinate the fine space adds.  ``fixed_cell`` is the
    filter's cell 0 analysis, as ``classify_purity`` carries it, and
    ``passing_flags`` marks the rows its accepted pairs vouch for.
    ``components`` holds the sizes, in coordinates of K, of the nontrivial
    strongly connected components K was solved on, largest first.
    """

    eigenvalues: np.ndarray
    passing_flags: np.ndarray
    fixed_cell: FixedCell
    components: tuple[int, ...]


def _coarsest(filt: FilterMatrix) -> tuple[FilterMatrix, int]:
    """The coarsest filter whose ``refine``s give ``filt``, and how many levels.

    It is L levels down for the largest L at which every run of the
    samples (``filters._run_starts``) starts at a multiple of N^L, the
    coarser filter keeps depth >= 1, and the support chain aligns with its
    own coarse grid.  A run never joins -0.0 to 0.0, nor a NaN to anything.
    """
    n, grid, step = filt.scale, filt.grid, 1
    starts = _run_starts(filt.samples)
    while (
        grid.depth >= 2
        and filt.chain.aligned(grid.coarser().coarser())
        and not np.any(starts % (step * n))
    ):
        grid, step = grid.coarser(), step * n
    if step == 1:
        return filt, 0
    coarse = FilterMatrix(n, filt.chain, grid, filt.samples[..., ::step])
    return coarse, filt.grid.depth - grid.depth


def transfer_spectrum(
    filt: FilterMatrix, tol_eig: float = TOL_EIG, tol_res: float = TOL_RES
) -> TransferSpectrum:
    """The fine spectrum of the filter, solved on the coarsest grid it repeats on.

    A filter that is the ``refine`` of a coarser one (see ``_coarsest``)
    has the coarser filter's K spectrum plus zeros: its detail part is
    nilpotent, by (I - E_{L/N}) S_H* = S_H* (I - E_L).  So K is solved
    there, eigenvalues only, and the fine spectrum is padded with exact
    zeros up to this filter's own fine dimension; solving the fine K
    instead would smear those zeros, a Jordan block of size k to about
    u^(1/k).  K is solved as the diagonal blocks of its Frobenius normal
    form: each nontrivial strongly connected component (more than one
    node, or a self-loop) of the graph of its nonzero entries is a dense
    block, in real arithmetic when it is real, and every other node is an
    exact zero.  ``DIM_CAP`` binds the largest such component, counted in
    the fine coordinates its nodes stand for.  Every eigenvalue lambda of
    K within ``tol_eig`` of the unit circle is a candidate, and no
    eigenvector of K is computed: each eigenpair of the operator on the
    circle is fixed at cell 0 (``_fixed_cell``, run on this filter).  In
    row order, a candidate passes when an accepted pair not yet taken
    lies within ``tol_res`` of conj(lambda).
    """
    coarse, levels = _coarsest(filt)
    tm = assemble_transfer_matrix(coarse)
    edge = tm.weights != 0
    rows, cols, weights = tm.rows[edge], tm.cols[edge], tm.weights[edge]
    label = smallmat.strong_components(tm.dimension, rows, cols)
    sizes = np.bincount(label)
    nontrivial = sizes > 1
    nontrivial[label[rows[rows == cols]]] = True
    # A node (i, u) stands for sigma_i's fine cells inside coarse cell u.
    stands = _fibers(np.array(coarse.sigma_masks()), coarse.scale)[1].sum(axis=-1)
    fine = np.bincount(label, stands[tuple(tm.basis.T)])
    _check_cap(int(fine[nontrivial].max(initial=0)))
    solved = _by_modulus(smallmat.block_eigenvalues(label, nontrivial, rows, cols, weights))
    block = filt.scale**levels
    # The fine spectrum: K's eigenvalues, then the zeros only the fine
    # space carries, which sort after every nonzero eigenvalue and after
    # K's own zeros.  They are never candidates; zero could not pass, as
    # ||S_H f|| = ||f|| = 1.
    eigenvalues = np.zeros(tm.fine_dimension * block, dtype=solved.dtype)
    eigenvalues[: len(solved)] = solved
    passing_flags = np.zeros(len(eigenvalues), dtype=bool)
    cell = _fixed_cell(filt, tol_eig, tol_res, TOL_NORM)
    free = [p.eigenvalue for p in cell.candidates if p.passed]
    for k in _candidate_rows(solved, tol_eig).tolist():
        lam = complex(solved[k]).conjugate()
        near = [mu for mu in free if abs(mu - lam) <= tol_res]
        if near:
            free.remove(near[0])
            passing_flags[k] = True
    components = tuple(sorted(sizes[nontrivial].tolist(), reverse=True))
    return TransferSpectrum(eigenvalues, passing_flags, cell, components)


class FixedCell(NamedTuple):
    """The purity analysis at fine cell 0, the fixed point of the dilation.

    ``eigenvalues`` (spec H(0)^T, ordered as in ``TransferSpectrum``),
    ``margin`` and ``allowance`` are those of ``_cell_zero_spectrum``.
    ``candidates`` holds, for each eigenvalue within tol_eig of the
    circle, in cluster order, the re-tested pair of the field propagated
    from it; its ``passed`` is the verdict.
    """

    eigenvalues: np.ndarray
    margin: float
    allowance: float
    candidates: tuple[EigenPair, ...]


def _cell_zero_spectrum(h0: np.ndarray) -> tuple[np.ndarray, float, float]:
    """spec H(0)^T, its margin min |1 - |mu|| from the circle, and r.

    r bounds each eigenvalue's rounding error.  For c = 1 the eigenvalue is
    the sample H(0) itself and only |mu| is rounded: r = 2u, u the unit
    roundoff.  For c >= 2, ``smallmat.eigen_condition`` solves H(0)^T + E
    exactly with ||E||_2 <= p(c) u ||H(0)||_F, p(c) = c^2 standing for its
    modest growth factor, so by Bauer-Fike r = cond_2(V) p(c) u ||H(0)||_F,
    V the computed unit eigenvectors.  r is infinite for a non-finite
    H(0), or when V is singular to working precision
    (cond_2(V) p(c) u >= 1), as for a defective H(0)^T.
    """
    c = len(h0)
    if not np.isfinite(h0).all():
        eigenvalues, allowance = np.full(c, complex(math.nan, math.nan)), math.inf
    elif c == 1:
        eigenvalues, allowance = h0[0], 2.0 * UNIT_ROUNDOFF
    else:
        eigenvalues, cond = smallmat.eigen_condition(h0.T)
        spread = cond * c * c * UNIT_ROUNDOFF
        # Written so that a NaN condition number gives an infinite r.
        allowance = spread * float(np.linalg.norm(h0)) if spread < 1.0 else math.inf
    eigenvalues = _by_modulus(eigenvalues)
    margin = float(np.abs(1.0 - np.abs(eigenvalues)).min())
    return eigenvalues, margin, allowance


def _rules_out_the_circle(margin: float, allowance: float, tol_eig: float) -> bool:
    """Whether spec H(0)^T lies farther than tol_eig + r off the circle.

    A NaN margin or tolerance, a negative tolerance and an infinite r
    never certify.
    """
    return bool(tol_eig >= 0.0 and margin > tol_eig + allowance)


def _propagate(filt: FilterMatrix, start: np.ndarray, lam: complex) -> np.ndarray:
    """Coarse fields (m, c, M/N) from their cell 0 values ``start`` (m, c).

    Fine cell s carries the eigenvector relation H(s)^T f(N s) = lam f(t)
    from its image N s to the coarse cell t it lies inside (``_fibers``).
    Level by level from cell 0, each coarse cell first reached from the
    level before is set through the first fine cell reaching it, over the
    fibers of that level's cells in ascending order.  All are reached:
    each coarse cell has N fine cells in and N out, and the N inside u
    all lead to u: a balanced connected graph is strongly connected.
    """
    n = filt.scale
    over, _ = _fibers(filt.samples, n)
    values = np.zeros((len(start), filt.count, filt.coarse_grid().cells), complex)
    values[:, :, 0] = start
    known = np.zeros(values.shape[2], dtype=bool)
    known[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        k, u = np.meshgrid(np.arange(n), frontier)
        inside = _inside(k, u, n, filt.cells)
        new = ~known[inside]
        frontier, first = np.unique(inside[new], return_index=True)
        known[frontier] = True
        k, u = k[new][first], u[new][first]
        step = np.einsum("ijs,kis->kjs", over[:, :, k, u], values[:, :, u])
        values[:, :, frontier] = step / lam
    return values


def _fixed_cell(
    filt: FilterMatrix, tol_eig: float, tol_res: float, tol_norm: float
) -> FixedCell:
    """Find every eigenpair of the operator from its eigenvalue at cell 0.

    The candidates, eigenvalues of H(0)^T within ``tol_eig`` of the
    circle, are clustered by ``_clusters``.  A cluster of m members at
    leader mu takes the m smallest singular vectors of H(0)^T - mu I as
    cell 0 values.  With m >= 2 each is propagated, its M c equation
    residuals and its values outside the supports are stacked as one
    column, and the stack's right singular vectors, smallest first, mix
    the cell 0 values into the members' own.  Each member's field is
    propagated with its own eigenvalue, made canonical
    (``_canonical_field``), and passes when ``_retest`` finds a residual
    within ``tol_res``.
    """
    samples = filt.samples
    eigenvalues, margin, allowance = _cell_zero_spectrum(samples[:, :, 0])
    tested = []
    clusters = _clusters(eigenvalues, _candidate_rows(eigenvalues, tol_eig), tol_res)
    if clusters:
        coarse = filt.coarse_grid()
        outside = ~np.array(filt.sigma_masks(coarse))
    for cluster in clusters:
        lead = complex(eigenvalues[cluster[0]])
        start = smallmat.null_vectors(samples[:, :, 0].T, lead, len(cluster))
        if len(cluster) > 1:
            columns = []
            for f in _propagate(filt, start, lead):
                residual = _eigen_residual(filt, f, lead)
                columns.append(np.concatenate([residual.ravel(), f[outside]]))
            vh = np.linalg.svd(np.stack(columns, axis=1), full_matrices=False)[2]
            start = np.conj(vh[::-1]) @ start
        for k, cell_zero in zip(cluster, start):
            lam = complex(eigenvalues[k])
            # A zero lam, a candidate only for tol_eig >= 1, propagates to
            # a non-finite field, whose NaN residual fails the re-test.
            with np.errstate(all="ignore"):
                values = _propagate(filt, cell_zero[None], lam)[0]
                f = _canonical_field(filt.chain, coarse, values)
                tested.append(_retest(filt, f, lam, tol_res, tol_norm))
    return FixedCell(eigenvalues, margin, allowance, tuple(tested))


class PurityVerdict(NamedTuple):
    """A purity verdict and its evidence, each piece recorded once.

    ``fixed_cell`` is the cell 0 analysis that decided, ``fixed_cell_s``
    its wall time, and ``dimension`` the fine step space's.
    ``closed_form_pairs`` is 1 if an accepted pair has eigenvalue exactly 1
    and chi, the unit field constant on every support, passes the re-test
    at 1, and 0 otherwise.
    ``martingale_max_dev`` (None with no accepted pair) is the largest
    deviation from ||f||^2 of each martingale order for the first pair.
    """

    status: str
    eigenpairs: tuple[EigenPair, ...]
    resolution: GridSpec
    dimension: int
    fixed_cell: FixedCell
    fixed_cell_s: float
    closed_form_pairs: int = 0
    anomalies: tuple[str, ...] = ()
    martingale_max_dev: Optional[list[float]] = None

    @property
    def diagnostics(self) -> MappingProxyType:
        """``fixed_cell.candidates`` and their ``passed``, read-only.

        Keyed ``candidates_tested`` and ``passing_flags`` for the only readers,
        ``clibench/spans.py::_count_classify`` and criterion 04 of
        ``tests/test_acceptance.py``.
        """
        tested = self.fixed_cell.candidates
        flags = tuple(p.passed for p in tested)
        return MappingProxyType({"passing_flags": flags, "candidates_tested": tested})


def _max_martingale_order(grid: GridSpec) -> int:
    """The highest order, up to ``MARTINGALE_MAX_ORDER``, the grid resolves."""
    orders = range(MARTINGALE_MAX_ORDER + 1)
    return max(n for n in orders if grid.cells % grid.scale**n == 0)


def _require_verified(filt: FilterMatrix, verify_tol: float) -> None:
    """Refuse a filter that fails the gate, ``filters._verification_failure``."""
    eq, sup = filter_equation_residual(filt), support_violations(filt)
    failure = _verification_failure(eq, sup, verify_tol)
    if failure:
        raise ParameterError(
            f"purity analysis needs a filter verified at {verify_tol!r}; {failure}"
        )


def classify_purity(
    filt: FilterMatrix,
    tol_eig: float = TOL_EIG,
    tol_res: float = TOL_RES,
    tol_norm: float = TOL_NORM,
    verify_tol: float = VERIFY_TOL,
    certificate: object = None,
) -> PurityVerdict:
    """Decide whether the operator of a verified filter is a pure isometry.

    The decision is taken at fine cell 0 by ``_fixed_cell``, with no
    matrix of the operator and no dimension cap.  Any accepted pair yields
    ``not_pure_certified``; an accepted field whose ||f(cell)|| is not 1
    wherever the multiplicity is positive is recorded in ``anomalies``.
    With no pair the verdict is ``pure_certified`` when
    ``_rules_out_the_circle`` holds or the caller supplies a block
    certificate, and ``pure_at_resolution`` otherwise: a candidate whose
    field fails the re-test, or an eigenvalue within the allowance of
    tol_eig.  A certificate together with an accepted pair is
    contradictory and comes back ``inconclusive`` with an anomaly.

    A filter that fails the commands' verification gate at ``verify_tol``
    (its support rule, and its defining identity residual) is refused with
    ``ParameterError``; both reports are cached on the filter.
    """
    _require_verified(filt, verify_tol)
    start = time.perf_counter()
    cell = _fixed_cell(filt, tol_eig, tol_res, tol_norm)
    fixed_cell_s = time.perf_counter() - start
    pairs = [p for p in cell.candidates if p.passed]
    anomalies = [
        f"accepted eigenpair violates the unit-norm law (deviation {p.unit_norm_dev:.3e})"
        for p in pairs if not p.unit_norm_ok
    ]

    if pairs and certificate is not None:
        status = INCONCLUSIVE
        anomalies.append(
            "a block certificate and an accepted eigenpair cannot both be "
            "sound; marking the verdict inconclusive"
        )
    elif pairs:
        status = NOT_PURE_CERTIFIED
    elif certificate is not None or _rules_out_the_circle(
        cell.margin, cell.allowance, tol_eig
    ):
        status = PURE_CERTIFIED
    else:
        status = PURE_AT_RESOLUTION

    closed_form = 0
    martingale_max_dev = None
    if pairs:
        if any(p.eigenvalue == 1.0 for p in pairs):
            chi = _unit(VecField.ones(filt.chain, filt.coarse_grid()))
            closed_form = int(_retest(filt, chi, 1.0, tol_res, tol_norm).passed)
        f = pairs[0].fld
        seq = martingale_sequence(f, f, filt.scale, _max_martingale_order(f.grid))
        martingale_max_dev = [
            float(np.abs(x.samples - f.norm() ** 2).max()) for x in seq
        ]
    dimension = sum(int(mask.sum()) for mask in filt.sigma_masks())
    return PurityVerdict(
        status, tuple(pairs), filt.grid, dimension, cell, fixed_cell_s,
        closed_form_pairs=closed_form, anomalies=tuple(anomalies),
        martingale_max_dev=martingale_max_dev,
    )


def martingale_sequence(
    f: VecField, g: VecField, scale: int, n_max: int
) -> list[StepFn]:
    """Coset averages X_n of the pointwise inner product of two fields.

    X_n(w) averages <f(wz) | g(wz)> over the kernel of the n-fold
    dilation; the list holds X_0 ... X_n_max as step functions on the
    common grid.  Each average has the same mean as X_0, which is the
    inner product <f | g>; for an eigenvector of a non-pure operator the
    sequence is pointwise constant at ||f||^2.
    """
    if f.grid != g.grid or f.chain.count != g.chain.count:
        raise ResolutionError("martingale needs fields on a common grid")
    if n_max < 0:
        raise ParameterError("n_max must be >= 0")
    m = f.grid.cells
    if m % scale**n_max:
        raise ResolutionError(
            f"grid of {m} cells cannot resolve kernel order {n_max}"
        )
    w = np.sum(f.values * np.conj(g.values), axis=0)
    out = []
    for n in range(n_max + 1):
        spread = np.empty_like(w)
        _fibers(spread, scale**n)[0][...] = _fibers(w, scale**n)[0].mean(axis=0)
        out.append(StepFn(f.grid, spread))
    return out


def decay_probe(filt: FilterMatrix, f: VecField, n_max: int) -> list[float]:
    """Norms of iterated adjoint applications, a strong-decay diagnostic.

    Each step applies the adjoint and includes the coarse result back
    into the fine grid, so the sequence is defined for every n_max; for a
    filter satisfying the defining identity it is nonincreasing, and for
    a pure operator it decays to zero as the resolution allows.
    ``classify_purity`` does not call it; it is kept for library callers
    and for ``clibench/spans.py``.
    """
    if f.grid != filt.grid:
        raise ResolutionError("probe field must live on the filter's fine grid")
    out = [f.norm()]
    for _ in range(n_max):
        f = transfer_apply(filt, f).refine()
        out.append(f.norm())
    return out
