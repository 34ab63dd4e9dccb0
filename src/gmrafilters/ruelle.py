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
cell, H(s)^T f(s mod M/N) = lam f(s // N).  Fine cell 0 is the
dilation's fixed point: there the relation is H(0)^T f(0) = lam f(0),
and every other coarse cell follows from f(0), so lam is an eigenvalue
of the c x c matrix H(0)^T (the cocycle picture of Bratteli and
Jorgensen, Wavelets through a Looking Glass, 2002).

``classify_purity`` decides at that cell (see ``FixedCell``) and builds
no matrix of the operator.  ``transfer_spectrum``, the dense path of the
``spectrum`` command, solves the quotient matrix K = adjoint o include
on the coarse step space instead, for the coarsest filter that refines
to the given one, and re-tests each candidate once, against the given
filter.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionCapError, ParameterError, ResolutionError
from .filters import FilterMatrix, StepFn, filter_equation_residual
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

DEFAULT_DIM_CAP = 4096
DIM_CAP_ENV = "GMRAFILTERS_DIM_CAP"

# Unit roundoff of float64, the u of the rounding allowance.
UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0
# Moduli this close to the largest, relatively, tie for the phase reference:
# on a unimodular field they differ in the last bits, which must not choose.
_PHASE_RTOL = 1e-8
# The highest kernel order the martingale diagnostic checks.
MARTINGALE_MAX_ORDER = 3


def _dim_cap() -> int:
    raw = os.environ.get(DIM_CAP_ENV, "")
    try:
        return int(raw) if raw else DEFAULT_DIM_CAP
    except ValueError:
        raise ParameterError(
            f"{DIM_CAP_ENV} must be an integer, got {raw!r}"
        ) from None


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
        return VecField(
            self.chain,
            self.grid.finer(),
            np.repeat(self.values, self.grid.scale, axis=1),
        )

    def scaled(self, factor: complex) -> "VecField":
        return VecField(self.chain, self.grid, self.values * factor)


def random_vecfield(
    chain: SigmaChain, grid: GridSpec, rng: np.random.Generator
) -> VecField:
    """I.i.d. samples uniform on the unit disk, masked to the supports."""
    shape = (chain.count, grid.cells)
    radius = np.sqrt(rng.random(shape))
    angle = 2.0 * np.pi * rng.random(shape)
    return VecField.masked(chain, grid, radius * np.exp(1j * angle))


def _pull(samples: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Fine values sum_i samples[i, j, t] values[i, t mod M/N] of coarse ones."""
    m = samples.shape[2]
    return np.einsum("ijt,it->jt", samples, values[:, np.arange(m) % values.shape[1]])


def ruelle_apply(filt: FilterMatrix, f: VecField) -> VecField:
    """Apply the operator: (S_H f)_j(x) = sum_i H_{i,j}(x) f_i(x^N).

    The input lives on the coarser grid of the filter; cell t of the fine
    grid dilates onto coarse cell t mod M/N, so the output is a fine step
    field, supported in sigma_j column by column whenever the filter obeys
    its support rule.
    """
    if f.grid != filt.coarse_grid():
        raise ResolutionError("input field must live on the filter's coarse grid")
    return VecField(filt.chain, filt.grid, _pull(filt.samples, f.values))


def transfer_apply(filt: FilterMatrix, g: VecField) -> VecField:
    """Apply the adjoint: average conj(H) against g over each dilation fiber."""
    if g.grid != filt.grid:
        raise ResolutionError("input field must live on the filter's fine grid")
    c, n = filt.count, filt.scale
    mp = filt.cells // n
    conj = np.conj(filt.samples).reshape(c, c, n, mp)
    out = np.einsum("ijkt,jkt->it", conj, g.values.reshape(c, n, mp)) / n
    return VecField(filt.chain, filt.coarse_grid(), out)


def isometry_residual(
    filt: FilterMatrix, trials: int = 20, seed: int = 0
) -> float:
    """Worst deviation of ||S_H f||^2 from ||f||^2 over random probes.

    A NaN deviation makes the worst NaN, so a gate ``<= tol`` fails it.
    """
    rng = np.random.default_rng(seed)
    coarse = filt.coarse_grid()
    deviations = []
    for _ in range(trials):
        f = random_vecfield(filt.chain, coarse, rng)
        deviations.append(abs(ruelle_apply(filt, f).norm() ** 2 - f.norm() ** 2))
    return float(np.max(deviations, initial=0.0))


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Dense matrix K of "include, then apply the adjoint" on a coarse space.

    The basis is a (dimension, 2) array of (component i, coarse cell u)
    rows, lexicographic, holding the cells of the filter's coarse grid
    whose block of N fine cells meets sigma_i.  K and the fine matrix
    "apply the adjoint, then include" are BA and AB for the same pair of
    maps, so the fine spectrum is K's followed by
    ``fine_dimension - dimension`` zeros.
    """

    matrix: np.ndarray
    basis: np.ndarray
    fine_dimension: int

    @property
    def dimension(self) -> int:
        return len(self.basis)


def assemble_transfer_matrix(filt: FilterMatrix) -> TransferMatrix:
    """Build the dense quotient matrix K on the coarse step space.

    This is the fiber rule of ``transfer_apply`` written as a matrix: fine
    coordinate (j, s) enters coarse cell s mod M/N of every row component
    i with weight conj(H_{i,j}(s))/N, and it is read from coarse cell
    s // N, the block it refines.  Weights landing on one entry are summed,
    which happens when the coarse grid has fewer than N cells.  The cap,
    read from ``GMRAFILTERS_DIM_CAP``, applies to the dimension of the fine
    step space of ``filt``.
    """
    cap = _dim_cap()
    # The (component i, fine cell) rows of the fine step space: sigma_i's cells.
    fine = np.argwhere(np.array(filt.sigma_masks()))
    if len(fine) > cap:
        raise DimensionCapError(
            f"transfer matrix dimension {len(fine)} exceeds cap {cap}"
        )
    n = filt.scale
    c = filt.count
    mp = filt.cells // n
    comp, cell = fine.T
    coarse = np.zeros((c, mp), dtype=bool)
    coarse[comp, cell // n] = True
    basis = np.argwhere(coarse)
    position = np.full((c, mp), -1)
    position[coarse] = np.arange(len(basis))
    rows = position[:, cell % mp]
    cols = np.broadcast_to(position[comp, cell // n], rows.shape)
    weights = np.conj(filt.samples[:, comp, cell]) / n
    keep = rows >= 0
    matrix = np.zeros((len(basis), len(basis)), dtype=np.complex128)
    np.add.at(matrix, (rows[keep], cols[keep]), weights[keep])
    return TransferMatrix(matrix, basis, len(fine))


@dataclass(frozen=True, eq=False)
class EigenPair:
    """A certified eigenpair of the operator itself (not the adjoint)."""

    eigenvalue: complex
    fld: VecField
    residual: float
    unit_norm_dev: float
    unit_norm_ok: bool


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


def _null_vectors(matrix: np.ndarray, lam: complex, count: int) -> np.ndarray:
    """Rows v with (matrix - lam I) v smallest: ``count`` right singular vectors."""
    shift = lam.real if lam.imag == 0 else lam
    vh = np.linalg.svd(matrix - shift * np.eye(len(matrix)))[2]
    return np.conj(vh[::-1][:count])


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
    filt: FilterMatrix, f: VecField, lam: complex, tol_norm: float
) -> EigenPair:
    """Re-test a coarse field directly against S_H f = lam f.

    The pair records the quadrature residual ||S_H f - lam f|| and the
    largest deviation of ||f(cell)|| from one over the cells of sigma_1,
    where an eigenvector of a non-pure operator must have unit pointwise
    norm, judged against ``tol_norm``.
    """
    image = _pull(filt.samples, f.values)
    residual = float(
        np.sqrt(np.sum(np.abs(image - lam * f.refine().values) ** 2) / filt.cells)
    )
    norms = f.pointwise_norms()[filt.chain.positive_set().cell_mask(f.grid)]
    dev = float(np.abs(norms - 1.0).max()) if norms.size else 0.0
    return EigenPair(lam, f, residual, dev, dev <= tol_norm)


# TransferSpectrum, FixedCell and PurityVerdict are named tuples, not
# dataclasses: every CLI call imports this module, and a named tuple
# class costs a fraction of a dataclass's creation time.
class TransferSpectrum(NamedTuple):
    """The dense spectrum of K and the re-test of its unit-circle candidates.

    ``eigenvalues`` is the fine spectrum, one row per coordinate of the
    given filter's fine step space: the eigenvalues of the K that was
    solved by descending modulus, then real part, then imaginary part,
    followed by exact zeros, one for every coordinate the fine step space
    adds to that K's.  ``candidates`` pairs each eigenvalue of K near the
    unit circle, by its row, with its re-tested pair for the operator: the
    conjugate eigenvalue, the eigenvector read as a unit coarse field of
    the given filter, and ``_retest``'s residual and unit-norm deviation
    against that filter, judged against ``TOL_NORM``.  ``passing_flags``
    marks, row for row, the eigenvalues whose candidate passed.
    """

    eigenvalues: np.ndarray
    passing_flags: np.ndarray
    candidates: tuple[tuple[int, EigenPair], ...]


def _coarsest(filt: FilterMatrix) -> tuple[FilterMatrix, int]:
    """The coarsest filter whose ``refine``s give ``filt``, and how many levels.

    A level down is taken while every block of N samples repeats bit for
    bit, the coarser filter keeps depth >= 1, and the support chain aligns
    with that filter's own coarse grid.  The raw bytes keep -0.0 beside
    0.0 from repeating, and the values a NaN block.
    """
    n, c, levels = filt.scale, filt.count, 0
    while filt.grid.depth >= 2 and filt.chain.aligned(filt.grid.coarser().coarser()):
        mp = filt.cells // n
        blocks = np.ascontiguousarray(filt.samples).reshape(c, c, mp, n)
        raw = blocks.view(np.uint64).reshape(c, c, mp, n, 2)
        if not ((raw == raw[:, :, :, :1]).all() and (blocks == blocks[..., :1]).all()):
            break
        filt = FilterMatrix(n, filt.chain, filt.grid.coarser(), filt.samples[:, :, ::n])
        levels += 1
    return filt, levels


def transfer_spectrum(
    filt: FilterMatrix, tol_eig: float = TOL_EIG, tol_res: float = TOL_RES
) -> TransferSpectrum:
    """The fine spectrum of the filter, solved on the coarsest grid it repeats on.

    A filter that is the ``refine`` of a coarser one (see ``_coarsest``)
    has the coarser filter's K spectrum plus zeros: its detail part is
    nilpotent, by (I - E_{L/N}) S_H* = S_H* (I - E_L).  So K (from
    ``assemble_transfer_matrix``, whose cap binds the coarsest filter's
    dimension) is solved there, eigenvalues only, in real arithmetic when
    it is real, and the fine spectrum is padded with exact zeros up to
    this filter's own fine dimension; solving the fine K instead would
    smear those zeros, a Jordan block of size k to about u^(1/k).  Every
    eigenvalue within ``tol_eig`` of the unit circle is a candidate.  Each
    cluster of candidates (see ``_clusters``) takes one SVD of
    K - lambda I at its leader, and its members in order get the right
    singular vectors of the smallest singular values, so a repeated
    eigenvalue, semisimple on the circle, gets orthonormal fields.  Each
    field is repeated onto this filter's coarse grid and re-tested once,
    against this filter: a candidate passes only if
    ||S_H f - conj(lambda) f|| is within ``tol_res``.
    """
    coarse, levels = _coarsest(filt)
    tm = assemble_transfer_matrix(coarse)
    matrix = tm.matrix.real if not np.any(tm.matrix.imag) else tm.matrix
    solved = _by_modulus(np.linalg.eigvals(matrix))
    block = filt.scale**levels
    # The fine spectrum: K's eigenvalues, then the zeros only the fine
    # space carries, which sort after every nonzero eigenvalue and after
    # K's own zeros.  They have no eigenvector here and are never
    # re-tested; zero could not pass, as ||S_H f|| = ||f|| = 1.
    eigenvalues = np.zeros(tm.fine_dimension * block, dtype=solved.dtype)
    eigenvalues[: len(solved)] = solved
    passing_flags = np.zeros(len(eigenvalues), dtype=bool)
    vectors = {}
    for cluster in _clusters(solved, _candidate_rows(solved, tol_eig), tol_res):
        found = _null_vectors(matrix, solved[cluster[0]], len(cluster))
        vectors.update(zip(cluster, found))

    grid = coarse.coarse_grid()
    tested = []
    for k in sorted(vectors):
        values = np.zeros((filt.count, grid.cells), dtype=np.complex128)
        values[tm.basis[:, 0], tm.basis[:, 1]] = vectors[k]
        values = _canonical_field(filt.chain, grid, values).values
        f = VecField(filt.chain, filt.coarse_grid(), np.repeat(values, block, axis=1))
        pair = _retest(filt, f, np.conj(complex(solved[k])), TOL_NORM)
        passing_flags[k] = pair.residual <= tol_res
        tested.append((k, pair))
    return TransferSpectrum(eigenvalues, passing_flags, tuple(tested))


class FixedCell(NamedTuple):
    """The purity analysis at fine cell 0, the fixed point of the dilation.

    ``eigenvalues`` (spec H(0)^T, ordered as in ``TransferSpectrum``),
    ``margin`` and ``allowance`` are those of ``_cell_zero_spectrum``.
    ``candidates`` pairs each eigenvalue within tol_eig of the circle, by
    row, with the re-tested pair of the field propagated from it, and
    ``passing_flags`` marks the rows whose candidate passed.
    """

    eigenvalues: np.ndarray
    margin: float
    allowance: float
    candidates: tuple[tuple[int, EigenPair], ...]
    passing_flags: np.ndarray


def _cell_zero_spectrum(h0: np.ndarray) -> tuple[np.ndarray, float, float]:
    """spec H(0)^T, its margin min |1 - |mu|| from the circle, and r.

    r bounds each eigenvalue's rounding error.  For c = 1 the eigenvalue is
    the sample H(0) itself and only |mu| is rounded: r = 2u, u the unit
    roundoff.  For c >= 2, ``np.linalg.eig`` solves H(0)^T + E exactly with
    ||E||_2 <= p(c) u ||H(0)||_F, p(c) = c^2 standing for the QR
    algorithm's modest growth factor, so by Bauer-Fike
    r = cond_2(V) p(c) u ||H(0)||_F, V the computed eigenvectors.  r is
    infinite for a non-finite H(0), or when V is singular to working
    precision (cond_2(V) p(c) u >= 1), as for a defective H(0)^T.
    """
    c = len(h0)
    if not np.isfinite(h0).all():
        eigenvalues, allowance = np.full(c, complex(math.nan, math.nan)), math.inf
    elif c == 1:
        eigenvalues, allowance = h0[0], 2.0 * UNIT_ROUNDOFF
    else:
        eigenvalues, vectors = np.linalg.eig(h0.T)
        spread = float(np.linalg.cond(vectors)) * c * c * UNIT_ROUNDOFF
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


def _propagation_schedule(scale: int, cells: int) -> list[np.ndarray]:
    """The fine cells that carry coarse cell 0 to every other, level by level.

    Fine cell s carries coarse cell s mod M/N to s // N; each level holds
    one such fine cell for every coarse cell first reached from the level
    before.  All are reached: each coarse cell has N fine cells in and N
    out, and the block u N ... u N + N - 1 all lead to u, so the graph is
    connected and, being balanced, strongly connected.
    """
    mp = cells // scale
    known = np.zeros(mp, dtype=bool)
    known[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    levels = []
    while frontier.size:
        s = (frontier[:, None] + mp * np.arange(scale)).ravel()
        s = s[~known[s // scale]]
        targets, first = np.unique(s // scale, return_index=True)
        known[targets] = True
        levels.append(s[first])
        frontier = targets
    return levels


def _propagate(
    samples: np.ndarray, scale: int, levels: list, start: np.ndarray, lam: complex
) -> np.ndarray:
    """Coarse fields (m, c, M/N) from their cell 0 values ``start`` (m, c).

    Each level of ``_propagation_schedule`` sets f(s // N) =
    H(s)^T f(s mod M/N) / lam, the eigenvector relation at fine cell s.
    """
    c, _, cells = samples.shape
    mp = cells // scale
    values = np.zeros((len(start), c, mp), dtype=np.complex128)
    values[:, :, 0] = start
    for s in levels:
        values[:, :, s // scale] = (
            np.einsum("ijs,kis->kjs", samples[:, :, s], values[:, :, s % mp]) / lam
        )
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
    propagated with its own eigenvalue, scaled as the dense path's, and
    passes when ``_retest`` finds a residual within ``tol_res``.
    """
    samples = filt.samples
    eigenvalues, margin, allowance = _cell_zero_spectrum(samples[:, :, 0])
    passing_flags = np.zeros(len(eigenvalues), dtype=bool)
    tested = []
    clusters = _clusters(eigenvalues, _candidate_rows(eigenvalues, tol_eig), tol_res)
    if clusters:
        n = filt.scale
        levels = _propagation_schedule(n, filt.cells)
        coarse = filt.coarse_grid()
        outside = ~np.array(filt.sigma_masks(coarse))
    for cluster in clusters:
        lead = complex(eigenvalues[cluster[0]])
        start = _null_vectors(samples[:, :, 0].T, lead, len(cluster))
        if len(cluster) > 1:
            columns = []
            for f in _propagate(samples, n, levels, start, lead):
                residual = _pull(samples, f) - lead * f.repeat(n, 1)
                columns.append(np.concatenate([residual.ravel(), f[outside]]))
            vh = np.linalg.svd(np.stack(columns, axis=1), full_matrices=False)[2]
            start = np.conj(vh[::-1]) @ start
        for k, cell_zero in zip(cluster, start):
            lam = complex(eigenvalues[k])
            # A zero lam, a candidate only for tol_eig >= 1, propagates to
            # a non-finite field, whose NaN residual fails the re-test.
            with np.errstate(all="ignore"):
                values = _propagate(samples, n, levels, cell_zero[None], lam)[0]
                f = _canonical_field(filt.chain, coarse, values)
                pair = _retest(filt, f, lam, tol_norm)
            passing_flags[k] = pair.residual <= tol_res
            tested.append((k, pair))
    return FixedCell(eigenvalues, margin, allowance, tuple(tested), passing_flags)


class PurityVerdict(NamedTuple):
    """A purity verdict and its evidence, each piece recorded once.

    ``fixed_cell`` is the cell 0 analysis that decided, ``fixed_cell_s``
    its wall time, and ``dimension`` the fine step space's.
    ``closed_form_pairs`` counts the accepted pairs equal bit for bit to
    (1, chi), chi the unit field constant on every support.
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
        """Read-only ``passing_flags`` and ``candidates_tested`` of ``fixed_cell``.

        The only readers are ``clibench/spans.py::_count_classify`` and
        criterion 04 of ``tests/test_acceptance.py``.
        """
        flags, tested = self.fixed_cell.passing_flags, self.fixed_cell.candidates
        return MappingProxyType({"passing_flags": flags, "candidates_tested": tested})


def _max_martingale_order(grid: GridSpec) -> int:
    """The highest order, up to ``MARTINGALE_MAX_ORDER``, the grid resolves."""
    orders = range(MARTINGALE_MAX_ORDER + 1)
    return max(n for n in orders if grid.cells % grid.scale**n == 0)


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
    """
    pre = filter_equation_residual(filt)
    # Written so that a NaN residual fails closed.
    if not (pre.max_abs_residual <= verify_tol):
        raise ParameterError(
            "purity analysis needs a verified filter; defining identity "
            f"residual {pre.max_abs_residual:.3e} exceeds {verify_tol:.3e}"
        )
    start = time.perf_counter()
    cell = _fixed_cell(filt, tol_eig, tol_res, tol_norm)
    fixed_cell_s = time.perf_counter() - start
    anomalies: list[str] = []
    pairs: list[EigenPair] = []
    for row, pair in cell.candidates:
        if not cell.passing_flags[row]:
            continue
        if not pair.unit_norm_ok:
            anomalies.append(
                f"accepted eigenpair violates the unit-norm law "
                f"(deviation {pair.unit_norm_dev:.3e})"
            )
        pairs.append(pair)

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
        chi = _unit(VecField.ones(filt.chain, filt.coarse_grid())).values
        closed_form = sum(
            p.eigenvalue == 1.0 and np.array_equal(p.fld.values, chi) for p in pairs
        )
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
        block = scale**n
        class_means = w.reshape(block, m // block).mean(axis=0)
        out.append(StepFn(f.grid, np.tile(class_means, block)))
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
