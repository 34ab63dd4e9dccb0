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
on the coarse grid M/N, so the matrix K = adjoint o include on the
coarse step space sees every unimodular eigenvalue of the operator, and
rho(K) < 1 proves purity outright.

``contraction_certificate`` bounds rho(K) first, with no matrix: it
applies |H| through the same fiber rule as ``transfer_apply`` and
``ruelle_apply`` (the finite transfer-operator criterion of Lawton,
J. Math. Phys. 32, 1991).  Only a filter that bound cannot settle pays
for the dense path, ``transfer_spectrum``: K, 1/N the size of
include o adjoint on the fine space (AB and BA share their nonzero
spectrum), is solved eigenvalues only, in real arithmetic when K is
real; eigenvectors are taken, from one SVD per distinct eigenvalue, only
for the eigenvalues near the unit circle, the only ones the dichotomy
can use.  Those are re-tested directly against the eigenvector
relation, and every verdict, a typed ``PurityVerdict``, records the
resolution it was reached at and the one piece of evidence that decided.
"""

from __future__ import annotations

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
    "Contraction",
    "TransferSpectrum",
    "EigenPair",
    "PurityVerdict",
    "PURE_CERTIFIED",
    "PURE_AT_RESOLUTION",
    "NOT_PURE_CERTIFIED",
    "INCONCLUSIVE",
    "ruelle_apply",
    "transfer_apply",
    "isometry_residual",
    "assemble_transfer_matrix",
    "contraction_certificate",
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

# The most powers of |K| the contraction bound tries before it gives up.
CONTRACTION_MAX_STEPS = 64
# Unit roundoff of float64, the u of the rounding allowance.
UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0
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


def _fiber_mean(samples: np.ndarray, scale: int, values: np.ndarray) -> np.ndarray:
    """Coarse values (1/N) sum over the fiber of samples[i, j] values[j]."""
    c = samples.shape[0]
    mp = samples.shape[2] // scale
    return (
        np.einsum(
            "ijkt,jkt->it",
            samples.reshape(c, c, scale, mp),
            values.reshape(c, scale, mp),
        )
        / scale
    )


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
    out = _fiber_mean(np.conj(filt.samples), filt.scale, g.values)
    return VecField(filt.chain, filt.coarse_grid(), out)


def isometry_residual(
    filt: FilterMatrix, trials: int = 20, seed: int = 0
) -> float:
    """Worst deviation of ||S_H f||^2 from ||f||^2 over random probes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    coarse = filt.coarse_grid()
    for _ in range(trials):
        f = random_vecfield(filt.chain, coarse, rng)
        worst = max(worst, abs(ruelle_apply(filt, f).norm() ** 2 - f.norm() ** 2))
    return worst


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Dense matrix K of "include, then apply the adjoint" on a coarse space.

    The basis is a (dimension, 2) array of (component i, coarse cell u)
    rows, lexicographic, holding the cells of the coarse grid whose block
    of N fine cells meets sigma_i; ``grid`` is that coarse grid.  K is the
    quotient of the fine matrix "apply the adjoint, then include" on the
    ``fine_dimension`` coordinates of the fine step space: the two are BA
    and AB for the same pair of maps, so they share their nonzero
    spectrum, det(lam I - AB) = lam^(n - m) det(lam I - BA), and the fine
    spectrum is K's followed by ``fine_dimension - dimension`` zeros.
    """

    matrix: np.ndarray
    basis: np.ndarray
    fine_dimension: int
    chain: SigmaChain
    grid: GridSpec

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _fine_coordinates(filt: FilterMatrix) -> np.ndarray:
    """The (component i, fine cell) rows of the fine step space: sigma_i's cells."""
    return np.argwhere(np.array(filt.sigma_masks()))


def assemble_transfer_matrix(filt: FilterMatrix) -> TransferMatrix:
    """Build the dense quotient matrix K on the coarse step space.

    This is the fiber rule of ``transfer_apply`` written as a matrix: fine
    coordinate (j, s) enters coarse cell s mod M/N of every row component
    i with weight conj(H_{i,j}(s))/N, and it is read from coarse cell
    s // N, the block it refines.  Weights landing on one entry are summed,
    which happens when the coarse grid has fewer than N cells.  The cap,
    read from ``GMRAFILTERS_DIM_CAP``, applies to the dimension of the fine
    step space.
    """
    cap = _dim_cap()
    fine = _fine_coordinates(filt)
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
    return TransferMatrix(
        matrix, basis, len(fine), filt.chain, filt.coarse_grid()
    )


# Contraction, TransferSpectrum and PurityVerdict are named tuples, not
# dataclasses: every CLI call imports this module, and a named tuple
# class costs a fraction of a dataclass's creation time.
class Contraction(NamedTuple):
    """A matrix-free proof that rho(K) < 1 - tol_eig, and so that S_H is pure.

    At power k = ``steps``, ``bound`` is the computed
    sqrt(||A^k||_1 ||A^k||_inf) for the entrywise majorant A >= |K|, and
    ``allowance`` = (k (c N + 3) + 2) u bounds its relative rounding
    error, with u the unit roundoff.  ``rho_bound`` is
    (bound (1 + allowance))^(1/k), an upper bound on rho(K), and it lies
    below 1 - tol_eig: no eigenvalue of K is close enough to the unit
    circle for the dense path to test it.
    """

    steps: int
    bound: float
    allowance: float
    rho_bound: float


def contraction_certificate(
    filt: FilterMatrix, tol_eig: float = TOL_EIG
) -> Optional[Contraction]:
    """Prove rho(K) < 1 - tol_eig from |H| alone, or return None.

    A is K with every weight conj(H_{i,j}(s))/N replaced by its modulus,
    so |K^k| <= |K|^k <= A^k entrywise and rho(K)^k <= ||K^k||_2 <=
    sqrt(||A^k||_1 ||A^k||_inf).  The row sums A^k 1 and the column sums
    (A^T)^k 1 are iterated with no matrix built: A x is the fiber mean of
    |H| against x refined, as in ``transfer_apply``, and A^T y the block
    mean of |H| pulled back against y, as in ``ruelle_apply``.  They run
    over the whole coarse step space, which holds K's basis; under the
    support rule the other coordinates carry zeros, and where it fails
    the extra entries can only raise the bound.

    Each application takes the moduli (within one ulp, 2u), then sums c N
    nonnegative products and divides once, so k of them carry a relative
    error below k (c N + 3) u (Higham 2002, ch. 3); the product of the
    two maxima and its square root add less than 2u.  The least
    k <= ``CONTRACTION_MAX_STEPS`` with bound (1 + allowance) <
    (1 - tol_eig)^k is returned, so a filter whose bound is only
    barely below 1 is left to the dense path, which would count an
    eigenvalue that close to the circle as a candidate.  A filter with a
    non-finite sample, or a tol_eig outside [0, 1), is never certified.
    """
    # Written so that a NaN tolerance is never certified.
    if not (0.0 <= tol_eig < 1.0) or not np.isfinite(filt.samples).all():
        return None
    n = filt.scale
    c = filt.count
    modulus = np.abs(filt.samples)
    rows = cols = np.ones((c, filt.cells // n))
    for k in range(1, CONTRACTION_MAX_STEPS + 1):
        last = rows, cols
        rows = _fiber_mean(modulus, n, np.repeat(rows, n, axis=1))
        cols = _pull(modulus, cols).reshape(c, -1, n).sum(axis=2) / n
        bound = float(np.sqrt(rows.max() * cols.max()))
        allowance = (k * (c * n + 3) + 2) * UNIT_ROUNDOFF
        # Written so that a NaN bound is never certified.
        if bound * (1.0 + allowance) < (1.0 - tol_eig) ** k:
            rho_bound = (bound * (1.0 + allowance)) ** (1.0 / k)
            return Contraction(k, bound, allowance, rho_bound)
        if np.array_equal(rows, last[0]) and np.array_equal(cols, last[1]):
            # A fixed point, as for unimodular |H|: every later power
            # gives this bound again, with a larger allowance.
            return None
    return None


@dataclass(frozen=True, eq=False)
class EigenPair:
    """A certified eigenpair of the operator itself (not the adjoint)."""

    eigenvalue: complex
    fld: VecField
    residual: float
    unit_norm_dev: float
    unit_norm_ok: bool


def _candidate_vectors(
    matrix: np.ndarray, eigenvalues: np.ndarray, candidates: list, tol_res: float
) -> dict:
    """Null vectors of K - lam I for the candidates, one SVD per cluster.

    Candidates, given in spectrum order, join the first cluster whose
    leading eigenvalue lies within ``tol_res`` of theirs, so only
    eigenvalues that agree to the acceptance tolerance share an SVD.  A
    cluster of m members takes one SVD of K - lam I at its leading lam
    (real when K and lam are real), and its members in order get the
    conjugated right singular vectors of the m smallest singular values,
    smallest first: the leader gets its own null vector, and a repeated
    eigenvalue, semisimple as every unimodular eigenvalue of the
    contraction K is, gets an orthonormal basis of its null space.
    Returns the vectors keyed by candidate, in the order given.
    """
    clusters: list[list[int]] = []
    for k in candidates:
        for cluster in clusters:
            if abs(eigenvalues[k] - eigenvalues[cluster[0]]) <= tol_res:
                cluster.append(k)
                break
        else:
            clusters.append([k])
    vectors = {}
    for cluster in clusters:
        lam = eigenvalues[cluster[0]]
        shift = lam.real if lam.imag == 0 else lam
        vh = np.linalg.svd(matrix - shift * np.eye(len(matrix)))[2]
        vectors.update(zip(cluster, np.conj(vh[::-1][: len(cluster)])))
    return {k: vectors[k] for k in candidates}


def _field_from_eigvec(tm: TransferMatrix, vec: np.ndarray) -> VecField:
    """Read an eigenvector of K as a coarse field, canonically scaled."""
    values = np.zeros((tm.chain.count, tm.grid.cells), dtype=np.complex128)
    values[tm.basis[:, 0], tm.basis[:, 1]] = vec
    pval = values.flat[int(np.argmax(np.abs(values)))]
    if pval != 0:
        values *= np.conj(pval) / abs(pval)
    return _unit(VecField(tm.chain, tm.grid, values))


def _unit(f: VecField) -> VecField:
    """The field scaled to unit norm; the zero field comes back as is."""
    nrm = f.norm()
    return f.scaled(1.0 / nrm) if nrm > 0 else f


def _retest(filt: FilterMatrix, f: VecField, lam: complex) -> tuple[float, float]:
    """Re-test a coarse field directly against S_H f = lam f.

    Returns the quadrature residual ||S_H f - lam f|| and the largest
    deviation of ||f(cell)|| from one over the cells of sigma_1, where an
    eigenvector of a non-pure operator must have unit pointwise norm.
    """
    image = ruelle_apply(filt, f)
    residual = float(
        np.sqrt(
            np.sum(np.abs(image.values - lam * f.refine().values) ** 2)
            / filt.cells
        )
    )
    norms = f.pointwise_norms()[filt.chain.positive_set().cell_mask(f.grid)]
    dev = float(np.abs(norms - 1.0).max()) if norms.size else 0.0
    return residual, dev


class TransferSpectrum(NamedTuple):
    """The dense spectrum of K and the re-test of its unit-circle candidates.

    ``eigenvalues`` is the fine spectrum: K's eigenvalues by descending
    modulus, then real part, then imaginary part, followed by the
    ``fine_dimension - dimension`` zeros only the fine step space carries.
    ``candidates`` pairs each eigenvalue of K near the unit circle, by its
    row, with its re-tested pair for the operator: the conjugate
    eigenvalue, the eigenvector read as a unit coarse field, and
    ``_retest``'s residual and unit-norm deviation, judged against
    ``tol_norm``.  ``passing_flags`` marks, row for row, the eigenvalues
    whose candidate passed.  ``eigensolve_s`` is the wall time of the
    eigenvalue solve plus the candidate SVDs.
    """

    eigenvalues: np.ndarray
    passing_flags: np.ndarray
    candidates: tuple[tuple[int, EigenPair], ...]
    fine_dimension: int
    eigensolve_s: float


def transfer_spectrum(
    filt: FilterMatrix,
    tol_eig: float = TOL_EIG,
    tol_res: float = TOL_RES,
    tol_norm: float = TOL_NORM,
) -> TransferSpectrum:
    """Solve K densely and re-test its eigenvalues near the unit circle.

    The eigenvalues of the quotient matrix K of
    ``assemble_transfer_matrix`` are solved without eigenvectors, in real
    arithmetic when K has no imaginary part; every eigenvalue of K within
    ``tol_eig`` of the unit circle is a candidate.  Only the candidates
    get eigenvectors: each distinct candidate eigenvalue takes one SVD of
    K - lambda I, and candidates within ``tol_res`` of each other share
    it, its smallest right singular vectors giving a repeated eigenvalue
    orthonormal fields (see ``_candidate_vectors``).  A candidate passes
    only if the conjugate eigenvalue relation for the operator itself
    holds directly: with the eigenvector as a coarse field f, the
    residual ||S_H f - conj(lambda) f|| must fall below ``tol_res`` after
    normalization.  Each candidate's pair records whether its field has
    unit pointwise norm to within ``tol_norm``; that does not decide
    passing.  The dimension cap of ``assemble_transfer_matrix`` applies.
    """
    tm = assemble_transfer_matrix(filt)
    matrix = tm.matrix.real if not np.any(tm.matrix.imag) else tm.matrix
    start = time.perf_counter()
    solved = np.linalg.eigvals(matrix).astype(np.complex128)
    eigensolve_s = time.perf_counter() - start
    # A stable sort, so exact ties keep the solver's order.
    solved = solved[np.lexsort((-solved.imag, -solved.real, -np.abs(solved)))]
    # The fine spectrum: K's eigenvalues, then the zeros only the fine
    # space carries, which sort after every nonzero eigenvalue and after
    # K's own zeros.  They have no eigenvector here and are never
    # re-tested; zero could not pass, as ||S_H f|| = ||f|| = 1.
    eigenvalues = np.concatenate(
        [solved, np.zeros(tm.fine_dimension - tm.dimension, dtype=solved.dtype)]
    )
    candidates = np.nonzero(np.abs(np.abs(solved) - 1.0) <= tol_eig)[0]
    passing_flags = np.zeros(len(eigenvalues), dtype=bool)
    start = time.perf_counter()
    vectors = _candidate_vectors(matrix, solved, candidates.tolist(), tol_res)
    eigensolve_s += time.perf_counter() - start

    tested = []
    for k, vec in vectors.items():
        f = _field_from_eigvec(tm, vec)
        lam = np.conj(complex(solved[k]))
        residual, dev = _retest(filt, f, lam)
        passing_flags[k] = residual <= tol_res
        tested.append((k, EigenPair(lam, f, residual, dev, dev <= tol_norm)))
    return TransferSpectrum(
        eigenvalues, passing_flags, tuple(tested), tm.fine_dimension, eigensolve_s
    )


class PurityVerdict(NamedTuple):
    """A purity verdict and its evidence, each piece recorded once.

    Exactly one of ``contraction`` and ``spectrum`` is set, by whichever
    decided; ``dimension`` is the fine step space's.  ``decay_probe``
    holds the norms of six adjoint averagings of the unit constant field
    and ``martingale_max_dev`` (None with no accepted pair) the largest
    deviation from ||f||^2 of each martingale order for the first pair.
    """

    status: str
    eigenpairs: tuple[EigenPair, ...]
    resolution: GridSpec
    dimension: int
    decay_probe: list[float]
    contraction_s: float
    contraction: Optional[Contraction] = None
    spectrum: Optional[TransferSpectrum] = None
    sharpened_to_exact: int = 0
    anomalies: tuple[str, ...] = ()
    martingale_max_dev: Optional[list[float]] = None

    @property
    def diagnostics(self) -> MappingProxyType:
        """Read-only ``passing_flags`` and ``candidates_tested`` of ``spectrum``.

        Both are empty when the bound decided.  The only readers are
        ``clibench/spans.py::_count_classify`` and criterion 04 of
        ``tests/test_acceptance.py``.
        """
        flags, tested = np.zeros(0, dtype=bool), ()
        if self.spectrum is not None:
            flags, tested = self.spectrum.passing_flags, self.spectrum.candidates
        return MappingProxyType({"passing_flags": flags, "candidates_tested": tested})


def _sharpened_exact_pair(
    filt: FilterMatrix, pair: EigenPair, tol_eig: float, tol_norm: float
) -> Optional[EigenPair]:
    """Trade a numerically accepted pair for its exact canonical form.

    An accepted eigenvalue within ``tol_eig`` of 1 whose field sits
    within ``tol_norm`` of the normalized indicator field suggests the
    closed-form pair (1, chi).  That candidate is rebuilt in exact
    arithmetic and re-tested by direct substitution; it replaces the
    numeric pair only when its own residual is at least as small, so the
    swap can never weaken the evidence.
    """
    if abs(pair.eigenvalue - 1.0) > tol_eig:
        return None
    exact = _unit(VecField.ones(filt.chain, filt.coarse_grid()))
    if np.abs(pair.fld.values - exact.values).max() > tol_norm:
        return None
    residual, dev = _retest(filt, exact, 1.0)
    if residual > pair.residual:
        return None
    return EigenPair(1.0 + 0.0j, exact, residual, dev, dev <= tol_norm)


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

    ``contraction_certificate`` runs first.  When it proves rho(K) < 1
    the verdict is ``pure_certified`` at once, with the proof in
    ``verdict.contraction`` and ``verdict.spectrum`` None: no matrix is
    built, no eigenvalue solved and the dimension cap never consulted.
    Otherwise ``transfer_spectrum`` solves K densely and re-tests its
    unit-circle candidates, and the verdict keeps that spectrum.  An
    accepted pair lying within tolerance of the closed form (1, chi) is
    re-tested in exact arithmetic and replaced by that form when the
    substitution does at least as well, which is what makes the flagship
    non-pure example come out exact rather than merely small; such pairs
    are counted in ``sharpened_to_exact``.  Accepted pairs are then
    checked against the structural consequence that ||f(cell)|| = 1
    wherever the multiplicity is positive; a failure there does not
    revoke the pair but is recorded in ``anomalies``.

    Any accepted pair yields ``not_pure_certified``.  With none, the
    verdict is ``pure_at_resolution``, upgraded to ``pure_certified``
    when the caller supplies a block certificate.  A certificate together
    with an accepted pair is contradictory and comes back
    ``inconclusive`` with an anomaly, since sound inputs cannot produce
    both.
    """
    pre = filter_equation_residual(filt)
    # Written so that a NaN residual fails closed.
    if not (pre.max_abs_residual <= verify_tol):
        raise ParameterError(
            "purity analysis needs a verified filter; defining identity "
            f"residual {pre.max_abs_residual:.3e} exceeds {verify_tol:.3e}"
        )
    start = time.perf_counter()
    contraction = contraction_certificate(filt, tol_eig=tol_eig)
    contraction_s = time.perf_counter() - start
    probe = decay_probe(filt, _unit(VecField.ones(filt.chain, filt.grid)), 6)
    if contraction is not None:
        dimension = len(_fine_coordinates(filt))
        return PurityVerdict(
            PURE_CERTIFIED, (), filt.grid, dimension, probe, contraction_s, contraction
        )

    spectrum = transfer_spectrum(
        filt, tol_eig=tol_eig, tol_res=tol_res, tol_norm=tol_norm
    )
    anomalies: list[str] = []
    pairs: list[EigenPair] = []
    sharpened = 0
    for row, pair in spectrum.candidates:
        if not spectrum.passing_flags[row]:
            continue
        if not pair.unit_norm_ok:
            anomalies.append(
                f"accepted eigenpair violates the unit-norm law "
                f"(deviation {pair.unit_norm_dev:.3e})"
            )
        exact_pair = _sharpened_exact_pair(filt, pair, tol_eig, tol_norm)
        if exact_pair is not None:
            pair = exact_pair
            sharpened += 1
        pairs.append(pair)

    if pairs and certificate is not None:
        status = INCONCLUSIVE
        anomalies.append(
            "a block certificate and an accepted eigenpair cannot both be "
            "sound; marking the verdict inconclusive"
        )
    elif pairs:
        status = NOT_PURE_CERTIFIED
    elif certificate is not None:
        status = PURE_CERTIFIED
    else:
        status = PURE_AT_RESOLUTION

    martingale_max_dev = None
    if pairs:
        f = pairs[0].fld
        seq = martingale_sequence(f, f, filt.scale, _max_martingale_order(f.grid))
        martingale_max_dev = [
            float(np.abs(x.samples - f.norm() ** 2).max()) for x in seq
        ]
    return PurityVerdict(
        status, tuple(pairs), filt.grid, spectrum.fine_dimension, probe, contraction_s,
        spectrum=spectrum, sharpened_to_exact=sharpened, anomalies=tuple(anomalies),
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
    """
    if f.grid != filt.grid:
        raise ResolutionError("probe field must live on the filter's fine grid")
    out = [f.norm()]
    for _ in range(n_max):
        f = transfer_apply(filt, f).refine()
        out.append(f.norm())
    return out
