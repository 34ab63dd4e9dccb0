"""Shared builders for randomized but exactly valid filters, an exact
membership oracle for interval sets, a dense reader of K's triplets, and a
fresh-process runner."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np

import gmrafilters
from gmrafilters import (
    FilterMatrix,
    GridSpec,
    IntervalSet,
    JourneParams,
    SigmaChain,
    VecField,
    make_haar,
    make_journe_step,
)

SQRT2 = math.sqrt(2.0)

# Each builder's default depth, which ``generate`` takes without ``--depth``.
DEFAULT_DEPTHS = {"constant": 4, "haar": 4, "journe": 2, "journe_step": 2, "shannon": 4}


def run_python(script: str) -> str:
    """The standard output of ``python -c script`` in a fresh process that
    imports this checkout's package on one BLAS thread; the process must
    exit 0 with nothing on stderr."""
    src = os.path.dirname(os.path.dirname(gmrafilters.__file__))
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def dense(tm) -> np.ndarray:
    """K of a ``TransferMatrix`` as a dense array, read off its triplets."""
    matrix = np.zeros((tm.dimension, tm.dimension), dtype=np.complex128)
    matrix[tm.rows, tm.cols] = tm.weights
    return matrix


def _transition(t: float) -> float:
    """The scalar reference of ``filters._ramp``: the smooth monotone step
    from 0 at t = 0 to 1 at t = 1, one float at a time."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    g0 = math.exp(-1.0 / t)
    g1 = math.exp(-1.0 / (1.0 - t))
    return g0 / (g0 + g1)


def random_scalar_filter(rng: np.random.Generator, depth: int = 4) -> FilterMatrix:
    """A random multiplicity-one filter built coset pair by coset pair.

    On each pair {t, t + M/2} the samples are sqrt(2) cos(phi) e^(i a) and
    sqrt(2) sin(phi) e^(i b), so the pair identity sums to 2 exactly up to
    rounding whatever the draws.
    """
    grid = GridSpec(2, 1, depth)
    m = grid.cells
    mp = m // 2
    phi = rng.uniform(0.0, 2.0 * np.pi, mp)
    a = rng.uniform(0.0, 2.0 * np.pi, mp)
    b = rng.uniform(0.0, 2.0 * np.pi, mp)
    samples = np.empty((1, 1, m), dtype=np.complex128)
    samples[0, 0, :mp] = SQRT2 * np.cos(phi) * np.exp(1j * a)
    samples[0, 0, mp:] = SQRT2 * np.sin(phi) * np.exp(1j * b)
    return FilterMatrix(2, SigmaChain.full_circle(1), grid, samples)


def planted_filter(
    rng: np.random.Generator, scale: int, depth: int, lam: complex
) -> tuple[FilterMatrix, VecField]:
    """A non-pure scalar filter with a known eigenpair, and that eigenvector.

    With f a random unimodular field on the coarse grid, the filter
    H(s) = lam f(s // N) / f(s mod M/N) gives S_H f = lam f exactly: fine
    cell s dilates onto coarse cell s mod M/N and refines coarse cell
    s // N.  Every sample has modulus one, so the coset sum is N.
    """
    grid = GridSpec(scale, 1, depth)
    m = grid.cells
    mp = m // scale
    f = np.exp(2j * np.pi * rng.random(mp))
    s = np.arange(m)
    samples = lam * f[s // scale] / f[s % mp]
    chain = SigmaChain.full_circle(1)
    filt = FilterMatrix(scale, chain, grid, samples[None, None])
    return filt, VecField(chain, grid.coarser(), f[None])


def planted_unitary_filter(
    rng: np.random.Generator, scale: int, depth: int, lam: complex, channels: int = 2
) -> tuple[FilterMatrix, tuple[VecField, ...]]:
    """A non-pure multi-channel filter with a known eigenspace, and its basis.

    W is a random unitary step field on the coarse grid, the Q of a QR
    factorization of a complex Gaussian per cell, and the filter has
    H^T(s) = lam W(s // N) W(s mod M/N)^*, so that, as for
    ``planted_filter``, every column w_k of W satisfies S_H w_k = lam w_k
    exactly.  The chain is the full circle with ``channels`` members;
    every sample matrix is unitary, so each coset sum is N I.  Returns the
    filter and the columns of W, orthonormal fields of unit norm.
    """
    grid = GridSpec(scale, 1, depth)
    m = grid.cells
    mp = m // scale
    shape = (mp, channels, channels)
    gauss = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w = np.linalg.qr(gauss)[0]
    s = np.arange(m)
    transposed = lam * np.einsum("sik,sjk->sij", w[s // scale], np.conj(w[s % mp]))
    chain = SigmaChain.full_circle(channels)
    filt = FilterMatrix(scale, chain, grid, transposed.transpose(2, 1, 0))
    columns = tuple(
        VecField(chain, grid.coarser(), w[:, :, k].T) for k in range(channels)
    )
    return filt, columns


def random_phase_copy(filt: FilterMatrix, rng: np.random.Generator) -> FilterMatrix:
    """Multiply every sample by an independent unit phase.

    Moduli are untouched and the cross terms of the defining identity
    vanish through disjoint supports, so validity is preserved.
    """
    phases = np.exp(2j * np.pi * rng.random(filt.samples.shape))
    return FilterMatrix(filt.scale, filt.chain, filt.grid, filt.samples * phases)


def with_sample(filt: FilterMatrix, i: int, j: int, cell: int, value) -> FilterMatrix:
    """Copy of a filter with one sample overwritten."""
    samples = filt.samples.copy()
    samples[i, j, cell] = value
    return FilterMatrix(filt.scale, filt.chain, filt.grid, samples)


def column_violation_filter() -> FilterMatrix:
    """journe_step at depth 3 with h_11's sqrt(2) at cell 56 moved to h_12.

    Moving a sample within a row keeps the coset identity to rounding
    (residual 4.4e-16), but cell 56 (x = 1/4) lies outside sigma_2, so
    column 2 breaks the support rule there: (0, 1, 56).  Only the support
    half of the verification gate refuses it.
    """
    filt = make_journe_step(depth=3)
    samples = filt.samples.copy()
    samples[0, 1, 56], samples[0, 0, 56] = samples[0, 0, 56], 0.0
    return FilterMatrix(filt.scale, filt.chain, filt.grid, samples)


def member(s: IntervalSet, x: Fraction) -> bool:
    """Pointwise membership of x in [0, 1), read off the canonical parts."""
    return any(a <= x < b for a, b in s.parts)


def near_constant_filter(
    rng: np.random.Generator, depth: int = 4, eps: float = 1e-3
) -> FilterMatrix:
    """A pure scalar filter that no norm bound on the powers of |K| certifies.

    On each coset pair the samples are sqrt(2) cos(pi/4 + eps) e^(i a) and
    sqrt(2) sin(pi/4 + eps) e^(i b) with random phases, so |K| has row
    sums cos(eps) but column sums up to cos(eps) + sin(eps) > 1, and the
    norm bound on its powers stays above 1 although the phases make rho(K)
    well below 1.  |H(0)| is about 1 - eps, so for eps > 0 the fixed cell
    certifies the filter; with eps = 0 every sample is unimodular, H(0)
    sits on the circle, and the verdict stays open.
    """
    grid = GridSpec(2, 1, depth)
    m = grid.cells
    mp = m // 2
    a = rng.uniform(0.0, 2.0 * np.pi, mp)
    b = rng.uniform(0.0, 2.0 * np.pi, mp)
    samples = np.empty((1, 1, m), dtype=np.complex128)
    samples[0, 0, :mp] = SQRT2 * math.cos(math.pi / 4 + eps) * np.exp(1j * a)
    samples[0, 0, mp:] = SQRT2 * math.sin(math.pi / 4 + eps) * np.exp(1j * b)
    return FilterMatrix(2, SigmaChain.full_circle(1), grid, samples)


def journe_profile_reference(params: JourneParams) -> np.ndarray:
    """The smooth Journe profile sampled cell by cell with exact rationals.

    Each cell's left endpoint x = t/M is compared with the breakpoints as
    a ``Fraction`` and each ramp argument is the float of an exact
    quotient, so this is the oracle for the bytes of ``journe_profile``.
    """
    m = params.grid.cells
    half = m // 2
    r = float(params.r)
    p1, p2, p3, p4, p5, p6, phalf = params.breakpoints()[:7]
    q0 = SQRT2 * math.sqrt(1.0 - r * r)
    q = np.zeros(m)
    for t in range(half):
        x = Fraction(t, m)
        if x < p1:
            q[t] = q0 * (1.0 - _transition(float(x / p1)))
        elif x < p2:
            q[t] = 0.0
        elif x < p3:
            q[t] = SQRT2 * _transition(float((x - p2) / (p3 - p2)))
        elif x < p4:
            q[t] = SQRT2
        elif x < p5:
            q[t] = SQRT2 * (1.0 - _transition(float((x - p4) / (p5 - p4))))
        elif x < p6:
            q[t] = 0.0
        else:
            q[t] = SQRT2 * r * _transition(float((x - p6) / (phalf - p6)))
    for t in range(half, m):
        q[t] = math.sqrt(max(0.0, 2.0 - q[t - half] ** 2))
    return q


def identity_two_channel() -> FilterMatrix:
    """H = I with c = 2 at depth 4: eigenvalue 1 on the two-dimensional space
    of constant fields."""
    grid = GridSpec(2, 1, 4)
    samples = np.zeros((2, 2, grid.cells), dtype=np.complex128)
    samples[0, 0] = samples[1, 1] = 1.0
    return FilterMatrix(2, SigmaChain.full_circle(2), grid, samples)


def haar_pair(depth: int = 6) -> FilterMatrix:
    """diag(h, h) for the Haar filter h, on the two-member full circle.

    Each channel satisfies the scalar identity on its own and the
    off-diagonal entries vanish, so the pair is a valid c = 2 filter.  A
    1 x 1 leading block leaves the other channel's |h| (about sqrt(2) near
    0) as an off-block, so only the full 2 x 2 block certifies.
    """
    haar = make_haar(depth)
    samples = np.zeros((2, 2, haar.cells), dtype=np.complex128)
    samples[0, 0] = samples[1, 1] = haar.samples[0, 0]
    return FilterMatrix(2, SigmaChain.full_circle(2), haar.grid, samples)
