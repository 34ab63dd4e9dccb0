"""The small-matrix kernels against LAPACK, and against exact arithmetic.

``smallmat`` solves the 1 x 1 and 2 x 2 matrices of the analysis in
closed form.  Each kernel is held to ``np.linalg``'s answer: bit for bit
where LAPACK's is exact (a triangular matrix's eigenvalues, a 1 x 1
matrix's eigenvalue and singular vector), and within a stated bound
elsewhere.  The 2 x 2 eigenvalues are also held to an exact reference,
within the fixed cell's rounding allowance r.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gmrafilters import (
    FilterMatrix,
    GridSpec,
    SigmaChain,
    assemble_transfer_matrix,
    make_journe_step,
    transfer_spectrum,
)
from gmrafilters.ruelle import (
    UNIT_ROUNDOFF,
    _by_modulus,
    _cell_zero_spectrum,
    _coarsest,
)
from gmrafilters import smallmat
from gmrafilters.smallmat import (
    _bundled_blas,
    eigen_condition,
    eigenvalues,
    null_vectors,
    singular_values,
)

from helpers import dense


def two_by_two_blocks(kind: str) -> np.ndarray:
    """A stack of 2 x 2 complex blocks of one kind, seeded."""
    rng = np.random.default_rng(24)
    rand = rng.standard_normal((400, 2, 2)) + 1j * rng.standard_normal((400, 2, 2))
    if kind == "random":
        return rand
    if kind == "zero":
        return np.zeros((3, 2, 2), dtype=np.complex128)
    if kind == "rank_one":
        return rand[:, :, :1] @ rand[:, :1, :]
    if kind == "triangular":
        return np.triu(rand)
    if kind == "scaled":
        return np.concatenate([rand[:100] * 1e150, rand[100:200] * 1e-150,
                               rand[200:] * [[1e150, 1e-150], [1.0, 1e-150]]])
    # Tied: a unitary times a scalar, so sigma_max = sigma_min, and two
    # exact ties.
    unitary = np.linalg.qr(rand)[0] * rng.uniform(0.1, 10.0, (400, 1, 1))
    exact = np.array([np.eye(2) * 3.0, [[0.0, 2.0], [2.0, 0.0]]], dtype=np.complex128)
    return np.concatenate([unitary, exact])


class TestSingularValueKernel:
    """The closed-form 2 x 2 singular values against LAPACK's."""

    @pytest.mark.parametrize(
        "kind", ["random", "zero", "rank_one", "triangular", "scaled", "tied"]
    )
    def test_2x2_within_eight_ulps_of_sigma_max(self, kind, monkeypatch):
        blocks = two_by_two_blocks(kind)
        lapack = np.linalg.svd(blocks, compute_uv=False)

        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK ran")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        got = singular_values(blocks)
        assert got.shape == lapack.shape
        bound = 8.0 * np.finfo(np.float64).eps * lapack[:, :1]
        assert np.all(np.abs(got - lapack) <= bound)
        assert np.all(got[:, 0] >= got[:, 1])

    def test_other_blocks_still_go_to_lapack(self):
        blocks = two_by_two_blocks("random")[:, :1, :]
        blocks = np.concatenate([blocks, blocks * 2j], axis=2)
        assert np.array_equal(
            singular_values(blocks), np.linalg.svd(blocks, compute_uv=False)
        )


def stacked_singular_values(blocks: np.ndarray) -> np.ndarray:
    """The 2 x 2 kernel as it stacked a, b, c and d into one copy, the reference.

    Each block is scaled, moved to (4, cells) by ``moveaxis`` and
    ``reshape``, and the four moduli are stacked and squared at once.
    ``singular_values`` reads a, b, c and d as views instead and must
    give the same bits.
    """
    scale = np.ldexp(1.0, np.minimum(np.frexp(np.abs(blocks).max(axis=(1, 2)))[1], 1023))
    a, b, c, d = np.moveaxis(blocks / scale[:, None, None], 0, 2).reshape(4, -1)
    sq = np.abs(np.stack([a, b, c, d])) ** 2
    p, r = sq[0] + sq[2], sq[1] + sq[3]
    q = np.abs(np.conj(a) * b + np.conj(c) * d)
    smax = np.sqrt((p + r + np.hypot(p - r, 2.0 * q)) / 2.0)
    det = np.abs(a * d - b * c)
    smin = np.divide(det, smax, out=np.zeros_like(det), where=smax > 0)
    return np.stack([smax, np.minimum(smin, smax)], axis=1) * scale[:, None]


class TestViewKernel:
    """``singular_values`` against the stacked kernel, bit for bit."""

    @pytest.mark.parametrize(
        "kind", ["random", "zero", "rank_one", "triangular", "scaled", "tied"]
    )
    def test_seeded_kinds(self, kind):
        blocks = two_by_two_blocks(kind)
        got = singular_values(blocks)
        assert got.tobytes() == stacked_singular_values(blocks).tobytes()

    @pytest.mark.parametrize(
        "kind", ["random", "zero", "rank_one", "triangular", "scaled", "tied"]
    )
    def test_seeded_kinds_in_small_chunks(self, kind, monkeypatch):
        # Chunk boundaries fall inside every stack but the zero one.
        monkeypatch.setattr(smallmat, "_CHUNK", 7)
        blocks = two_by_two_blocks(kind)
        got = singular_values(blocks)
        assert got.tobytes() == stacked_singular_values(blocks).tobytes()

    def test_stack_spanning_several_chunks(self):
        kinds = ["random", "zero", "rank_one", "triangular", "scaled", "tied"]
        mixed = np.concatenate([two_by_two_blocks(kind) for kind in kinds])
        count = 2 * smallmat._CHUNK + 123
        blocks = np.tile(mixed, (count // len(mixed) + 1, 1, 1))[:count]
        got = singular_values(blocks)
        assert got.tobytes() == stacked_singular_values(blocks).tobytes()

    def test_fifty_thousand_random_blocks(self):
        rng = np.random.default_rng(28)
        shape = (50_000, 2, 2)
        blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        blocks *= 10.0 ** rng.uniform(-300, 300, shape)
        got = singular_values(blocks)
        assert got.tobytes() == stacked_singular_values(blocks).tobytes()

    def test_strided_blocks_of_a_filter(self):
        # The certificate search hands over the leading 2 x 2 blocks as a
        # strided view of the samples (c, c, M) moved to (M, c, c).
        samples = make_journe_step(depth=6).samples
        blocks = np.transpose(samples, (2, 0, 1))[:, :2, :2]
        assert not blocks.flags.c_contiguous
        got = singular_values(blocks)
        assert got.tobytes() == stacked_singular_values(blocks).tobytes()

    @pytest.mark.parametrize(
        "big", [1e308, float(np.finfo(np.float64).max), -(2.0**1023), 1e308j]
    )
    def test_at_the_cap(self, big):
        blocks = np.array(
            [[[big, 0], [0, 1]], [[big, 1], [1, 2]], [[1, big], [0, 1]]],
            dtype=np.complex128,
        )
        got = singular_values(blocks)
        assert got.tobytes() == stacked_singular_values(blocks).tobytes()


class TestTopOfTheFloatRange:
    """A modulus at or above 2^1023 scales by 2^1023, the largest finite power of two.

    The power of two at or above such a modulus, 2^1024, is not a float.
    The suite turns warnings into errors, so an overflow fails here.
    """

    @pytest.mark.parametrize(
        "big", [1e308, float(np.finfo(np.float64).max), -(2.0**1023), 1e308j]
    )
    def test_singular_values_are_lapacks(self, big):
        blocks = np.array(
            [[[big, 0], [0, 1]], [[big, 1], [1, 2]], [[1, big], [0, 1]]],
            dtype=np.complex128,
        )
        got = singular_values(blocks)
        assert got[0].tolist() == [abs(big), 1.0]
        assert np.array_equal(got, np.linalg.svd(blocks, compute_uv=False))

    @pytest.mark.parametrize(
        "block, expected",
        [
            ([[1.5e308 + 1.5e308j, 0], [0, 1]], [math.inf, 1.0]),
            ([[1.5e308 + 1.5e308j, 1], [1, 2]], [math.inf, 2.0]),
            ([[1.5e308 + 1.5e308j, 0], [0, 1.5e308 + 1.5e308j]], [math.inf, math.inf]),
        ],
    )
    def test_finite_block_whose_modulus_overflows(self, block, expected):
        # |1.5e308 + 1.5e308i| is past the float range, so the block scales
        # by 2^1023 too, and a sigma past the range comes back infinite.
        # (LAPACK gives NaN for both.)
        got = singular_values(np.array([block], dtype=np.complex128))
        assert got.tolist() == [expected]

    def test_eigen_condition_of_a_finite_matrix_whose_modulus_overflows(self):
        # |1.5e308 + 1.5e308i| is past the float range: the matrix scales
        # by 2^1023, as in ``singular_values``, instead of not at all.
        matrix = np.array([[1.5e308 + 1.5e308j, 1], [1, 1]], dtype=np.complex128)
        values, cond = eigen_condition(matrix)
        assert values.tolist() == [1.5e308 + 1.5e308j, 1.0]
        assert cond == 1.0

    @pytest.mark.parametrize("k", [600, -600])
    def test_eigen_condition_commutes_with_a_power_of_two(self, k):
        # Both matrices scale to the same one, so only the eigenvalues'
        # exponents differ.
        rng = np.random.default_rng(37)
        for kind in ("complex", "real", "near_defective") * 20:
            matrix = two_by_two(kind, rng)
            values, cond = eigen_condition(matrix)
            scaled_values, scaled_cond = eigen_condition(2.0**k * matrix)
            assert np.array_equal(scaled_values, 2.0**k * values)
            assert scaled_cond == cond

    @pytest.mark.parametrize("big", [1e308, float(np.finfo(np.float64).max)])
    def test_eigen_condition_is_finite(self, big):
        matrix = np.array([[big, 1], [1, 2]], dtype=np.complex128)
        values, cond = eigen_condition(matrix)
        assert values.tolist() == [big, 2.0]
        assert np.array_equal(values, np.linalg.eigvals(matrix))
        assert cond == 1.0


def exact_eigenvalues(m: np.ndarray) -> list:
    """The eigenvalues of a 2 x 2 float matrix to 60 digits, as (re, im) Decimals.

    Half the trace and the discriminant ((a - d)/2)^2 + bc are exact
    rationals of the float entries; only the complex square root rounds.
    """
    (a, b), (c, d) = [
        [(Fraction(z.real), Fraction(z.imag)) for z in row] for row in m.tolist()
    ]

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    gap = ((a[0] - d[0]) / 2, (a[1] - d[1]) / 2)
    disc = [p + q for p, q in zip(mul(gap, gap), mul(b, c))]
    with localcontext() as ctx:
        ctx.prec = 60
        half = [
            Decimal(x.numerator) / x.denominator
            for x in ((a[0] + d[0]) / 2, (a[1] + d[1]) / 2)
        ]
        x, y = (Decimal(v.numerator) / v.denominator for v in disc)
        r = (x * x + y * y).sqrt()
        if r == 0:
            root = (Decimal(0), Decimal(0))
        elif x >= 0:
            re = ((r + x) / 2).sqrt()
            root = (re, y / (2 * re))
        else:
            im = ((r - x) / 2).sqrt().copy_sign(y)
            root = (y / (2 * im), im)
        return [(half[0] + k * root[0], half[1] + k * root[1]) for k in (1, -1)]


def distance(z: complex, exact: tuple) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        dx, dy = Decimal(z.real) - exact[0], Decimal(z.imag) - exact[1]
        return (dx * dx + dy * dy).sqrt()


def two_by_two(kind: str, rng) -> np.ndarray:
    """A random H(0): complex, real-valued, or near a Jordan block."""
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    if kind == "real":
        return m.real.astype(np.complex128)
    if kind == "near_defective":
        lam = complex(*rng.standard_normal(2))
        jordan = np.array([[lam, 1.0], [0.0, lam]]) + 10.0 ** rng.uniform(-16, -4) * m
        p = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return p @ jordan @ np.linalg.inv(p)
    return m


class TestEigenvalues:
    """The fixed cell's 2 x 2 eigenvalues and the 1 x 1 shortcuts against LAPACK."""

    def test_triangular_eigenvalues_are_lapacks_bit_for_bit(self):
        rng = np.random.default_rng(24)
        for k in range(400):
            h0 = two_by_two("real" if k % 3 == 0 else "complex", rng)
            h0[k % 2, 1 - k % 2] = 0.0
            eigenvalues, _, _ = _cell_zero_spectrum(h0)
            lapack = _by_modulus(np.linalg.eig(h0.T)[0])
            assert eigenvalues.tobytes() == lapack.tobytes()

    @pytest.mark.parametrize("kind", ["complex", "real", "near_defective"])
    def test_eigenvalues_lie_within_the_allowance(self, kind):
        # r bounds the closed form's distance from the exact eigenvalues.
        # LAPACK's own distance reached 1.9 r on such draws, so its
        # eigenvalues are held to 4 r of the closed form's.
        rng = np.random.default_rng(24)
        finite = 0
        for _ in range(200):
            h0 = two_by_two(kind, rng)
            eigenvalues, _, allowance = _cell_zero_spectrum(h0)
            if allowance == math.inf:
                continue
            finite += 1
            exact = exact_eigenvalues(h0.T)
            bound = Decimal(allowance)
            for z in eigenvalues.tolist():
                assert min(distance(z, e) for e in exact) <= bound
            for e in exact:
                assert min(distance(z, e) for z in eigenvalues.tolist()) <= bound
            for z in np.linalg.eig(h0.T)[0]:
                assert np.abs(eigenvalues - z).min() <= 4 * allowance
        assert finite >= 150

    @pytest.mark.parametrize(
        "h0t",
        [
            [[0.5, 1.0], [0.0, 0.5]],
            [[0.5, 0.0], [1e-3j, 0.5]],
            [[1.0, 1.0], [-1.0, -1.0]],
            [[3.0, 1.0], [-1.0, 1.0]],
        ],
        ids=["upper", "lower", "nilpotent", "rotated"],
    )
    def test_a_jordan_block_gets_an_infinite_allowance(self, h0t):
        h0 = np.array(h0t, dtype=np.complex128).T
        eigenvalues, _, allowance = _cell_zero_spectrum(h0)
        assert eigenvalues[0] == eigenvalues[1]
        assert allowance == math.inf

    def test_a_scalar_matrix_has_unit_condition(self):
        _, _, allowance = _cell_zero_spectrum(np.diag([0.5j, 0.5j]))
        assert allowance == 4 * UNIT_ROUNDOFF * np.linalg.norm([0.5, 0.5])

    @pytest.mark.parametrize(
        "entry, lam",
        [(0.0, 1.0), (-2.0, 1.0), (1.0, 1.0), (0.5 + 0.3j, 1j), (1e-300j, -1.0),
         (1.0 + 0j, 1.0), (-0.5j, 0.5j), (1e300, 1.0)],
    )
    def test_1x1_null_vector_is_svds(self, entry, lam, monkeypatch):
        matrix = np.array([[entry]])
        shift = lam.real if complex(lam).imag == 0 else lam
        vh = np.linalg.svd(matrix - shift * np.eye(1))[2]
        lapack = np.conj(vh[::-1][:1])
        monkeypatch.setattr(np.linalg, "svd", None)
        got = null_vectors(matrix, complex(lam), 1)
        assert got.dtype == lapack.dtype
        assert got.tobytes() == lapack.tobytes()

    @pytest.mark.parametrize(
        "h", [1.0, -2.0, 0.7, 0.5 + 0.3j, -0.25j, 1e-100j, 3e100, 1e-138, 1e138]
    )
    def test_1x1_transfer_eigenvalue_is_eigvals(self, h, monkeypatch):
        # A constant sample coarsens to one coarse cell: K is 1 x 1.
        filt = FilterMatrix(
            2, SigmaChain.full_circle(1), GridSpec(2, 1, 3), np.full((1, 1, 8), h)
        )
        matrix = dense(assemble_transfer_matrix(_coarsest(filt)[0]))
        assert matrix.shape == (1, 1)
        matrix = matrix.real if not np.any(matrix.imag) else matrix
        lapack = _by_modulus(np.linalg.eigvals(matrix))
        monkeypatch.setattr(np.linalg, "eigvals", None)
        monkeypatch.setattr(np.linalg, "svd", None)
        got = transfer_spectrum(filt).eigenvalues
        assert got[:1].tobytes() == lapack.tobytes()

    def test_1x1_transfer_eigenvalue_is_exact_past_lapacks_scaling(self):
        # LAPACK scales a matrix of norm below about 6.7e-139 before it
        # solves, and can round the eigenvalue's last bit scaling back.
        h = 1e-300
        filt = FilterMatrix(
            2, SigmaChain.full_circle(1), GridSpec(2, 1, 3), np.full((1, 1, 8), h)
        )
        assert transfer_spectrum(filt).eigenvalues[0] == h
        assert np.linalg.eigvals([[h]])[0] != h


class TestBundledBlas:
    """The thread pin around eigvals, on the OpenBLAS numpy 2 wheels bundle."""

    @pytest.mark.parametrize("folder", ["numpy.libs", "numpy/.dylibs"])
    def test_found_in_either_wheel_folder(self, tmp_path, monkeypatch, folder):
        site = Path(np.__file__).parents[1]
        real = [*site.glob("numpy.libs/libscipy_openblas64_*")]
        real += site.glob("numpy/.dylibs/libscipy_openblas64_*")
        fake = tmp_path / "site"
        (fake / "numpy").mkdir(parents=True)
        (fake / folder).mkdir(exist_ok=True)
        (fake / folder / "libscipy_openblas64_-0.so").symlink_to(real[0])
        threads = _bundled_blas()[0]()
        monkeypatch.setattr(np, "__file__", str(fake / "numpy" / "__init__.py"))
        assert _bundled_blas()[0]() == threads

    def test_eigvals_restores_the_thread_count(self):
        get, pin = _bundled_blas()
        threads = get()
        pin(2)
        try:
            eigenvalues(np.random.default_rng(3).standard_normal((40, 40)))
            assert get() == 2
        finally:
            pin(threads)
