"""Block certificates, the certificate search, and the derived parameters."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrafilters import (
    Certificate,
    CertificateFailure,
    FilterMatrix,
    GridAlignmentError,
    GridSpec,
    IntervalSet,
    NOT_PURE_CERTIFIED,
    PURE_AT_RESOLUTION,
    PURE_CERTIFIED,
    ParameterError,
    SigmaChain,
    certificate_eps,
    check_certificate,
    classify_purity,
    derive_journe,
    filter_equation_residual,
    make_journe_step,
    make_constant,
    make_haar,
    make_journe_family,
    make_shannon,
    search_certificate,
)

from gmrafilters.lowpass import (
    MARGIN_ALLOWANCE,
    _block_norms,
    _nonfinite_cells,
    _symmetric_region,
)
from gmrafilters.smallmat import singular_values
from gmrafilters.ruelle import TOL_EIG, _rules_out_the_circle

from helpers import (
    haar_pair,
    identity_two_channel,
    near_constant_filter,
    planted_filter,
    planted_unitary_filter,
    random_phase_copy,
    random_scalar_filter,
    with_sample,
)

SQRT2 = math.sqrt(2.0)


def symmetric(num, den) -> IntervalSet:
    return IntervalSet.from_arcs([(Fraction(-num, den), Fraction(num, den))])


def shannon_three(depth: int) -> FilterMatrix:
    """sqrt(3) on [-1/6, 1/6), else 0, at scale N = 3.

    [-1/6, 1/6) meets each coset {x, x + 1/3, x + 2/3} exactly once, so
    the coset sum is 3 everywhere.
    """
    grid = GridSpec(3, 6, depth)
    samples = np.zeros((1, 1, grid.cells), dtype=np.complex128)
    samples[0, 0, symmetric(1, 6).cell_mask(grid)] = math.sqrt(3.0)
    return FilterMatrix(3, SigmaChain.full_circle(1), grid, samples)


def reference_search(filt: FilterMatrix):
    """The certificate search by exact set algebra, for comparison.

    Every block size a and half-width j is tried with the largest delta
    whose 1 + delta stays within the region's smallest sigma_min, and the
    successes are ranked by (delta, exact overlap, -a).  sigma_min comes
    from the search's own kernel: LAPACK's differs from it in the last
    bits, and a delta taken from one fails the other's re-check.
    """
    m = filt.cells
    mats = np.transpose(filt.samples, (2, 0, 1))
    best = None
    for a in range(1, filt.count + 1):
        for j in range(1, m // 2 + 1):
            region = symmetric(j, m)
            cells = np.nonzero(region.cell_mask(filt.grid))[0]
            svals = singular_values(mats[cells, :a, :a])
            sigma = float(svals[:, -1].min())
            delta = sigma - 1.0
            if delta <= 0.0:
                continue
            while 1.0 + delta > sigma:
                delta = float(np.nextafter(delta, -math.inf))
            cert = check_certificate(filt, a, delta, region)
            if isinstance(cert, Certificate):
                key = (cert.delta, cert.overlap_measure, -a)
                if best is None or key > best[0]:
                    best = (key, cert)
    return None if best is None else best[1]


def loop_search(filt: FilterMatrix):
    """The certificate search as a Python loop over j, for comparison.

    Per block size it walks the cell pairs (j - 1, M - j) with a running
    minimum of sigma_min and maximum of the off-block norms, stops at the
    first margin within the allowance, steps delta down with nextafter
    while 1 + delta exceeds sigma_min (which never happens, see
    ``test_one_plus_the_margin_never_exceeds_sigma_min``), skips rows
    whose off-blocks exceed eps, and keeps the best (delta, j, -a).
    """
    if _nonfinite_cells(filt).size:
        return None
    m = filt.cells
    best = None
    for a in range(1, filt.count + 1):
        smin, off = (x.tolist() for x in _block_norms(filt, a, np.arange(m)))
        worst_smin = math.inf
        worst_off = 0.0
        for j in range(1, m // 2 + 1):
            worst_smin = min(worst_smin, smin[j - 1], smin[m - j])
            worst_off = max(worst_off, off[j - 1], off[m - j])
            delta = worst_smin - 1.0
            if delta <= MARGIN_ALLOWANCE:
                break
            while 1.0 + delta > worst_smin:
                delta = float(np.nextafter(delta, -math.inf))
            if worst_off >= certificate_eps(delta):
                continue
            key = (delta, j, -a)
            if best is None or key > best:
                best = key
    if best is None:
        return None
    delta, j, neg_a = best
    return check_certificate(filt, -neg_a, delta, _symmetric_region(filt.grid, j))


def block_filter(values: dict, count: int = 2, cells: int = 4) -> FilterMatrix:
    """Hand-built filter for block checks; no identity is implied."""
    grid = GridSpec(2, 1, int(math.log2(cells)))
    samples = np.zeros((count, count, cells), dtype=np.complex128)
    for (i, j), v in values.items():
        samples[i, j, :] = v
    return FilterMatrix(2, SigmaChain.full_circle(count), grid, samples)


def expanding_unitary_filter(rng: np.random.Generator, depth: int) -> FilterMatrix:
    """(1 + 0.6 cos 2 pi x) times a random 2 x 2 unitary at each cell.

    Only the full block expands, by a factor that shrinks away from 0, so
    the winning block size is 2 and the margin falls as the region grows.
    No identity is implied.
    """
    grid = GridSpec(2, 1, depth)
    z = rng.normal(size=(grid.cells, 2, 2)) + 1j * rng.normal(size=(grid.cells, 2, 2))
    unitary = np.linalg.qr(z)[0]
    gain = 1.0 + 0.6 * np.cos(2.0 * np.pi * np.arange(grid.cells) / grid.cells)
    samples = np.transpose(gain[:, None, None] * unitary, (1, 2, 0))
    return FilterMatrix(2, SigmaChain.full_circle(2), grid, samples)


def reference_sweep_filters() -> list:
    rng = np.random.default_rng(2024)
    cases = []
    for depth in range(1, 7):
        for k in range(4):
            filt = random_scalar_filter(rng, depth)
            cases.append((f"random_d{depth}_{k}", filt))
    journe = make_journe_family(derive_journe(0.1).params)
    for k in range(2):
        step = random_phase_copy(make_journe_step(), rng)
        cases.append((f"journe_step_phase_{k}", step))
        cases.append((f"journe_phase_{k}", random_phase_copy(journe, rng)))
    cases.append(("constant", make_constant()))
    for depth in range(1, 4):
        cases.append((f"shannon_three_d{depth}", shannon_three(depth)))
    cases.append(("full_block", block_filter({(0, 0): 1.2, (1, 1): 1.3}, cells=16)))
    for depth in (3, 5):
        filt = expanding_unitary_filter(rng, depth)
        cases.append((f"expanding_unitary_d{depth}", filt))
    return cases


REFERENCE_SWEEP = reference_sweep_filters()


def loop_reference_filters() -> list:
    """Generators at several depths, seeded draws, and huge samples."""
    rng = np.random.default_rng(27)
    lam = np.exp(2j * np.pi * 0.3)
    cases = [(f"haar_{d}", make_haar(d)) for d in range(1, 19)]
    cases += [(f"shannon_{d}", make_shannon(d)) for d in (1, 2, 4, 8)]
    cases += [(f"shannon_three_{d}", shannon_three(d)) for d in (1, 2, 3)]
    cases += [
        (f"constant_n{n}_{d}", make_constant(d, n)) for n in (2, 3) for d in (1, 3, 6)
    ]
    cases += [
        (f"journe_step_{d}_{h}", make_journe_step(d, h))
        for d in (1, 2, 4, 6)
        for h in (False, True)
    ]
    for delta in (1e-6, 0.05, 0.1, 0.2, 0.41):
        for depth in (2, 5, 8):
            params = derive_journe(delta, GridSpec(2, 56, depth)).params
            cases.append((f"journe_{delta}_{depth}", make_journe_family(params)))
    cases += [
        (f"random_d{d}_{k}", random_scalar_filter(rng, d))
        for d in range(1, 13)
        for k in range(5)
    ]
    phased = [make_haar(6), make_shannon(), make_journe_step(), haar_pair(4),
              make_journe_family(derive_journe(0.1).params)]
    cases += [(f"phase_{k}", random_phase_copy(f, rng)) for k, f in enumerate(phased)]
    cases += [
        (f"planted_n{n}_{d}", planted_filter(rng, n, d, lam)[0])
        for n in (2, 3, 4)
        for d in (2, 3)
    ]
    cases += [
        (f"planted_unitary_n{n}", planted_unitary_filter(rng, n, 3, lam)[0])
        for n in (2, 3)
    ]
    cases.append(("near_constant", near_constant_filter(rng)))
    cases.append(("unimodular", near_constant_filter(rng, eps=0.0)))
    cases.append(("identity_two_channel", identity_two_channel()))
    cases += [(f"haar_pair_{d}", haar_pair(d)) for d in (1, 2, 6, 10)]
    top = float(np.finfo(np.float64).max)
    cases += [
        ("haar_1e200", with_sample(make_haar(), 0, 0, 3, 1e200)),
        ("journe_step_lead_1e308", with_sample(make_journe_step(), 0, 0, 0, 1e308)),
        ("journe_step_corner_1e308", with_sample(make_journe_step(), 1, 1, 0, 1e308)),
        # A finite sample whose modulus, sqrt(2) * 1.5e308, is past the
        # float range: its 2 x 2 block's sigma_max is infinite, without a
        # warning (which this suite would raise).
        (
            "journe_step_corner_overflow",
            with_sample(make_journe_step(), 1, 1, 0, 1.5e308 + 1.5e308j),
        ),
        ("haar_pair_top", with_sample(haar_pair(6), 1, 1, 0, -top)),
        ("haar_pair_off_top", with_sample(haar_pair(6), 0, 1, 5, top)),
    ]
    return cases


LOOP_REFERENCE = loop_reference_filters()


class TestEpsRule:
    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.9, 1.0, 3.0])
    def test_bit_exact_formula(self, delta):
        assert certificate_eps(delta) == min(1.0 / 8.0, delta / 8.0)

    def test_small_delta_is_the_binding_branch(self):
        assert certificate_eps(0.1) == 0.0125
        assert certificate_eps(2.0) == 0.125


class TestCheckCertificate:
    def test_haar_certifies_at_delta_point_three(self):
        filt = make_haar()
        cert = check_certificate(filt, 1, 0.3, symmetric(1, 8))
        assert isinstance(cert, Certificate)
        assert cert.sigma_min == pytest.approx(SQRT2 * math.cos(math.pi / 8))
        assert cert.sigma_min >= 1.3
        assert cert.eps == 0.0375
        assert cert.overlap_measure == Fraction(1, 4)

    def test_haar_expansivity_failure_has_the_right_witness(self):
        filt = make_haar()
        failure = check_certificate(filt, 1, 0.35, symmetric(1, 8))
        assert isinstance(failure, CertificateFailure)
        assert failure.reason == "expansivity failure"
        # cells 0, 1, 14, 15; the first offender in ascending order is 14
        assert failure.witness_cell == 14

    def test_singular_block_is_reported_as_such(self):
        filt = make_shannon()
        failure = check_certificate(filt, 1, 0.1, symmetric(1, 2))
        assert isinstance(failure, CertificateFailure)
        assert "singular" in failure.detail

    def test_off_block_failure(self):
        filt = block_filter({(0, 0): 1.5, (1, 0): 0.2})
        failure = check_certificate(filt, 1, 0.4, symmetric(1, 4))
        assert isinstance(failure, CertificateFailure)
        assert failure.reason == "off-block failure"
        assert failure.witness_cell == 0

    def test_overlap_failure(self):
        filt = block_filter({(0, 0): 1.5}, count=1)
        region = IntervalSet.from_arcs([(Fraction(1, 4), Fraction(1, 2))])
        failure = check_certificate(filt, 1, 0.4, region)
        assert isinstance(failure, CertificateFailure)
        assert "dilation" in failure.reason

    def test_empty_region_fails(self):
        filt = make_haar()
        failure = check_certificate(filt, 1, 0.1, IntervalSet(()))
        assert isinstance(failure, CertificateFailure)
        assert failure.reason == "empty region"

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_sample_fails_closed(self, value):
        filt = with_sample(make_haar(), 0, 0, 0, value)
        failure = check_certificate(filt, 1, 0.3, symmetric(1, 8))
        assert isinstance(failure, CertificateFailure)
        assert failure.reason == "non-finite samples"
        assert failure.witness_cell == 0

    def test_parameter_validation(self):
        filt = make_haar()
        with pytest.raises(ParameterError):
            check_certificate(filt, 0, 0.1, symmetric(1, 8))
        with pytest.raises(ParameterError):
            check_certificate(filt, 2, 0.1, symmetric(1, 8))
        with pytest.raises(ParameterError):
            check_certificate(filt, 1, 0.0, symmetric(1, 8))
        with pytest.raises(GridAlignmentError):
            check_certificate(filt, 1, 0.1, symmetric(1, 3))

    def test_margin_within_the_allowance_is_refused(self):
        filt = make_haar()
        for delta in (2.0**-52, MARGIN_ALLOWANCE):
            failure = check_certificate(filt, 1, delta, symmetric(1, 16))
            assert isinstance(failure, CertificateFailure)
            assert failure.reason == "margin within rounding allowance"
        above = float(np.nextafter(MARGIN_ALLOWANCE, math.inf))
        cert = check_certificate(filt, 1, above, symmetric(1, 16))
        assert isinstance(cert, Certificate)

    def test_one_ulp_expansion_of_a_planted_filter_is_refused(self):
        # Cells 0 and 7 of this non-pure filter have modulus 1 + 2^-52.
        filt, _ = planted_filter(
            np.random.default_rng(4), 2, 3, np.exp(2j * np.pi * 0.3)
        )
        moduli = np.abs(filt.samples[0, 0, [0, 7]])
        assert np.all(moduli > 1.0)
        failure = check_certificate(filt, 1, 2.0**-52, symmetric(1, 8))
        assert isinstance(failure, CertificateFailure)
        assert failure.reason == "margin within rounding allowance"

    def test_full_block_certificate_ignores_off_blocks(self):
        filt = block_filter({(0, 0): 1.2, (1, 1): 1.3})
        cert = check_certificate(filt, 2, 0.1, symmetric(1, 4))
        assert isinstance(cert, Certificate)
        assert cert.sigma_min == pytest.approx(1.2)
        assert cert.off_block_max == 0.0


class TestSearchCertificate:
    def test_haar_best_region_and_margin(self):
        cert = search_certificate(make_haar())
        assert cert is not None
        assert cert.block_size == 1
        assert cert.region == symmetric(1, 16)
        best = SQRT2 * math.cos(math.pi / 16) - 1.0
        assert cert.delta == pytest.approx(best, abs=1e-12)
        assert cert.delta == pytest.approx(0.3870398453221475, abs=1e-12)

    def test_shannon_takes_the_widest_flat_region(self):
        cert = search_certificate(make_shannon())
        assert cert is not None
        assert cert.region == symmetric(1, 4)
        assert cert.delta == pytest.approx(SQRT2 - 1.0, abs=1e-12)
        assert cert.overlap_measure == Fraction(1, 2)

    def test_journe_step_certifies_on_the_inner_seventh(self):
        cert = search_certificate(make_journe_step())
        assert cert is not None
        assert cert.block_size == 1
        assert cert.region == symmetric(1, 7)
        assert cert.delta == pytest.approx(SQRT2 - 1.0, abs=1e-12)
        assert cert.off_block_max == 0.0

    def test_constant_filter_has_no_certificate(self):
        assert search_certificate(make_constant()) is None

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_sample_finds_no_certificate(self, value):
        assert search_certificate(with_sample(make_haar(), 0, 0, 0, value)) is None

    @pytest.mark.parametrize(
        "filt",
        [filt for _, filt in REFERENCE_SWEEP],
        ids=[name for name, _ in REFERENCE_SWEEP],
    )
    def test_ranking_matches_exact_set_algebra(self, filt):
        assert search_certificate(filt) == reference_search(filt)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_scale_three_shannon_certifies_with_overlap_one_third(self, depth):
        filt = shannon_three(depth)
        assert filter_equation_residual(filt).max_abs_residual <= 1e-12
        cert = search_certificate(filt)
        assert cert is not None
        assert cert.region == symmetric(1, 6)
        assert cert.overlap_measure == Fraction(1, 3)

    def test_only_the_winning_region_is_built(self, monkeypatch):
        # The candidates are ranked without set algebra, so the number of
        # exact regions built does not grow with the grid.
        from_arcs = IntervalSet.from_arcs.__func__
        calls = []

        def counting(cls, arcs):
            calls.append(1)
            return from_arcs(cls, arcs)

        monkeypatch.setattr(IntervalSet, "from_arcs", classmethod(counting))
        counts = []
        for depth in (6, 10):
            calls.clear()
            assert search_certificate(make_haar(depth=depth)) is not None
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_planted_non_pure_filters_get_no_certificate(self):
        lam = np.exp(2j * np.pi * 0.3)
        certified = []
        for scale in (2, 3, 4):
            for depth in (2, 3, 4):
                for seed in range(300):
                    rng = np.random.default_rng(seed)
                    filt, _ = planted_filter(rng, scale, depth, lam)
                    if search_certificate(filt) is not None:
                        certified.append((scale, depth, seed, "block"))
                    cell = classify_purity(filt).fixed_cell
                    if _rules_out_the_circle(cell.margin, cell.allowance, TOL_EIG):
                        certified.append((scale, depth, seed, "fixed_cell"))
        assert certified == []

    def test_one_by_one_blocks_take_the_exact_modulus(self, monkeypatch):
        two_channel = make_journe_step(depth=3)
        cells = np.arange(two_channel.cells)
        mats = np.transpose(two_channel.samples, (2, 0, 1))
        smin, off = _block_norms(two_channel, 2, cells)
        assert np.array_equal(smin, np.linalg.svd(mats, compute_uv=False)[:, -1])
        assert np.all(off == 0.0)

        def refuse(*args, **kwargs):
            raise AssertionError("a 1 x 1 block went through the SVD")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        h = np.abs(two_channel.samples)
        smin, off = _block_norms(two_channel, 1, cells)
        assert np.array_equal(smin, h[0, 0])
        assert np.array_equal(off, np.maximum(np.maximum(h[0, 1], h[1, 0]), h[1, 1]))
        # a scalar filter's search takes no SVD at all
        for filt in (make_haar(depth=8), make_shannon()):
            assert search_certificate(filt) is not None

    @pytest.mark.parametrize(
        "filt",
        [filt for _, filt in LOOP_REFERENCE],
        ids=[name for name, _ in LOOP_REFERENCE],
    )
    def test_prefix_reductions_equal_the_loop_field_for_field(self, filt):
        found = search_certificate(filt)
        # repr also holds every field to its Python type.
        assert repr(found) == repr(loop_search(filt))
        assert found == loop_search(filt)

    def test_the_loop_reference_set_reaches_every_outcome(self):
        found = [search_certificate(filt) for _, filt in LOOP_REFERENCE]
        sizes = {cert.block_size for cert in found if cert is not None}
        assert sizes == {1, 2}
        assert None in found

    def test_the_full_block_wins_on_the_haar_pair(self):
        filt = haar_pair(6)
        assert filter_equation_residual(filt).max_abs_residual <= 1e-15
        cert = search_certificate(filt)
        assert cert is not None
        assert cert.block_size == 2
        assert cert.region == symmetric(1, 64)
        assert cert.delta == 0.4125100802019772
        assert cert.off_block_max == 0.0
        assert classify_purity(filt).status == PURE_CERTIFIED

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmSize from procfs"
    )
    def test_search_reads_the_samples_without_copying_them(self):
        # haar 20 holds 16 MB of samples.  The search's temporaries stay
        # within about 28 MB of address space; a loop over Python float
        # lists of every cell needed about 103 MB.
        script = (
            "import resource\n"
            "from gmrafilters import make_haar, search_certificate\n"
            "filt = make_haar(20)\n"
            "with open('/proc/self/status') as status:\n"
            "    size = next(int(line.split()[1]) for line in status\n"
            "                if line.startswith('VmSize:')) * 1024\n"
            "limit = size + 48 * 2**20\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "cert = search_certificate(filt)\n"
            "print(cert.block_size, repr(cert.delta))\n"
        )
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1 0.41421356236674756\n"

    def test_search_result_passes_rechecking(self):
        cert = search_certificate(make_haar())
        again = check_certificate(
            make_haar(), cert.block_size, cert.delta, cert.region
        )
        assert isinstance(again, Certificate)


@settings(max_examples=500)
@given(
    st.one_of(
        st.floats(min_value=1.0, allow_nan=False, allow_infinity=True),
        st.floats(min_value=2.0**53, max_value=2.0**54, exclude_max=True),
        st.just(math.inf),
    )
)
def test_one_plus_the_margin_never_exceeds_sigma_min(w):
    # delta = w - 1 is exact below 2^53 and rounds to even above, so the
    # search takes it as it stands, with no step down.
    assert 1.0 + (w - 1.0) <= w


def test_one_plus_the_margin_at_every_float_near_the_binade_edges():
    top = np.finfo(np.float64).max
    edges = np.array([1.0, 2.0, 2.0**52, 2.0**53, 2.0**54, 2.0**60, top])
    steps = np.arange(-4096, 4097).astype(np.int64)
    w = (edges.view(np.int64)[:, None] + steps).view(np.float64).ravel()
    w = np.append(w[(w >= 1.0) & np.isfinite(w)], math.inf)
    assert np.all(1.0 + (w - 1.0) <= w)


class TestDeriveJourne:
    def test_default_delta_parameters(self):
        d = derive_journe(0.1)
        assert d.r1 == 0.003125
        assert d.r1 == min(1.0 / 16.0, 0.1 / 16.0) / 2.0
        assert d.r2 == pytest.approx(0.5344611239991642, abs=1e-12)
        assert d.r == d.r1
        assert d.interval_denominator == 112
        assert d.region == symmetric(1, 112)
        assert all(c.ok for c in d.checks.values())

    def test_derived_filter_carries_the_promised_certificate(self):
        d = derive_journe(0.1)
        filt = make_journe_family(d.params)
        cert = check_certificate(filt, 1, d.delta, d.region)
        assert isinstance(cert, Certificate)
        assert cert.sigma_min >= 1.1
        assert cert.off_block_max <= 0.005
        assert cert.eps == 0.0125

    def test_admissible_range_is_enforced(self):
        with pytest.raises(ParameterError):
            derive_journe(0.0)
        with pytest.raises(ParameterError):
            derive_journe(-0.2)
        with pytest.raises(ParameterError):
            derive_journe(SQRT2 - 1.0)
        with pytest.raises(ParameterError):
            derive_journe(0.75)

    @pytest.mark.parametrize("delta", [1e-6, 0.05, 0.2, 0.41])
    def test_whole_range_derives_and_checks(self, delta):
        d = derive_journe(delta)
        assert 0 < d.r < 1
        assert all(c.ok for c in d.checks.values())
        filt = make_journe_family(d.params)
        cert = check_certificate(filt, 1, delta, d.region)
        assert isinstance(cert, Certificate)

    def test_expansion_cap_binds_for_large_delta(self):
        d = derive_journe(0.41)
        assert d.r2 < 0.0625
        assert d.r == min(d.r1, d.r2)

    def test_checks_have_positive_margins(self):
        d = derive_journe(0.1)
        for name, check in d.checks.items():
            assert check.margin >= 0.0, name


class TestSoundness:
    """A certificate and an accepted eigenpair must never coexist."""

    @pytest.mark.parametrize(
        "make,expected",
        [
            (make_haar, PURE_CERTIFIED),
            (make_shannon, PURE_CERTIFIED),
            (make_journe_step, PURE_CERTIFIED),
            (make_constant, NOT_PURE_CERTIFIED),
        ],
    )
    def test_generators(self, make, expected):
        filt = make()
        cert = search_certificate(filt)
        verdict = classify_purity(filt, certificate=cert)
        assert verdict.status == expected

    def test_fifty_random_valid_filters(self):
        rng = np.random.default_rng(12345)
        statuses = set()
        for k in range(50):
            filt = random_scalar_filter(rng)
            cert = search_certificate(filt)
            verdict = classify_purity(filt, certificate=cert)
            assert verdict.status != "inconclusive", f"trial {k}"
            cell = verdict.fixed_cell
            if cert is not None or _rules_out_the_circle(
                cell.margin, cell.allowance, TOL_EIG
            ):
                assert verdict.status == PURE_CERTIFIED, f"trial {k}"
            else:
                assert verdict.status in (
                    PURE_AT_RESOLUTION,
                    NOT_PURE_CERTIFIED,
                ), f"trial {k}"
            statuses.add(verdict.status)
        # the ensemble should actually exercise both search outcomes
        assert PURE_CERTIFIED in statuses or PURE_AT_RESOLUTION in statuses

    def test_random_phase_twists_of_the_journe_filters(self):
        rng = np.random.default_rng(99)
        bases = [make_journe_step(), make_journe_family(derive_journe(0.1).params)]
        for base in bases:
            for _ in range(4):
                filt = random_phase_copy(base, rng)
                cert = search_certificate(filt)
                verdict = classify_purity(filt, certificate=cert)
                assert verdict.status != "inconclusive"
                if cert is not None:
                    assert verdict.status == PURE_CERTIFIED
