"""Filter construction, the defining identities, and their witnesses."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrafilters import (
    FilterMatrix,
    GridAlignmentError,
    GridSpec,
    IntervalSet,
    JourneParams,
    ParameterError,
    ResolutionError,
    SigmaChain,
    emit_bundle,
    filter_equation_residual,
    generalized_filter_residual,
    journe_profile,
    journe_sigma_chain,
    make_journe_step,
    make_constant,
    make_haar,
    make_journe_family,
    make_shannon,
    parse_bundle,
    refine,
    support_violations,
)
from gmrafilters.filters import _journe_sets

from helpers import (
    journe_profile_reference,
    member,
    planted_filter,
    planted_unitary_filter,
    random_phase_copy,
    random_scalar_filter,
    with_sample,
)

SQRT2 = math.sqrt(2.0)
EPS = float(np.finfo(float).eps)


def default_journe() -> FilterMatrix:
    return make_journe_family(JourneParams(r=0.05))


ALL_GENERATORS = [
    ("constant", make_constant),
    ("haar", make_haar),
    ("shannon", make_shannon),
    ("journe_step", make_journe_step),
    ("journe_family", default_journe),
]


def generalized_reference(filt: FilterMatrix, order: int) -> np.ndarray:
    """|left - right| of the order-n identity, one target cell at a time.

    Each Q(x) = H(N^(n-1) x) ... H(N x) H(x) is multiplied out as c x c
    matrices and the coset sum taken over the N^n cells above target
    cell u, with no array kernel of the package involved.
    """
    n, m, c = filt.scale, filt.cells, filt.count
    block = n**order
    coarse = m // block
    masks = filt.sigma_masks(GridSpec(n, filt.grid.base, filt.grid.depth - order))
    out = np.empty((c, c, coarse))
    for u in range(coarse):
        gram = np.zeros((c, c), dtype=complex)
        for k in range(block):
            x = u + k * coarse
            q = np.eye(c)
            for step in range(order):
                q = filt.samples[:, :, x * n**step % m] @ q
            gram += q @ q.conj().T
        right = np.diag([float(mask[u]) for mask in masks])
        out[:, :, u] = np.abs(gram / block - right)
    return out


def planted(scale: int, count: int, bumped: bool) -> FilterMatrix:
    """A planted filter at depth 3, with entry (c-1, 0) of cell 1 raised by
    0.1 when ``bumped``."""
    rng = np.random.default_rng(scale * 10 + count)
    lam = complex(math.cos(1.9), math.sin(1.9))
    build = planted_filter if count == 1 else planted_unitary_filter
    filt = build(rng, scale, 3, lam)[0]
    if bumped:
        i = count - 1
        filt = with_sample(filt, i, 0, 1, filt.samples[i, 0, 1] + 0.1)
    return filt


def support_reference(filt: FilterMatrix):
    """The support rules checked entry by entry and cell by cell."""
    mp = filt.cells // filt.scale
    fine = filt.sigma_masks()
    coarse = filt.sigma_masks(filt.coarse_grid())
    column, dilated_row = [], []
    for i in range(filt.count):
        for j in range(filt.count):
            for t in range(filt.cells):
                if filt.samples[i, j, t] != 0:
                    if not fine[j][t]:
                        column.append((i, j, t))
                    if not coarse[i][t % mp]:
                        dilated_row.append((i, j, t))
    return tuple(column), tuple(dilated_row)


class TestDefiningIdentity:
    @pytest.mark.parametrize("name,make", ALL_GENERATORS)
    def test_generators_satisfy_it_to_rounding(self, name, make):
        rep = filter_equation_residual(make())
        assert rep.max_abs_residual <= 2e-15

    def test_constant_filter_is_exact(self):
        assert filter_equation_residual(make_constant()).max_abs_residual == 0.0

    def test_report_is_cached_on_the_filter(self):
        filt = make_haar()
        rep = filter_equation_residual(filt)
        assert filter_equation_residual(filt) is rep
        bad = with_sample(filt, 0, 0, 3, filt.samples[0, 0, 3] + 0.1)
        assert filter_equation_residual(bad).max_abs_residual > 1e-2
        assert filter_equation_residual(filt) is rep

    @pytest.mark.parametrize("name,make", ALL_GENERATORS)
    def test_generators_obey_the_support_rules(self, name, make):
        assert support_violations(make()).clean()

    def test_perturbation_is_detected_with_a_witness(self):
        filt = make_haar()
        mp = filt.cells // 2
        bad = with_sample(filt, 0, 0, 13, filt.samples[0, 0, 13] + 0.1)
        rep = filter_equation_residual(bad)
        assert rep.max_abs_residual > 1e-2
        # classes are indexed by their lowest cell
        assert rep.argmax_cell == 13 % mp
        assert rep.argmax_pair == (0, 0)

    def test_scaling_breaks_the_identity(self):
        filt = make_shannon()
        scaled = FilterMatrix(
            filt.scale, filt.chain, filt.grid, filt.samples * 1.01
        )
        rep = filter_equation_residual(scaled)
        assert rep.max_abs_residual == pytest.approx(2 * (1.01**2 - 1), rel=1e-12)

    def test_per_pair_table_covers_all_pairs(self):
        rep = filter_equation_residual(make_journe_step())
        assert set(rep.per_pair) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert all(v <= 2e-15 for v in rep.per_pair.values())

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_coset_filters_are_valid(self, seed):
        filt = random_scalar_filter(np.random.default_rng(seed))
        assert filter_equation_residual(filt).max_abs_residual <= 1e-14

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_phases_preserve_validity(self, seed):
        rng = np.random.default_rng(seed)
        for base in (make_journe_step(), default_journe()):
            twisted = random_phase_copy(base, rng)
            assert filter_equation_residual(twisted).max_abs_residual <= 1e-14
            assert support_violations(twisted).clean()


class TestGeneralizedIdentity:
    @pytest.mark.parametrize("name,make", ALL_GENERATORS)
    def test_holds_at_every_available_order(self, name, make):
        filt = make()
        for order in range(1, filt.grid.depth + 1):
            rep = generalized_filter_residual(filt, order)
            assert rep.max_abs_residual <= 2e-15, (name, order)

    @pytest.mark.parametrize(
        "make",
        [make for _, make in ALL_GENERATORS]
        + [
            lambda: random_scalar_filter(np.random.default_rng(7)),
            lambda: planted(2, 1, True),
            lambda: planted(2, 2, False),
            lambda: planted(2, 2, True),
            lambda: with_sample(make_haar(), 0, 0, 3, 0.5),
        ],
    )
    def test_order_one_is_the_defining_identity_rescaled(self, make):
        # Bit for bit: both read one cached deviation, and halving is exact.
        filt = make()
        half = filter_equation_residual(filt).max_abs_residual / 2
        assert generalized_filter_residual(filt, 1).max_abs_residual == half

    @pytest.mark.parametrize("bumped", [False, True])
    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("scale", [2, 3, 4])
    def test_matches_explicit_orbit_products(self, scale, count, bumped):
        filt = planted(scale, count, bumped)
        for order in (1, 2, 3):
            ref = generalized_reference(filt, order)
            rep = generalized_filter_residual(filt, order)
            assert abs(rep.max_abs_residual - ref.max()) <= 8 * EPS
            for (a, b), value in rep.per_pair.items():
                assert abs(value - ref[a, b].max()) <= 8 * EPS
            witness = ref[rep.argmax_pair][rep.argmax_cell]
            assert abs(witness - ref.max()) <= 8 * EPS
            if bumped:
                assert rep.max_abs_residual > 1e-4

    def test_order_one_reads_the_cached_deviation(self):
        filt = make_journe_step()
        deviation = filt._deviation
        assert not deviation.flags.writeable
        generalized_filter_residual(filt, 1)
        assert filt._deviation is deviation

    def test_order_beyond_depth_is_refused(self):
        with pytest.raises(ResolutionError):
            generalized_filter_residual(make_haar(depth=2), 3)

    def test_misaligned_supports_are_refused(self):
        chain = SigmaChain.of([IntervalSet.from_arcs([(0, "1/2")])])
        grid = GridSpec(2, 1, 2)
        samples = np.zeros((1, 1, 4), dtype=np.complex128)
        samples[0, 0, :2] = SQRT2
        filt = FilterMatrix(2, chain, grid, samples)
        generalized_filter_residual(filt, 1)
        with pytest.raises(GridAlignmentError):
            generalized_filter_residual(filt, 2)

    def test_perturbation_is_detected(self):
        bad = with_sample(make_shannon(depth=3), 0, 0, 1, 0.3)
        assert generalized_filter_residual(bad, 2).max_abs_residual > 1e-3


class TestSupportRules:
    def test_column_violation_has_a_witness(self):
        filt = make_journe_step()
        # second column must vanish outside sigma_2 = [-1/7, 1/7)
        outside = filt.cells // 2
        assert not member(filt.chain.sigmas[1], Fraction(outside, filt.cells))
        bad = with_sample(filt, 0, 1, outside, 1.0)
        rep = support_violations(bad)
        assert (0, 1, outside) in rep.column
        assert not rep.clean()

    def test_dilated_row_violation_on_journe_geometry(self):
        filt = make_journe_step()
        grid = filt.grid
        # a cell inside sigma_1 whose double lands outside sigma_1
        cell = int(Fraction(1, 7) * grid.cells)
        assert member(filt.chain.sigmas[0], Fraction(1, 7))
        assert not member(filt.chain.sigmas[0], Fraction(2, 7))
        bad = with_sample(filt, 0, 0, cell, 1.0)
        rep = support_violations(bad)
        assert (0, 0, cell) in rep.dilated_row

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reports_match_the_cell_by_cell_rules(self, seed):
        # Random nonzero samples on a quarter of journe_step's entries break
        # both rules many times over, in every entry.
        rng = np.random.default_rng(seed)
        filt = make_journe_step(depth=3)
        samples = filt.samples.copy()
        hit = rng.random(samples.shape) < 0.25
        samples[hit] = rng.standard_normal(int(hit.sum()))
        bad = FilterMatrix(filt.scale, filt.chain, filt.grid, samples)
        rep = support_violations(bad)
        assert (rep.column, rep.dilated_row) == support_reference(bad)
        assert len(rep.column) > 50 and len(rep.dilated_row) > 50
        assert all(type(k) is int for v in rep.column + rep.dilated_row for k in v)

    def test_journe_step_second_column_is_zero(self):
        filt = make_journe_step()
        assert np.all(filt.samples[:, 1, :] == 0)


class TestRefinement:
    def test_refine_preserves_identity_and_coarsens_back(self):
        filt = make_haar(depth=3)
        fine = refine(filt)
        assert fine.grid == filt.grid.finer()
        assert filter_equation_residual(fine).max_abs_residual <= 2e-15

        def constant_on_coarse_cells(f):
            blocks = f.samples.reshape(f.count, f.count, -1, f.scale)
            return bool(np.all(blocks == blocks[..., :1]))

        assert constant_on_coarse_cells(fine)
        assert not constant_on_coarse_cells(filt)

    def test_refined_samples_repeat(self):
        filt = make_shannon(depth=2)
        fine = refine(filt)
        assert np.array_equal(fine.samples[..., ::2], filt.samples)
        assert np.array_equal(fine.samples[..., 1::2], filt.samples)


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            FilterMatrix(
                2,
                SigmaChain.full_circle(1),
                GridSpec(2, 1, 2),
                np.ones((1, 1, 3)),
            )

    def test_depth_zero_is_refused(self):
        with pytest.raises(ResolutionError):
            FilterMatrix(
                2, SigmaChain.full_circle(1), GridSpec(2, 4, 0), np.ones((1, 1, 4))
            )

    def test_chain_must_align_with_coarse_grid(self):
        chain = SigmaChain.of([IntervalSet.from_arcs([(0, "1/3")])])
        with pytest.raises(GridAlignmentError):
            FilterMatrix(2, chain, GridSpec(2, 4, 1), np.zeros((1, 1, 8)))

    def test_grid_scale_must_match(self):
        with pytest.raises(ParameterError):
            FilterMatrix(
                3, SigmaChain.full_circle(1), GridSpec(2, 1, 2), np.ones((1, 1, 4))
            )

    def test_an_earlier_view_cannot_make_the_residual_stale(self):
        h = make_haar()
        arr = np.array(h.samples)
        view = arr[0, 0]
        filt = FilterMatrix(h.scale, h.chain, h.grid, arr)
        before = filter_equation_residual(filt)
        view[3] += 0.5
        assert filt.samples[0, 0, 3] == h.samples[0, 0, 3]
        assert arr.flags.writeable
        assert filter_equation_residual(filt) is before
        assert before.max_abs_residual <= 2e-15
        fresh = FilterMatrix(h.scale, h.chain, h.grid, arr)
        assert filter_equation_residual(fresh).max_abs_residual > 1.0

    def test_a_read_only_view_of_a_writable_array_is_copied(self):
        h = make_haar()
        arr = np.array(h.samples)
        view = arr[:]
        view.setflags(write=False)
        filt = FilterMatrix(h.scale, h.chain, h.grid, view)
        arr[0, 0, 3] += 0.5
        assert filt.samples[0, 0, 3] == h.samples[0, 0, 3]

    def test_builders_hand_over_their_arrays_without_a_copy(self, monkeypatch):
        kept = []
        post_init = FilterMatrix.__post_init__

        def spy(self):
            given = self.samples
            post_init(self)
            kept.append(self.samples is given)

        monkeypatch.setattr(FilterMatrix, "__post_init__", spy)
        built = [make() for _, make in ALL_GENERATORS]
        refine(built[1])
        parse_bundle(emit_bundle(built[-1], {}))
        assert kept == [True] * (len(ALL_GENERATORS) + 2)


class TestJourneGeometry:
    def test_sigma_measures_and_nesting(self):
        chain = journe_sigma_chain()
        assert chain.sigmas[0].measure() == Fraction(5, 7)
        assert chain.sigmas[1].measure() == Fraction(2, 7)
        assert chain.sigmas[0].contains_set(chain.sigmas[1])

    def test_sections_cover_their_targets_once(self):
        sets = _journe_sets()
        assert sets["e1"].measure() == Fraction(5, 14)
        assert sets["e2"].measure() == Fraction(1, 14) * 2
        assert sets["e1"].intersect(sets["e2"]).is_empty()
        assert sets["e1"].dilate(2) == sets["sigma1"]
        assert sets["e2"].dilate(2) == sets["sigma2"]

    def test_half_turn_phases_change_sign_only(self):
        plain = make_journe_step()
        flipped = make_journe_step(half_turn_phases=True)
        assert np.array_equal(flipped.samples, -plain.samples)
        assert filter_equation_residual(flipped).max_abs_residual <= 2e-15


# derive_journe(0.1).r and derive_journe(0.05).r, then three round values.
PROFILE_RS = [0.003125, 0.0015625, 0.05, 0.1, 0.3]
PROFILE_CASES = [(r, depth) for depth in range(1, 9) for r in PROFILE_RS] + [
    (0.003125, 10),
    (0.1, 10),
]


class TestJourneFamily:
    def test_profile_anchors(self):
        params = JourneParams(r=0.05)
        q = journe_profile(params)
        m = params.grid.cells
        r = float(params.r)
        assert q[0] == pytest.approx(SQRT2 * math.sqrt(1 - r * r), abs=1e-15)
        assert q[m // 2] == pytest.approx(SQRT2 * r, abs=1e-15)
        # the sqrt(2) plateau between 3/8 and 23/56
        assert q[m * 3 // 8] == SQRT2
        # the zero plateaus
        assert q[m * 3 // 14] == 0.0
        assert q[m * 25 // 56] == 0.0

    def test_complement_rule_is_exact(self):
        q = journe_profile(JourneParams(r=0.2))
        m = len(q)
        pair = q[: m // 2] ** 2 + q[m // 2 :] ** 2
        assert np.abs(pair - 2.0).max() <= 5e-16

    def test_breakpoints_for_default_width(self):
        params = JourneParams(r=0.1)
        assert params.breakpoints()[:6] == (
            Fraction(1, 8),
            Fraction(13, 56),
            Fraction(15, 56),
            Fraction(3, 8),
            Fraction(23, 56),
            Fraction(25, 56),
        )

    @pytest.mark.parametrize("flip", [False, True])
    def test_identity_for_both_phases(self, flip):
        params = JourneParams(r=0.3)
        filt = make_journe_family(params, half_turn_phases=flip)
        assert filter_equation_residual(filt).max_abs_residual <= 2e-15
        assert support_violations(filt).clean()

    @pytest.mark.parametrize("r, depth", PROFILE_CASES)
    def test_profile_matches_the_rational_reference_bit_for_bit(self, r, depth):
        # Among others, r = 0.1 from depth 5 up and r = 0.003125 at depth 10
        # reach cells where an array square q * q differs from scalar x ** 2.
        params = JourneParams(r=r, grid=GridSpec(2, 56, depth))
        q = journe_profile(params)
        assert q.dtype == np.float64
        assert q.tobytes() == journe_profile_reference(params).tobytes()

    def test_assembled_entries_follow_the_band_layout(self):
        params = JourneParams(r=0.05)
        filt = make_journe_family(params)
        sets = _journe_sets()
        grid = filt.grid
        q = journe_profile(params)
        m = grid.cells
        # h_21 is the step sqrt(2) on E_2, h_22 vanishes
        e2 = sets["e2"].cell_mask(grid)
        assert np.all(filt.samples[1, 0, e2] == SQRT2)
        assert np.all(filt.samples[1, 0, ~e2] == 0)
        assert np.all(filt.samples[1, 1] == 0)
        # h_11 is the profile cut to its band, h_12 the shifted profile
        band11 = sets["band11"].cell_mask(grid)
        assert np.array_equal(filt.samples[0, 0], q * band11)
        band12 = sets["band12"].cell_mask(grid)
        assert np.array_equal(
            filt.samples[0, 1], np.roll(q, -(m // 2)) * band12
        )
        r = float(params.r)
        assert abs(filt.samples[0, 0, 0]) == pytest.approx(
            SQRT2 * math.sqrt(1 - r * r), abs=1e-15
        )

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            JourneParams(r=0)
        with pytest.raises(ParameterError):
            JourneParams(r=1)
        with pytest.raises(ParameterError):
            JourneParams(r=0.1, grid=GridSpec(3, 56, 1))
        with pytest.raises(GridAlignmentError):
            JourneParams(r=0.1, grid=GridSpec(2, 7, 2))

    @pytest.mark.parametrize(
        "r", [math.nan, math.inf, -math.inf, "1/0", "x", "0.1.2"]
    )
    def test_a_bad_r_is_a_parameter_error(self, r):
        with pytest.raises(ParameterError):
            JourneParams(r=r)

    def test_profile_is_cached_read_only(self):
        params = JourneParams(r=0.1)
        q = journe_profile(params)
        assert journe_profile(params) is q
        assert not q.flags.writeable
        with pytest.raises(ValueError):
            q[0] = 0.0

    def test_float_r_is_kept_bit_exact(self):
        params = JourneParams(r=0.1)
        assert float(params.r) == 0.1
        assert params.r == Fraction(0.1)
