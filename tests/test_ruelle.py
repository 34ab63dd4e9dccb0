"""The averaging operator, its adjoint, and the purity classification."""

import math
import warnings
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from gmrafilters import (
    DimensionCapError,
    GridSpec,
    IntervalSet,
    NOT_PURE_CERTIFIED,
    PURE_AT_RESOLUTION,
    PURE_CERTIFIED,
    ParameterError,
    ResolutionError,
    SigmaChain,
    VecField,
    assemble_transfer_matrix,
    classify_purity,
    decay_probe,
    derive_journe,
    filter_equation_residual,
    intersection_report,
    isometry_defect,
    isometry_residual,
    make_journe_step,
    make_constant,
    make_haar,
    make_journe_family,
    make_shannon,
    martingale_sequence,
    random_vecfield,
    refine,
    ruelle_apply,
    search_certificate,
    transfer_apply,
    transfer_spectrum,
)
from gmrafilters import ruelle, smallmat
from gmrafilters.filters import FilterMatrix, _fibers
from gmrafilters.ruelle import (
    TOL_EIG,
    TOL_NORM,
    TOL_RES,
    UNIT_ROUNDOFF,
    VERIFY_TOL,
    _by_modulus,
    _canonical_field,
    _candidate_rows,
    _clusters,
    _cell_zero_spectrum,
    _coarsest,
    _rules_out_the_circle,
)

from helpers import (
    column_violation_filter,
    identity_two_channel,
    near_constant_filter,
    planted_filter,
    planted_unitary_filter,
    random_phase_copy,
    random_scalar_filter,
    with_sample,
)

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = 1.0 / SQRT2


def journe_filter():
    return make_journe_family(derive_journe(0.1).params)


def journe_step_phase_copy():
    return random_phase_copy(make_journe_step(), np.random.default_rng(4))


EVERY_SUPPORT_GEOMETRY = [
    make_constant,
    make_haar,
    make_shannon,
    make_journe_step,
    journe_filter,
    journe_step_phase_copy,
]


class TestVecField:
    def test_rejects_mass_outside_supports(self):
        filt = make_journe_step()
        values = np.ones((2, filt.cells), dtype=np.complex128)
        with pytest.raises(ParameterError):
            VecField(filt.chain, filt.grid, values)

    def test_masked_zeroes_the_outside(self):
        filt = make_journe_step()
        f = VecField.masked(
            filt.chain, filt.grid, np.ones((2, filt.cells), dtype=np.complex128)
        )
        masks = filt.sigma_masks()
        assert np.all(f.values[0, masks[0]] == 1)
        assert np.all(f.values[1, ~masks[1]] == 0)

    def test_norm_is_cell_averaged(self):
        grid = GridSpec(2, 1, 2)
        chain = SigmaChain.full_circle(1)
        f = VecField(chain, grid, 2 * np.ones((1, 4)))
        assert f.norm() == pytest.approx(2.0)
        assert f.refine().norm() == pytest.approx(2.0)

    def test_inner_product_conjugates_the_right_slot(self):
        grid = GridSpec(2, 1, 1)
        chain = SigmaChain.full_circle(1)
        f = VecField(chain, grid, np.array([[1j, 0]]))
        g = VecField(chain, grid, np.array([[1.0, 0]]))
        assert f.inner(g) == pytest.approx(0.5j)

    def test_random_field_is_reproducible(self):
        filt = make_journe_step()
        a = random_vecfield(filt.chain, filt.grid, np.random.default_rng(7))
        b = random_vecfield(filt.chain, filt.grid, np.random.default_rng(7))
        assert np.array_equal(a.values, b.values)


class TestCanonicalField:
    def _unimodular(self, cells):
        # Powers of i have modulus exactly 1, so every entry ties.
        quarter_turns = np.random.default_rng(5).integers(0, 4, cells)
        return (1j ** quarter_turns).reshape(1, cells)

    @pytest.mark.parametrize("entry", [0, 3, 7])
    def test_last_bit_of_one_modulus_does_not_move_the_phase(self, entry):
        grid = GridSpec(2, 1, 3)
        chain = SigmaChain.full_circle(1)
        values = self._unimodular(grid.cells)
        bumped = values.copy()
        bumped[0, entry] *= 1 + 2.0**-52
        assert np.abs(bumped).argmax() == entry
        plain = _canonical_field(chain, grid, values).values
        moved = _canonical_field(chain, grid, bumped).values
        # The first entry leads: real and positive at the cell-averaged unit norm.
        assert plain[0, 0] == 1.0
        assert np.abs(moved - plain).max() <= 1e-15

    def test_a_unique_largest_entry_leads(self):
        grid = GridSpec(2, 1, 3)
        values = self._unimodular(grid.cells)
        values[0, 5] *= 2.0
        f = _canonical_field(SigmaChain.full_circle(1), grid, values).values
        assert f[0, 5].imag == 0.0 and f[0, 5].real > 0


class TestOperator:
    def test_hand_computed_application(self):
        filt = make_haar(depth=2)
        coarse = filt.coarse_grid()
        f = VecField(filt.chain, coarse, np.array([[2.0, 3.0]]))
        out = ruelle_apply(filt, f)
        h = filt.samples[0, 0]
        expected = h * np.array([2.0, 3.0, 2.0, 3.0])
        assert np.allclose(out.values[0], expected, atol=0)

    def test_wrong_grid_is_refused(self):
        filt = make_haar(depth=2)
        f = VecField.ones(filt.chain, filt.grid)
        with pytest.raises(ResolutionError):
            ruelle_apply(filt, f)
        g = VecField.ones(filt.chain, filt.coarse_grid())
        with pytest.raises(ResolutionError):
            transfer_apply(filt, g)

    @pytest.mark.parametrize(
        "make",
        [make_constant, make_haar, make_shannon, make_journe_step, journe_filter],
    )
    def test_isometry_on_valid_filters(self, make):
        assert isometry_residual(make(), trials=20, seed=0) <= 1e-12

    def test_isometry_fails_on_an_invalid_filter(self):
        filt = make_constant()
        bad = FilterMatrix(
            filt.scale, filt.chain, filt.grid, filt.samples * SQRT2
        )
        assert isometry_residual(bad, trials=5, seed=0) > 0.1

    def test_isometry_probe_stream_is_pinned(self):
        # The probe draws 32-bit words of the standard library's Mersenne
        # Twister, so these uniforms are exact on every platform; the
        # deviation goes through numpy's exp and einsum, hence rel=1e-12.
        assert ruelle._MersenneUniform(0).random((4,)).tolist() == [
            0.8444218516815454,
            0.38524530781432986,
            0.7579543991014361,
            0.8902439181692898,
        ]
        clean = make_haar()
        bumped = with_sample(clean, 0, 0, 0, clean.samples[0, 0, 0] + 0.1)
        first = isometry_residual(bumped, trials=20, seed=0)
        assert first == pytest.approx(0.01665078504882611, rel=1e-12)
        assert isometry_residual(bumped, trials=20, seed=0) == first
        assert isometry_residual(bumped, trials=20, seed=1) != first
        assert isometry_residual(bumped, trials=20, seed=2**70) > 1e-3

    def test_isometry_refuses_a_negative_seed(self):
        with pytest.raises(ParameterError):
            isometry_residual(make_haar(), trials=1, seed=-1)

    def test_isometry_refuses_a_negative_trial_count(self):
        # A negative count once drew nothing and read 0.0 on this filter,
        # which reads 0.0167 at 20 trials.
        clean = make_haar()
        bumped = with_sample(clean, 0, 0, 0, clean.samples[0, 0, 0] + 0.1)
        with pytest.raises(ParameterError):
            isometry_residual(bumped, trials=-5, seed=0)

    def test_isometry_keeps_a_nan_deviation(self):
        bad = with_sample(make_haar(), 0, 0, 3, complex(math.nan, 0.0))
        residual = isometry_residual(bad, trials=20, seed=0)
        assert math.isnan(residual)
        assert not residual <= 1e-10

    @pytest.mark.parametrize(
        "cell", np.flatnonzero(~make_journe_step(depth=3).sigma_masks()[1]).tolist()
    )
    def test_isometry_reports_a_column_violation(self, cell):
        # A sample of column 2 outside sigma_2 puts mass outside the
        # supports; the probe measures it instead of refusing the image.
        bad = with_sample(make_journe_step(depth=3), 0, 1, cell, 0.5)
        residual = isometry_residual(bad, trials=20, seed=0)
        assert isinstance(residual, float)
        assert math.isfinite(residual)

    @pytest.mark.parametrize("make", [make_haar, make_journe_step, journe_filter])
    def test_adjoint_relation_is_exact(self, make):
        filt = make()
        rng = np.random.default_rng(3)
        coarse = filt.coarse_grid()
        for _ in range(20):
            f = random_vecfield(filt.chain, coarse, rng)
            g = random_vecfield(filt.chain, filt.grid, rng)
            lhs = ruelle_apply(filt, f).inner(g)
            rhs = f.inner(transfer_apply(filt, g))
            assert abs(lhs - rhs) <= 1e-14


def defect_by_cell(filt):
    """||D(u)||_2 / N at every coarse cell u, one c x c matrix at a time.

    D(u) = P(u) (sum_k A_k* A_k - N I) P(u) with A_k = H(u + k M/N)^T and
    P(u) the projection onto the components whose support holds u.
    """
    n, c = filt.scale, filt.count
    mp = filt.cells // n
    masks = np.array(filt.sigma_masks(filt.coarse_grid()))
    out = np.empty(mp)
    for u in range(mp):
        gram = sum(
            np.conj(filt.samples[:, :, u + k * mp]) @ filt.samples[:, :, u + k * mp].T
            for k in range(n)
        )
        proj = np.diag(masks[:, u].astype(float))
        out[u] = np.linalg.norm(proj @ (gram - n * np.eye(c)) @ proj, 2) / n
    return out


def perturbed(filt, seed, size=0.05):
    """A copy with every sample moved by a complex Gaussian of scale ``size``,
    then masked to the support rule's columns."""
    rng = np.random.default_rng(seed)
    shape = filt.samples.shape
    noise = size * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    noise *= np.array(filt.sigma_masks())[None]
    return FilterMatrix(filt.scale, filt.chain, filt.grid, filt.samples + noise)


def three_channel_bumped():
    """H = I with c = 3, N = 2, and entry (0, 2) at cell 5 set to 0.3."""
    grid = GridSpec(2, 1, 3)
    samples = np.zeros((3, 3, grid.cells), dtype=np.complex128)
    for i in range(3):
        samples[i, i] = 1.0
    samples[0, 2, 5] = 0.3
    return FilterMatrix(2, SigmaChain.full_circle(3), grid, samples)


def planted_defect_cases():
    """Planted filters at N in {2, 3, 4} and c in {1, 2}, exact and perturbed."""
    cases = []
    for scale, depth in [(2, 4), (3, 3), (4, 2)]:
        rng = np.random.default_rng(scale)
        for filt in (
            planted_filter(rng, scale, depth, 1j)[0],
            planted_unitary_filter(rng, scale, depth, -1.0)[0],
        ):
            cases += [filt, perturbed(filt, seed=10 * scale + filt.count)]
    return cases


def journe_step_off_row_support():
    """journe_step with h_21 = 5 at cell 8 of 112, inside sigma_1, whose
    double lies outside sigma_2: a field's second component vanishes there."""
    return with_sample(make_journe_step(depth=2), 1, 0, 8, 5.0)


DEFECT_CASES = (
    planted_defect_cases()
    + [perturbed(make(), seed=5) for make in EVERY_SUPPORT_GEOMETRY]
    + [three_channel_bumped(), journe_step_off_row_support()]
)


class TestIsometryDefect:
    def test_bumped_haar_is_pinned(self):
        # The acceptance gate's bumped haar: residual 0.293 at N = 2.
        clean = make_haar()
        bumped = with_sample(clean, 0, 0, 0, clean.samples[0, 0, 0] + 0.1)
        worst, witness = isometry_defect(bumped)
        assert worst == pytest.approx(0.14642135623730934, abs=1e-12)
        assert witness == 0

    def test_bumped_journe_step_is_pinned(self):
        # 20 probes saw 2.19e-5 here: under a tolerance of 1e-4 they would
        # have passed this filter.
        clean = make_journe_step(depth=2)
        bumped = with_sample(clean, 0, 1, 3, clean.samples[0, 1, 3] + 0.05)
        worst, witness = isometry_defect(bumped)
        assert worst == pytest.approx(1.25e-3, rel=1e-9)
        assert witness == 3

    @pytest.mark.parametrize("make", EVERY_SUPPORT_GEOMETRY)
    def test_valid_filters_are_isometries(self, make):
        assert isometry_defect(make())[0] <= 1e-12

    def test_only_the_supports_count(self):
        # Unrestricted, D(8) would read 25 - 0 at (1, 1).
        assert isometry_defect(journe_step_off_row_support())[0] <= 1e-12

    @pytest.mark.parametrize("filt", DEFECT_CASES)
    def test_matches_the_norm_of_every_cell(self, filt):
        by_cell = defect_by_cell(filt)
        worst, witness = isometry_defect(filt)
        assert worst == pytest.approx(by_cell.max(), rel=1e-12, abs=1e-15)
        assert by_cell[witness] == pytest.approx(worst, rel=1e-12, abs=1e-15)

    def test_three_channels_use_the_eigensolver(self):
        # Fine cell 5 lies over coarse cell 1 of 4, where D is 0.09 at
        # (0, 0) and 0.3 at (0, 2) and (2, 0), and zero elsewhere.
        filt = three_channel_bumped()
        worst, witness = isometry_defect(filt)
        expected = np.linalg.norm(np.array([[0.09, 0.3], [0.3, 0.0]]), 2) / 2
        assert worst == pytest.approx(expected, rel=1e-12)
        assert witness == 1

    @pytest.mark.parametrize("filt", DEFECT_CASES)
    def test_no_probe_exceeds_it(self, filt):
        # A probe f gives at most worst * ||f||^2, and these fields have
        # ||f||^2 <= 1 for c = 1 and near c / 2 in general.
        worst, _ = isometry_defect(filt)
        for seed in range(10):
            probe = isometry_residual(filt, trials=5, seed=seed)
            assert probe <= worst * (1 + 1e-9) + 1e-15

    def test_a_nan_fails_closed_at_its_cell(self):
        bad = with_sample(make_haar(), 0, 0, 11, complex(math.nan, 0.0))
        worst, witness = isometry_defect(bad)
        assert math.isnan(worst)
        assert witness == 11 % (bad.cells // 2)
        assert not worst <= VERIFY_TOL

    def test_ties_go_to_the_lowest_cell(self):
        # 16 fine cells over 8 coarse ones: fine cell 12 lies over 4, 3 over 3.
        clean = make_constant()
        bad = with_sample(clean, 0, 0, 12, complex(math.nan, 0.0))
        bad = with_sample(bad, 0, 0, 3, complex(0.0, math.nan))
        assert isometry_defect(bad)[1] == 3
        bumped = with_sample(clean, 0, 0, 14, 2.0)
        bumped = with_sample(bumped, 0, 0, 5, 2.0)
        assert isometry_defect(bumped) == (1.5, 5)

    @pytest.mark.parametrize(
        "make", [make_haar, identity_two_channel, three_channel_bumped]
    )
    def test_huge_samples_give_inf_quietly(self, make):
        # On the diagonal of every channel at once, so that the closed
        # form for c = 2 would meet inf - inf.
        samples = make().samples.copy()
        for i in range(samples.shape[0]):
            samples[i, i, 3] = 1e200
        filt = make()
        huge = FilterMatrix(filt.scale, filt.chain, filt.grid, samples)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            worst, witness = isometry_defect(huge)
        assert worst == math.inf
        assert witness == 3


def haar_depth_one():
    return make_haar(depth=1)


# The depth-1 Haar filter has a one-cell coarse grid, so every fine
# coordinate's weight lands on the same entry of the quotient matrix.
QUOTIENT_CASES = EVERY_SUPPORT_GEOMETRY + [haar_depth_one]


def fine_transfer_matrix(filt):
    """Adjoint-then-include on the fine step space, entry by entry."""
    basis = np.argwhere(np.array(filt.sigma_masks()))
    n = filt.scale
    mp = filt.cells // n
    out = np.zeros((len(basis), len(basis)), dtype=np.complex128)
    for p, (i, t) in enumerate(basis):
        for q, (j, s) in enumerate(basis):
            if s % mp == t // n:
                out[p, q] = np.conj(filt.samples[i, j, s]) / n
    return out


def assert_same_nonzero_spectrum(got, want, floor=1e-3, tol=1e-10):
    """The eigenvalues of modulus above ``floor`` agree as multisets to ``tol``;
    nilpotent parts smear zero eigenvalues to clusters of smaller radius."""
    remaining = list(want[np.abs(want) > floor])
    big = got[np.abs(got) > floor]
    assert len(big) == len(remaining)
    for lam in big:
        nearest = min(remaining, key=lambda mu: abs(mu - lam))
        assert abs(nearest - lam) <= tol
        remaining.remove(nearest)


class TestTransferMatrix:
    @pytest.mark.parametrize("make", QUOTIENT_CASES)
    def test_matrix_agrees_with_the_functional_adjoint(self, make):
        filt = make()
        tm = assemble_transfer_matrix(filt)
        rng = np.random.default_rng(11)
        f = random_vecfield(filt.chain, filt.coarse_grid(), rng)
        comp, cell = tm.basis.T
        direct = transfer_apply(filt, f.refine())
        assert np.allclose(
            tm.matrix @ f.values[comp, cell], direct.values[comp, cell], atol=1e-14
        )

    @pytest.mark.parametrize("make", QUOTIENT_CASES)
    def test_matrix_matches_the_entrywise_rule(self, make):
        filt = make()
        tm = assemble_transfer_matrix(filt)
        n = filt.scale
        mp = filt.cells // n
        position = {(i, u): q for q, (i, u) in enumerate(tm.basis)}
        fine = np.argwhere(np.array(filt.sigma_masks()))
        expected = np.zeros_like(tm.matrix)
        for p, (i, u) in enumerate(tm.basis):
            for j, s in fine:
                if s % mp == u:
                    expected[p, position[j, s // n]] += (
                        np.conj(filt.samples[i, j, s]) / n
                    )
        assert np.array_equal(tm.matrix, expected)

    @pytest.mark.parametrize("make", QUOTIENT_CASES)
    def test_nonzero_spectrum_matches_the_fine_matrix(self, make):
        # Nilpotent parts smear the zero eigenvalues into clusters of
        # radius up to about 1e-4 on these filters (constant, journe);
        # every genuine nonzero eigenvalue here has modulus above 0.01.
        filt = make()
        tm = assemble_transfer_matrix(filt)
        fine = np.linalg.eigvals(fine_transfer_matrix(filt))
        quotient = np.linalg.eigvals(tm.matrix)
        # Equal counts above the cluster radius leave the fine matrix
        # exactly fine_dimension - dimension more zeros than K.
        assert len(fine) == tm.fine_dimension
        assert_same_nonzero_spectrum(fine, quotient)
        # The solve by strongly connected components against the dense K.
        spectrum = transfer_spectrum(filt).eigenvalues
        assert_same_nonzero_spectrum(spectrum, quotient)
        assert len(spectrum) == tm.fine_dimension
        assert np.all(spectrum[tm.dimension :] == 0)

    def test_basis_is_restricted_to_the_supports(self):
        filt = make_journe_step()
        tm = assemble_transfer_matrix(filt)
        masks = np.array(filt.sigma_masks())
        blocks = masks.reshape(filt.count, -1, filt.scale)
        assert tm.fine_dimension == int(masks.sum())
        assert tm.dimension == int(blocks.any(axis=2).sum())
        assert all(blocks[i, u].any() for i, u in tm.basis)
        rows = [tuple(row) for row in tm.basis]
        assert rows == sorted(rows)

    def test_dimension_cap(self, monkeypatch):
        # The triplets hold no dense matrix, so assembly is never capped;
        # the dense K is, at its 16 fine coordinates, not its 8 coarse ones.
        for cap in (8, 15):
            monkeypatch.setattr(ruelle, "DIM_CAP", cap)
            tm = assemble_transfer_matrix(make_haar(depth=4))
            assert tm.fine_dimension == 16
            with pytest.raises(DimensionCapError):
                tm.matrix
        monkeypatch.setattr(ruelle, "DIM_CAP", 16)
        assert assemble_transfer_matrix(make_haar(depth=4)).matrix.shape == (8, 8)

    def test_triplets_are_the_summed_entries(self):
        # Haar at depth 1 has one coarse cell, where two weights land on
        # one entry; journe's zero samples give zero-weight entries.
        for filt in (make_haar(depth=1), journe_filter()):
            tm = assemble_transfer_matrix(filt)
            keys = tm.rows * tm.dimension + tm.cols
            assert np.all(np.diff(keys) > 0)
            assert np.array_equal(tm.matrix[tm.rows, tm.cols], tm.weights)
            assert np.count_nonzero(tm.matrix) == np.count_nonzero(tm.weights)
        assert tm.weights.size > np.count_nonzero(tm.weights)

    @pytest.mark.parametrize(
        "make",
        [make_constant, make_haar, make_shannon, make_journe_step, journe_filter],
    )
    def test_spectrum_stays_in_the_closed_unit_disk(self, make):
        tm = assemble_transfer_matrix(make())
        moduli = np.abs(np.linalg.eigvals(tm.matrix))
        assert moduli.max() <= 1.0 + 1e-10

    def test_shannon_spectrum_is_strictly_contractive(self):
        tm = assemble_transfer_matrix(make_shannon(depth=3))
        moduli = np.abs(np.linalg.eigvals(tm.matrix))
        assert moduli.max() <= INV_SQRT2 + 1e-12

    def test_journe_top_modulus(self):
        tm = assemble_transfer_matrix(journe_filter())
        moduli = np.abs(np.linalg.eigvals(tm.matrix))
        assert moduli.max() == pytest.approx(INV_SQRT2, abs=1e-6)


def closure_components(dense):
    """Whether nodes u and v share a strongly connected component of the
    graph of the nonzero entries: each reaches the other (Warshall)."""
    reach = (dense != 0) | np.eye(len(dense), dtype=bool)
    for k in range(len(dense)):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    return reach & reach.T


class TestStrongComponents:
    @pytest.mark.parametrize("seed", range(60))
    def test_components_match_the_reachability_closure(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 25))
        count = int(rng.integers(0, 3 * size + 1))
        rows, cols = rng.integers(0, size, (2, count))
        weights = rng.choice([0.0, 1.0, -0.5, 2j], count)
        # A third of the triplets come twice more, negated: duplicates whose
        # entry sums to exactly zero, as self-loops too.
        twice = rng.random(count) < 1 / 3
        rows = np.concatenate([rows, rows[twice]])
        cols = np.concatenate([cols, cols[twice]])
        weights = np.concatenate([weights, -weights[twice]])
        shuffle = rng.permutation(len(rows))
        rows, cols, weights = rows[shuffle], cols[shuffle], weights[shuffle]
        dense = np.zeros((size, size), dtype=np.complex128)
        np.add.at(dense, (rows, cols), weights)
        rows, cols, weights = ruelle._summed(size, rows, cols, weights)
        assert np.array_equal(dense[rows, cols], weights)
        assert np.count_nonzero(dense) == np.count_nonzero(weights)
        edge = weights != 0
        label = smallmat.strong_components(size, rows[edge], cols[edge])
        assert np.array_equal(label[:, None] == label, closure_components(dense))
        # Numbered as they close: an edge out of a component leads to one
        # closed before it.
        u, v = np.nonzero(dense)
        assert np.all(label[v] <= label[u])
        assert set(label.tolist()) == set(range(label.max() + 1))

    def test_zero_entries_are_no_edges(self):
        # journe's zero samples inside its supports give zero weights; as
        # edges they would join its components into one.
        tm = assemble_transfer_matrix(journe_filter())
        edge = tm.weights != 0
        label = smallmat.strong_components(tm.dimension, tm.rows[edge], tm.cols[edge])
        joined = smallmat.strong_components(tm.dimension, tm.rows, tm.cols)
        assert np.bincount(label).max() == 15
        assert np.bincount(joined).max() > 15

    @pytest.mark.parametrize(
        "make, sizes",
        [
            (make_haar, (7, 1)),
            (make_shannon, (1, 1)),
            (make_constant, (1,)),
            (make_journe_step, (1, 1)),
            (journe_filter, (15, 3, 3, 1)),
        ],
    )
    def test_components_at_the_default_depths(self, make, sizes):
        spectrum = transfer_spectrum(make())
        assert spectrum.components == sizes
        # every row outside the components is an exact zero
        zeros = np.count_nonzero(spectrum.eigenvalues == 0)
        assert zeros >= len(spectrum.eigenvalues) - sum(sizes)

    def test_cap_binds_the_largest_component(self, monkeypatch):
        # haar's 7-node component stands for 14 of its 16 fine coordinates
        monkeypatch.setattr(ruelle, "DIM_CAP", 14)
        assert transfer_spectrum(make_haar()).components == (7, 1)
        monkeypatch.setattr(ruelle, "DIM_CAP", 13)
        with pytest.raises(DimensionCapError, match="dimension 14 exceeds cap 13"):
            transfer_spectrum(make_haar())

    def test_deep_journe_is_solved_past_the_dense_cap(self):
        spectrum = transfer_spectrum(journe_at(7))
        assert len(spectrum.eigenvalues) == 7168 > ruelle.DIM_CAP
        assert spectrum.components == (26, 3, 3, 1, 1)
        assert not spectrum.passing_flags.any()


class TestClassification:
    def test_requires_a_verified_filter(self):
        filt = make_constant()
        bad = FilterMatrix(filt.scale, filt.chain, filt.grid, filt.samples * 1.1)
        with pytest.raises(ParameterError):
            classify_purity(bad)

    def test_nan_sample_fails_closed(self):
        bad = with_sample(make_haar(), 0, 0, 3, float("nan"))
        with pytest.raises(ParameterError):
            classify_purity(bad)

    def test_requires_the_support_rule(self):
        # The residual passes the gate; only the support rule fails it,
        # as it fails verify, classify and spectrum.
        bad = column_violation_filter()
        assert filter_equation_residual(bad).max_abs_residual <= VERIFY_TOL
        with pytest.raises(ParameterError, match="support rule violated"):
            classify_purity(bad)

    def test_constant_filter_is_not_pure(self):
        verdict = classify_purity(make_constant())
        assert verdict.status == NOT_PURE_CERTIFIED
        assert len(verdict.eigenpairs) >= 1
        pair = verdict.eigenpairs[0]
        assert pair.eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert pair.residual <= 1e-14
        assert pair.unit_norm_ok
        assert pair.unit_norm_dev <= 1e-12
        spread = np.ptp(np.abs(pair.fld.values))
        assert spread <= 1e-12

    @pytest.mark.parametrize(
        "phi, tols",
        [
            (0.0, {}),
            (5e-9, {}),
            (1e-4, {"tol_eig": 1e-3}),
            (1e-4, {"tol_eig": 1e-3, "tol_res": 1e-3}),
        ],
    )
    def test_unimodular_eigenvalues_each_get_their_own_field(self, phi, tols):
        # H = diag(1, e^{i phi}): S_H f(x) = H(x)* f(x^2), so the constant
        # fields e_1 and e_2 have eigenvalues 1 and e^{i phi}; at phi = 0
        # a double eigenvalue, otherwise two of a complex matrix closer to
        # each other than tol_eig, in the last case also than tol_res.
        grid = GridSpec(2, 1, 4)
        samples = np.zeros((2, 2, grid.cells), dtype=np.complex128)
        samples[0, 0] = 1.0
        samples[1, 1] = np.exp(1j * phi)
        filt = FilterMatrix(2, SigmaChain.full_circle(2), grid, samples)
        verdict = classify_purity(filt, **tols)
        assert verdict.status == NOT_PURE_CERTIFIED
        tested = verdict.fixed_cell.candidates
        assert [p.passed for p in tested] == [True, True]
        assert max(p.residual for p in tested) <= 1e-12
        assert len(verdict.eigenpairs) == 2
        fields = [p.fld for p in verdict.eigenpairs]
        gram = np.array([[f.inner(g) for g in fields] for f in fields])
        assert np.abs(gram - np.eye(2)).max() <= 1e-12

    def test_constant_eigenpair_is_sharpened_to_the_closed_form(self):
        verdict = classify_purity(make_constant())
        pair = verdict.eigenpairs[0]
        assert pair.eigenvalue == 1.0 + 0.0j
        assert pair.residual == 0.0
        assert pair.unit_norm_dev == 0.0
        assert np.all(pair.fld.values == 1.0)
        assert verdict.closed_form_pairs == 1

    def test_sharpening_leaves_distant_fields_alone(self):
        # h = e^{2 pi i 0.3} is valid (|h|^2 + |h|^2 = 2) and has the
        # constant field as an eigenvector for an eigenvalue far from 1,
        # so the pair is accepted but is not the closed form.
        lam = np.exp(2j * np.pi * 0.3)
        base = make_constant()
        filt = FilterMatrix(base.scale, base.chain, base.grid, base.samples * lam)
        verdict = classify_purity(filt)
        assert verdict.status == NOT_PURE_CERTIFIED
        assert len(verdict.eigenpairs) == 1
        assert abs(verdict.eigenpairs[0].eigenvalue - lam) <= 1e-12
        assert verdict.closed_form_pairs == 0

    def test_closed_form_on_a_two_dimensional_eigenspace(self):
        # H = I at c = 2 accepts e_1 and e_2 for the eigenvalue 1; chi is
        # neither, but it lies in their span and passes the re-test.
        filt = identity_two_channel()
        verdict = classify_purity(filt)
        assert [p.eigenvalue for p in verdict.eigenpairs] == [1.0, 1.0]
        assert verdict.closed_form_pairs == 1
        assert "A concrete model fits this case." in intersection_report(filt).narrative

    @pytest.mark.parametrize("depth", [4, 5, 6])
    def test_haar_verdict_is_stable_across_resolutions(self, depth):
        # No block certificate is passed in: the fixed cell alone
        # certifies haar at every depth.
        filt = make_haar(depth=depth)
        verdict = classify_purity(filt)
        assert verdict.status == PURE_CERTIFIED
        assert off_the_circle(verdict.fixed_cell)
        assert not verdict.eigenpairs
        assert verdict.resolution == filt.grid

    def test_certificate_upgrades_the_haar_verdict(self):
        filt = make_haar()
        cert = search_certificate(filt)
        assert cert is not None
        verdict = classify_purity(filt, certificate=cert)
        assert verdict.status == PURE_CERTIFIED
        assert not verdict.anomalies

    def test_contradictory_evidence_is_inconclusive(self):
        verdict = classify_purity(make_constant(), certificate=object())
        assert verdict.status == "inconclusive"
        assert verdict.anomalies

    def test_diagnostics_carry_the_spectrum_and_flags(self):
        filt = make_constant(depth=3)
        spectrum = transfer_spectrum(filt)
        assert len(spectrum.eigenvalues) == 8
        keys = [(-abs(z), -z.real, -z.imag) for z in spectrum.eigenvalues.tolist()]
        assert keys == sorted(keys)
        assert spectrum.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert spectrum.passing_flags[0]
        assert spectrum.passing_flags.sum() == 1
        reference = dense_reference(filt)
        assert np.array_equal(reference.passing_flags, spectrum.passing_flags)
        assert [row for row, _ in reference.candidates] == [0]
        pair = reference.candidates[0][1]
        assert pair.eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert pair.residual <= 1e-12
        assert pair.unit_norm_ok
        verdict = classify_purity(filt)
        (mine,) = spectrum.fixed_cell.candidates
        assert mine.eigenvalue == verdict.eigenpairs[0].eigenvalue
        assert np.array_equal(mine.fld.values, verdict.eigenpairs[0].fld.values)
        assert set(verdict.diagnostics) == {"passing_flags", "candidates_tested"}
        assert verdict.diagnostics["passing_flags"] == (True,)
        assert verdict.diagnostics["candidates_tested"] is verdict.fixed_cell.candidates
        assert verdict.dimension == 8
        cell = verdict.fixed_cell
        assert cell.eigenvalues.tolist() == [1.0]
        assert [p.passed for p in cell.candidates] == [True]
        assert cell.candidates[0] is verdict.eigenpairs[0]

    def test_constant_eigenvector_martingale_is_flat(self):
        verdict = classify_purity(make_constant())
        devs = verdict.martingale_max_dev
        assert len(devs) >= 1
        assert max(devs) <= 1e-12


PLANTED_LAMBDA = np.exp(2j * np.pi * 0.3)


def journe_at(depth):
    return make_journe_family(derive_journe(0.1, grid=GridSpec(2, 56, depth)).params)


def dense_majorant_bound(filt, steps):
    """sqrt(||A^k||_1 ||A^k||_inf) for A = |K|, from the dense matrix."""
    a = np.abs(assemble_transfer_matrix(filt).matrix)
    power = np.linalg.matrix_power(a, steps)
    return math.sqrt(power.sum(axis=0).max() * power.sum(axis=1).max())


def unimodular_eigenvalues(filt):
    """K's eigenvalues within 1e-8 of the unit circle, in a canonical order."""
    eigenvalues = np.linalg.eigvals(assemble_transfer_matrix(filt).matrix)
    near = eigenvalues[np.abs(np.abs(eigenvalues) - 1.0) <= 1e-8]
    return near[np.lexsort((near.imag, near.real))]


def dense_radius(filt):
    return np.abs(np.linalg.eigvals(assemble_transfer_matrix(filt).matrix)).max()


def seeded(seed):
    return np.random.default_rng(seed)


def off_the_circle(cell, tol_eig=TOL_EIG):
    """Whether a cell 0 record proves purity at ``tol_eig``."""
    return _rules_out_the_circle(cell.margin, cell.allowance, tol_eig)


def cell_zero(h0t):
    """spectrum, margin and allowance of a c x c matrix given as H(0)^T."""
    return _cell_zero_spectrum(np.array(h0t, dtype=np.complex128).T)


# Every bundled generator at its default depth and at the depths the
# benchmark runs, and random scalar filters: all pure, and all decided
# at the fixed cell.
CERTIFIED_AT_THE_FIXED_CELL = [
    ("haar", lambda: make_haar()),
    ("haar_10", lambda: make_haar(depth=10)),
    ("haar_16", lambda: make_haar(depth=16)),
    ("shannon", lambda: make_shannon()),
    ("shannon_14", lambda: make_shannon(depth=14)),
    ("journe_step", lambda: make_journe_step()),
    ("journe_step_half_turn", lambda: make_journe_step(half_turn_phases=True)),
    ("journe", lambda: journe_at(2)),
    ("journe_5", lambda: journe_at(5)),
    ("journe_9", lambda: journe_at(9)),
] + [
    (
        f"random_seed{seed}_depth{depth}",
        lambda seed=seed, depth=depth: random_scalar_filter(
            np.random.default_rng(seed), depth=depth
        ),
    )
    for seed in range(6)
    for depth in (4, 8)
]


def refuse_the_dense_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense path ran")

    monkeypatch.setattr("gmrafilters.ruelle.assemble_transfer_matrix", refuse)
    monkeypatch.setattr("gmrafilters.ruelle.transfer_spectrum", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    return refuse


class TestContraction:
    """rho(K) < 1, the contraction that makes S_H pure, proved at cell 0."""

    @pytest.mark.parametrize(
        "name, build",
        CERTIFIED_AT_THE_FIXED_CELL,
        ids=[n for n, _ in CERTIFIED_AT_THE_FIXED_CELL],
    )
    def test_certified_filters_build_no_matrix(self, name, build, monkeypatch):
        filt = build()
        refuse = refuse_the_dense_path(monkeypatch)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        verdict = classify_purity(filt)
        assert verdict.status == PURE_CERTIFIED
        cell = verdict.fixed_cell
        assert cell.margin > TOL_EIG + cell.allowance
        assert cell.candidates == ()
        assert len(cell.eigenvalues) == filt.count
        assert not np.any(verdict.diagnostics["passing_flags"])
        assert len(verdict.diagnostics["candidates_tested"]) == 0
        assert verdict.dimension == int(np.array(filt.sigma_masks()).sum())

    def test_rho_bound_covers_the_spectrum(self):
        # Every filter certified at cell 0 has a dense K whose spectral
        # radius stays below 1 - tol_eig.
        rng = np.random.default_rng(21)
        filters = [
            build(depth)
            for build in (make_haar, make_shannon, make_journe_step, journe_at)
            for depth in (1, 2, 3, 4)
        ]
        filters += [
            random_scalar_filter(rng, depth=d) for d in (2, 4, 6) for _ in range(8)
        ]
        filters += [random_phase_copy(make_journe_step(), rng) for _ in range(4)]
        certified = 0
        for filt in filters:
            if classify_purity(filt).status != PURE_CERTIFIED:
                continue
            certified += 1
            assert dense_radius(filt) < 1 - TOL_EIG
        assert certified == len(filters)

    def test_unimodular_spectrum_is_the_same_after_refinement(self):
        # The lemma behind the fixed cell: every modulus-one eigenvector
        # is a step field on the coarse grid, so refining the filter adds
        # no unimodular eigenvalue to K and loses none.
        rng = np.random.default_rng(8)
        filters = [
            random_scalar_filter(rng, depth=d) for d in (2, 3, 4) for _ in range(3)
        ]
        filters += [random_phase_copy(make_journe_step(), rng) for _ in range(2)]
        filters += [make_constant(depth=2, scale=3), near_constant_filter(rng)]
        for scale in (2, 3):
            for lam in (1.0, PLANTED_LAMBDA):
                filters.append(planted_filter(rng, scale, 2, lam)[0])
        seen = 0
        for filt in filters:
            coarse = unimodular_eigenvalues(filt)
            fine = unimodular_eigenvalues(refine(filt))
            assert len(coarse) == len(fine)
            assert np.abs(coarse - fine).max(initial=0.0) <= 1e-9
            seen += len(coarse)
        assert seen >= 5

    def test_rounding_allowance_refuses_a_bound_just_below_one(self):
        # |H(0)| one ulp below 1 is u off the circle, inside the allowance
        # 2u of a scalar H(0), so even tol_eig = 0 does not certify it;
        # eight ulps below, it does.
        below = 1.0 - UNIT_ROUNDOFF
        _, margin, allowance = cell_zero([[below]])
        assert (margin, allowance) == (UNIT_ROUNDOFF, 2 * UNIT_ROUNDOFF)
        assert not _rules_out_the_circle(margin, allowance, 0.0)
        _, margin, allowance = cell_zero([[1.0 - 8 * UNIT_ROUNDOFF]])
        assert _rules_out_the_circle(margin, allowance, 0.0)
        _, margin, allowance = cell_zero([[below, 0.0], [0.0, 0.5]])
        assert margin == UNIT_ROUNDOFF < allowance
        assert not _rules_out_the_circle(margin, allowance, 0.0)
        # A valid filter with that H(0): pure_at_resolution at tol_eig = 0.
        grid = GridSpec(2, 1, 4)
        half = grid.cells // 2
        samples = np.full(grid.cells, below, dtype=np.complex128)
        samples[half:] = math.sqrt(2.0 - below**2)
        filt = FilterMatrix(2, SigmaChain.full_circle(1), grid, samples[None, None])
        assert filter_equation_residual(filt).max_abs_residual <= VERIFY_TOL
        verdict = classify_purity(filt, tol_eig=0.0)
        assert verdict.status == PURE_AT_RESOLUTION
        assert verdict.fixed_cell.candidates == ()

    @pytest.mark.parametrize("tol_eig", [-1e-8, 1.0, 2.0, float("nan")])
    def test_tolerance_outside_the_unit_interval_is_never_certified(self, tol_eig):
        # From tol_eig = 1 on, journe_step's eigenvalue 0 is a candidate too:
        # its field cannot be propagated and fails quietly.
        for filt in (make_haar(), make_journe_step()):
            assert not off_the_circle(classify_purity(filt).fixed_cell, tol_eig)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                verdict = classify_purity(filt, tol_eig=tol_eig)
            assert verdict.status == PURE_AT_RESOLUTION
            assert not any(p.passed for p in verdict.fixed_cell.candidates)
        # The last filter is journe_step: its lambda = 0 candidate is kept,
        # and its NaN residual fails.
        zero = [p for p in verdict.fixed_cell.candidates if p.eigenvalue == 0]
        assert [(math.isnan(p.residual), p.passed) for p in zero] == (
            [(True, False)] if tol_eig >= 1 else []
        )

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), complex(0, float("nan"))]
    )
    @pytest.mark.parametrize("make", [make_haar, make_journe_step])
    def test_non_finite_sample_is_never_certified(self, make, value):
        bad = with_sample(make(), 0, 0, 0, value)
        eigenvalues, margin, allowance = _cell_zero_spectrum(bad.samples[:, :, 0])
        assert allowance == math.inf
        assert len(_candidate_rows(eigenvalues, TOL_EIG)) == 0
        assert not _rules_out_the_circle(margin, allowance, TOL_EIG)
        # classify refuses the filter before it reaches cell 0
        with pytest.raises(ParameterError):
            classify_purity(bad)

    def test_non_pure_filters_are_not_certified(self):
        filters = [make_constant(), make_constant(depth=3, scale=3)]
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for scale in (2, 3, 4):
                filters.append(planted_filter(rng, scale, 3, PLANTED_LAMBDA)[0])
        for filt in filters:
            verdict = classify_purity(filt)
            assert verdict.fixed_cell.margin <= TOL_EIG
            assert not off_the_circle(verdict.fixed_cell)
            assert verdict.status == NOT_PURE_CERTIFIED

    def test_the_undecided_filter_defeats_the_bound_but_not_the_spectrum(self):
        # Unimodular samples: |K| has every row and column sum 1, H(0) is
        # on the circle, and its propagated field fails the re-test, so
        # the verdict stays open although rho(K) is well below 1.
        filt = near_constant_filter(np.random.default_rng(0), eps=0.0)
        assert dense_majorant_bound(filt, 64) >= 1 - 1e-12
        assert dense_radius(filt) < 0.9
        verdict = classify_purity(filt, certificate=search_certificate(filt))
        assert verdict.status == PURE_AT_RESOLUTION
        cell = verdict.fixed_cell
        assert cell.margin <= TOL_EIG
        assert [p.passed for p in cell.candidates] == [False]

    def test_near_constant_filter_is_certified_at_the_fixed_cell(self):
        # |H(0)| = sqrt(2) cos(pi/4 + 1e-3), about 1e-3 inside the circle:
        # no norm bound on the powers of |K| drops below 1, but the fixed
        # cell proves purity, and the dense radius agrees.
        filt = near_constant_filter(np.random.default_rng(0))
        assert dense_majorant_bound(filt, 64) > 1
        assert dense_radius(filt) < 0.9
        verdict = classify_purity(filt, certificate=search_certificate(filt))
        assert verdict.status == PURE_CERTIFIED
        assert verdict.fixed_cell.margin == pytest.approx(1e-3, rel=1e-3)
        assert verdict.fixed_cell.candidates == ()


class TestFixedCell:
    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("scale", [2, 3, 4])
    def test_eigenvalue_within_tol_eig_of_one_is_accepted_at_the_fixed_cell(
        self, scale, seed
    ):
        # Scaling a planted non-pure filter by 1 - 1e-11 keeps it within
        # the verification gate and makes every row and column sum of |K|
        # 1 - 1e-11, but the planted eigenvalue is within tol_eig of the
        # circle, and its field passes the re-test.
        filt, _ = planted_filter(
            np.random.default_rng(seed), scale, 3, PLANTED_LAMBDA
        )
        shrunk = FilterMatrix(
            filt.scale, filt.chain, filt.grid, filt.samples * (1 - 1e-11)
        )
        assert filter_equation_residual(shrunk).max_abs_residual <= VERIFY_TOL
        assert dense_majorant_bound(shrunk, 1) < 1
        verdict = classify_purity(shrunk)
        assert verdict.status == NOT_PURE_CERTIFIED
        assert not off_the_circle(verdict.fixed_cell)
        assert abs(verdict.eigenpairs[0].eigenvalue - PLANTED_LAMBDA) <= 1e-10
        assert transfer_spectrum(shrunk).passing_flags.sum() == 1

    @pytest.mark.parametrize("sign", [1, -1])
    def test_scalar_candidate_band(self, sign):
        phase = np.exp(0.7j)
        eigenvalues, margin, allowance = cell_zero([[(1 + sign * TOL_EIG / 2) * phase]])
        assert _candidate_rows(eigenvalues, TOL_EIG).tolist() == [0]
        assert not _rules_out_the_circle(margin, allowance, TOL_EIG)
        eigenvalues, margin, allowance = cell_zero([[(1 + sign * 2 * TOL_EIG) * phase]])
        assert _candidate_rows(eigenvalues, TOL_EIG).tolist() == []
        assert _rules_out_the_circle(margin, allowance, TOL_EIG)

    def test_ill_conditioned_eigenvalues_in_the_band_are_not_certified(self):
        # Two eigenvalues 2 tol_eig outside the circle and 1e-10 apart:
        # with an off-diagonal 1, the eigenvectors are nearly parallel and
        # the Bauer-Fike allowance swallows the margin; diagonal, it does
        # not.
        a = 1 + 2 * TOL_EIG
        eigenvalues, margin, allowance = cell_zero([[a, 1.0], [0.0, a + 1e-10]])
        assert _candidate_rows(eigenvalues, TOL_EIG).tolist() == []
        assert TOL_EIG < margin <= TOL_EIG + allowance
        assert not _rules_out_the_circle(margin, allowance, TOL_EIG)
        _, margin, allowance = cell_zero([[a, 0.0], [0.0, a + 1e-10]])
        assert allowance < 1e-15
        assert _rules_out_the_circle(margin, allowance, TOL_EIG)

    def test_defective_matrix_has_an_infinite_allowance(self):
        _, margin, allowance = cell_zero([[1.5, 1.0], [0.0, 1.5]])
        assert margin == 0.5
        assert allowance == math.inf
        assert not _rules_out_the_circle(margin, allowance, TOL_EIG)

    @pytest.mark.parametrize(
        "scale, base", [(2, 1), (2, 7), (2, 56), (3, 1), (3, 4), (4, 1), (4, 28)]
    )
    @pytest.mark.parametrize("depth", [1, 2, 3, 5])
    def test_propagation_reaches_every_coarse_cell(
        self, scale, base, depth, monkeypatch
    ):
        grid = GridSpec(scale, base, depth)
        ones = np.ones((1, 1, grid.cells), dtype=np.complex128)
        filt = FilterMatrix(scale, SigmaChain.full_circle(1), grid, ones)
        levels = []
        inside = ruelle._inside

        def counted(*args):
            levels.append(args)
            return inside(*args)

        monkeypatch.setattr("gmrafilters.ruelle._inside", counted)
        # With H = 1 and lam = 1, every coarse cell reached is set to 1.
        values = ruelle._propagate(filt, np.ones((1, 1)), 1.0)
        coarse_cells = grid.cells // scale
        assert np.array_equal(values, np.ones((1, 1, coarse_cells)))
        # at most ceil(log_N(M/N)) + 1 levels carry a cell, and one more
        # finds that none is left
        assert len(levels) - 1 <= math.ceil(
            math.log(coarse_cells, scale) - 1e-9
        ) + 1

    @pytest.mark.parametrize(
        "name, build, status",
        [
            ("constant", make_constant, NOT_PURE_CERTIFIED),
            ("constant_n3", lambda: make_constant(3, scale=3), NOT_PURE_CERTIFIED),
            (
                "planted",
                lambda: planted_filter(seeded(0), 3, 3, PLANTED_LAMBDA)[0],
                NOT_PURE_CERTIFIED,
            ),
            (
                "planted_two_channel",
                lambda: planted_unitary_filter(seeded(0), 2, 3, PLANTED_LAMBDA)[0],
                NOT_PURE_CERTIFIED,
            ),
            (
                "near_constant",
                lambda: near_constant_filter(seeded(0)),
                PURE_CERTIFIED,
            ),
            (
                "unimodular",
                lambda: near_constant_filter(seeded(0), eps=0.0),
                PURE_AT_RESOLUTION,
            ),
        ],
    )
    def test_classify_never_takes_the_dense_path(
        self, name, build, status, monkeypatch
    ):
        # The other generators: see test_certified_filters_build_no_matrix.
        filt = build()
        refuse_the_dense_path(monkeypatch)
        assert classify_purity(filt).status == status

    @pytest.mark.parametrize("depth", [13, 16])
    def test_decided_past_the_dense_cap(self, depth):
        verdict = classify_purity(make_constant(depth=depth))
        assert verdict.status == NOT_PURE_CERTIFIED
        pair = verdict.eigenpairs[0]
        assert pair.eigenvalue == 1.0 + 0.0j
        assert pair.residual == 0.0
        assert np.all(pair.fld.values == 1.0)
        assert verdict.closed_form_pairs == 1
        # spectrum solves the depth-1 filter that refines to this one and
        # takes the same pair from the fixed cell; the dense reference
        # finds it from K; haar, which does not coarsen, is still refused
        # by the cap.
        spectrum = transfer_spectrum(make_constant(depth=depth))
        assert len(spectrum.eigenvalues) == 2**depth
        assert spectrum.eigenvalues[0] == 1.0
        assert not spectrum.eigenvalues[1:].any()
        assert np.flatnonzero(spectrum.passing_flags).tolist() == [0]
        (cell_pair,) = spectrum.fixed_cell.candidates
        assert cell_pair.passed
        assert np.array_equal(cell_pair.fld.values, pair.fld.values)
        reference = dense_reference(make_constant(depth=depth))
        ((row, dense_pair),) = reference.candidates
        assert row == 0
        assert np.array_equal(reference.passing_flags, spectrum.passing_flags)
        assert dense_pair.eigenvalue == 1.0
        assert dense_pair.residual == 0.0
        assert np.array_equal(dense_pair.fld.values, pair.fld.values)
        with pytest.raises(DimensionCapError):
            transfer_spectrum(make_haar(depth=depth))


def oracle_cases():
    """Every case below the dense cap, as (name, builder) pairs."""
    cases = []
    for depth in (2, 4, 6):
        cases += [
            (f"haar_{depth}", lambda d=depth: make_haar(depth=d)),
            (f"shannon_{depth}", lambda d=depth: make_shannon(depth=d)),
            (f"constant_{depth}", lambda d=depth: make_constant(depth=d)),
        ]
    for depth in (1, 2, 3):
        cases += [
            (f"journe_step_{depth}", lambda d=depth: make_journe_step(depth=d)),
            (f"journe_{depth}", lambda d=depth: journe_at(d)),
        ]
    for n in (3, 4):
        for d in (2, 3):
            cases.append((f"constant_n{n}_{d}", lambda n=n, d=d: make_constant(d, n)))
    for n in (2, 3, 4):
        for d in (2, 3, 4):
            for k in (0, 1):
                cases.append(
                    (
                        f"planted_n{n}_{d}_seed{k}",
                        lambda n=n, d=d, k=k: planted_filter(
                            seeded(k), n, d, PLANTED_LAMBDA
                        )[0],
                    )
                )
    cases.append(
        ("planted_lambda_1", lambda: planted_filter(seeded(0), 2, 4, 1.0)[0])
    )
    for n in (2, 3):
        for d in (2, 3):
            cases.append(
                (
                    f"planted_two_channel_n{n}_{d}",
                    lambda n=n, d=d: planted_unitary_filter(
                        seeded(0), n, d, PLANTED_LAMBDA
                    )[0],
                )
            )
    for n, d in ((2, 3), (3, 2)):
        cases.append(
            (
                f"planted_three_channel_n{n}_{d}",
                lambda n=n, d=d: planted_unitary_filter(
                    seeded(0), n, d, PLANTED_LAMBDA, channels=3
                )[0],
            )
        )
    cases.append(("identity_two_channel", identity_two_channel))
    for k in (0, 1):
        cases += [
            (f"near_constant_{k}", lambda k=k: near_constant_filter(seeded(k))),
            (f"unimodular_{k}", lambda k=k: near_constant_filter(seeded(k), eps=0.0)),
            (
                f"journe_step_phase_copy_{k}",
                lambda k=k: random_phase_copy(make_journe_step(), seeded(k)),
            ),
            (
                f"journe_phase_copy_{k}",
                lambda k=k: random_phase_copy(journe_at(2), seeded(k)),
            ),
            (f"random_scalar_{k}", lambda k=k: random_scalar_filter(seeded(k), 5)),
        ]
    return cases


ORACLE_CASES = oracle_cases()

# Seeded draws beside the oracle cases: random scalar filters, and phase
# copies of filters with and without pairs on the circle.
SEEDED_DRAWS = [
    (f"random_scalar_draw_{k}", lambda k=k: random_scalar_filter(seeded(100 + k), 6))
    for k in range(8)
] + [
    (
        f"{base}_phase_copy_draw_{k}",
        lambda make=make, k=k: random_phase_copy(make(), seeded(200 + k)),
    )
    for base, make in (
        ("constant", lambda: make_constant(depth=4)),
        ("planted", lambda: planted_filter(seeded(1), 2, 4, PLANTED_LAMBDA)[0]),
        (
            "planted_two_channel",
            lambda: planted_unitary_filter(seeded(1), 2, 3, 1.0)[0],
        ),
    )
    for k in range(4)
]


class DenseReference(NamedTuple):
    """The spectrum rows, their flags, and K's re-tested candidates."""

    eigenvalues: np.ndarray
    passing_flags: np.ndarray
    candidates: tuple


def dense_reference(filt, tol_eig=TOL_EIG, tol_res=TOL_RES):
    """``transfer_spectrum`` with K's own eigenvectors, the independent oracle.

    Solved as ``transfer_spectrum`` solves, on the filter's coarsest grid.
    Each cluster of K's candidates (``_clusters``) takes one SVD of
    K - lambda I at its leader, and its members in order get the right
    singular vectors of the smallest singular values, so a repeated
    eigenvalue, semisimple on the circle, gets orthonormal fields.  Each
    field is repeated onto the filter's coarse grid and re-tested once,
    against the filter: a row passes only if ||S_H f - conj(lambda) f|| is
    within ``tol_res``.  ``candidates`` pairs each candidate's row with its
    re-tested pair.  ``_coarsest`` and ``_retest`` are looked up on the
    module, so the tests' patches of them apply here too.
    """
    coarse, levels = ruelle._coarsest(filt)
    tm = assemble_transfer_matrix(coarse)
    matrix = tm.matrix.real if not np.any(tm.matrix.imag) else tm.matrix
    solved = _by_modulus(smallmat.eigenvalues(matrix))
    block = filt.scale**levels
    eigenvalues = np.zeros(tm.fine_dimension * block, dtype=solved.dtype)
    eigenvalues[: len(solved)] = solved
    passing_flags = np.zeros(len(eigenvalues), dtype=bool)
    vectors = {}
    for cluster in _clusters(solved, _candidate_rows(solved, tol_eig), tol_res):
        found = smallmat.null_vectors(matrix, solved[cluster[0]], len(cluster))
        vectors.update(zip(cluster, found))
    grid = coarse.coarse_grid()
    tested = []
    for k in sorted(vectors):
        values = np.zeros((filt.count, grid.cells), dtype=np.complex128)
        values[tm.basis[:, 0], tm.basis[:, 1]] = vectors[k]
        values = _canonical_field(filt.chain, grid, values).values
        f = VecField(filt.chain, filt.coarse_grid(), np.repeat(values, block, axis=1))
        pair = ruelle._retest(filt, f, np.conj(complex(solved[k])), tol_res, TOL_NORM)
        passing_flags[k] = pair.residual <= tol_res
        tested.append((k, pair))
    return DenseReference(eigenvalues, passing_flags, tuple(tested))


def span_gap(fields, others):
    """The largest distance of a field from the span of ``others``."""
    return max(
        np.abs(f.values - sum(f.inner(g) * g.values for g in others)).max()
        for f in fields
    )


class TestDenseOracle:
    """The cell 0 decision against the dense spectrum of K, below the cap."""

    @pytest.mark.parametrize(
        "name, build", ORACLE_CASES, ids=[n for n, _ in ORACLE_CASES]
    )
    def test_fixed_cell_agrees_with_the_dense_path(self, name, build):
        filt = build()
        verdict = classify_purity(filt)
        dense = dense_reference(filt)
        accepted = list(verdict.eigenpairs)
        # the dense pairs carry conj(lambda) for K's eigenvalue lambda
        reference = [p for row, p in dense.candidates if dense.passing_flags[row]]
        assert len(accepted) == len(reference)
        for pair in accepted:
            mine = [p for p in accepted if abs(p.eigenvalue - pair.eigenvalue) <= 1e-9]
            theirs = [
                q for q in reference if abs(q.eigenvalue - pair.eigenvalue) <= 1e-9
            ]
            assert len(mine) == len(theirs)
            for p in mine:
                assert min(abs(p.eigenvalue - q.eigenvalue) for q in theirs) <= 1e-12
            if len(mine) == 1:
                f, g = mine[0].fld, theirs[0].fld
                phase = g.inner(f)
                phase /= abs(phase)
                assert np.abs(f.values * phase - g.values).max() <= 1e-12
            else:
                assert span_gap([p.fld for p in mine], [q.fld for q in theirs]) <= 1e-12
                assert span_gap([q.fld for q in theirs], [p.fld for p in mine]) <= 1e-12
        dense_status = NOT_PURE_CERTIFIED if reference else PURE_AT_RESOLUTION
        if verdict.status != dense_status:
            # an upgrade, only when H(0)^T stays more than tol_eig off the circle
            assert verdict.status == PURE_CERTIFIED
            assert dense_status == PURE_AT_RESOLUTION
            assert verdict.fixed_cell.margin > TOL_EIG
        if search_certificate(filt) is not None:
            assert off_the_circle(verdict.fixed_cell)


    @pytest.mark.parametrize(
        "name, build",
        ORACLE_CASES + SEEDED_DRAWS,
        ids=[n for n, _ in ORACLE_CASES + SEEDED_DRAWS],
    )
    def test_passing_flags_equal_the_dense_reference(self, name, build):
        filt = build()
        spectrum = transfer_spectrum(filt)
        reference = dense_reference(filt)
        # K is solved a strongly connected component at a time, so rows
        # agree to rounding, and the smeared zeros of the dense solve are
        # exact zeros outside the components.
        assert len(spectrum.eigenvalues) == len(reference.eigenvalues)
        assert_same_nonzero_spectrum(spectrum.eigenvalues, reference.eigenvalues)
        assert np.array_equal(spectrum.passing_flags, reference.passing_flags)

    def test_spectrum_makes_no_second_solve(self, monkeypatch):
        filt = planted_filter(seeded(0), 2, 9, 1.0)[0]
        shapes = []
        null_vectors = smallmat.null_vectors

        def recorded(matrix, *args):
            shapes.append(matrix.shape)
            return null_vectors(matrix, *args)

        def refuse(*args, **kwargs):
            raise AssertionError("transfer_spectrum took an SVD")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(smallmat, "null_vectors", recorded)
        spectrum = transfer_spectrum(filt)
        assert len(spectrum.eigenvalues) == 512
        assert np.flatnonzero(spectrum.passing_flags).tolist() == [0]
        # only H(0)^T, the 1 x 1 cell 0 matrix, ever meets null_vectors
        assert shapes == [(1, 1)]


def coarsening_levels(name, filt):
    """Constant, shannon, journe_step and H = I are ``refine``s of their
    depth-1 filters; no other oracle case repeats on a coarser grid."""
    refined = ("constant", "shannon", "journe_step_", "identity_two_channel")
    if name.startswith(refined) and "phase_copy" not in name:
        return filt.grid.depth - 1
    return 0


COARSENING_CASES = [
    (name, build)
    for name, build in ORACLE_CASES
    if coarsening_levels(name, build()) > 0
] + [("constant_10", lambda: make_constant(depth=10))]

# A bound on the moduli the full-grid solve gives the zeros of constant
# 10's K, whose nilpotent part's Jordan blocks smear 0 to about u^(1/k):
# measured 0.01291 with one BLAS thread and 0.01298 with two.
DENSE_SMEAR = 0.015


def repeated(samples, scale, depth, chain=None):
    """A filter whose samples, given on a coarser grid, are repeated to ``depth``."""
    chain = chain if chain is not None else SigmaChain.full_circle(len(samples))
    grid = GridSpec(scale, 1, depth)
    values = np.repeat(samples, grid.cells // samples.shape[2], axis=2)
    return FilterMatrix(scale, chain, grid, values)


def loop_coarsest(filt):
    """``_coarsest`` a level at a time, for comparison.

    A level down is taken while every block of N samples repeats the
    block's first in bits and in value, the coarser filter keeps depth
    >= 1, and the support chain aligns with its own coarse grid; each level
    copies the blocks' bits and builds a filter.
    """
    levels = 0
    while filt.grid.depth >= 2 and filt.chain.aligned(filt.grid.coarser().coarser()):
        _, blocks = _fibers(filt.samples, filt.scale)
        raw = np.ascontiguousarray(blocks).view(np.uint64).reshape(*blocks.shape, 2)
        if not ((raw == raw[..., :1, :]).all() and (blocks == blocks[..., :1]).all()):
            break
        filt = FilterMatrix(filt.scale, filt.chain, filt.grid.coarser(), blocks[..., 0])
        levels += 1
    return filt, levels


def loop_coarsest_cases():
    """Every generator at depths 1 to 10, constants at N = 3 and 4, random
    scalar filters, refines, and samples that must not repeat."""
    cases = []
    for d in range(1, 11):
        cases += [
            (f"haar_{d}", lambda d=d: make_haar(depth=d)),
            (f"shannon_{d}", lambda d=d: make_shannon(depth=d)),
            (f"constant_{d}", lambda d=d: make_constant(depth=d)),
            (f"journe_step_{d}", lambda d=d: make_journe_step(depth=d)),
            (
                f"journe_step_half_turn_{d}",
                lambda d=d: make_journe_step(depth=d, half_turn_phases=True),
            ),
            (f"journe_{d}", lambda d=d: journe_at(d)),
        ]
    for n in (3, 4):
        for d in range(1, 7):
            cases.append((f"constant_n{n}_{d}", lambda n=n, d=d: make_constant(d, n)))
    cases += [
        (f"random_scalar_{k}", lambda k=k: random_scalar_filter(seeded(300 + k), 1 + k % 6))
        for k in range(40)
    ]
    cases += [
        ("refined_shannon", lambda: refine(make_shannon(depth=2))),
        ("refined_journe_step", lambda: refine(refine(make_journe_step(depth=1)))),
        ("refined_random", lambda: refine(refine(random_scalar_filter(seeded(7), 3)))),
        ("refined_haar", lambda: refine(make_haar(depth=3))),
        # shannon 3 is zero on cells 8 to 23: -0.0 inside a block, then a block of it
        ("signed_zero", lambda: with_sample(make_shannon(depth=3), 0, 0, 9, -0.0)),
        (
            "signed_zero_block",
            lambda: with_sample(
                with_sample(make_shannon(depth=3), 0, 0, 8, -0.0), 0, 0, 9, -0.0
            ),
        ),
        ("nan_block", lambda: repeated(np.full((1, 1, 2), complex(math.nan, 0.0)), 2, 3)),
        ("nan_cell", lambda: with_sample(make_constant(depth=5), 0, 0, 8, math.nan)),
    ]
    return cases


LOOP_COARSEST_CASES = loop_coarsest_cases()


def full_grid_spectrum(filt, monkeypatch, solve=transfer_spectrum):
    """``solve`` with ``_coarsest`` faked to coarsen nothing."""
    with monkeypatch.context() as patch:
        patch.setattr("gmrafilters.ruelle._coarsest", lambda f: (f, 0))
        return solve(filt)


def count_retests(monkeypatch):
    """Wrap ``_retest`` so that each call records the grid of its filter."""
    grids = []
    retest = ruelle._retest

    def counted(filt, *args):
        grids.append(filt.grid)
        return retest(filt, *args)

    monkeypatch.setattr("gmrafilters.ruelle._retest", counted)
    return grids


class TestCoarsest:
    """``transfer_spectrum`` on the coarsest grid against the full-grid solve."""

    @pytest.mark.parametrize(
        "name, build", ORACLE_CASES, ids=[n for n, _ in ORACLE_CASES]
    )
    def test_levels(self, name, build):
        filt = build()
        coarse, levels = _coarsest(filt)
        assert levels == coarsening_levels(name, filt)
        if not levels:
            assert coarse is filt
            return
        assert coarse.grid.depth == 1
        again = coarse
        for _ in range(levels):
            again = refine(again)
        assert again.grid == filt.grid
        assert np.array_equal(again.samples, filt.samples)

    @pytest.mark.parametrize(
        "name, build", COARSENING_CASES, ids=[n for n, _ in COARSENING_CASES]
    )
    def test_agrees_with_the_full_grid_solve(self, name, build, monkeypatch):
        filt = build()
        coarse = transfer_spectrum(filt)
        dense = full_grid_spectrum(filt, monkeypatch)
        assert len(coarse.eigenvalues) == len(dense.eigenvalues)
        nonzero = coarse.eigenvalues != 0
        assert nonzero.any()
        assert np.abs(coarse.eigenvalues - dense.eigenvalues)[nonzero].max() <= 1e-12
        assert np.abs(dense.eigenvalues[~nonzero]).max() < DENSE_SMEAR
        assert np.array_equal(coarse.passing_flags, dense.passing_flags)
        coarse = dense_reference(filt)
        dense = full_grid_spectrum(filt, monkeypatch, dense_reference)
        assert np.array_equal(coarse.passing_flags, dense.passing_flags)
        assert [k for k, _ in coarse.candidates] == [k for k, _ in dense.candidates]
        for (_, p), (_, q) in zip(coarse.candidates, dense.candidates):
            assert p.fld.grid == filt.coarse_grid()
            assert abs(p.eigenvalue - q.eigenvalue) <= 1e-12
            assert p.residual <= TOL_RES

    def test_constant_10_loses_its_smeared_cluster(self, monkeypatch):
        dense = full_grid_spectrum(make_constant(depth=10), monkeypatch)
        smeared = np.abs(dense.eigenvalues[1:])
        assert 0.01 < smeared.max() < DENSE_SMEAR
        assert np.count_nonzero(smeared) == 511
        coarse = transfer_spectrum(make_constant(depth=10))
        assert coarse.eigenvalues[0] == 1.0
        assert not coarse.eigenvalues[1:].any()

    @pytest.mark.parametrize(
        "build, calls",
        [(lambda: make_constant(depth=10), 1), (identity_two_channel, 2)],
        ids=["constant_10", "identity_two_channel"],
    )
    def test_each_candidate_is_retested_once_at_its_own_grid(
        self, build, calls, monkeypatch
    ):
        filt = build()
        grids = count_retests(monkeypatch)
        spectrum = transfer_spectrum(filt)
        assert len(spectrum.fixed_cell.candidates) == calls
        assert grids == [filt.grid] * calls
        reference = dense_reference(filt)
        assert len(reference.candidates) == calls
        assert grids == [filt.grid] * 2 * calls

    @pytest.mark.parametrize(
        "name, build", LOOP_COARSEST_CASES, ids=[n for n, _ in LOOP_COARSEST_CASES]
    )
    def test_matches_the_level_by_level_loop(self, name, build):
        filt = build()
        coarse, levels = _coarsest(filt)
        reference, reference_levels = loop_coarsest(filt)
        assert (levels, coarse.grid) == (reference_levels, reference.grid)
        assert (coarse is filt) == (reference is filt)
        bits = [np.ascontiguousarray(f.samples).view(np.uint64) for f in (coarse, reference)]
        assert np.array_equal(*bits)

    def test_signed_zero_in_a_block_does_not_repeat(self):
        filt = make_shannon(depth=3)
        zero = int(np.flatnonzero(filt.samples[0, 0] == 0)[0])
        assert zero % 2 == 0 and filt.samples[0, 0, zero + 1] == 0
        signed = with_sample(filt, 0, 0, zero + 1, complex(-0.0, 0.0))
        assert _coarsest(filt)[1] == 2
        assert _coarsest(signed)[1] == 0
        # equal as values, so a float comparison would have coarsened it
        assert np.array_equal(signed.samples, filt.samples)

    def test_nan_block_does_not_repeat(self):
        filt = repeated(np.full((1, 1, 2), complex(math.nan, 0.0)), 2, 3)
        # every sample has the same bytes: one NaN real part, one zero
        assert np.unique(filt.samples.view(np.uint64)).size == 2
        assert _coarsest(filt) == (filt, 0)

    def test_chain_that_does_not_align_with_the_next_grid(self):
        half = IntervalSet.from_arcs([(0, Fraction(1, 2))])
        chain = SigmaChain.of([IntervalSet.full(), half])
        samples = np.zeros((2, 2, 2), dtype=np.complex128)
        samples[0, 0] = samples[1, 1] = 1.0
        filt = repeated(samples, 2, 4, chain)
        # the depth-2 filter's coarse grid has 2 cells, which sigma_2 aligns
        # with; depth 1 would need the 1-cell grid
        coarse, levels = _coarsest(filt)
        assert (levels, coarse.grid.depth) == (2, 2)
        assert _coarsest(repeated(samples, 2, 4))[1] == 3

    @pytest.mark.parametrize("scale", [2, 3, 4])
    def test_depth_one_floor(self, scale):
        filt = make_constant(depth=1, scale=scale)
        assert _coarsest(filt) == (filt, 0)
        coarse, levels = _coarsest(make_constant(depth=5, scale=scale))
        assert (levels, coarse.grid) == (4, filt.grid)


class TestPlantedFilters:
    # Seed 4 at N = 2, depth 3 and seed 8 at N = 3, depth 2 have samples
    # of modulus 1 + 2^-52 around 0; without the margin allowance the
    # search certifies them pure with delta = 2^-52.
    @pytest.mark.parametrize("seed", [0, 4, 8])
    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("scale", [2, 3, 4])
    def test_planted_eigenpair_is_found(self, scale, depth, seed):
        rng = np.random.default_rng(seed)
        filt, planted = planted_filter(rng, scale, depth, PLANTED_LAMBDA)
        assert filter_equation_residual(filt).max_abs_residual <= 1e-14
        verdict = classify_purity(filt)
        assert verdict.status == NOT_PURE_CERTIFIED
        assert len(verdict.eigenpairs) == 1
        pair = verdict.eigenpairs[0]
        assert abs(pair.eigenvalue - PLANTED_LAMBDA) <= 1e-12
        expected = planted.scaled(1.0 / planted.norm())
        phase = pair.fld.inner(expected)
        phase /= abs(phase)
        assert np.abs(pair.fld.values - phase * expected.values).max() <= 1e-12
        assert verdict.martingale_max_dev is not None
        assert search_certificate(filt) is None

    @pytest.mark.parametrize("channels", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("scale", [2, 3])
    def test_planted_eigenspace_is_found(self, scale, depth, seed, channels):
        rng = np.random.default_rng(seed)
        filt, columns = planted_unitary_filter(
            rng, scale, depth, PLANTED_LAMBDA, channels
        )
        assert filter_equation_residual(filt).max_abs_residual <= 1e-12
        assert search_certificate(filt) is None
        verdict = classify_purity(filt)
        assert verdict.status == NOT_PURE_CERTIFIED
        assert not off_the_circle(verdict.fixed_cell)
        assert len(verdict.eigenpairs) == channels
        for pair in verdict.eigenpairs:
            assert abs(pair.eigenvalue - PLANTED_LAMBDA) <= 1e-12
        fields = [p.fld for p in verdict.eigenpairs]
        gram = np.array([[f.inner(g) for g in fields] for f in fields])
        assert np.abs(gram - np.eye(channels)).max() <= 1e-12
        for f in fields:
            projection = sum(f.inner(w) * w.values for w in columns)
            assert np.abs(f.values - projection).max() <= 1e-12

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("scale", [3, 4])
    def test_constant_filter_at_scale_n_is_sharpened(self, scale, depth):
        filt = make_constant(depth=depth, scale=scale)
        verdict = classify_purity(filt)
        assert verdict.status == NOT_PURE_CERTIFIED
        assert len(verdict.eigenpairs) == 1
        pair = verdict.eigenpairs[0]
        assert pair.eigenvalue == 1.0 + 0.0j
        assert pair.residual == 0.0
        assert np.all(pair.fld.values == 1.0)
        assert verdict.closed_form_pairs == 1
        assert search_certificate(filt) is None


class TestMartingale:
    def test_list_runs_from_zero_to_n_max(self):
        filt = make_haar(depth=3)
        f = VecField.ones(filt.chain, filt.grid)
        seq = martingale_sequence(f, f, filt.scale, 2)
        assert len(seq) == 3
        assert np.allclose(seq[0].samples, np.abs(f.values[0]) ** 2, atol=0)

    def test_every_order_has_the_same_mean(self):
        filt = make_journe_step()
        rng = np.random.default_rng(5)
        f = random_vecfield(filt.chain, filt.grid, rng)
        g = random_vecfield(filt.chain, filt.grid, rng)
        target = f.inner(g)
        for x in martingale_sequence(f, g, filt.scale, 2):
            assert complex(x.samples.mean()) == pytest.approx(target, abs=1e-14)

    def test_grid_must_resolve_the_kernel(self):
        grid = GridSpec(2, 3, 1)
        chain = SigmaChain.full_circle(1)
        f = VecField.ones(chain, grid)
        martingale_sequence(f, f, 2, 1)
        with pytest.raises(ResolutionError):
            martingale_sequence(f, f, 2, 2)

    def test_mismatched_grids_are_refused(self):
        chain = SigmaChain.full_circle(1)
        f = VecField.ones(chain, GridSpec(2, 1, 3))
        g = VecField.ones(chain, GridSpec(2, 1, 2))
        with pytest.raises(ResolutionError):
            martingale_sequence(f, g, 2, 1)


class TestDecayProbe:
    @pytest.mark.parametrize(
        "build, status, pairs",
        [
            (lambda: make_constant(depth=10), NOT_PURE_CERTIFIED, 1),
            (lambda: make_haar(depth=8), PURE_CERTIFIED, 0),
            (identity_two_channel, NOT_PURE_CERTIFIED, 2),
            (
                lambda: planted_filter(seeded(0), 3, 3, PLANTED_LAMBDA)[0],
                NOT_PURE_CERTIFIED,
                1,
            ),
        ],
        ids=["constant_10", "haar_8", "identity_two_channel", "planted"],
    )
    def test_classify_runs_no_probe(self, monkeypatch, build, status, pairs):
        # The verdict is decided at the fixed cell; neither the probe nor
        # the matrix-free adjoint has a say in it.
        def refuse(*args, **kwargs):
            raise AssertionError("classify_purity applied the adjoint")

        monkeypatch.setattr("gmrafilters.ruelle.decay_probe", refuse)
        monkeypatch.setattr("gmrafilters.ruelle.transfer_apply", refuse)
        verdict = classify_purity(build())
        assert verdict.status == status
        assert len(verdict.eigenpairs) == pairs
        assert not hasattr(verdict, "decay_probe")

    def _unit_ones(self, filt):
        probe = VecField.ones(filt.chain, filt.grid)
        return probe.scaled(1.0 / probe.norm())

    @pytest.mark.parametrize("make", [make_haar, make_shannon])
    def test_low_pass_probe_decays_geometrically(self, make):
        filt = make()
        norms = decay_probe(filt, self._unit_ones(filt), 5)
        assert norms == pytest.approx(
            [INV_SQRT2**k for k in range(6)], abs=1e-12
        )

    def test_constant_probe_never_decays(self):
        filt = make_constant()
        norms = decay_probe(filt, self._unit_ones(filt), 5)
        assert norms == pytest.approx([1.0] * 6, abs=1e-14)

    @pytest.mark.parametrize("make", [make_journe_step, journe_filter])
    def test_probe_is_nonincreasing_on_valid_filters(self, make):
        filt = make()
        norms = decay_probe(filt, self._unit_ones(filt), 6)
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-12

    def test_random_valid_filters_are_nonexpansive(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            filt = random_scalar_filter(rng)
            f = random_vecfield(filt.chain, filt.grid, rng)
            nrm = f.norm()
            if nrm == 0:
                continue
            norms = decay_probe(filt, f.scaled(1 / nrm), 4)
            for a, b in zip(norms, norms[1:]):
                assert b <= a + 1e-12
