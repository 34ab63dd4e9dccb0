"""The refinement tower behind the dichotomy, and the intersection report."""

import time
from fractions import Fraction

import numpy as np
import pytest

from gmrafilters import gmra
from gmrafilters import (
    NOT_PURE_CERTIFIED,
    PURE_CERTIFIED,
    ParameterError,
    VecField,
    assemble_transfer_matrix,
    derive_journe,
    intersection_report,
    make_journe_step,
    make_constant,
    make_haar,
    make_journe_family,
    random_vecfield,
    refine,
    ruelle_apply,
)

from gmrafilters.ruelle import TOL_EIG

from helpers import (
    column_violation_filter,
    planted_filter,
    planted_unitary_filter,
    random_scalar_filter,
    with_sample,
)

PLANTED_LAMBDA = np.exp(2j * np.pi * 0.3)


def tower_stages(filt, depth):
    """The filter refined 1, ..., depth times.

    Level 0 of the tower is the filter's own fine grid and level k that
    grid refined k times; the coarse grid of stage k is level k - 1, so
    the operator of stage k embeds level k - 1 into level k.
    """
    stages = []
    for _ in range(depth):
        filt = refine(filt)
        stages.append(filt)
    return stages


class TestTower:
    def test_haar_level_dimensions(self):
        filt = make_haar(depth=1)
        levels = [filt, *tower_stages(filt, 3)]
        assert [assemble_transfer_matrix(s).fine_dimension for s in levels] == [
            2, 4, 8, 16,
        ]
        assert [s.cells for s in levels] == [2, 4, 8, 16]

    def test_journe_level_dimensions_weight_by_multiplicity(self):
        filt = make_journe_step()
        levels = [filt, *tower_stages(filt, 2)]
        assert [assemble_transfer_matrix(s).fine_dimension for s in levels] == [
            112, 224, 448,
        ]

    def test_each_embedding_is_an_isometry(self):
        filt = make_journe_step()
        rng = np.random.default_rng(0)
        f = random_vecfield(filt.chain, filt.grid, rng)
        for stage in tower_stages(filt, 3):
            g = ruelle_apply(stage, f)
            assert g.norm() == pytest.approx(f.norm(), abs=1e-13)
            f = g

    @pytest.mark.parametrize("base,steps", [(make_haar, 3), (make_journe_step, 2)])
    def test_lift_telescopes_into_the_cocycle(self, base, steps):
        filt = base(depth=1) if base is make_haar else base()
        rng = np.random.default_rng(4)
        f = random_vecfield(filt.chain, filt.grid, rng)
        top = f
        for stage in tower_stages(filt, steps):
            top = ruelle_apply(stage, top)
        # Oracle: the ordered product H^T(x) H^T(x^N) ... of the base
        # filter's matrices along the dilation orbit of each top cell x,
        # applied to f at x^(N^steps).
        n = filt.scale
        m0 = filt.cells
        m = top.grid.cells
        for cell in range(m):
            x = Fraction(cell, m)
            prod = np.eye(filt.count, dtype=np.complex128)
            for k in range(steps):
                prod = prod @ filt.samples[:, :, int(x * n**k % 1 * m0)].T
            source = f.values[:, int(x * n**steps % 1 * m0)]
            assert np.allclose(top.values[:, cell], prod @ source, atol=1e-12)

    def test_constant_filter_keeps_the_ones_field_at_every_level(self):
        filt = make_constant(depth=2)
        f = VecField.ones(filt.chain, filt.grid)
        for stage in tower_stages(filt, 3):
            f = ruelle_apply(stage, f)
            assert np.all(f.values == 1.0)


class TestIntersectionReport:
    def test_haar_intersection_is_trivial_with_a_certificate(self):
        rep = intersection_report(make_haar())
        assert rep.verdict.status == PURE_CERTIFIED
        assert rep.certificate is not None
        assert rep.equivalence == {
            "tail_intersection_nontrivial": "no",
            "modulus_one_eigenvector": "ruled_out",
            "consistent": True,
        }
        assert "purity" in rep.narrative
        assert "zero" in rep.narrative

    def test_constant_intersection_is_nontrivial_with_a_witness(self):
        rep = intersection_report(make_constant())
        assert rep.verdict.status == NOT_PURE_CERTIFIED
        assert rep.certificate is None
        assert rep.equivalence["tail_intersection_nontrivial"] == "yes"
        assert rep.equivalence["modulus_one_eigenvector"] == "found"
        assert rep.equivalence["consistent"] is True
        # the sequence-space model with its fixed unit mass at 0
        assert "square-summable" in rep.narrative
        assert "power of 2" in rep.narrative
        assert "unit mass" in rep.narrative
        assert "fixed" in rep.narrative

    def test_contraction_alone_makes_the_intersection_trivial(self):
        filt = random_scalar_filter(np.random.default_rng(0), depth=4)
        rep = intersection_report(filt)
        assert rep.certificate is None
        assert rep.verdict.status == PURE_CERTIFIED
        # rho(K) < 1 proved at the fixed cell, with no block certificate
        cell = rep.verdict.fixed_cell
        assert cell.margin > TOL_EIG + cell.allowance
        assert rep.equivalence == {
            "tail_intersection_nontrivial": "no",
            "modulus_one_eigenvector": "ruled_out",
            "consistent": True,
        }
        assert "fixed point 0" in rep.narrative
        assert f"{cell.margin:.6g}" in rep.narrative
        assert f"{cell.allowance:.3g}" in rep.narrative
        assert "zero" in rep.narrative

    def test_eigenvalue_one_minus_zero_i_prints_a_plus_zero(self):
        # H(0) = f(0)/f(0) is computed as 1 - 0j.
        filt = planted_filter(np.random.default_rng(0), 2, 4, 1.0)[0]
        rep = intersection_report(filt)
        assert rep.verdict.status == NOT_PURE_CERTIFIED
        assert "(+1.000000+0.000000i)" in rep.narrative
        assert "-0.000000" not in rep.narrative

    def test_journe_family_intersection_is_trivial(self):
        filt = make_journe_family(derive_journe(0.1).params)
        rep = intersection_report(filt)
        assert rep.verdict.status == PURE_CERTIFIED
        assert rep.equivalence["consistent"] is True

    def test_certificate_search_is_timed(self, monkeypatch):
        search = gmra.search_certificate

        def slow(filt):
            time.sleep(0.02)
            return search(filt)

        monkeypatch.setattr(gmra, "search_certificate", slow)
        rep = intersection_report(make_haar())
        assert rep.certificate == search(make_haar())
        assert rep.certificate_s >= 0.02

    @pytest.mark.parametrize(
        "build",
        [
            column_violation_filter,
            lambda: with_sample(make_haar(), 0, 0, 3, 2.0),
            lambda: with_sample(make_haar(), 0, 0, 3, float("nan")),
        ],
        ids=["support_rule", "residual", "nan_residual"],
    )
    def test_refuses_before_the_certificate_search(self, build, monkeypatch):
        # As classify_purity refuses them, and verify, classify and spectrum.
        def search(filt):
            raise AssertionError("search_certificate ran on an unverified filter")

        monkeypatch.setattr("gmrafilters.gmra.search_certificate", search)
        with pytest.raises(ParameterError):
            intersection_report(build())

    def test_dimension_caution_is_always_present(self):
        for filt in (make_haar(), make_constant()):
            rep = intersection_report(filt)
            assert "No dimension" in rep.dimension_caution
            assert "infinite dimensional" in rep.dimension_caution


class TestConcreteModel:
    """The sequence-space model is narrated only for the pair (1, chi)."""

    @pytest.mark.parametrize("scale", [2, 3])
    def test_constant_filter_gets_the_model(self, scale):
        rep = intersection_report(make_constant(scale=scale))
        assert rep.verdict.status == NOT_PURE_CERTIFIED
        assert "square-summable" in rep.narrative
        assert f"power of {scale};" in rep.narrative
        assert "unit mass" in rep.narrative

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: planted_filter(rng, 2, 4, PLANTED_LAMBDA)[0],
            # Eigenvalue 1, but a field of varying phase.
            lambda rng: planted_filter(rng, 2, 4, 1.0)[0],
            lambda rng: planted_unitary_filter(rng, 2, 3, PLANTED_LAMBDA)[0],
        ],
        ids=["planted", "planted_lambda_1", "planted_two_channel"],
    )
    def test_other_non_pure_filters_do_not(self, build):
        rep = intersection_report(build(np.random.default_rng(0)))
        assert rep.verdict.status == NOT_PURE_CERTIFIED
        assert "square-summable" not in rep.narrative
        assert "unit mass" not in rep.narrative
