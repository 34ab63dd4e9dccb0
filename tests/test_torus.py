"""Exact circle arithmetic: interval sets, grids, support chains."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrafilters import (
    GridSpec,
    IntervalSet,
    ParameterError,
    SigmaChain,
)
from gmrafilters.errors import GridAlignmentError
from gmrafilters.torus import as_rat

from helpers import member

rationals = st.fractions(min_value=0, max_value=1, max_denominator=48)
scales = st.integers(min_value=2, max_value=5)


def interval_sets(max_arcs: int = 3) -> st.SearchStrategy[IntervalSet]:
    arc = st.tuples(rationals, rationals)
    return st.lists(arc, min_size=0, max_size=max_arcs).map(IntervalSet.from_arcs)


def preimage(s: IntervalSet, n: int) -> IntervalSet:
    """The preimage under x -> n x mod 1: [a, b) pulls back to n arcs."""
    return IntervalSet.from_arcs(
        [((a + k) / n, (b + k) / n) for a, b in s.parts for k in range(n)]
    )


class TestIntervalSet:
    def test_canonical_form_from_messy_arcs(self):
        s = IntervalSet.from_arcs(
            [("1/2", "3/4"), ("3/4", "7/8"), ("-1/8", "1/8")]
        )
        assert s.parts == (
            (Fraction(0), Fraction(1, 8)),
            (Fraction(1, 2), Fraction(1)),
        )

    def test_wrap_around_splits_at_zero(self):
        s = IntervalSet.from_arcs([("7/8", "9/8")])
        assert s.parts == (
            (Fraction(0), Fraction(1, 8)),
            (Fraction(7, 8), Fraction(1)),
        )

    def test_full_and_empty(self):
        assert IntervalSet.from_arcs([(0, 1)]) == IntervalSet.full()
        assert IntervalSet.from_arcs([("1/3", "4/3")]) == IntervalSet.full()
        assert IntervalSet.from_arcs([("1/3", "1/3")]).is_empty()

    @pytest.mark.parametrize("text", ["1/0", "x", "", "1/2/3"])
    def test_a_bad_rational_is_a_parameter_error(self, text):
        with pytest.raises(ParameterError):
            as_rat(text)
        with pytest.raises(ParameterError):
            IntervalSet.from_arcs([("0", text)])

    def test_image_of_small_interval(self):
        s = IntervalSet.from_arcs([("3/7", "4/7")])
        assert s.dilate(2) == IntervalSet.from_arcs([("6/7", "8/7")])

    @given(interval_sets())
    def test_canonicalization_is_idempotent(self, s):
        assert IntervalSet.from_arcs(s.parts) == s
        for (a, b), (c, d) in zip(s.parts, s.parts[1:]):
            assert b < c

    @given(interval_sets(), interval_sets())
    def test_inclusion_exclusion(self, s, t):
        union = IntervalSet.from_arcs([*s.parts, *t.parts])
        assert union.measure() + s.intersect(t).measure() == (
            s.measure() + t.measure()
        )

    @given(interval_sets(), scales)
    def test_image_of_preimage_recovers_the_set(self, s, n):
        assert preimage(s, n).dilate(n) == s

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=0, max_value=1, max_denominator=12),
                st.fractions(min_value=0, max_value=1, max_denominator=12),
            ),
            max_size=3,
        ).map(IntervalSet.from_arcs),
        st.integers(min_value=2, max_value=3),
    )
    def test_set_maps_agree_with_pointwise_membership(self, s, n):
        # brute-force oracle on a grid fine enough to see every endpoint:
        # y lies in the image exactly when one of its n preimages lies in s
        denom = n * int(
            np.lcm.reduce(
                [1] + [int(x.denominator) for a, b in s.parts for x in (a, b)]
            )
        )
        image = s.dilate(n)
        for k in range(denom):
            y = Fraction(k, denom)
            assert member(image, y) == any(
                member(s, (y + j) / n) for j in range(n)
            )

    @given(interval_sets(), interval_sets())
    def test_containment_via_intersection(self, s, t):
        st_ = s.intersect(t)
        assert s.contains_set(st_)
        assert t.contains_set(st_)


class TestGridSpec:
    def test_cells_and_refinement(self):
        g = GridSpec(2, 7, 3)
        assert g.cells == 56
        assert g.finer().cells == 112
        assert g.finer().coarser() == g
        with pytest.raises(ParameterError):
            GridSpec(2, 7, 0).coarser()

    def test_alignment_and_masks(self):
        g = GridSpec(2, 7, 1)
        s = IntervalSet.from_arcs([("0", "2/7"), ("3/7", "4/7")])
        assert s.aligned(g)
        mask = s.cell_mask(g)
        assert mask.tolist() == [
            True, True, True, True, False, False,
            True, True, False, False, False, False, False, False,
        ]
        with pytest.raises(GridAlignmentError):
            IntervalSet.from_arcs([("0", "1/3")]).cell_mask(g)

    def test_validation(self):
        with pytest.raises(ParameterError):
            GridSpec(1, 4, 0)
        with pytest.raises(ParameterError):
            GridSpec(2, 0, 1)
        with pytest.raises(ParameterError):
            GridSpec(2, 4, -1)
        # the cell cap, 2**48 cells, refused without computing the count
        assert GridSpec(2, 1, 48).cells == 2**48
        for scale, base, depth in [(2, 1, 49), (2, 2**48 + 1, 0), (3, 1, 31),
                                   (2, 1, 10**4000)]:
            with pytest.raises(ParameterError, match=r"exceeds the cap of 2\*\*48"):
                GridSpec(scale, base, depth)


class TestSigmaChain:
    def test_nesting_enforced(self):
        a = IntervalSet.from_arcs([(0, "1/2")])
        b = IntervalSet.from_arcs([("1/4", "3/4")])
        with pytest.raises(ParameterError):
            SigmaChain.of([a, b])
        chain = SigmaChain.of([a, IntervalSet.from_arcs([(0, "1/4")])])
        assert chain.positive_set() == a

    def test_first_member_nonempty(self):
        with pytest.raises(ParameterError):
            SigmaChain.of([IntervalSet(())])

    def test_full_circle(self):
        chain = SigmaChain.full_circle(3)
        assert chain.count == 3
        assert all(s == IntervalSet.full() for s in chain.sigmas)
