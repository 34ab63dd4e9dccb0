"""Exact rational grids, interval sets and support chains on the circle.

The circle is modelled as the half-open interval [0, 1) with addition mod 1.
A grid splits it into equal half-open cells, the supports of a filter are
finite unions of half-open rational intervals, and a support chain is a
nested sequence of such sets.  The dilation x -> scale * x mod 1 acts on
sets through their forward image.  Everything in this module is exact:
measures, intersections, images and grid alignment are computed with
``fractions.Fraction`` and never touch floating point; cell masks are the
one bridge to the sampled world.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import GridAlignmentError, ParameterError

RatLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)

# A grid of 2**48 cells already exceeds any machine's memory, which refuses
# its arrays with MemoryError; a larger grid is refused here, before numpy
# fails to size its arrays.
MAX_CELLS_LOG2 = 48


def as_rat(value: RatLike) -> Fraction:
    """Coerce ints, strings like ``"3/7"`` and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParameterError(f"not an exact rational: {value!r}")


def rat_str(value: Fraction) -> str:
    """Serialize a Fraction as ``"p/q"`` with q > 0 and gcd(p, q) = 1."""
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class GridSpec:
    """A uniform grid of base * scale**depth half-open cells on the circle.

    ``scale`` is the dilation factor, ``base`` the number of cells of the
    depth-0 grid, and ``depth`` how many times that grid has been refined by
    ``scale``.  Cell t is the interval [t/M, (t+1)/M) with M = cells.
    """

    scale: int
    base: int
    depth: int

    def __post_init__(self) -> None:
        if self.scale < 2:
            raise ParameterError(f"grid scale must be >= 2, got {self.scale}")
        if self.base < 1:
            raise ParameterError(f"grid base must be >= 1, got {self.base}")
        if self.depth < 0:
            raise ParameterError(f"grid depth must be >= 0, got {self.depth}")
        # scale >= 2, so a depth past the cap's exponent exceeds it without
        # the cell count being computed.
        if self.depth > MAX_CELLS_LOG2 or self.cells > 2**MAX_CELLS_LOG2:
            raise ParameterError(
                f"grid of {self.base} * {self.scale}**{self.depth} cells "
                f"exceeds the cap of 2**{MAX_CELLS_LOG2} cells"
            )

    @property
    def cells(self) -> int:
        return self.base * self.scale**self.depth

    def coarser(self) -> "GridSpec":
        if self.depth == 0:
            raise ParameterError("depth-0 grid has no coarser grid")
        return GridSpec(self.scale, self.base, self.depth - 1)

    def finer(self) -> "GridSpec":
        return GridSpec(self.scale, self.base, self.depth + 1)


def _arc_parts(start: Fraction, end: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Half-open arc from start to end, traversed forward, as [0,1) parts.

    Arcs of length >= 1 cover the whole circle; equal endpoints give the
    empty set; an arc crossing 0 is split there.
    """
    length = end - start
    if length >= 1:
        return [(ZERO, ONE)]
    length = length % 1
    if length == 0:
        return []
    a = start % 1
    b = a + length
    if b <= 1:
        return [(a, b)]
    return [(a, ONE), (ZERO, b - 1)]


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of half-open rational intervals in [0, 1).

    The representation is canonical: parts are pairwise disjoint, sorted,
    non-adjacent, and split (never merged) at 0, so equal sets have equal
    representations.  Instances are immutable and hashable.
    """

    parts: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        prev_end = None
        for a, b in self.parts:
            if not (ZERO <= a < b <= ONE):
                raise ParameterError(f"bad interval part [{a}, {b})")
            if prev_end is not None and a <= prev_end:
                raise ParameterError("interval parts must be sorted and disjoint")
            prev_end = b

    @classmethod
    def from_arcs(
        cls, arcs: Iterable[tuple[RatLike, RatLike]]
    ) -> "IntervalSet":
        """Normalize arbitrary arcs into the canonical representation.

        Each arc (a, b) is traversed forward from a to b on the circle, so
        (-1/8, 1/8) and (7/8, 9/8) both denote the same wrap-around set.
        """
        raw: list[tuple[Fraction, Fraction]] = []
        for a, b in arcs:
            raw.extend(_arc_parts(as_rat(a), as_rat(b)))
        raw.sort()
        merged: list[list[Fraction]] = []
        for a, b in raw:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return cls(tuple((a, b) for a, b in merged))

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls(((ZERO, ONE),))

    def is_empty(self) -> bool:
        return not self.parts

    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.parts), start=ZERO)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[tuple[Fraction, Fraction]] = []
        for a, b in self.parts:
            for c, d in other.parts:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return IntervalSet.from_arcs(out)

    def contains_set(self, other: "IntervalSet") -> bool:
        return self.intersect(other) == other

    def dilate(self, scale: int) -> "IntervalSet":
        """Forward image under x -> scale * x mod 1 (exact)."""
        return IntervalSet.from_arcs(
            [(a * scale, a * scale + (b - a) * scale) for a, b in self.parts]
        )

    def aligned(self, grid: GridSpec) -> bool:
        """True when every endpoint is a multiple of one cell width."""
        m = grid.cells
        return all(
            (a * m).denominator == 1 and (b * m).denominator == 1
            for a, b in self.parts
        )

    def cell_mask(self, grid: GridSpec) -> np.ndarray:
        """Boolean mask over grid cells; requires exact alignment."""
        if not self.aligned(grid):
            raise GridAlignmentError(f"set {self} does not align with {grid}")
        m = grid.cells
        mask = np.zeros(m, dtype=bool)
        for a, b in self.parts:
            mask[int(a * m) : int(b * m)] = True
        return mask

    def __str__(self) -> str:
        body = " u ".join(f"[{rat_str(a)},{rat_str(b)})" for a, b in self.parts)
        return body if body else "(empty)"


@dataclass(frozen=True)
class SigmaChain:
    """A nested chain of supports sigma_1 >= sigma_2 >= ... >= sigma_c.

    The chain encodes a multiplicity function on the circle: the value at a
    point is the number of chain members containing it.  The first member
    must be nonempty; later members may shrink to the empty set.
    """

    sigmas: tuple[IntervalSet, ...]

    def __post_init__(self) -> None:
        if not self.sigmas:
            raise ParameterError("a sigma chain needs at least one member")
        if self.sigmas[0].is_empty():
            raise ParameterError("sigma_1 must be nonempty")
        for outer, inner in zip(self.sigmas, self.sigmas[1:]):
            if not outer.contains_set(inner):
                raise ParameterError("sigma chain members must be nested")

    @classmethod
    def of(cls, sets: Sequence[IntervalSet]) -> "SigmaChain":
        return cls(tuple(sets))

    @classmethod
    def full_circle(cls, count: int = 1) -> "SigmaChain":
        """Constant multiplicity ``count``: every member is the circle."""
        return cls(tuple(IntervalSet.full() for _ in range(count)))

    @property
    def count(self) -> int:
        return len(self.sigmas)

    def positive_set(self) -> IntervalSet:
        """Where the multiplicity is at least one (this is sigma_1)."""
        return self.sigmas[0]

    def aligned(self, grid: GridSpec) -> bool:
        return all(s.aligned(grid) for s in self.sigmas)
