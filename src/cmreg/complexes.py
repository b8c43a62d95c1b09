"""Two-sided complexes attached to a presentation matrix.

For M = coker(phi: F -> G) and a symmetric power index l, the complex places
Sym_{l-s}(G) (x) wedge^s(F) at homological position s on the left, and the dual
terms Sym_{s-l}(G)* (x) wedge^{n+s}(F), shifted by sigma, at position s+1 on
the right.  Only the twists matter for the regularity bound, so this module
is twist arithmetic alone: no differential is ever built.  A term's rank and
largest twist are closed forms (`ComplexTerm.rank`, `ComplexTerm.max_twist`),
so the bound lists no twist: all positions together have about 2^m of them
for m relations.  A term lists its twists only when asked, as `cmreg complex`
does, and refuses past `MAX_LISTED_RANK`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import comb

from .core import AlgebraError

# the most twists one term lists
MAX_LISTED_RANK = 100_000


@dataclass
class ComplexTerm:
    """One term: its twists are every sum of k of `row_part` (with
    repetition) and w distinct entries of `column_part`, plus `shift`.  On the
    left the row part is the row twists a and the shift 0; on the right it is
    -a and the shift -sigma."""

    position: int
    label: str  # "sym-wedge" for the left side, "dual-sym-wedge" for the right
    row_part: tuple[int, ...]
    k: int
    column_part: tuple[int, ...]
    w: int
    shift: int

    @property
    def rank(self) -> int:
        n, m = len(self.row_part), len(self.column_part)
        return comb(n + self.k - 1, self.k) * comb(m, self.w)

    @property
    def max_twist(self) -> int:
        top = sorted(self.column_part, reverse=True)[: self.w]
        return self.k * max(self.row_part) + sum(top) + self.shift

    @cached_property
    def twists(self) -> tuple[int, ...]:
        """Every twist, ascending; refused past `MAX_LISTED_RANK`."""
        if self.rank > MAX_LISTED_RANK:
            raise AlgebraError(
                f"complex position {self.position} has rank {self.rank:,}, "
                f"past the {MAX_LISTED_RANK:,} twists a term lists"
            )
        return tuple(
            sorted(
                sum(alpha) + sum(t) + self.shift
                for alpha in combinations_with_replacement(self.row_part, self.k)
                for t in combinations(self.column_part, self.w)
            )
        )


def complex_terms(
    row_twists, column_degrees, l: int, sigma: int | None = None
) -> list[ComplexTerm]:
    """Every term, positions ascending.  `sigma` defaults to the sum of the
    row twists, the shift that makes the small differentials
    degree-preserving."""
    if l < 0:
        raise AlgebraError("negative symmetric power")
    a = tuple(row_twists)
    b = tuple(column_degrees)
    n, m = len(a), len(b)
    if n == 0:
        raise AlgebraError("zero module has no complex")
    if sigma is None:
        sigma = sum(a)
    left = [ComplexTerm(s, "sym-wedge", a, l - s, b, s, 0) for s in range(min(l, m) + 1)]
    dual = tuple(-t for t in a)
    right = [
        ComplexTerm(s + 1, "dual-sym-wedge", dual, s - l, b, n + s, -sigma)
        for s in range(l, m - n + 1)
    ]
    return left + right


def complex_regularity_bound(
    terms: list[ComplexTerm], reg_r: int, dim_r: int
) -> int:
    """max over positions up to dim R of (reg R + largest twist) - position."""
    eligible = [t for t in terms if t.position <= dim_r]
    if not eligible:
        raise AlgebraError("no complex terms within the dimension window")
    return max(reg_r + t.max_twist - t.position for t in eligible)
