"""Two-sided complexes attached to a presentation matrix.

For M = coker(phi: F -> G) and a symmetric power index l, the complex places
Sym_{l-s}(G) (x) wedge^s(F) at homological position s on the left, and the dual
terms Sym_{s-l}(G)* (x) wedge^{n+s}(F), shifted by sigma, at position s+1 on
the right.  Only the twist lists matter for the regularity bound, so this
module is twist arithmetic alone: no differential is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .core import AlgebraError


@dataclass
class ComplexTerm:
    position: int
    label: str  # "sym-wedge" for the left side, "dual-sym-wedge" for the right
    twists: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.twists)

    @property
    def max_twist(self) -> int:
        return max(self.twists)


def complex_terms(
    row_twists, column_degrees, l: int, sigma: int | None = None
) -> list[ComplexTerm]:
    """Twist lists of every term, positions ascending.  `sigma` defaults to the
    sum of the row twists, the shift that makes the small differentials
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

    terms = []
    for s in range(0, min(l, m) + 1):
        twists = tuple(
            sorted(
                sum(a[i] for i in alpha) + sum(b[j] for j in t)
                for alpha in combinations_with_replacement(range(n), l - s)
                for t in combinations(range(m), s)
            )
        )
        terms.append(ComplexTerm(position=s, label="sym-wedge", twists=twists))
    for s in range(l, m - n + 1):
        twists = tuple(
            sorted(
                sum(b[j] for j in t) - sum(a[i] for i in alpha) - sigma
                for alpha in combinations_with_replacement(range(n), s - l)
                for t in combinations(range(m), n + s)
            )
        )
        terms.append(
            ComplexTerm(position=s + 1, label="dual-sym-wedge", twists=twists)
        )
    return terms


def complex_regularity_bound(
    terms: list[ComplexTerm], reg_r: int, dim_r: int
) -> int:
    """max over positions up to dim R of (reg R + largest twist) - position."""
    eligible = [t for t in terms if t.position <= dim_r]
    if not eligible:
        raise AlgebraError("no complex terms within the dimension window")
    return max(reg_r + t.max_twist - t.position for t in eligible)
