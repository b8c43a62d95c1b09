"""Ground types: prime fields, monomials, graded rings, polynomials, presentations.

Everything downstream (Groebner engine, resolutions, bounds) computes over the
plain polynomial ring.  Quotient structure is carried as data on the ring and
applied explicitly where it matters, so polynomial arithmetic never has to know
about it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, le, sub
from typing import Iterator, Mapping, Sequence

NEG_INF = float("-inf")

# Size of every process-wide cache.  One seed-0 pass of a perfbench workload
# misses none of them more than 244 times (the Hilbert numerators of
# `audit_sweep`; `quotient_audit` misses `ring_invariants` 195 times and
# `quotient_groebner` 158), so a pass never evicts an entry it reuses.
CACHE_SIZE = 1024

Mono = tuple[int, ...]


class AlgebraError(Exception):
    """Base class for every error raised by this library."""


class NonPrime(AlgebraError):
    pass


class RingMismatch(AlgebraError):
    pass


class NonHomogeneous(AlgebraError):
    pass


class EmptyColumn(AlgebraError):
    pass


class ZeroModule(AlgebraError):
    pass


class DegreeOverflow(AlgebraError):
    """A degree too large for the Groebner engine's packed terms
    (`groebner.MAX_DEGREE`)."""


class ParseError(AlgebraError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# Miller-Rabin to these prime bases decides every p below PRIME_LIMIT exactly
# (Sorenson-Webster, "Strong pseudoprimes to twelve prime bases", 2017)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; p >= PRIME_LIMIT is refused, not guessed."""
    if p >= PRIME_LIMIT:
        raise AlgebraError(f"characteristic {p} is too large: it must be below {PRIME_LIMIT}")
    if p < 2 or any(p % a == 0 for a in PRIME_BASES):
        return p in PRIME_BASES
    if p < 43 * 43:  # a composite below 43^2 has a prime factor up to 41
        return True
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    # p is a strong probable prime to base a: a^d = 1 or a^(d 2^r) = -1, r < s
    return all(
        pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s))
        for a in PRIME_BASES
    )


@dataclass(frozen=True)
class PrimeField:
    """The field with p elements, p prime.  Elements are ints in [0, p)."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise NonPrime(f"{self.p} is not prime")

    def normalize(self, c: int) -> int:
        return c % self.p

    def inv(self, c: int) -> int:
        c %= self.p
        if c == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(c, self.p - 2, self.p)


# -- linear algebra over F_p -------------------------------------------------


def dense_rank(vectors: list[list[int]], p: int) -> int:
    """Row-reduce over F_p; the vectors are consumed as rows."""
    rows = [list(v) for v in vectors if any(v)]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(c * inv) % p for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


# -- monomials ----------------------------------------------------------------
# A monomial is a bare exponent tuple; the ring supplies names and ordering.
# The kernels map C-level operators over the tuples: they run in the engine's
# innermost loops, where a generator expression costs a frame per call.


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(map(le, a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    # caller guarantees divisibility
    return tuple(map(sub, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def mono_deg(a: Mono) -> int:
    return sum(a)


def monomials_of_degree(nvars: int, deg: int) -> Iterator[Mono]:
    """All exponent tuples of total degree `deg`, in a fixed deterministic order."""
    if deg < 0:
        return
    for combo in itertools.combinations_with_replacement(range(nvars), deg):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        yield tuple(e)


def grevlex_key(m: Mono):
    # degree first, then reversed exponents negated: the usual grevlex trick
    return (sum(m), tuple(-e for e in reversed(m)))


def deglex_key(m: Mono):
    return (sum(m), m)


# "lex" is degree-lex: every supported order must refine total degree.
ORDER_KEYS = {"grevlex": grevlex_key, "lex": deglex_key}


@dataclass(frozen=True)
class GradedRing:
    """F_p[x_1..x_v] with a degree-refining monomial order, optionally modulo
    a homogeneous ideal given by `quotient_gens` (polynomials over the plain ring)."""

    field: PrimeField
    variables: tuple[str, ...]
    order: str = "grevlex"
    quotient_gens: tuple["Polynomial", ...] = ()

    def __post_init__(self) -> None:
        if not self.variables:
            raise AlgebraError("a graded ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise AlgebraError("duplicate variable names")
        if self.order not in ORDER_KEYS:
            raise AlgebraError(f"unsupported monomial order {self.order!r}")
        for q in self.quotient_gens:
            if q.ring != self.base:
                raise RingMismatch("quotient generators must live in the ambient ring")
            if q.is_zero():
                raise AlgebraError("zero quotient generator")
            if not q.is_homogeneous():
                raise NonHomogeneous("quotient generators must be homogeneous")
            if q.degree() == 0:
                raise AlgebraError("quotient generator of degree zero (unit ideal)")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def is_quotient(self) -> bool:
        return bool(self.quotient_gens)

    @property
    def base(self) -> "GradedRing":
        """The ambient polynomial ring (self when there is no quotient)."""
        if not self.quotient_gens:
            return self
        return GradedRing(self.field, self.variables, self.order)

    def key(self, m: Mono):
        return ORDER_KEYS[self.order](m)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "Polynomial":
        i = self.variables.index(name)
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): 1})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(v) for v in self.variables)


class Polynomial:
    """Sparse multivariate polynomial over a prime field.

    Immutable by convention: `terms` maps exponent tuples to coefficients in
    [1, p).  The ring is always a plain (non-quotient) ring.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: GradedRing, terms: Mapping[Mono, int]):
        p = ring.field.p
        clean: dict[Mono, int] = {}
        for m, c in terms.items():
            c %= p
            if c:
                clean[m] = c
        self.ring = ring
        self.terms = clean
        self._hash: int | None = None

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | float:
        if not self.terms:
            return NEG_INF
        return max(mono_deg(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    def lead_term(self) -> tuple[Mono, int]:
        """(monomial, coefficient) maximal in the ring's order."""
        m = max(self.terms, key=self.ring.key)
        return m, self.terms[m]

    # -- arithmetic -------------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatch("polynomials live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return Polynomial(self.ring, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(self.ring, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        out: dict[Mono, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise AlgebraError("negative polynomial power")
        result = self.ring.one()
        for _ in range(k):
            result = result * self
        return result

    # -- protocol ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, tuple(sorted(self.terms.items()))))
        return self._hash

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({render_poly(self)})"


def render_poly(p: Polynomial) -> str:
    """Canonical text form, parseable back by the module-file reader."""
    if p.is_zero():
        return "0"
    names = p.ring.variables
    parts = []
    for m in sorted(p.terms, key=p.ring.key, reverse=True):
        c = p.terms[m]
        factors = []
        if c != 1 or mono_deg(m) == 0:
            factors.append(str(c))
        for name, e in zip(names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


@dataclass(frozen=True)
class GradedPresentation:
    """M = coker(phi: F -> G) with G = (+) R(-a_i) and F = (+) R(-b_j).

    `matrix[i][j]` is the row-i, column-j entry of phi; column j is homogeneous
    of degree `column_degrees[j] - row_twists[i]` in each slot.  Entries are
    polynomials over the plain ring even when `ring` is a quotient.
    """

    ring: GradedRing
    row_twists: tuple[int, ...]
    matrix: tuple[tuple[Polynomial, ...], ...]
    column_degrees: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.row_twists)

    @property
    def m(self) -> int:
        return len(self.column_degrees)

    @property
    def is_zero_module(self) -> bool:
        return self.n == 0

    def column(self, j: int) -> tuple[Polynomial, ...]:
        return tuple(self.matrix[i][j] for i in range(self.n))


def validate_presentation(
    ring: GradedRing,
    row_twists: Sequence[int],
    matrix: Sequence[Sequence[Polynomial]],
    column_degrees: Sequence[int] | None = None,
) -> GradedPresentation:
    """Check gradedness and assemble a presentation.

    Column degrees are inferred from nonzero entries; a column of zeros is only
    legal when `column_degrees` pins its degree down externally.
    """
    n = len(row_twists)
    if n == 0:
        raise ZeroModule("a presentation needs at least one generator row")
    if len(matrix) != n:
        raise AlgebraError(f"expected {n} matrix rows, got {len(matrix)}")
    m = len(column_degrees) if column_degrees is not None else (len(matrix[0]) if matrix else 0)
    base = ring.base
    for i, row in enumerate(matrix):
        if len(row) != m:
            raise AlgebraError(f"row {i} has {len(row)} entries, expected {m}")
        for j, entry in enumerate(row):
            if not isinstance(entry, Polynomial) or entry.ring != base:
                raise RingMismatch(f"entry ({i},{j}) is not over the ambient ring")
            if not entry.is_homogeneous():
                raise NonHomogeneous(f"entry ({i},{j}) is not homogeneous")

    degrees = []
    for j in range(m):
        seen = {
            int(matrix[i][j].degree()) + row_twists[i]
            for i in range(n)
            if not matrix[i][j].is_zero()
        }
        if len(seen) > 1:
            raise NonHomogeneous(f"column {j} mixes degrees {sorted(seen)}")
        if not seen:
            if column_degrees is None:
                raise EmptyColumn(f"column {j} is zero; pass its degree explicitly")
            degrees.append(int(column_degrees[j]))
            continue
        (d,) = seen
        if column_degrees is not None and int(column_degrees[j]) != d:
            raise NonHomogeneous(
                f"column {j} has degree {d}, declared {column_degrees[j]}"
            )
        degrees.append(d)

    return GradedPresentation(
        ring=ring,
        row_twists=tuple(int(a) for a in row_twists),
        matrix=tuple(tuple(row) for row in matrix),
        column_degrees=tuple(degrees),
    )


def free_presentation(ring: GradedRing, twists: Sequence[int]) -> GradedPresentation:
    """The free module (+) R(-a_i), presented with no relations."""
    if not twists:
        raise ZeroModule("a presentation needs at least one generator row")
    return GradedPresentation(
        ring=ring,
        row_twists=tuple(int(a) for a in twists),
        matrix=tuple(() for _ in twists),
        column_degrees=(),
    )
