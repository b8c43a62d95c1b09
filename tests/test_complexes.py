import math
from itertools import combinations, combinations_with_replacement

import pytest

from cmreg.core import AlgebraError, GradedRing, PrimeField, validate_presentation
from cmreg.complexes import complex_regularity_bound, complex_terms
from cmreg.invariants import regularity
from cmreg.modops import minor_function, sym_power
from helpers import compose

F = PrimeField(101)
R2 = GradedRing(F, ("x", "y"))
R3 = GradedRing(F, ("x", "y", "z"))
u, v = R2.gens()
x, y, z = R3.gens()


# -- oracle: the explicit matrices for l = 0, 1 ---------------------------------


def _dual_basis(n, m, l, s):
    return [
        (alpha, t)
        for alpha in combinations_with_replacement(range(n), s - l)
        for t in combinations(range(m), n + s)
    ]


def explicit_differentials(pres, l):
    """The full complex with matrices, for l = 0 or 1 (sigma = sum of twists):
    (terms, differentials), differentials[k] mapping position k+1 to position
    k, entries over the ambient ring.  The maps are maximal minors, their
    contractions, and phi itself, so composing them checks that the twist
    lists `complex_terms` reports belong to a complex."""
    ring = pres.ring.base
    n, m = pres.n, pres.m
    a, b = pres.row_twists, pres.column_degrees
    terms = complex_terms(a, b, l, sum(a))
    minor = minor_function(pres.matrix, ring)
    all_rows = tuple(range(n))
    zero = ring.zero()

    matrices = []

    if l == 1:
        # position 1 -> 0 is phi itself
        matrices.append(pres.matrix)

    if m >= n + l:
        # epsilon: first dual term -> last sym-wedge term, via maximal minors
        source = _dual_basis(n, m, l, l)
        if l == 0:
            rows = [[minor(all_rows, t) for (_, t) in source]]
        else:
            rows = [[zero] * len(source) for _ in range(m)]
            for col, (_, t) in enumerate(source):
                for pos, j in enumerate(t):
                    sub = t[:pos] + t[pos + 1 :]
                    val = minor(all_rows, sub)
                    rows[j][col] = val if pos % 2 == 0 else -val
        matrices.append(tuple(tuple(r) for r in rows))

    for s in range(l + 1, m - n + 1):
        source = _dual_basis(n, m, l, s)
        target = _dual_basis(n, m, l, s - 1)
        where = {bt: k for k, bt in enumerate(target)}
        rows = [[zero] * len(source) for _ in target]
        for col, (alpha, t) in enumerate(source):
            for i in set(alpha):
                alpha_less = list(alpha)
                alpha_less.remove(i)
                alpha_less = tuple(alpha_less)
                for pos, j in enumerate(t):
                    entry = pres.matrix[i][j]
                    if entry.is_zero():
                        continue
                    r = where[(alpha_less, t[:pos] + t[pos + 1 :])]
                    rows[r][col] = rows[r][col] + (
                        entry if pos % 2 == 0 else -entry
                    )
        matrices.append(tuple(tuple(r) for r in rows))

    return terms, matrices


def test_term_counts_match_binomials():
    for n, m, l in [(1, 2, 0), (2, 3, 1), (2, 4, 2), (3, 5, 1), (1, 6, 4)]:
        a = tuple(range(n))
        b = tuple(range(1, m + 1))
        by_pos = {t.position: t for t in complex_terms(a, b, l)}
        for s in range(0, min(l, m) + 1):
            expect = math.comb(n + l - s - 1, l - s) * math.comb(m, s)
            assert by_pos[s].rank == expect
        for s in range(l, m - n + 1):
            expect = math.comb(n + s - l - 1, s - l) * math.comb(m, n + s)
            assert by_pos[s + 1].rank == expect


def test_maximal_minor_complex_twists():
    # one generator, two quadric columns: 0 -> R(-4) -> R(-2)^2 -> R
    terms = complex_terms((0,), (2, 2), 0)
    assert [(t.position, t.twists) for t in terms] == [
        (0, (0,)),
        (1, (2, 2)),
        (2, (4,)),
    ]
    assert complex_regularity_bound(terms, 0, 2) == 2


def test_two_generator_complex_twists():
    terms = complex_terms((0, 0), (1, 1, 1), 1)
    assert [(t.position, t.max_twist) for t in terms] == [(0, 0), (1, 1), (2, 3)]
    assert complex_regularity_bound(terms, 0, 2) == 1


def test_sigma_shifts_dual_terms_only():
    plain = complex_terms((0,), (2, 2), 0, sigma=0)
    moved = complex_terms((0,), (2, 2), 0, sigma=3)
    assert moved[0].twists == plain[0].twists
    assert moved[1].twists == tuple(t - 3 for t in plain[1].twists)
    assert moved[2].twists == tuple(t - 3 for t in plain[2].twists)


def test_bound_needs_a_position_in_range():
    terms = complex_terms((0,), (2, 2), 0)
    with pytest.raises(AlgebraError):
        complex_regularity_bound(terms, 0, -1)


def test_explicit_one_generator_is_koszul_shaped():
    pres = validate_presentation(R2, (0,), [[u * u, v * v]])
    terms, mats = explicit_differentials(pres, 0)
    assert len(mats) == 2
    assert mats[0] == ((u * u, v * v),)
    col = [mats[1][i][0] for i in range(2)]
    assert col == [-(v * v), u * u]
    assert all(r == [R2.zero()] for r in compose(mats[0], mats[1], R2))


def test_explicit_two_generators_composes_to_zero():
    pres = validate_presentation(R3, (0, 0), [[x, y, z], [y, z, x]])
    for l in (0, 1):
        terms, mats = explicit_differentials(pres, l)
        assert len(mats) == len(terms) - 1
        for k in range(len(mats)):
            assert len(mats[k]) == terms[k].rank
            assert len(mats[k][0]) == terms[k + 1].rank
        for k in range(len(mats) - 1):
            prod = compose(mats[k], mats[k + 1], R3)
            assert all(e.is_zero() for row in prod for e in row)
        for mat in mats:
            assert all(e.is_homogeneous() for row in mat for e in row)


def test_symmetric_power_regularity_within_bound():
    pres = validate_presentation(R2, (0,), [[u * u, u * v]])
    for l in (1, 2):
        terms = complex_terms(pres.row_twists, pres.column_degrees, l)
        bound = complex_regularity_bound(terms, 0, R2.nvars)
        assert regularity(sym_power(pres, l)) <= bound
        assert bound == 2
