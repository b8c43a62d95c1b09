from itertools import combinations
from math import comb
from operator import le
import random
from unittest import mock

from hypothesis import given, settings, strategies as st
import pytest

from cmreg.core import (
    AlgebraError,
    GradedRing,
    NEG_INF,
    Polynomial,
    PrimeField,
    ZeroModule,
    dense_rank,
    free_presentation,
    monomials_of_degree,
    validate_presentation,
)
from cmreg import groebner, invariants
from cmreg.groebner import (
    FreeResolution,
    elements_to_matrix,
    elt_degree,
    presentation_elements,
    schreyer_resolution,
)
from cmreg.invariants import (
    betti_from_resolution,
    betti_numbers,
    betti_of_resolution,
    cancel_units,
    hilbert_data,
    hilbert_from_numerator,
    hilbert_numerator,
    minimal_relation_degrees,
    minimalize_resolution,
    module_invariants,
    numerator_from_resolution,
    numerator_of_cokernel,
    numerator_of_gb,
    regularity,
    regularity_from_betti,
    ring_invariants,
    tp_add,
    tp_divide_one_minus_t,
    tp_sub,
)
from cmreg.modops import (
    degree_basis,
    fitting_ideal_0,
    hilbert_value_dense,
    minimal_presentation,
    span_vectors,
    sym_power,
    torsion_hilbert,
)
from cmreg.verify import (
    FITT_TARGET_ROW_LIMIT,
    SYM_TARGET_GEN_LIMIT,
    random_complete_intersection,
    random_module,
    random_polynomial,
)
from helpers import compose, cyclic, reduced_basis

F = PrimeField(101)
R2 = GradedRing(F, ("x", "y"))
R3 = GradedRing(F, ("x", "y", "z"))
u, v = R2.gens()
x, y, z = R3.gens()


def random_homogeneous(rng, ring, deg):
    monos = monomials_of_degree(ring.nvars, deg)
    terms = {m: rng.randrange(ring.field.p) for m in monos}
    return Polynomial(ring, terms)


def test_square_of_max_ideal_betti():
    pres = cyclic(R2, [u * u, u * v, v * v])
    assert betti_numbers(pres) == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert regularity(pres) == 1


def test_koszul_complex_betti():
    pres = cyclic(R3, [x, y, z])
    assert betti_numbers(pres) == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}
    assert regularity(pres) == 0


def test_hypersurface_regularity_is_degree_minus_one():
    for f, d in [(u * u * u, 3), (x * x * y + y * y * z, 3), (u * v, 2)]:
        pres = cyclic(f.ring, [f])
        assert regularity(pres) == d - 1


def test_hilbert_numerator_two_paths_agree():
    examples = [
        cyclic(R2, [u * u, u * v, v * v]),
        cyclic(R3, [x * y, z * z * z]),
        validate_presentation(
            R3,
            (0, 1),
            [[x * x, x * y * z, y * y * y], [z, y * y, x * x]],
        ),
    ]
    for pres in examples:
        res = minimalize_resolution(schreyer_resolution(pres))
        assert hilbert_numerator(pres) == numerator_from_resolution(res)


def test_hilbert_numerator_against_a_position_over_term_run():
    # every reader takes M's numerator from the degree-first basis; a second
    # Buchberger run under position over term in the ring's own order (any
    # order's lead terms give the series) and the resolution's alternating
    # twist sum check it on criterion 1's box, the quotient box and the
    # sections box
    from test_modops import _criterion_4_modules

    modules = [_acceptance_box_module(trial) for trial in range(200)]
    modules += [_module_over_complete_intersection(trial) for trial in range(200)]
    modules += _criterion_4_modules()
    checked = 0
    for pres in modules:
        if pres.is_zero_module:
            continue
        base = pres.ring.base
        pot = reduced_basis(presentation_elements(pres), base, pres.row_twists)
        num = numerator_of_gb(pot)
        assert hilbert_numerator(pres) == num
        assert numerator_from_resolution(schreyer_resolution(pres)) == num
        checked += 1
    assert checked >= 400


def test_numerator_split_matches_dense_hilbert_values():
    # N(L) = N(L + x^k) + t^k N(L : x^k) on seeded monomial ideals: the
    # numerator determines dim (S/L)_d, checked by dense ranks up to its degree
    rng = random.Random(1997)
    for _ in range(60):
        ring = [R2, R3][rng.randint(0, 1)]
        nv = ring.nvars
        monos = {tuple(rng.randint(0, 4) for _ in range(nv)) for _ in range(rng.randint(1, 4))}
        monos = [m for m in monos if any(m)] or [(1,) * nv]
        num = dict(invariants._numerator_of_lead_terms(invariants._minimalize_monos(monos)))
        elements = [{(0, m): 1} for m in monos]
        for d in range(max(num) + 1):
            want = sum(c * comb(d - e + nv - 1, nv - 1) for e, c in num.items() if e <= d)
            assert want == hilbert_value_dense(ring, (0,), elements, d)


@st.composite
def minimal_monomial_ideals(draw):
    """Minimal generators of a nonzero proper monomial ideal in 1-5
    variables: up to 8 generators, exponents up to 5."""
    nv = draw(st.integers(1, 5))
    mono = st.tuples(*[st.integers(0, 5)] * nv).filter(any)
    return invariants._minimalize_monos(draw(st.lists(mono, min_size=1, max_size=8)))


@settings(deadline=None)
@given(minimal_monomial_ideals())
def test_numerator_counts_standard_monomials(monos):
    # the split's numerator gives dim (S/L)_d, counted monomial by monomial;
    # every ideal the split recurses on, L + x^k unminimalized among them, is
    # given by its minimal generators
    nv = len(next(iter(monos)))
    split = invariants._numerator_of_lead_terms
    calls = []

    def recorded(ideal):
        calls.append(ideal)
        return split(ideal)

    with mock.patch.object(invariants, "_numerator_of_lead_terms", recorded):
        num = dict(split.__wrapped__(monos))
    assert all(ideal == invariants._minimalize_monos(ideal) for ideal in calls)
    for d in range(max(num) + 2):
        want = sum(c * comb(d - e + nv - 1, nv - 1) for e, c in num.items() if e <= d)
        standard = monomials_of_degree(nv, d)
        assert want == sum(not any(all(map(le, g, m)) for g in monos) for m in standard)


def test_high_exponent_lead_terms_need_no_deep_recursion():
    # S/(x^990 y, y^2): the numerator splits on x^990 at once, not one x at a time
    pres = cyclic(R2, [u**990 * v, v * v])
    assert hilbert_numerator(pres) == {0: 1, 2: -1, 991: -1, 992: 1}
    assert regularity(pres) == 990 == regularity_from_betti(betti_numbers(pres))


def test_hilbert_data_finite_length():
    hd = hilbert_data(cyclic(R2, [u * u, u * v, v * v]))
    assert hd.numerator == {0: 1, 2: -3, 3: 2}
    assert hd.dimension == 0
    assert hd.codimension == 2
    assert hd.length == 3
    assert hd.multiplicity == 3


def test_hilbert_data_dimension_one():
    hd = hilbert_data(cyclic(R2, [u * u, u * v]))
    assert (hd.dimension, hd.codimension, hd.multiplicity) == (1, 1, 1)
    assert hd.length is None


def test_divide_one_minus_t_requires_root():
    with pytest.raises(AlgebraError):
        tp_divide_one_minus_t({0: 1, 1: 1})
    assert tp_divide_one_minus_t({0: 1, 2: -1}) == {0: 1, 1: 1}


def test_hilbert_from_numerator_rejects_a_negative_finite_series():
    # 2 - 3t + t^2 = (1-t)(2-t): length 1, but the series 2 - t is no module's
    with pytest.raises(AlgebraError):
        hilbert_from_numerator({0: 2, 1: -3, 2: 1}, 1)
    # with a second variable it is the h-polynomial of a module of dimension 1
    assert hilbert_from_numerator({0: 2, 1: -3, 2: 1}, 2).q_polynomial == {0: 2, 1: -1}


def test_zero_module_paths():
    one = R2.one()
    pres = validate_presentation(R2, (0,), [[one]])
    res = minimalize_resolution(schreyer_resolution(pres))
    assert betti_from_resolution(res) == {}
    with pytest.raises(ZeroModule):
        regularity(pres)
    hd = hilbert_from_numerator(numerator_from_resolution(res), 2)
    assert hd.dimension == NEG_INF and hd.length == 0
    with pytest.raises(ZeroModule):
        module_invariants(pres)


def _ideal_gen_degrees(ring):
    """Degrees of minimal generators of J, sorted: the minimal relation
    degrees of S/J presented over S by J's generators."""
    ideal = validate_presentation(ring.base, (0,), [ring.quotient_gens])
    return sorted(d for d, b in minimal_relation_degrees(ideal).items() for _ in range(b))


def test_ring_invariants_polynomial_ring():
    assert ring_invariants(R3) == (3, 1, 0, True)
    assert _ideal_gen_degrees(R3) == []  # S's Betti table has no row 1


def test_ring_invariants_hypersurface():
    R = GradedRing(F, ("x", "y"), quotient_gens=(u * v,))
    assert ring_invariants(R) == (1, 2, 1, True)
    assert _ideal_gen_degrees(R) == [2]


def test_ring_invariants_non_cm():
    R = GradedRing(F, ("x", "y"), quotient_gens=(u * u, u * v))
    # depth 0 < dim 1
    assert ring_invariants(R) == (1, 1, 1, False)
    assert _ideal_gen_degrees(R) == [2, 2]


def test_columns_over_quotient_ring():
    R = GradedRing(F, ("x", "y"), quotient_gens=(u * u,))
    xb, yb = u, v  # entries stay in the ambient ring
    pres = validate_presentation(R, (0,), [[xb * yb]])
    cols = presentation_elements(pres)
    assert not pres.ring.base.is_quotient
    assert cols == [{(0, (2, 0)): 1}, {(0, (1, 1)): 1}]  # x^2 * e_0, then phi
    assert [elt_degree(c, pres.row_twists) for c in cols] == [2, 2]
    # the same module over S: reg computed from the columns over S
    flat = validate_presentation(R2, (0,), elements_to_matrix(cols, 1, R2))
    assert regularity(pres) == regularity(flat)


def test_module_invariants_bundle():
    mi = module_invariants(cyclic(R2, [u * u, u * v, v * v]))
    assert mi.regularity == 1
    assert mi.hilbert.length == 3
    assert mi.is_cm  # dim 0 = depth 0
    assert mi.resolution.length == 2


def test_b1_degrees_plain_ring():
    assert minimal_relation_degrees(cyclic(R2, [u * u, u * v])) == {2: 2}
    free = free_presentation(R2, (0, 1))
    assert minimal_relation_degrees(free) == {}
    assert betti_numbers(free) == {(0, 0): 1, (0, 1): 1}


def test_b1_degrees_quotient_ring():
    R = GradedRing(F, ("x", "y"), quotient_gens=(u * u,))
    pres = validate_presentation(R, (0,), [[u * v]])
    # over R only the relation x*y survives; the x^2 column is part of J
    assert minimal_relation_degrees(pres) == {2: 1}


def test_b1_degrees_free_over_quotient():
    R = GradedRing(F, ("x", "y"), quotient_gens=(u * u,))
    pres = free_presentation(R, (0,))
    assert minimal_relation_degrees(pres) == {}


def test_betti_invariant_under_permutation():
    rows = [[x * x, x * y * z, y * y * y], [z, y * y, x * x]]
    pres = validate_presentation(R3, (0, 1), rows)
    table = betti_numbers(pres)
    # swap the generators and shuffle the relations
    swapped = validate_presentation(
        R3, (1, 0), [[rows[1][j] for j in (2, 0, 1)], [rows[0][j] for j in (2, 0, 1)]]
    )
    assert betti_numbers(swapped) == table


def test_betti_invariant_under_prime_swap():
    table = {}
    for p in (101, 32003):
        Rp = GradedRing(PrimeField(p), ("x", "y", "z"))
        a, b, c = Rp.gens()
        pres = validate_presentation(
            Rp, (0, 1), [[a * a, a * b * c, b * b * b], [c, b * b, a * a]]
        )
        table[p] = betti_numbers(pres)
    assert table[101] == table[32003]


def test_minimal_resolution_length_within_variable_count():
    rng = random.Random(7)
    for _ in range(4):
        cols = []
        for _ in range(3):
            cols.append(random_homogeneous(rng, R3, rng.choice([1, 2])))
        pres = cyclic(R3, [f for f in cols if not f.is_zero()] or [x])
        res = minimalize_resolution(schreyer_resolution(pres))
        assert res.length <= R3.nvars
        # complex property survives minimalization
        for k in range(len(res.differentials) - 1):
            prod = compose(res.differentials[k], res.differentials[k + 1], R3)
            assert all(e.is_zero() for row in prod for e in row)


def test_cancel_units_takes_the_smallest_column_first():
    # degrees play no part, so an ungraded matrix pins the order: the units at
    # (1, 0) and (0, 1) tie, and the column-first scan cancels (1, 0)
    one = R2.one()
    matrix, rows, cols = cancel_units(R2, [[u, 2 * one], [one, 2 * one]])
    assert matrix == [[99 * u + 2 * one]]
    assert (rows, cols) == ([0], [1])


def test_cancel_units_reduces_modulo_the_quotient_ideal():
    R = GradedRing(F, ("x", "y"), quotient_gens=(u * u,))
    one, zero = R2.one(), R2.zero()
    matrix, rows, cols = cancel_units(R, [[one, u], [u, zero]])
    # the update 0 - x * x is x^2 = 0 in R
    assert matrix == [[zero]]
    assert (rows, cols) == ([1], [1])
    slim = minimal_presentation(validate_presentation(R, (0, -1), [[one, u], [u, zero]]))
    assert slim.row_twists == (-1,) and slim.m == 0 and not slim.is_zero_module


def test_unit_quotient_generator_rejected():
    with pytest.raises(AlgebraError):
        GradedRing(F, ("x", "y"), quotient_gens=(R2.constant(5),))


@pytest.mark.parametrize(
    "cached",
    [
        invariants._numerator_of_lead_terms,
        invariants.ring_invariants,
        groebner.quotient_groebner,
    ],
    ids=lambda fn: fn.__name__,
)
def test_process_wide_caches_are_bounded(cached):
    maxsize = cached.cache_info().maxsize
    assert maxsize is not None and maxsize >= 256


# -- Betti tables from non-minimal resolutions ----------------------------------------


def _acceptance_box_module(trial):
    # the draw of criterion 1 in the acceptance suite
    shape = random.Random(9001 + trial)
    return random_module(
        31337 + trial,
        p_vars=shape.randint(1, 3),
        n=shape.randint(1, 3),
        m=shape.randint(1, 5),
        max_a=2,
        max_b=4,
        density=0.4 + 0.6 * shape.random(),
    )


def _module_over_complete_intersection(trial):
    """A random module over R = S/J, J a certified complete intersection."""
    shape = random.Random(7001 + trial)
    nvars = shape.randint(1, 3)
    ci, _ = random_complete_intersection(
        424242 + trial, p_vars=nvars, max_codim=nvars, max_degree=3
    )
    pres = random_module(
        555555 + trial,
        p_vars=nvars,
        n=shape.randint(1, 2),
        m=shape.randint(1, 4),
        density=0.4 + 0.6 * shape.random(),
    )
    base = pres.ring
    ring = GradedRing(base.field, base.variables, base.order, ci.matrix[0])
    return minimal_presentation(
        validate_presentation(
            ring, pres.row_twists, [list(r) for r in pres.matrix], pres.column_degrees
        )
    )


def _oracle_modules():
    for trial in range(40):
        pres = _acceptance_box_module(trial)
        yield pres
        yield sym_power(pres, 2)
    for trial in range(40):
        pres = _module_over_complete_intersection(trial)
        if not pres.is_zero_module:
            yield pres


def _random_coordinate_change(rng, ring):
    """Images of the variables under a random invertible linear substitution."""
    p, nv = ring.field.p, ring.nvars
    while True:
        rows = [[rng.randrange(p) for _ in range(nv)] for _ in range(nv)]
        if dense_rank(rows, p) == nv:
            break
    gens = ring.gens()
    return [sum((c * g for c, g in zip(row, gens)), ring.zero()) for row in rows]


def _substituted(f, images):
    """f(images[0], ..., images[v-1]), by Polynomial arithmetic."""
    out = f.ring.zero()
    for m, c in f.terms.items():
        term = f.ring.constant(c)
        for image, e in zip(images, m):
            term = term * image**e
        out = out + term
    return out


def test_invariants_survive_a_coordinate_change():
    # a linear change of coordinates is a graded automorphism of S: reg, the
    # Betti table and the Hilbert data stay, while every lead term moves.
    # Over R = S/J it moves J's generators and a form l as well, so R's
    # invariants and the torsion (0 :_M l) stay too
    rng = random.Random(424)
    moved = 0
    for trial in range(200):
        pres = _acceptance_box_module(trial)
        images = _random_coordinate_change(rng, pres.ring)
        matrix = [[_substituted(f, images) for f in row] for row in pres.matrix]
        changed = validate_presentation(pres.ring, pres.row_twists, matrix, pres.column_degrees)
        found = []
        for module in (pres, changed):
            with groebner.memo_scope():
                found.append((regularity(module), betti_numbers(module), hilbert_data(module)))
        assert found[0] == found[1], trial
        moved += changed.matrix != pres.matrix
    assert moved >= 190
    rng, forms = random.Random(4240), random.Random(4241)
    several = moved = 0
    for trial in range(100):
        pres = _module_over_complete_intersection(trial)
        if pres.is_zero_module:
            continue
        ring = pres.ring
        images = _random_coordinate_change(rng, ring.base)
        quotient = tuple(_substituted(q, images) for q in ring.quotient_gens)
        moved_ring = GradedRing(ring.field, ring.variables, ring.order, quotient)
        matrix = [[_substituted(f, images) for f in row] for row in pres.matrix]
        changed = validate_presentation(moved_ring, pres.row_twists, matrix, pres.column_degrees)
        l = random_polynomial(forms, ring.base, 1)
        found = []
        for module, form in ((pres, l), (changed, _substituted(l, images))):
            with groebner.memo_scope():
                found.append((
                    regularity(module), betti_numbers(module), hilbert_data(module),
                    ring_invariants(module.ring), torsion_hilbert(module, form),
                ))
        assert found[0] == found[1], trial
        several += ring.nvars > 1
        moved += ring.nvars > 1 and quotient != ring.quotient_gens
    # in one variable the change only scales; in more it moves every J
    assert moved == several >= 60


def _direct_sum(m, n):
    """M (+) N over their common ring, presented block-diagonally."""
    zero = m.ring.base.zero()
    rows = [[*row, *[zero] * n.m] for row in m.matrix]
    rows += [[*[zero] * m.m, *row] for row in n.matrix]
    return validate_presentation(
        m.ring, m.row_twists + n.row_twists, rows, m.column_degrees + n.column_degrees
    )


def test_invariants_add_over_a_direct_sum():
    # reg(M (+) N) = max(reg M, reg N), and the Betti tables and the Hilbert
    # numerators add; M and N are box modules over one ring, each module
    # computed in its own scope
    box = [_acceptance_box_module(trial) for trial in range(200)]
    by_ring = {}
    for pres in box:
        by_ring.setdefault(pres.ring, []).append(pres)
    rng = random.Random(6006)
    differ = 0
    for _ in range(60):
        m, n = rng.sample(by_ring[rng.choice(box).ring], 2)
        found = []
        for module in (m, n, _direct_sum(m, n)):
            with groebner.memo_scope():
                found.append((regularity(module), betti_numbers(module), hilbert_numerator(module)))
        (reg_m, betti_m, num_m), (reg_n, betti_n, num_n), (reg_s, betti_s, num_s) = found
        assert reg_s == max(reg_m, reg_n)
        assert betti_s == {k: betti_m.get(k, 0) + betti_n.get(k, 0) for k in betti_m | betti_n}
        assert num_s == tp_add(num_m, num_n)
        differ += reg_m != reg_n
    assert differ >= 40, differ  # the max is not read off equal values


def test_betti_table_matches_minimal_resolution():
    # the alternating Betti sum cannot see a wrong block rank (it cancels between
    # neighbouring homological degrees), so compare the tables themselves
    checked = quotient = 0
    for pres in _oracle_modules():
        res = minimalize_resolution(schreyer_resolution(pres))
        table = betti_from_resolution(res)
        assert betti_numbers(pres) == table
        mi = module_invariants(pres)
        assert mi.betti == table
        assert mi.is_cm == (res.length == mi.hilbert.codimension)
        checked += 1
        quotient += pres.ring.is_quotient
    assert checked > 100 and quotient > 20


def _hand_built_s_presentation(pres):
    """(phi | q*e_i) over S, written out entry by entry."""
    base = pres.ring.base
    matrix = [list(row) for row in pres.matrix]
    degrees = list(pres.column_degrees)
    for i in range(pres.n):
        for q in pres.ring.quotient_gens:
            for r in range(pres.n):
                matrix[r].append(q if r == i else base.zero())
            degrees.append(int(q.degree()) + pres.row_twists[i])
    return validate_presentation(base, pres.row_twists, matrix, degrees)


def test_resolutions_over_quotient_ring_match_the_s_presentation():
    checked = 0
    for pres in _oracle_modules():
        if not pres.ring.is_quotient:
            continue
        flat = _hand_built_s_presentation(pres)
        assert not flat.ring.is_quotient
        res, flat_res = schreyer_resolution(pres), schreyer_resolution(flat)
        assert res == flat_res
        assert minimalize_resolution(res) == minimalize_resolution(flat_res)
        assert betti_numbers(pres) == betti_numbers(flat)
        checked += 1
    assert checked > 20


def b1_degrees(mi):
    """Oracle for `minimal_relation_degrees`: degrees (with multiplicity) of
    minimal first syzygies of `mi.presentation` over its ring, read off
    `mi.betti` over S; over S/J counted by the graded Nakayama quotient
    (im phi + JG) / (m*(im phi) + JG), a polynomial series: the numerator of
    G / (m*(im phi) + JG) minus M's own, `mi.hilbert`'s."""
    pres = mi.presentation
    if not pres.ring.is_quotient:
        return {j: b for (i, j), b in mi.betti.items() if i == 1}
    base = pres.ring.base
    cols = presentation_elements(pres)
    jg, phi = cols[: len(cols) - pres.m], cols[len(cols) - pres.m :]
    m_phi = [
        {(c, tuple(e + (k == t) for k, e in enumerate(m))): val for (c, m), val in col.items()}
        for col in phi
        if col
        for t in range(base.nvars)
    ]
    big = numerator_of_cokernel(base, pres.row_twists, m_phi + jg)
    hd = hilbert_from_numerator(tp_sub(big, mi.hilbert.numerator), base.nvars)
    assert hd.length is not None, "minimal syzygies of infinite length"
    return hd.q_polynomial


def test_flags_give_minimal_relation_degrees_on_both_boxes():
    # the columns of phi that the degree-first run leaves unflagged: over S
    # the Betti table's b_{1,*} on criterion 1's box, over S/J the oracle's
    # Nakayama count on the quotient box; J's unflagged generators are row 1
    # of the Betti table of S/J
    for trial in range(200):
        pres = _acceptance_box_module(trial)
        with groebner.memo_scope():
            table = betti_numbers(pres)
            assert minimal_relation_degrees(pres) == {j: b for (i, j), b in table.items() if i == 1}
    for trial in range(200):
        pres = _module_over_complete_intersection(trial)
        table = betti_numbers(free_presentation(pres.ring, (0,)))
        row_1 = sorted(j for (i, j), b in table.items() if i == 1 for _ in range(b))
        assert _ideal_gen_degrees(pres.ring) == row_1
        with groebner.memo_scope():
            assert minimal_relation_degrees(pres) == b1_degrees(module_invariants(pres))


def test_an_input_redundant_through_a_pair_of_its_own_degree_is_flagged():
    # z*(xy - z^2) - y*(xz) = -z^3: the input z^3 lies in the span of the
    # first two only through their degree-3 S-pair, so it is flagged only
    # when it waits behind that pair; the twist of a memoised run keeps it
    pres = cyclic(R3, [x * y - z * z, x * z, z**3])
    cols = presentation_elements(pres)
    with groebner.memo_scope():
        gb, shifted = groebner.groebner(cols, R3, (0,)), groebner.groebner(cols, R3, (3,))
    assert shifted.basis is gb.basis and shifted.row_twists == (3,)
    assert gb.redundant == shifted.redundant == {2}
    assert minimal_relation_degrees(pres) == {2: 2}
    # a zero column is flagged too: it is no relation
    padded = validate_presentation(R3, (0,), [[*pres.matrix[0], R3.zero()]], (2, 2, 3, 4))
    assert minimal_relation_degrees(padded) == {2: 2}
    assert {j: b for (i, j), b in betti_numbers(pres).items() if i == 1} == {2: 2}


def _dense_b1(pres):
    """b_{1,d} = rank(phi + JG)_d - rank(m*phi + JG)_d, by dense ranks: the
    minimal relations of a minimal presentation over its own ring."""
    base, a = pres.ring.base, pres.row_twists
    p = base.field.p
    cols = presentation_elements(pres)
    jg, phi = cols[: len(cols) - pres.m], cols[len(cols) - pres.m :]
    m_phi = [
        {(c, tuple(e + (k == t) for k, e in enumerate(m))): val for (c, m), val in col.items()}
        for col in phi
        for t in range(base.nvars)
    ]
    table = {}
    for d in set(pres.column_degrees):
        b = dense_rank(span_vectors(base, a, phi + jg, d), p) - dense_rank(
            span_vectors(base, a, m_phi + jg, d), p
        )
        if b:
            table[d] = b
    return table


def test_b1_degrees_match_dense_ranks():
    # b1 off the run's flags, and the oracle's b1 (over S from the Betti table,
    # over S/J from a Nakayama count on Hilbert numerators), both against
    # dense ranks with no Groebner basis
    plain = quotient = 0
    for pres in _oracle_modules():
        pres = minimal_presentation(pres)
        dense = _dense_b1(pres)
        assert minimal_relation_degrees(pres) == dense
        assert b1_degrees(module_invariants(pres)) == dense
        if pres.ring.is_quotient:
            quotient += 1
        else:
            plain += 1
    assert plain == 80 and quotient == 40


# dense Koszul homology costs C(v, v/2) * dim F_d columns per rank; keep it small
KOSZUL_SIZE_LIMIT = 60


def _koszul_size(pres, top):
    ring, a = pres.ring.base, pres.row_twists
    widest = max(len(degree_basis(ring, a, d)) for d in range(min(a), top + 3))
    return comb(ring.nvars, ring.nvars // 2) * widest


def _koszul_betti(pres, top):
    """b_{i,j} = dim H_i(K(x_1..x_v) (x) M)_j for j <= top, by dense ranks on
    coker(U -> F) alone, U the columns over S.  (K_i (x) M)_j is C(v, i) copies
    of M_{j-i}, and d_i sends e_T (x) g to the sum over t in T of +-x_t g e_{T-t}; its rank in
    degree j is rank(L + U') - rank U', with L the images of the generators e_T (x) e_c
    and U' one copy of U per (i-1)-subset."""
    ring, a = pres.ring.base, pres.row_twists
    n, v, p = len(a), ring.nvars, ring.field.p
    cols = presentation_elements(pres)
    unit = [tuple(int(k == t) for k in range(v)) for t in range(v)]
    degrees = range(min(a), top + 1)
    ranks = {}
    for i in range(1, v + 1):
        target = {T: k for k, T in enumerate(combinations(range(v), i - 1))}
        twists = [t + i - 1 for t in a] * len(target)
        blocks = [
            {(k * n + c, m): val for (c, m), val in col.items()}
            for k in range(len(target))
            for col in cols
        ]
        images = [
            {
                (target[T[:s] + T[s + 1 :]] * n + c, unit[t]): (-1) ** s
                for s, t in enumerate(T)
            }
            for T in combinations(range(v), i)
            for c in range(n)
        ]
        for j in degrees:
            rank_u = len(target) * dense_rank(span_vectors(ring, a, cols, j - i + 1), p)
            rank_lu = dense_rank(span_vectors(ring, twists, images + blocks, j), p)
            ranks[(i, j)] = rank_lu - rank_u
    table = {}
    for i in range(v + 1):
        for j in degrees:
            dim = comb(v, i) * hilbert_value_dense(ring, a, cols, j - i)
            b = dim - ranks.get((i, j), 0) - ranks.get((i + 1, j), 0)
            if b:
                table[(i, j)] = b
    return table


def test_betti_table_matches_koszul_homology():
    # b_{i,j} = dim Tor_i(M, k)_j computed from the other side of Tor: the Koszul
    # complex of the variables tensored with M, by dense ranks with no Groebner basis
    checked = quotient = 0
    for pres in _oracle_modules():
        table = betti_numbers(pres)
        top = max(j for (_, j) in table)
        if _koszul_size(pres, top) > KOSZUL_SIZE_LIMIT:
            continue
        koszul = _koszul_betti(pres, top + 2)
        assert koszul == table
        assert module_invariants(pres).betti == koszul
        assert regularity(pres) == max(j - i for (i, j) in koszul)
        checked += 1
        quotient += pres.ring.is_quotient
    assert checked >= 80 and quotient >= 25


def _koszul_plus_split_summand(d):
    """The Koszul complex of (x, y, z) plus the exact summand R(-d) --1--> R(-d)
    placed in homological degrees 1 and 2: a resolution of S/(x, y, z) that is
    not minimal."""
    zero, one = R3.zero(), R3.one()
    d1 = ((x, y, z, zero),)
    d2 = (
        (-y, -z, zero, zero),
        (x, zero, -z, zero),
        (zero, x, y, zero),
        (zero, zero, zero, one),
    )
    d3 = ((z,), (-y,), (x,), (zero,))
    return FreeResolution.from_matrices(
        R3, [(0,), (1, 1, 1, d), (2, 2, 2, d), (3,)], [d1, d2, d3]
    )


def test_betti_table_of_non_minimal_resolution():
    koszul = {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}
    for d in (1, 2, 3):
        res = _koszul_plus_split_summand(d)
        assert betti_from_resolution(res) != koszul
        assert betti_of_resolution(res) == koszul
        assert betti_from_resolution(minimalize_resolution(res)) == koszul


def test_betti_tables_from_packed_levels_and_from_matrices_agree():
    # a Schreyer resolution's scalar entries are read off its packed levels;
    # re-packing its decoded matrices position over term must not change them
    checked = 0
    resolutions = [schreyer_resolution(pres) for pres in _oracle_modules()]
    resolutions += [_koszul_plus_split_summand(d) for d in (1, 2, 3)]
    for res in resolutions:
        again = FreeResolution.from_matrices(res.ring, res.twists, res.differentials)
        assert again.differentials == res.differentials
        assert betti_of_resolution(again) == betti_of_resolution(res)
        checked += 1
    assert checked > 120


def test_betti_tables_decode_no_resolution(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    modules = (_acceptance_box_module(3), _module_over_complete_intersection(3))
    monkeypatch.setattr(
        groebner, "elements_to_matrix", counting("elements_to_matrix", groebner.elements_to_matrix)
    )
    monkeypatch.setattr(
        groebner.Codec, "decode_element", counting("decode_element", groebner.Codec.decode_element)
    )
    for pres in modules:
        assert not pres.is_zero_module
        mi = module_invariants(pres)
        assert regularity(pres) == mi.regularity
    assert calls == []
    assert mi.resolution.differentials  # decoding on request goes through them
    assert calls


def test_betti_table_rejects_what_no_resolution_gives():
    one, zero = R2.one(), R2.zero()
    not_a_complex = FreeResolution.from_matrices(
        R2, [(0,), (0,), (0,)], [((one,),), ((one,),)]
    )
    # exact at F_0 and F_1 but not at F_2: F (x) k has homology at F_2 alone
    not_exact = FreeResolution.from_matrices(
        R2, [(0,), (0,), (1,)], [((one,),), ((zero,),)]
    )
    for res in (not_a_complex, not_exact):
        with pytest.raises(AlgebraError):
            betti_of_resolution(res)


# -- regularity without a resolution -------------------------------------------------


def _recast(pres, order, shift):
    """pres over the same variables with this term order, every twist moved by
    shift."""
    ring = pres.ring
    base = GradedRing(ring.field, ring.variables, order)
    quotient = tuple(Polynomial(base, q.terms) for q in ring.quotient_gens)
    target = GradedRing(ring.field, ring.variables, order, quotient) if quotient else base
    matrix = [[Polynomial(base, e.terms) for e in row] for row in pres.matrix]
    return validate_presentation(
        target,
        tuple(a + shift for a in pres.row_twists),
        matrix,
        tuple(b + shift for b in pres.column_degrees),
    )


def _regularity_targets():
    """The oracle modules, the Sym^3 and R/Fitt_0 targets `audit` would compare
    them with, and every module again over lex with twists lowered by 3."""
    for pres in _oracle_modules():
        yield pres
        if comb(pres.n + 2, 3) <= SYM_TARGET_GEN_LIMIT:
            power = sym_power(pres, 3)
            if not power.is_zero_module:
                yield power
        if pres.n <= FITT_TARGET_ROW_LIMIT:
            minors = fitting_ideal_0(pres)
            if minors:
                yield validate_presentation(pres.ring, (0,), [minors])
        yield _recast(pres, "lex", -3)


@pytest.fixture
def resolved(monkeypatch):
    """The presentations `schreyer_resolution` is called on, in order."""
    seen = []
    schreyer = invariants.schreyer_resolution

    def counted(pres):
        seen.append(pres)
        return schreyer(pres)

    monkeypatch.setattr(invariants, "schreyer_resolution", counted)
    return seen


def test_regularity_two_paths_agree(resolved):
    # the filter-regular walk on one Groebner basis against the Betti table
    kinds = {"lex": 0, "negative": 0, "quotient": 0}
    checked = 0
    for pres in _regularity_targets():
        reg = regularity(pres)
        assert reg == regularity_from_betti(betti_numbers(pres))
        checked += 1
        kinds["lex"] += pres.ring.order == "lex"
        kinds["negative"] += min(pres.row_twists) < 0
        kinds["quotient"] += pres.ring.is_quotient
    assert checked > 300 and min(kinds.values()) > 30
    # every walk here was certified: only betti_numbers resolved
    assert len(resolved) == checked


def test_regularity_falls_back_when_the_walk_is_not_certified(resolved):
    # y is not filter-regular on S/(xy): (0 : y^oo) = (x)/(xy) has infinite length
    pres = cyclic(R2, [u * v])
    assert regularity(pres) == 1
    assert resolved == [pres]
    assert regularity_from_betti(betti_numbers(pres)) == 1
    # S/(x^2, y^3): the walk certifies it at once, with no resolution
    resolved.clear()
    assert regularity(cyclic(R2, [u * u, v * v * v])) == 3
    assert resolved == []


def test_regularity_raises_on_an_impossible_series(resolved, monkeypatch):
    # a walk step whose series has a negative coefficient is an error in the
    # numerators, not an uncertified step: no fallback to the Betti table
    ring = GradedRing(F, ("x",))
    (t,) = ring.gens()
    pres = cyclic(ring, [t * t])
    assert regularity(pres) == 1
    monkeypatch.setattr(
        invariants, "_numerator_of_components", lambda ideals, twists: {0: 2, 1: -3, 2: 1}
    )
    with pytest.raises(AlgebraError):
        regularity(pres)
    assert resolved == []
