import copy
import random

import pytest

from cmreg import groebner as groebner_module, modops
from cmreg.core import (
    AlgebraError,
    DegreeOverflow,
    GradedPresentation,
    GradedRing,
    NEG_INF,
    Polynomial,
    PrimeField,
    free_presentation,
    validate_presentation,
)
from cmreg.groebner import (
    MAX_DEGREE,
    elements_to_matrix,
    elt_degree,
    groebner,
    memo_scope,
    poly_element,
    presentation_elements,
    syzygies_of,
)
from cmreg.invariants import (
    betti_numbers,
    hilbert_data,
    hilbert_numerator,
    lead_torsion,
    numerator_of_cokernel,
    numerator_of_gb,
    regularity,
    tp_divide_one_minus_t,
    tp_sub,
)
from cmreg.modops import (
    H0Profile,
    colon,
    colon_kernel,
    degree_basis,
    dense_rank,
    fitting_ideal_0,
    h0_profile,
    hilbert_value_dense,
    minimal_presentation,
    quotient_by_linear,
    span_vectors,
    sym_power,
    torsion_hilbert,
)
from cmreg.verify import (
    random_linear_form,
    random_module,
    random_polynomial,
    random_section_form,
    section_check,
)
from helpers import cyclic, reduced_basis, same_module, twisted
from test_invariants import (
    _acceptance_box_module,
    _module_over_complete_intersection,
    _oracle_modules,
)

F = PrimeField(101)
R2 = GradedRing(F, ("x", "y"))
R3 = GradedRing(F, ("x", "y", "z"))
u, v = R2.gens()
x, y, z = R3.gens()


def test_quotient_by_linear_appends_columns():
    pres = cyclic(R2, [u * u, u * v])
    bar = quotient_by_linear(pres, v)
    assert bar.m == 3 and bar.column_degrees == (2, 2, 1)
    hd = hilbert_data(bar)  # S/(x^2, y): 1, x
    assert (hd.dimension, hd.length) == (0, 2)


def test_quotient_by_linear_rejects_non_linear():
    pres = cyclic(R2, [u * u])
    with pytest.raises(AlgebraError):
        quotient_by_linear(pres, u * u)
    with pytest.raises(AlgebraError):
        quotient_by_linear(pres, R2.zero())


def test_colon_kernel_socle_element():
    pres = cyclic(R2, [u * u, u * v])
    kpres, lam = colon_kernel(pres, v)
    assert lam == 1
    # K is spanned by the class of x, a single generator in degree 1
    assert kpres.row_twists == (1,)
    assert hilbert_data(kpres).length == 1


def test_colon_kernel_regular_form():
    zero = minimal_presentation(cyclic(R3, [R3.one()]))
    # the flagged zero module runs the general path and gives the same answer
    for pres in (validate_presentation(R3, (0,), [[x * x, x * y]]), zero):
        assert colon_kernel(pres, z) == (zero, 0)
        assert torsion_hilbert(pres, z).length == 0


def test_colon_kernel_infinite():
    R = GradedRing(F, ("x", "y"), quotient_gens=(u * u,))
    free = free_presentation(R, (0,))
    _, lam = colon_kernel(free, u)
    assert lam is None  # (x)/(x^2) is a line's worth of torsion
    _, lam2 = colon_kernel(free, v)
    assert lam2 == 0


def test_h0_profile_strict_part():
    pres = cyclic(R2, [u * u, u * v])
    profile, mprime = h0_profile(pres)
    assert profile.h0_by_degree == {1: 1}
    assert profile.a0 == 1 and profile.indeg_h0 == 1 and profile.a_span == 1
    # M' = S/(x)
    assert regularity(mprime) == 0
    hd = hilbert_data(mprime)
    assert (hd.dimension, hd.multiplicity) == (1, 1)


def test_h0_profile_finite_length_module():
    pres = cyclic(R2, [u * u, u * v, v * v])
    profile, mprime = h0_profile(pres)
    assert profile.h0_by_degree == {0: 1, 1: 2}
    assert profile.a0 == 1 and profile.indeg_h0 == 0 and profile.a_span == 2
    assert mprime.is_zero_module


def test_h0_profile_saturated_module():
    pres = cyclic(R2, [u])
    profile, mprime = h0_profile(pres)
    assert profile.h0_by_degree == {}
    assert profile.a0 == NEG_INF and profile.a_span == 0
    assert hilbert_numerator(mprime) == hilbert_numerator(pres)


def test_h0_profile_free_module():
    # no columns: nothing to saturate, and M' is M as presented; the flagged
    # zero module has no rows either, so no saturation round runs on it
    zero = minimal_presentation(cyclic(R2, [R2.one()]))
    for pres in [*(free_presentation(R2, t) for t in ((0,), (0, 2), (-1, 3))), zero]:
        profile, mprime = h0_profile(pres)
        assert profile == H0Profile({}, NEG_INF, None, 0)
        assert mprime == pres


def test_colon_in_a_scope_equals_a_fresh_one():
    pres = validate_presentation(R3, (0, 1), [[x * y, z * z], [y, x]])
    cols = presentation_elements(pres)
    for forms in ((z,), R3.gens()):
        fresh = colon(R3, pres.row_twists, cols, forms)
        with memo_scope():
            first = colon(R3, pres.row_twists, cols, forms)
        assert first.row_twists == pres.row_twists
        assert first.elements == fresh.elements


def test_sym_power_one_is_identity():
    pres = validate_presentation(
        R3, (0, 1), [[x * x, x * y * z], [z, y * y]]
    )
    assert betti_numbers(sym_power(pres, 1)) == betti_numbers(pres)


def test_sym_power_zero_is_ring():
    pres = cyclic(R2, [u * u])
    s0 = sym_power(pres, 0)
    assert s0.row_twists == (0,) and s0.m == 0


def test_sym_power_of_the_zero_module_is_zero():
    zero = minimal_presentation(validate_presentation(R2, (0,), [[R2.one()]]))
    assert zero.is_zero_module
    for l in (1, 2):
        assert sym_power(zero, l).is_zero_module


def test_sym_power_shape_two_generators():
    # coker (x y)^T : two generators, one relation
    pres = validate_presentation(R2, (0, 0), [[u], [v]])
    s2 = sym_power(pres, 2)
    assert s2.row_twists == (0, 0, 0)
    assert s2.column_degrees == (1, 1)
    # columns are x*e00 + y*e01 and x*e01 + y*e11
    cols = {tuple(s2.column(j)) for j in range(2)}
    zero = R2.zero()
    assert cols == {(u, v, zero), (zero, u, v)}


def _assembled_inputs():
    """Criterion 1's box at twists -2, 0 and 2, modules over complete
    intersections, modules over lex rings, and a zero column."""
    for trial in range(200):
        pres = _acceptance_box_module(trial)
        for s in (-2, 0, 2):
            yield twisted(pres, s)
    for trial in range(40):
        pres = _module_over_complete_intersection(trial)
        if not pres.is_zero_module:
            yield pres
    for seed in range(20):
        yield random_module(seed, p_vars=3, order="lex")
    yield validate_presentation(R2, (0, 1), [[R2.zero(), u * v], [R2.zero(), u]], [2, 2])


def test_assembled_presentations_validate_to_themselves():
    """sym_power and quotient_by_linear assemble their output from a valid
    presentation without validating it again: validating it must give it back."""
    rng = random.Random(4242)
    checked = 0
    for pres in _assembled_inputs():
        form = random_linear_form(rng, pres.ring)
        for p in (*(sym_power(pres, l) for l in range(4)), quotient_by_linear(pres, form)):
            assert validate_presentation(p.ring, p.row_twists, p.matrix, p.column_degrees) == p
            checked += 1
    assert checked == 5 * (600 + 40 + 20 + 1)


def test_fitting_ideal_maximal_minors():
    pres = validate_presentation(R2, (0, 0), [[u, R2.zero()], [R2.zero(), v]])
    fitt = fitting_ideal_0(pres)
    assert fitt == [u * v]


def test_fitting_ideal_wide_matrix_presentation_invariance():
    slim = validate_presentation(R2, (0, 0), [[u, R2.zero()], [R2.zero(), v]])
    one = R2.one()
    fat = validate_presentation(
        R2,
        (0, 0, 0),
        [
            [u, R2.zero(), -one],
            [R2.zero(), v, -one],
            [R2.zero(), R2.zero(), one],
        ],
    )
    ideal_a = fitting_ideal_0(slim)
    ideal_b = fitting_ideal_0(fat)
    na = hilbert_numerator(cyclic(R2, ideal_a))
    nb = hilbert_numerator(cyclic(R2, [f for f in ideal_b if not f.is_zero()]))
    assert na == nb


def test_fitting_ideal_underdetermined_is_zero():
    pres = validate_presentation(R2, (0, 0), [[u], [v]])
    assert fitting_ideal_0(pres) == []


def test_minimal_presentation_cancels_unit():
    one = R2.one()
    pres = validate_presentation(R2, (0, 0), [[u, one], [v, R2.zero()]])
    slim = minimal_presentation(pres)
    assert slim.row_twists == (0,)
    assert betti_numbers(slim) == betti_numbers(cyclic(R2, [v]))


def test_minimal_presentation_flags_zero_module():
    pres = validate_presentation(R2, (0,), [[R2.one()]])
    slim = minimal_presentation(pres)
    assert slim.is_zero_module


def test_minimal_presentation_reduces_mod_quotient():
    R = GradedRing(F, ("x", "y"), quotient_gens=(u * u,))
    pres = validate_presentation(R, (0,), [[u * u]])
    slim = minimal_presentation(pres)
    assert slim.m == 0 and slim.row_twists == (0,)


def test_minimal_presentation_keeps_minimal_input():
    pres = cyclic(R2, [u * u, u * v])
    slim = minimal_presentation(pres)
    assert slim.column_degrees == pres.column_degrees


def test_dense_rank_small():
    assert dense_rank([[1, 2], [2, 4]], 101) == 1
    assert dense_rank([[1, 0], [0, 1], [1, 1]], 101) == 2
    assert dense_rank([], 101) == 0


def test_dense_hilbert_matches_known_values():
    cols = [poly_element(f) for f in (u * u, u * v)]
    values = [hilbert_value_dense(R2, (0,), cols, d) for d in range(5)]
    assert values == [1, 2, 1, 1, 1]
    cols.append(poly_element(v * v))
    assert [hilbert_value_dense(R2, (0,), cols, d) for d in range(4)] == [1, 2, 0, 0]


def test_syzygy_rank_equals_dense_nullity():
    gens = [poly_element(g) for g in (x, y, z)]
    syz = syzygies_of(gens, R3, (0,))
    twists = (1, 1, 1)
    for d in range(1, 4):
        rank = dense_rank(span_vectors(R3, twists, syz, d), F.p)
        source = len(degree_basis(R3, twists, d))
        image_rank = dense_rank(span_vectors(R3, (0,), gens, d), F.p)
        assert rank == source - image_rank


# -- colons: syzygies_of with tails, and its callers ---------------------------------


def _random_element(rng, twists, deg):
    """A nonzero homogeneous element of degree deg >= max(twists)."""
    while True:
        out = {}
        for c, t in enumerate(twists):
            if rng.random() < 0.7:
                for m, coeff in random_polynomial(rng, R3, deg - t).terms.items():
                    out[(c, m)] = coeff
        if out:
            return out


@pytest.mark.parametrize("seed", range(6))
def test_syzygies_of_with_tails_against_dense_ranks(seed):
    # W = {r : sum r_k h_k in <U>}; in each degree d, W_d is the kernel of
    # (+) R(-deg h_k)_d -> F_d / U_d, whose rank is rank(H_d + U_d) - rank(U_d)
    rng = random.Random(seed)
    p = F.p
    twists = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 2)))
    head_degs = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
    heads = [_random_element(rng, twists, d) for d in head_degs]
    tails = [_random_element(rng, twists, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    zero_at = rng.randrange(len(heads) + 1)
    heads.insert(zero_at, {})
    head_degs.insert(zero_at, 0)
    tails.insert(rng.randrange(len(tails) + 1), {})

    w = syzygies_of(heads, R3, twists, tails=tails)
    assert w.row_twists == tuple(head_degs)
    for d in range(6):
        source = len(degree_basis(R3, head_degs, d))
        tails_rank = dense_rank(span_vectors(R3, twists, tails, d), p)
        both_rank = dense_rank(span_vectors(R3, twists, heads + tails, d), p)
        w_rank = dense_rank(span_vectors(R3, head_degs, w.elements, d), p)
        assert w_rank == source - (both_rank - tails_rank)
    # a zero head contributes its unit vector, as it stands
    assert {(zero_at, (0, 0, 0)): 1} in w.elements
    # the answer is already the reduced basis (h0_profile does not re-base it)
    assert reduced_basis(w.elements, R3, head_degs).basis == w.basis


def _criterion_4_modules():
    """Criterion 4's 50 modules, 25 of dimension 1 then 25 of dimension 2,
    drawn as its acceptance test draws them."""
    out = []
    for target in (1, 2):
        rng = random.Random(5150 + target)
        count = 0
        while count < 25:
            pres = random_module(
                rng.randrange(2**32),
                p_vars=rng.choice((2, 3)),
                n=rng.randint(1, 2),
                m=rng.randint(1, 4),
                density=0.5 + 0.5 * rng.random(),
            )
            if int(hilbert_data(pres).dimension) == target:
                out.append(pres)
                count += 1
    return out


@pytest.mark.parametrize("cols", [[u * v], [u * u, u * v]], ids=["xy", "x2-xy"])
def test_zero_column_changes_no_section_data(cols):
    # a zero column, its degree pinned down, presents the same module
    plain = validate_presentation(R2, (0,), [cols])
    padded = validate_presentation(R2, (0,), [[R2.zero(), *cols]], [2] * (len(cols) + 1))
    assert h0_profile(padded) == h0_profile(plain)
    assert section_check(padded, u + v) == section_check(plain, u + v)


def test_h0_profile_needs_no_rebasing(monkeypatch):
    modules = _criterion_4_modules()
    got = [h0_profile(pres) for pres in modules]
    colon = modops.colon_with_irrelevant

    def rebased(ring, row_twists, columns):
        return groebner(colon(ring, row_twists, columns).elements, ring, row_twists)

    monkeypatch.setattr(modops, "colon_with_irrelevant", rebased)
    for pres, (profile, mprime) in zip(modules, got):
        assert h0_profile(pres) == (profile, mprime)


def _last_variable_multiples():
    """S/(x_v I) for 20 seeded ideals I in 2-3 variables: x_v divides every
    lead term, and (U : x_v^oo) / U contains I / x_v I, of infinite length, so
    the degree-first basis certifies no round and the graph colon decides.
    Most draws have H0 != 0."""
    rng = random.Random(3737)
    out = []
    for _ in range(20):
        ring = rng.choice((R2, R3))
        last = ring.gens()[-1]
        ideal = [random_polynomial(rng, ring, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        out.append(cyclic(ring, [last * f for f in ideal]))
    return out


def _graph_round(ring, row_twists, columns):
    """One saturation round by the graph colon alone, with no shortcut."""
    return colon(ring, row_twists, columns, ring.gens())


def _rounds(ring, row_twists, cur, cur_n, colon_round=_graph_round):
    """Colon the columns cur, of numerator cur_n, with every variable until the
    Hilbert numerator stops changing, deciding no case in advance: the
    saturated columns and their numerator."""
    while True:
        gb = colon_round(ring, row_twists, cur)
        n_big = numerator_of_gb(gb)
        if n_big == cur_n:
            return cur, cur_n
        cur, cur_n = gb.elements, n_big


def _h0_by_rounds(pres, colon_round=_graph_round):
    """h0_profile as plain rounds (`_rounds`)."""
    if pres.is_zero_module:
        return H0Profile({}, NEG_INF, None, 0), pres
    base, a = pres.ring.base, pres.row_twists
    cur = presentation_elements(pres)
    n_u = numerator_of_cokernel(base, a, cur)
    cur, cur_n = _rounds(base, a, cur, n_u, colon_round)
    diff = tp_sub(n_u, cur_n)
    for _ in range(base.nvars):
        diff = tp_divide_one_minus_t(diff)
    h0 = {e: c for e, c in diff.items() if c}
    a0, indeg = (max(h0), min(h0)) if h0 else (NEG_INF, None)
    profile = H0Profile(h0, a0, indeg, a0 - indeg + 1 if h0 else 0)
    matrix = elements_to_matrix(cur, pres.n, base)
    degrees = tuple(int(elt_degree(w, a)) for w in cur)
    return profile, minimal_presentation(GradedPresentation(pres.ring, a, matrix, degrees))


def _h0_modules():
    """Criterion 4's 50 modules, each followed by its M/lM and M'/lM', then the
    oracle modules (quotient rings, lex orders, negative twists), then the
    S/(x_v I) family, which keeps the graph colon in the rounds."""
    from test_invariants import _oracle_modules

    forms = random.Random(2025)  # criterion 4's forms, in its order
    modules = []
    for pres in _criterion_4_modules():
        l = random_section_form(pres, forms)
        _, mprime = _h0_by_rounds(pres)
        modules += [pres, quotient_by_linear(pres, l), quotient_by_linear(mprime, l)]
    return modules + list(_oracle_modules()) + _last_variable_multiples()


def test_h0_profile_decided_cases_match_the_rounds(monkeypatch):
    # the oracle's rounds are graph colons: they share no shortcut with h0_profile
    rounds, certified = [], []

    def counting(colon_round, calls=rounds):
        def counted(*args):
            calls.append(1)
            return colon_round(*args)

        return counted

    # h0_profile's graph colons; `_graph_round` calls this module's own `colon`
    monkeypatch.setattr(modops, "colon", counting(modops.colon))
    monkeypatch.setattr(
        modops,
        "_saturate_by_last_variable",
        counting(modops._saturate_by_last_variable, certified),
    )
    oracle_round = counting(_graph_round)
    modules = _h0_modules()
    paths = {"finite length": 0, "free variable": 0, "last variable": 0, "rounds": 0}
    for pres in modules:
        rounds.clear()
        expected = _h0_by_rounds(pres, oracle_round)
        old = len(rounds)
        rounds.clear()
        certified.clear()
        assert h0_profile(pres) == expected
        if pres.is_zero_module:
            continue
        if hilbert_data(pres).dimension == 0:
            # U^sat = F, settled by the last variable without a graph colon
            assert certified and not rounds
            paths["finite length"] += 1
        elif rounds:
            # the same rounds as the oracle's, some settled without a graph colon
            assert len(rounds) <= old
            paths["rounds"] += 1
        elif certified:  # U : x_v^oo = U^sat, read off U's degree-first basis
            paths["last variable"] += 1
        else:  # a free variable on U's own basis: H0 = 0 at once
            paths["free variable"] += 1
    print(f"h0_profile paths over {len(modules)} modules: {paths}")
    assert min(paths.values()) >= 10, paths


def _round_and_route(monkeypatch, ring, row_twists, columns):
    """(colon_with_irrelevant's answer, "graph colon" when it called colon,
    "last variable" when it saturated U by x_v, else "degree-first": a free
    variable confirmed U)."""
    calls = []
    saturate = modops._saturate_by_last_variable

    def counted(route, original):
        def call(*args):
            calls.append(route)
            return original(*args)

        return call

    with monkeypatch.context() as patch:
        patch.setattr(modops, "colon", counted("graph colon", colon))
        patch.setattr(modops, "_saturate_by_last_variable", counted("last variable", saturate))
        got = modops.colon_with_irrelevant(ring, row_twists, columns)
    return got, calls[0] if calls else "degree-first"


def test_saturation_round_routes_agree_with_the_graph_colon(monkeypatch):
    inputs = []
    saturation_round = modops.colon_with_irrelevant

    def recording(ring, row_twists, columns):
        inputs.append((ring, row_twists, copy.deepcopy(columns)))
        return saturation_round(ring, row_twists, columns)

    with monkeypatch.context() as patch:
        patch.setattr(modops, "colon_with_irrelevant", recording)
        for pres in _h0_modules():
            h0_profile(pres)

    routes = {"degree-first": 0, "last variable": 0, "graph colon": 0}
    for ring, a, cols in inputs:
        want = _graph_round(ring, a, cols)
        got, route = _round_and_route(monkeypatch, ring, a, cols)
        routes[route] += 1
        if route == "last variable":
            # U^sat at once: the oracle's saturation, which contains U : m
            saturated, _ = _rounds(ring, a, cols, numerator_of_cokernel(ring, a, cols))
            assert same_module(got, groebner(saturated, ring, a))
            # a reduced basis is unique: the last graph colon's, element for element
            assert got.elements == saturated
            assert not any(got.normal_form(w)[0] for w in want.elements)
        else:
            assert same_module(got, want)
        # in a scope where regularity already walked U, the round reads the
        # completed run from the memo, whatever its lead terms
        with memo_scope():
            groebner(cols, ring, a)
            hit, hit_route = _round_and_route(monkeypatch, ring, a, cols)
        assert hit_route == route and same_module(hit, got)
    print(f"saturation rounds over {len(inputs)} inputs: {routes}")
    assert min(routes.values()) >= 10, routes


def test_saturation_round_hand_cases(monkeypatch):
    # S/(xy): y is a zero divisor and H0 = 0, so the round is the graph colon's
    pres = cyclic(R2, [u * v])
    assert h0_profile(pres)[0] == H0Profile({}, NEG_INF, None, 0)
    cols = presentation_elements(pres)
    got, route = _round_and_route(monkeypatch, R2, (0,), cols)
    assert route == "graph colon" and same_module(got, _graph_round(R2, (0,), cols))

    # a generic 2x2 linear matrix: y is a nonzerodivisor, the round confirms U
    # from the degree-first basis (the `cmreg section-check` sample in CI)
    pres = validate_presentation(
        R2, (0, 0), [[21 * u + 94 * v, 39 * u + 32 * v], [74 * u + 87 * v, 55 * u + 81 * v]]
    )
    cols = presentation_elements(pres)
    got, route = _round_and_route(monkeypatch, R2, (0, 0), cols)
    assert route == "degree-first" and same_module(got, _graph_round(R2, (0, 0), cols))

    # a degree-first run that overflows is final: the round raises its
    # DegreeOverflow and builds no graph colon
    def overflowing(*args, **kwargs):
        raise DegreeOverflow("degree-first run")

    graph_calls = []
    with monkeypatch.context() as patch:
        patch.setattr(modops, "groebner", overflowing)
        patch.setattr(modops, "colon", lambda *args: graph_calls.append(1))
        with pytest.raises(DegreeOverflow, match="degree-first run"):
            modops.colon_with_irrelevant(R2, (0, 0), cols)
    assert not graph_calls


def _generic_2x2(e):
    """A generic 2x2 matrix in x^e and y^e, rows twisted by 0."""
    c = [[21, 94, 39, 32], [74, 87, 55, 81]]
    return [[r[0] * u**e + r[1] * v**e, r[2] * u**e + r[3] * v**e] for r in c]


@pytest.mark.parametrize(
    "rows, route",
    [
        # two leads x^e in two components: y is free on U's degree-first
        # basis, so the round answers U, though 2e is past the limit and the
        # graph colon would overflow
        (_generic_2x2(MAX_DEGREE), "degree-first"),
        (_generic_2x2(MAX_DEGREE // 2), "degree-first"),
        # y divides the one lead term: the graph colon answers, or overflows
        ([[u ** (MAX_DEGREE - 2) * v]], "graph colon"),
        ([[u ** (MAX_DEGREE - 1) * v]], None),
    ],
)
def test_saturation_round_near_max_degree(monkeypatch, rows, route):
    """An entry of degree near MAX_DEGREE: a round that U's degree-first basis
    certifies answers U, even where the graph colon overflows; any other round
    gives the graph colon's basis or its DegreeOverflow."""
    pres = validate_presentation(R2, (0,) * len(rows), rows)
    a, cols = pres.row_twists, presentation_elements(pres)
    if route is None:
        with pytest.raises(DegreeOverflow) as want:
            _graph_round(R2, a, cols)
        with pytest.raises(DegreeOverflow) as got:
            modops.colon_with_irrelevant(R2, a, cols)
        assert str(got.value) == str(want.value)
        return
    got, taken = _round_and_route(monkeypatch, R2, a, cols)
    assert taken == route
    try:
        want = _graph_round(R2, a, cols)
    except DegreeOverflow:
        # only a certified round answers past the graph colon: U : m = U
        assert route == "degree-first" and same_module(got, groebner(cols, R2, a))
    else:
        assert same_module(got, want)


def _dense_torsion_dim(pres, l, d):
    """dim (0 :_M l)_d = dim M_d - rank(l : M_d -> M_{d+1}), by dense ranks."""
    base, a = pres.ring.base, pres.row_twists
    p = base.field.p
    cols = presentation_elements(pres)
    l_rows = [{(i, m): c for m, c in l.terms.items()} for i in range(len(a))]
    rank_u = dense_rank(span_vectors(base, a, cols, d), p)
    rank_u_next = dense_rank(span_vectors(base, a, cols, d + 1), p)
    rank_lu = dense_rank(span_vectors(base, a, l_rows + cols, d + 1), p)
    return len(degree_basis(base, a, d)) - rank_u - (rank_lu - rank_u_next)


def test_colon_kernel_against_dense_torsion():
    forms = random.Random(2025)  # criterion 4's forms, in its order
    for pres in _criterion_4_modules():
        l = random_section_form(pres, forms)
        kpres, lam = colon_kernel(pres, l)
        assert torsion_hilbert(pres, l).length == lam
        by_degree = {} if kpres.is_zero_module else hilbert_data(kpres).q_polynomial
        top = max([*by_degree, *pres.column_degrees]) + 2
        dense = {d: _dense_torsion_dim(pres, l, d) for d in range(min(pres.row_twists), top + 1)}
        assert {d: v for d, v in by_degree.items() if v} == {d: v for d, v in dense.items() if v}
        assert lam == sum(dense.values())


# -- torsion read off one degree-first run, against the graph colon -------------------


def _torsion_routes_agree(pres, l):
    """torsion_hilbert and colon_kernel + hilbert_data, each in its own scope,
    give the same length and the same series; returns the length."""
    with memo_scope():
        got = torsion_hilbert(pres, l)
    with memo_scope():
        kpres, lam = colon_kernel(pres, l)
        want = hilbert_data(kpres)
    assert got.length == lam
    assert got.q_polynomial == want.q_polynomial
    return lam


def test_torsion_reads_the_bases_its_scope_already_holds(monkeypatch):
    # K is read off the adapted run: once the scope holds it, as
    # section_check's does, torsion_hilbert runs no Buchberger
    forms = random.Random(2025)  # criterion 4's forms, in its order
    modules = [(pres, random_section_form(pres, forms)) for pres in _criterion_4_modules()]
    runs = []
    run = groebner_module.buchberger

    def counted(*args):
        runs.append(1)
        return run(*args)

    monkeypatch.setattr(groebner_module, "buchberger", counted)
    for pres, l in modules:
        with memo_scope():
            section_check(pres, l)
            assert runs
            runs.clear()
            assert torsion_hilbert(pres, l).length is not None
            assert not runs


def _without_last_variable(rng, ring):
    """A random nonzero linear form with no x_v term."""
    last = ring.nvars - 1
    l = random_polynomial(rng, ring.base, 1)
    terms = {m: c for m, c in l.terms.items() if not m[last]}
    return Polynomial(ring.base, terms or {(1,) + (0,) * last: 1})


def test_torsion_routes_agree_on_the_section_box():
    modules = _criterion_4_modules()
    for seed in (2025, 7):
        forms = random.Random(seed)
        for pres in modules:
            assert _torsion_routes_agree(pres, random_section_form(pres, forms)) is not None
    forms = random.Random(11)
    for pres in modules:
        _torsion_routes_agree(pres, _without_last_variable(forms, pres.ring))


def test_torsion_routes_agree_on_the_oracle_modules():
    forms = random.Random(5)
    checked = quotient = 0
    for pres in _oracle_modules():
        _torsion_routes_agree(pres, random_polynomial(forms, pres.ring.base, 1))
        checked += 1
        quotient += pres.ring.is_quotient
    assert checked > 100 and quotient > 20


def test_torsion_routes_agree_over_complete_intersections():
    # a box apart from the oracle modules' trials 0..39; J's generators are
    # among the columns of both degree-first runs, M's and M/lM's
    forms = random.Random(13)
    free_of_last = 0
    for trial in range(40, 100):
        pres = _module_over_complete_intersection(trial)
        if pres.is_zero_module:
            continue
        _torsion_routes_agree(pres, random_polynomial(forms, pres.ring.base, 1))
        l = _without_last_variable(forms, pres.ring)
        free_of_last += pres.ring.nvars > 1
        _torsion_routes_agree(pres, l)
    assert free_of_last >= 20


def test_torsion_routes_agree_on_hand_cases(monkeypatch):
    # S/(xy): x kills (y), a line's worth of torsion, on both routes
    pres = cyclic(R2, [u * v])
    assert _torsion_routes_agree(pres, u) is None
    # S/(x^2, xy, z) in x, y, z: neither form has a z term; K is spanned by x
    pres = cyclic(R3, [x * x, x * y, z])
    assert _torsion_routes_agree(pres, y) == 1
    assert _torsion_routes_agree(pres, 3 * x + y) == 1

    # a degree-first run that overflows is final: torsion_hilbert raises its
    # DegreeOverflow, and only colon_kernel, the oracle, builds a graph colon
    def overflowing(*args, **kwargs):
        raise DegreeOverflow("degree-first run")

    graph_calls = []

    def counted(*args):
        graph_calls.append(1)
        return colon(*args)

    monkeypatch.setattr(modops, "groebner", overflowing)
    monkeypatch.setattr(modops, "colon", counted)
    pres = cyclic(R2, [u * u, u * v])
    for l in (v, u + v):
        with memo_scope(), pytest.raises(DegreeOverflow, match="degree-first run"):
            torsion_hilbert(pres, l)
    assert not graph_calls
    assert colon_kernel(pres, u + v)[1] == 1 and graph_calls


# -- section columns off one adapted run, against the rounds route ----------------


def _graph_torsion(pres, l):
    """K = (0 :_M l)'s Hilbert data by `colon_kernel` and `hilbert_data`, in a
    scope of its own, so that it shares no run with the adapted one."""
    with memo_scope():
        kpres, lam = colon_kernel(pres, l)
        hd = hilbert_data(kpres)
    assert hd.length == lam
    return hd


def _section_columns_agree(pres, l, counts):
    """Each column `modops._section_columns` certifies equals its own route,
    computed in a scope of its own: the graph colon for K (`_graph_torsion`),
    `h0_profile` of M/lM and of M'/lM' (M' from `h0_profile`), and
    `regularity(M/lM)`.  With K of finite length, H0(M) read off the adapted
    run's L by saturating by x_v must equal `h0_profile`'s rounds in the
    original coordinates, so a wrong L fails against a run it does not share.
    Counts certified columns and fallbacks by kind."""
    with memo_scope():
        got = modops._section_columns(pres, l)
        ideals, _ = modops._adapted_run(pres, [l])
    assert got.torsion == _graph_torsion(pres, l)
    with memo_scope():
        mbar = quotient_by_linear(pres, l)
        profile, mprime = h0_profile(pres)
        want = {
            "h0_bar": h0_profile(mbar)[0].h0_by_degree,
            "h0_bar_prime": h0_profile(quotient_by_linear(mprime, l))[0].h0_by_degree,
            "reg_bar": regularity(mbar),
        }
    assert got.torsion.length is not None
    nvars = pres.ring.base.nvars
    h0 = lead_torsion(ideals, pres.row_twists, nvars - 1, nvars)[1].q_polynomial
    assert h0 == profile.h0_by_degree
    for name, expected in want.items():
        value = getattr(got, name)
        if value is None:
            counts[f"{name} fallback"] += 1
        else:
            assert value == expected, name
    counts["certified"] += None not in got


def test_section_columns_agree_with_the_rounds_route():
    counts = dict.fromkeys(["certified", "h0_bar fallback", "h0_bar_prime fallback", "reg_bar fallback"], 0)
    modules = _criterion_4_modules()
    for seed in (2025, 7):
        forms = random.Random(seed)
        for pres in modules:
            _section_columns_agree(pres, random_section_form(pres, forms), counts)
    forms = random.Random(11)
    for pres in modules:
        _section_columns_agree(pres, _without_last_variable(forms, pres.ring), counts)
    forms = random.Random(5)
    for pres in _oracle_modules():
        _section_columns_agree(pres, random_polynomial(forms, pres.ring.base, 1), counts)
    assert counts["certified"] >= 100, counts
    # S/(xy) in x, y, z with l = z: M/zM = k[x, y]/(xy), whose x-multiples
    # are y-torsion of infinite length, so the step at y on in(U) + zF is not
    # certified, for M/lM, for M'/lM' (M' = M) and for the walk
    pres = cyclic(R3, [x * y])
    _section_columns_agree(pres, z, counts)
    assert min(counts.values()) >= 1, counts
    report = section_check(pres, z)
    assert report.all_hold
    assert report.h0_bar == report.h0_bar_prime == {}
    # mu* = max(b0 + h - 1, b1 - 1, reg(M/zM) + 1) = max(0, 1, 2), reg(M/zM) from the fallback
    assert report.mu_star == regularity(quotient_by_linear(pres, z)) + 1 == 2
