import copy
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cmreg import groebner as groebner_module
from cmreg import invariants as invariants_module
from cmreg import modops as modops_module
from cmreg.core import (
    CACHE_SIZE,
    DegreeOverflow,
    GradedRing,
    Polynomial,
    PrimeField,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    validate_presentation,
)
from cmreg.groebner import (
    FIELD,
    MAX_DEGREE,
    Codec,
    GroebnerBasis,
    _add_scaled,
    _index,
    autoreduce,
    buchberger,
    column_element,
    elements_to_matrix,
    elt_add_scaled,
    elt_degree,
    groebner,
    normal_form,
    poly_element,
    presentation_elements,
    quotient_groebner,
    reduce_poly,
    schreyer_resolution,
    schreyer_syzygies,
    _MEMO,
    memo_scope,
    syzygies_of,
)
from cmreg.invariants import (
    betti_numbers,
    hilbert_numerator,
    numerator_from_resolution,
    regularity,
)
from cmreg.modops import h0_profile, sym_power
from cmreg.verify import random_section_form, section_check
from helpers import compose
from test_invariants import _acceptance_box_module, _module_over_complete_intersection
from test_modops import _criterion_4_modules, _last_variable_multiples

F = PrimeField(101)
R3 = GradedRing(F, ("x", "y", "z"))
R2 = GradedRing(F, ("x", "y"))
x, y, z = R3.gens()
u, v = R2.gens()


def ideal_gb(ring, polys):
    return groebner([poly_element(f) for f in polys], ring, (0,))


def gb_lead_monos(gb):
    return {m for (_, m) in gb.lts}


def apply_syzygy(syz, gens, ring):
    """sum_i syz_i * gens_i as an Element; must vanish for a true syzygy."""
    p = ring.field.p
    acc = {}
    for (i, m), c in syz.items():
        elt_add_scaled(acc, gens[i], m, c, p)
    return acc


def test_linear_ideal_autoreduces():
    gb = ideal_gb(R3, [x - y, y - z])
    assert gb_lead_monos(gb) == {(1, 0, 0), (0, 1, 0)}
    assert not gb.normal_form(poly_element(x - y))[0]
    assert not gb.normal_form(poly_element(x - z))[0]
    assert gb.normal_form(poly_element(z))[0]


def test_quadric_pair_gets_new_element():
    gb = ideal_gb(R2, [u * u, u * v + v * v])
    assert gb_lead_monos(gb) == {(2, 0), (1, 1), (0, 3)}


def test_normal_form_is_canonical():
    gb = ideal_gb(R2, [u * u, u * v + v * v])
    f = u * u * v + u * v * v + v * v * v
    r1 = reduce_poly(f, gb)
    r2 = reduce_poly(f + u * u * (u + v) - u * u * (u + v), gb)
    assert r1 == r2


def test_koszul_syzygies_of_variables():
    gens = [poly_element(g) for g in (x, y, z)]
    syz = syzygies_of(gens, R3, (0,))
    for s in syz:
        assert apply_syzygy(s, gens, R3) == {}
    # the three Koszul relations lie in the span of what came back
    sgb = groebner(syz, R3, (1, 1, 1))
    p = F.p
    koszul = [
        {(0, (0, 1, 0)): 1, (1, (1, 0, 0)): p - 1},
        {(0, (0, 0, 1)): 1, (2, (1, 0, 0)): p - 1},
        {(1, (0, 0, 1)): 1, (2, (0, 1, 0)): p - 1},
    ]
    for k in koszul:
        assert not sgb.normal_form(k)[0]


def test_syzygies_catch_zero_generator():
    gens = [poly_element(x), {}, poly_element(y)]
    syz = syzygies_of(gens, R3, (0,))
    assert any(s == {(1, (0, 0, 0)): 1} for s in syz)


def test_schreyer_resolution_koszul():
    pres = validate_presentation(R3, (0,), ((x, y, z),))
    res = schreyer_resolution(pres)
    assert res.twists == [(0,), (1, 1, 1), (2, 2, 2), (3,)]
    assert res.length == 3


def assert_complex(res):
    for k in range(len(res.differentials) - 1):
        prod = compose(res.differentials[k], res.differentials[k + 1], res.ring)
        for row in prod:
            for entry in row:
                assert entry.is_zero()


def test_resolution_is_a_complex():
    pres = validate_presentation(R3, (0,), ((x * x, x * y, y * y),))
    res = schreyer_resolution(pres)
    assert_complex(res)
    assert res.length <= R3.nvars + 1


def test_resolution_of_module_with_two_rows():
    mat = ((x * y, z * z), (y * y, x * z))
    pres = validate_presentation(R3, (0, 0), mat)
    res = schreyer_resolution(pres)
    assert_complex(res)
    # columns of d_1 generate the same submodule as phi's columns
    gens = presentation_elements(pres)
    gb = groebner(gens, R3, pres.row_twists)
    for j in range(len(res.twists[1])):
        col = {}
        for i in range(pres.n):
            for m, c in res.differentials[0][i][j].terms.items():
                col[(i, m)] = c
        assert not gb.normal_form(col)[0]


def test_unreduced_resolutions_are_resolutions():
    # the Schreyer levels are not tail-reduced: still d_k d_{k+1} = 0, and the
    # alternating sum of twists is the Hilbert numerator of the Groebner path
    trials = random.Random(5).sample(range(200), 40)
    modules = [_acceptance_box_module(t) for t in trials]
    modules += [sym_power(pres, 2) for pres in modules[:20]]
    modules += [_module_over_complete_intersection(t) for t in trials[:30]]
    checked = quotient = 0
    for pres in modules:
        if pres.is_zero_module:
            continue
        res = schreyer_resolution(pres)
        assert_complex(res)
        assert numerator_from_resolution(res) == hilbert_numerator(pres)
        checked += 1
        quotient += pres.ring.is_quotient
    assert checked >= 80 and quotient >= 20


def random_homogeneous(ring, deg, rng):
    from cmreg.core import monomials_of_degree

    terms = {}
    for m in monomials_of_degree(ring.nvars, deg):
        if rng.random() < 0.5:
            terms[m] = rng.randrange(1, ring.field.p)
    return Polynomial(ring, terms)


@pytest.mark.parametrize("seed", range(6))
def test_random_syzygies_vanish(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 2)
    twists = tuple(rng.randint(0, 1) for _ in range(n))
    cols = []
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(1, 2)
        col = [random_homogeneous(R2, d + twists[i], rng) for i in range(n)]
        cols.append(col)
    gens = []
    for col in cols:
        g = {}
        for i, f in enumerate(col):
            for m, c in f.terms.items():
                g[(i, m)] = c
        gens.append(g)
    syz = syzygies_of(gens, R2, twists)
    for s in syz:
        assert apply_syzygy(s, gens, R2) == {}


def test_quotient_groebner_cached_and_reducing():
    Rq = GradedRing(F, ("x", "y"), quotient_gens=(u * u,))
    gb = quotient_groebner(Rq)
    assert reduce_poly(u * u * v, gb).is_zero()
    assert reduce_poly(u + v, gb) == u + v
    assert quotient_groebner(Rq) is gb


def test_elements_matrix_roundtrip():
    pres = validate_presentation(R3, (0, 1), ((x * y, z * z * z), (y, x * z)))
    elts = presentation_elements(pres)
    mat = elements_to_matrix(elts, 2, R3)
    assert mat == pres.matrix
    assert column_element(pres.matrix, 0) == elts[0]


# -- Schreyer syzygies against the all-pairs reference ----------------------------


def all_pairs_syzygies(gb):
    """Reference for schreyer_syzygies: reduce every pair in a component on its
    own, through the Element-level normal form, then autoreduce."""
    p = gb.ring.field.p
    nxt = gb.codec.schreyer(gb.leads)
    degs = gb.element_degrees()
    syz = []
    for i, j in combinations(range(len(gb.lts)), 2):
        (ci, mi), (cj, mj) = gb.lts[i], gb.lts[j]
        if ci != cj:
            continue
        tau = mono_lcm(mi, mj)
        s = {}
        elt_add_scaled(s, gb.elements[i], mono_div(tau, mi), 1, p)
        elt_add_scaled(s, gb.elements[j], mono_div(tau, mj), -1, p)
        rem, quots = gb.normal_form(s, track=True)
        assert not rem
        rel = {(i, mono_div(tau, mi)): 1, (j, mono_div(tau, mj)): p - 1}
        for k, q in quots.items():
            for mono, c in q.items():
                elt_add_scaled(rel, {(k, mono): 1}, (0,) * len(mono), -c, p)
        syz.append(nxt.encode(rel, degs))
    # keep the relations whose lead term no kept one divides: minimal leads,
    # as autoreduce expects
    keep, kept = [], []
    for s in sorted(syz, key=max):
        t = max(s)
        if not any(nxt.component(k) == nxt.component(t) and nxt.divides(k, t) for k in kept):
            keep.append(s)
            kept.append(t)
    basis, lts = autoreduce(keep, kept, nxt, p)
    return basis, lts, lead_degrees(gb, nxt, lts), len(syz)


def lead_degrees(gb, codec, leads):
    """Module degrees of syzygies of gb read off their packed lead terms."""
    degs = gb.element_degrees()
    return [mono_deg(m) + degs[c] for c, m in map(codec.decode, leads)]


def assert_matches_all_pairs(gb):
    """schreyer_syzygies leaves its relations unreduced: they must be syzygies
    with the reference's lead terms, and reduce to the reference exactly."""
    basis, leads, codec = schreyer_syzygies(gb)
    ref_basis, ref_leads, ref_degrees, pairs = all_pairs_syzygies(gb)
    assert leads == ref_leads == [max(s) for s in basis]
    assert lead_degrees(gb, codec, leads) == ref_degrees
    for s in basis:
        assert apply_syzygy(codec.decode_element(s), gb.elements, gb.ring) == {}
    assert autoreduce(basis, leads, codec, gb.ring.field.p) == (ref_basis, ref_leads)
    return len(basis), pairs


def resolution_levels(pres):
    """The Groebner bases schreyer_resolution takes syzygies of, level by level:
    level 0 is the degree-first basis, tail-reduced and sorted."""
    gb = groebner(presentation_elements(pres), pres.ring, pres.row_twists)
    basis, leads = autoreduce(gb.basis, gb.leads, gb.codec, gb.ring.field.p)
    current = GroebnerBasis(
        ring=gb.ring, row_twists=gb.row_twists, codec=gb.codec, basis=basis, leads=leads
    )
    while current.basis:
        yield current
        syz, leads, codec = schreyer_syzygies(current)
        current = GroebnerBasis(
            ring=pres.ring,
            row_twists=tuple(current.element_degrees()),
            codec=codec,
            basis=syz,
            leads=leads,
        )


def test_schreyer_syzygies_match_all_pairs():
    levels = kept = pairs = 0
    for trial in range(40):
        pres = _acceptance_box_module(trial)
        for module in (pres, sym_power(pres, 2)):
            for gb in resolution_levels(module):
                k, n = assert_matches_all_pairs(gb)
                levels += 1
                kept += k
                pairs += n
    # the pruning has something to prune
    assert levels > 100 and kept < pairs


def test_schreyer_syzygies_of_random_generators():
    for seed in range(6):
        rng = random.Random(seed)
        twists = (0, 1)
        gens = []
        for _ in range(rng.randint(2, 4)):
            d = rng.randint(1, 2)
            g = {}
            for i, t in enumerate(twists):
                # degree d - t in the row of twist t: g has module degree d
                for m, c in random_homogeneous(R3, d - t, rng).terms.items():
                    g[(i, m)] = c
            assert {mono_deg(m) + twists[i] for i, m in g} <= {d}
            gens.append(g)
        assert_matches_all_pairs(groebner(gens, R3, twists))


def test_schreyer_syzygies_equal_shifts(monkeypatch):
    # for i = xy both later pairs (xz and yz) predict the lead term (i, z)
    gb = ideal_gb(R3, [x * y, x * z, y * z])
    assert [m for _, m in gb.lts] == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    kept, pairs = assert_matches_all_pairs(gb)
    assert (kept, pairs) == (2, 3)

    pair_reductions = 0

    def counting_normal_form(v, basis, *args, **kwargs):
        nonlocal pair_reductions
        # S-pairs reduce against gb itself, autoreduce against the syzygies
        pair_reductions += basis is gb.basis
        return normal_form(v, basis, *args, **kwargs)

    monkeypatch.setattr(groebner_module, "normal_form", counting_normal_form)
    basis, leads, codec = schreyer_syzygies(gb)
    assert pair_reductions == 2  # the (xy, yz) pair is never reduced
    p = F.p
    # the pairs' relations as they come, z*e_0 - y*e_1 and y*e_1 - x*e_2 ...
    assert [codec.decode_element(s) for s in basis] == [
        {(0, (0, 0, 1)): 1, (1, (0, 1, 0)): p - 1},
        {(1, (0, 1, 0)): 1, (2, (1, 0, 0)): p - 1},
    ]
    # ... whose reduced basis replaces the first by z*e_0 - x*e_2
    reduced, _ = autoreduce(basis, leads, codec, p)
    assert [codec.decode_element(s) for s in reduced] == [
        {(0, (0, 0, 1)): 1, (2, (1, 0, 0)): p - 1},
        {(1, (0, 1, 0)): 1, (2, (1, 0, 0)): p - 1},
    ]
    assert [codec.decode(t) for t in leads] == [(0, (0, 0, 1)), (1, (0, 1, 0))]
    assert lead_degrees(gb, codec, leads) == [3, 3]


# -- packed terms -----------------------------------------------------------------


def pot_order(ring):
    """The module order the level-0 packed terms must reproduce, as a sort key."""
    return lambda term: (-term[0], ring.key(term[1]))


def schreyer_order(parent_key, parent_lts):
    """The order induced by parent lead terms: images first, lower index wins."""

    def key(term):
        i, m = term
        c, lm = parent_lts[i]
        return (parent_key((c, mono_mul(m, lm))), -i)

    return key


def _sign(a):
    return (a > 0) - (a < 0)


@st.composite
def packed_levels(draw):
    """A ring, a level (0-2) with its codec and reference key, and the number of
    components at that level.  Exponents are small, or scaled so that the
    images' degrees come close to MAX_DEGREE."""
    order = draw(st.sampled_from(["grevlex", "lex"]))
    nvars = draw(st.integers(1, 4))
    ring = GradedRing(F, tuple(f"x{i}" for i in range(nvars)), order)
    scale = draw(st.sampled_from([1, MAX_DEGREE // (4 * 3 * nvars)]))
    mono = st.tuples(*(st.integers(0, 3) for _ in range(nvars))).map(
        lambda m: tuple(scale * e for e in m)
    )
    n = draw(st.integers(1, 6))
    codec, key = Codec.pot(ring, (0,) * n), pot_order(ring)
    for _ in range(draw(st.integers(0, 2))):
        lts = draw(st.lists(st.tuples(st.integers(0, n - 1), mono), min_size=1, max_size=6))
        leads = [max(codec.encode({t: 1}, (0,) * n)) for t in lts]
        codec, key, n = codec.schreyer(leads), schreyer_order(key, lts), len(lts)
    return codec, key, n, mono


@given(packed_levels(), st.data())
def test_packed_terms_match_the_module_order(level, data):
    codec, key, n, mono = level
    twists = (0,) * n
    a = data.draw(st.tuples(st.integers(0, n - 1), mono))
    b = data.draw(st.tuples(st.integers(0, n - 1), mono))
    s = data.draw(mono)
    (ta,) = codec.encode({a: 1}, twists)
    (tb,) = codec.encode({b: 1}, twists)
    # encode then decode round-trips
    assert codec.decode(ta) == a and codec.decode(tb) == b
    # the ints' order is the module order
    assert _sign(ta - tb) == _sign((key(a) > key(b)) - (key(a) < key(b)))
    # multiplying by x^s adds shift(s)
    (tas,) = codec.encode({(a[0], mono_mul(a[1], s)): 1}, twists)
    assert ta + codec.shift(s) == tas
    assert codec.mono(codec.shift(s)) == s
    # the mask test is divisibility within a component
    (tb_in_a,) = codec.encode({(a[0], b[1]): 1}, twists)
    assert codec.divides(ta, tb_in_a) == mono_divides(a[1], b[1])
    assert codec.divides(ta, tas)


@given(packed_levels(), st.data())
def test_packed_add_scaled_matches_elements(level, data):
    codec, _, n, mono = level
    p = 7
    element = st.dictionaries(st.tuples(st.integers(0, n - 1), mono), st.integers(1, p - 1), max_size=6)
    src, target = data.draw(element), data.draw(element)
    s = data.draw(mono)
    coeff = data.draw(st.integers(1, p - 1))
    if src and data.draw(st.booleans()):
        # make the first product cancel against what target holds there
        (c, m), val = next(iter(src.items()))
        target[(c, mono_mul(m, s))] = (-coeff * val) % p
    twists = (0,) * n
    packed = codec.encode(target, twists)
    _add_scaled(packed, codec.encode(src, twists), codec.shift(s), coeff, p)
    elt_add_scaled(target, src, s, coeff, p)
    assert codec.decode_element(packed) == target


@given(st.data())
def test_top_terms_order_by_degree_then_grevlex_then_position(data):
    # any ring order: the layout is grevlex regardless
    order = data.draw(st.sampled_from(["grevlex", "lex"]))
    nvars = data.draw(st.integers(1, 4))
    ring = GradedRing(F, tuple(f"x{i}" for i in range(nvars)), order)
    n = data.draw(st.integers(1, 6))
    twists = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    scale = data.draw(st.sampled_from([1, MAX_DEGREE // (4 * 3 * nvars)]))
    mono = st.tuples(*(st.integers(0, 3) for _ in range(nvars))).map(
        lambda m: tuple(scale * e for e in m)
    )
    term = st.tuples(st.integers(0, n - 1), mono)
    a, b, s = data.draw(term), data.draw(term), data.draw(mono)
    codec = Codec.top(ring, twists)

    def key(t):
        c, m = t
        return (sum(m) + twists[c], tuple(-e for e in reversed(m)), -c)

    (ta,) = codec.encode({a: 1}, twists)
    (tb,) = codec.encode({b: 1}, twists)
    assert codec.decode(ta) == a and codec.decode(tb) == b
    assert codec.component(ta) == a[0]
    assert _sign(ta - tb) == _sign((key(a) > key(b)) - (key(a) < key(b)))
    (tas,) = codec.encode({(a[0], mono_mul(a[1], s)): 1}, twists)
    assert ta + codec.shift(s) == tas
    (tb_in_a,) = codec.encode({(a[0], b[1]): 1}, twists)
    assert codec.divides(ta, tb_in_a) == mono_divides(a[1], b[1])


@st.composite
def homogeneous_modules(draw):
    """A ring, row twists and homogeneous generators of a submodule of the free
    module, with q*e_i appended for each generator q of a drawn J: the columns
    over S of a module over S/J when J is nonzero."""
    order = draw(st.sampled_from(["grevlex", "lex"]))
    nvars = draw(st.integers(1, 3))
    ring = GradedRing(PrimeField(7), tuple(f"x{i}" for i in range(nvars)), order)
    n = draw(st.integers(1, 3))
    twists = tuple(draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)))
    coeff = st.integers(1, 6)

    def form(deg):
        monos = list(monomials_of_degree(nvars, deg))
        return draw(st.dictionaries(st.sampled_from(monos), coeff, max_size=4)) if monos else {}

    gens = []
    for d in draw(st.lists(st.integers(0, 4), min_size=1, max_size=6)):
        gens.append({(i, m): c for i, t in enumerate(twists) for m, c in form(d - t).items()})
    for q in [form(d) for d in draw(st.lists(st.integers(1, 3), max_size=2))]:
        gens += [{(i, m): c for m, c in q.items()} for i in range(n)]
    return ring, twists, gens


def _graph_input(ring, twists, gens):
    """The input `syzygies_of` hands `buchberger`: (gens_k | e_k) in the graph
    module, position over term."""
    heads = [g for g in gens if g]
    graph_twists = (*twists, *(int(elt_degree(h, twists)) for h in heads))
    codec = Codec.pot(ring, graph_twists)
    packed = []
    for k, h in enumerate(heads):
        g = codec.encode(h, graph_twists)
        g[codec.bases[len(twists) + k]] = 1
        packed.append(g)
    return codec, graph_twists, packed


@settings(deadline=None)  # a lex draw under the graph layout can take 300 ms
@given(homogeneous_modules(), st.sampled_from(["pot", "top", "graph"]))
def test_buchberger_leads_are_minimal(module, layout):
    ring, twists, gens = module
    if layout == "graph":
        codec, twists, packed = _graph_input(ring, twists, gens)
    else:
        codec = getattr(Codec, layout)(ring, twists)
        packed = [codec.encode(g, twists) for g in gens]
    p = ring.field.p
    basis, leads = buchberger(packed, codec, twists, p)
    assert leads == [max(g) for g in basis]
    by_comp = _index(codec, leads)
    for g in packed:
        assert not normal_form(g, basis, leads, by_comp, codec, p)[0]
    decoded = list(map(codec.decode, leads))
    for (c, a), (d, b) in combinations(decoded, 2):
        assert c != d or not (mono_divides(a, b) or mono_divides(b, a)), (a, b)
    # the elements joined in nondecreasing module degree
    degrees = [mono_deg(m) + twists[c] for c, m in decoded]
    assert degrees == sorted(degrees)


def _over_order(pres, order):
    ring = GradedRing(pres.ring.field, pres.ring.variables, order)
    matrix = [[Polynomial(ring, f.terms) for f in row] for row in pres.matrix]
    return validate_presentation(ring, pres.row_twists, matrix, pres.column_degrees)


def test_lex_resolutions_have_the_grevlex_betti_tables():
    # Betti numbers do not depend on the monomial order.  Resolutions run
    # degree first whatever the ring's order; the graph colon keeps the ring's
    # order, so the lex layout of the packed terms is exercised there
    differ = 0
    for trial in range(40):
        pres = _acceptance_box_module(trial)
        lex = _over_order(pres, "lex")
        assert lex.ring.order == "lex"
        assert betti_numbers(lex) == betti_numbers(pres)
        cols, lex_cols = presentation_elements(pres), presentation_elements(lex)
        syz = syzygies_of(cols, pres.ring, pres.row_twists)
        lex_syz = syzygies_of(lex_cols, lex.ring, lex.row_twists)
        assert lex_syz.codec.sign == 1 and syz.codec.sign == -1
        differ += lex_syz.elements != syz.elements
    assert differ  # the two orders do give different reduced bases


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_degree_overflow_is_refused(order):
    ring = GradedRing(F, ("x", "y", "z"), order)
    x, y, _ = ring.gens()
    too_big = Polynomial(ring, {(MAX_DEGREE + 1, 0, 0): 1})
    at_limit = Polynomial(ring, {(MAX_DEGREE, 0, 0): 1})
    t0 = time.perf_counter()
    # an entry past the limit, on input
    with pytest.raises(DegreeOverflow):
        regularity(validate_presentation(ring, (0,), ((too_big, y),)))
    # entries within it whose S-pair is not, at level 0 and at the syzygies
    with pytest.raises(DegreeOverflow):
        groebner([poly_element(at_limit), poly_element(y * y)], ring, (0,))
    with pytest.raises(DegreeOverflow):
        regularity(validate_presentation(ring, (0,), ((at_limit, y * y),)))
    with pytest.raises(DegreeOverflow):
        syzygies_of([poly_element(at_limit), poly_element(y * y)], ring, (0,))
    # a Koszul complex whose first syzygies fit and whose second ones do not
    a = MAX_DEGREE * 3 // 8
    powers = [Polynomial(ring, {e: 1}) for e in ((a, 0, 0), (0, a, 0), (0, 0, a))]
    with pytest.raises(DegreeOverflow):
        regularity(validate_presentation(ring, (0,), (powers,)))
    assert time.perf_counter() - t0 < 10
    # the limit itself is fine
    assert regularity(validate_presentation(ring, (0,), ((at_limit,),))) == MAX_DEGREE - 1


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("low", [-4, 3])
def test_top_limit_is_max_degree_above_the_smallest_twist(order, low):
    """The degree-first layout holds module degrees up to MAX_DEGREE above the
    smallest twist, whichever its sign, and refuses one degree more."""
    ring = GradedRing(F, ("x", "y"), order)
    twists = (low + 3, low)
    codec = Codec.top(ring, twists)
    codec.check(MAX_DEGREE + low)
    with pytest.raises(DegreeOverflow):
        codec.check(MAX_DEGREE + low + 1)
    # an entry on e_0, twisted 3 above the smallest, at the limit and past it
    at_limit = {(0, (MAX_DEGREE - 5, 2)): 1}
    assert groebner([at_limit], ring, twists).lts == list(at_limit)
    with pytest.raises(DegreeOverflow):
        groebner([{(0, (MAX_DEGREE - 4, 2)): 1}], ring, twists)


def test_top_layout_is_built_once_per_shape():
    """`Codec.top` is cached by (number of variables, twists): it equals the
    layout built here, `pot` of the grevlex line and then its Schreyer level,
    for every shape, and rings that share the variable count share it."""
    shapes = [(0,), (0, 0), (2, 2, -1), (-3, 0, -3, 1), (1, 0, 1, 1, -2), (4, 0)]
    for nvars in range(1, 5):
        names = tuple(f"x{j}" for j in range(nvars))
        grevlex, lex = GradedRing(F, names), GradedRing(PrimeField(7), names, "lex")
        for twists in shapes:
            low = min(twists)
            line = Codec.pot(grevlex, (low,))
            want = line.schreyer(
                [line.bases[0] + ((t - low) << (FIELD * nvars)) for t in twists]
            )
            got = Codec.top(grevlex, twists)
            for name in Codec._fields:
                assert getattr(got, name) == getattr(want, name), (nvars, twists, name)
            assert Codec.top(grevlex, list(twists)) is got
            assert Codec.top(lex, twists) is got
    assert groebner_module._top_layout.cache_info().maxsize == CACHE_SIZE


# -- scoped memo ---------------------------------------------------------------


@pytest.fixture
def buchberger_runs(monkeypatch):
    """A list that grows by the codec of each Buchberger run."""
    runs = []
    original = groebner_module.buchberger

    def counting(gens, codec, *args):
        runs.append(codec)
        return original(gens, codec, *args)

    monkeypatch.setattr(groebner_module, "buchberger", counting)
    return runs


def _memo_inputs():
    """One `groebner` input and one `syzygies_of` input with tails."""
    gens = [poly_element(f) for f in (x * y, y * z, x * x - z * z)]
    heads = [poly_element(f) for f in (x, y)]
    tails = [poly_element(x * z), poly_element(y * y)]
    return (
        lambda: groebner(gens, R3, (0,)),
        lambda: syzygies_of(heads, R3, (0,), tails=tails),
    )


def test_memo_runs_buchberger_once_per_input_in_a_scope(buchberger_runs):
    call = _memo_inputs()[0]
    with memo_scope():
        first = call()
        assert call() is first
    assert len(buchberger_runs) == 1


def test_syzygies_of_runs_buchberger_on_every_call_in_a_scope(buchberger_runs):
    """The memo holds `groebner`'s runs only: the graph colon is built anew."""
    call = _memo_inputs()[1]
    with memo_scope():
        first, second = call(), call()
    assert first is not second and first.basis == second.basis
    assert len(buchberger_runs) == 2


@pytest.mark.parametrize("which", [0, 1], ids=["groebner", "syzygies_of"])
def test_memo_is_off_outside_a_scope(which, buchberger_runs):
    call = _memo_inputs()[which]
    assert _MEMO.get() is None
    first, second = call(), call()
    assert first is not second and first.basis == second.basis
    assert len(buchberger_runs) == 2


def test_memo_is_dropped_when_the_scope_exits(buchberger_runs):
    call = _memo_inputs()[0]
    with memo_scope():
        call()
    assert _MEMO.get() is None
    with pytest.raises(RuntimeError):
        with memo_scope():
            call()
            raise RuntimeError("leave the scope")
    assert _MEMO.get() is None
    with memo_scope():
        call()
    assert len(buchberger_runs) == 3


def test_nested_scope_reuses_the_outer_one(buchberger_runs):
    gb_call, syz_call = _memo_inputs()
    with memo_scope():
        outer = _MEMO.get()
        gb = gb_call()
        with memo_scope():
            assert _MEMO.get() is outer
            assert gb_call() is gb
            syz = syz_call()
        assert _MEMO.get() is outer  # the inner exit keeps the outer memo
        again = syz_call()
        assert again is not syz and again.basis == syz.basis
    assert _MEMO.get() is None
    assert len(buchberger_runs) == 3


def test_saturation_round_and_regularity_share_one_degree_first_run(monkeypatch):
    """S/(x^2, xy) in one scope: the Hilbert numerator, the saturation rounds,
    regularity's walk and the Betti table read one Buchberger run on U's
    columns.  x and y both divide a lead term of U, but (U : y^oo) / U =
    (x) / (x^2, xy) has finite length, so the first round builds no graph
    colon: it runs position over term on the one quotient xy / y = x whose
    lead term is minimal in (x^2, x).  Besides these run only the
    degree-first run on U^sat = (x), whose free variable y confirms the
    second round."""
    runs = []
    original = groebner_module.buchberger

    def recording(gens, codec, *args):
        runs.append((codec, [codec.decode_element(g) for g in gens]))
        return original(gens, codec, *args)

    monkeypatch.setattr(groebner_module, "buchberger", recording)
    pres = validate_presentation(R2, (0,), [[u * u, u * v]], (2, 2))
    cols = presentation_elements(pres)
    with memo_scope():
        hilbert_numerator(pres)
        h0_profile(pres)
        regularity(pres)
        betti_numbers(pres)
    top = Codec.top(R2, (0,))
    assert [gens for _, gens in runs].count(cols) == 1
    assert runs[0] == (top, cols)
    assert runs[1] == (Codec.pot(R2, (0,)), [{(0, (1, 0)): 1}])
    assert runs[2] == (top, [{(0, (1, 0)): 1}])
    assert len(runs) == 3


def test_h0_profile_and_regularity_read_one_run_outside_a_scope(buchberger_runs):
    """Each opens its own scope.  On S/(x^2, xy) h0_profile's numerator and
    its first round read one run of U's columns, and its second round one of
    U^sat = (x); the first round is position over term (see the test above).
    S/(xy) in x, y, z has an uncertified walk (the step at y), so regularity
    falls back to the Betti table, whose resolution reads the walk's run."""
    assert _MEMO.get() is None
    h0_profile(validate_presentation(R2, (0,), [[u * u, u * v]], (2, 2)))
    assert len(buchberger_runs) == 3
    buchberger_runs.clear()
    assert regularity(validate_presentation(R3, (0,), [[x * y]])) == 1
    assert buchberger_runs == [Codec.top(R3, (0,))]
    assert _MEMO.get() is None


def test_memoised_bases_equal_fresh_ones_after_section_check(monkeypatch):
    """Every basis or lead-term set the memo hands out during section_check,
    and every graph colon built beside it, still equals a fresh computation
    from the same input: no caller mutated a shared result.  The memo holds
    `groebner`'s runs only, keyed by (ring, twists, gens) with no kind."""
    calls = []
    for name in ("groebner", "syzygies_of"):
        original = getattr(groebner_module, name)

        def recording(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            calls.append((_original, copy.deepcopy((args, kwargs)), result))
            return result

        for module in (groebner_module, invariants_module, modops_module):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, recording)

    modules = _criterion_4_modules()
    rng = random.Random(2025)
    memoised, keys = {}, set()
    # S/(y I) builds a graph colon, so `syzygies_of` is recorded too
    for pres in modules[:4] + modules[25:29] + _last_variable_multiples()[1:2]:
        with memo_scope():
            section_check(pres, random_section_form(pres, rng))
            memoised.update((id(gb), gb) for gb in _MEMO.get().values())
            keys.update(_MEMO.get())
    assert len(calls) > len(memoised) > 0  # the memo was hit
    assert {original.__name__ for original, _, _ in calls} == {"groebner", "syzygies_of"}
    assert all(len(key) == 3 and isinstance(key[0], GradedRing) for key in keys)

    handed_out = {id(result) for original, _, result in calls if original.__name__ == "groebner"}
    assert set(memoised) <= handed_out
    for original, (args, kwargs), result in calls:
        fresh = original(*args, **kwargs)
        assert fresh.row_twists == result.row_twists
        assert fresh.leads == result.leads
        assert fresh.basis == result.basis
        assert fresh.elements == result.elements
