import random
from itertools import combinations

import pytest

from cmreg import groebner as groebner_module
from cmreg.core import (
    GradedRing,
    Polynomial,
    PrimeField,
    mono_deg,
    mono_div,
    mono_lcm,
    validate_presentation,
)
from cmreg.groebner import (
    GroebnerBasis,
    autoreduce,
    column_element,
    elements_to_matrix,
    elt_add_scaled,
    groebner,
    normal_form,
    poly_element,
    pot_key,
    presentation_elements,
    quotient_groebner,
    reduce_poly,
    schreyer_key,
    schreyer_resolution,
    schreyer_syzygies,
    syzygies_of,
)
from cmreg.modops import sym_power
from test_invariants import _acceptance_box_module

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
    assert gb.reduces_to_zero(poly_element(x - y))
    assert gb.reduces_to_zero(poly_element(x - z))
    assert not gb.reduces_to_zero(poly_element(z))


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
        assert sgb.reduces_to_zero(k)


def test_syzygies_catch_zero_generator():
    gens = [poly_element(x), {}, poly_element(y)]
    syz = syzygies_of(gens, R3, (0,))
    assert any(s == {(1, (0, 0, 0)): 1} for s in syz)


def test_schreyer_resolution_koszul():
    pres = validate_presentation(R3, (0,), ((x, y, z),))
    res = schreyer_resolution(pres)
    assert res.twists == [(0,), (1, 1, 1), (2, 2, 2), (3,)]
    assert res.length == 3


def compose(mat_big, mat_small, ring):
    """Matrix product d_k * d_{k+1}: entry (i, l) = sum_j big[i][j] * small[j][l]."""
    rows = len(mat_big)
    mid = len(mat_small)
    cols = len(mat_small[0]) if mid else 0
    out = []
    for i in range(rows):
        row = []
        for l in range(cols):
            acc = ring.zero()
            for j in range(mid):
                acc = acc + mat_big[i][j] * mat_small[j][l]
            row.append(acc)
        out.append(row)
    return out


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
        assert gb.reduces_to_zero(col)


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
    assert column_element(pres, 0) == elts[0]


# -- Schreyer syzygies against the all-pairs reference ----------------------------


def all_pairs_syzygies(gb):
    """Reference for schreyer_syzygies: reduce every pair in a component, then
    autoreduce."""
    p = gb.ring.field.p
    skey = schreyer_key(gb.key, gb.lts)
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
        syz.append(rel)
    lts = [max(s, key=skey) for s in syz]
    basis, lts, _ = autoreduce(syz, lts, [None] * len(syz), skey, p)
    degs = gb.element_degrees()
    return basis, [mono_deg(m) + degs[c] for c, m in lts], len(syz)


def assert_matches_all_pairs(gb):
    basis, degrees, _ = schreyer_syzygies(gb)
    ref_basis, ref_degrees, pairs = all_pairs_syzygies(gb)
    assert basis == ref_basis
    assert degrees == ref_degrees
    return len(basis), pairs


def resolution_levels(pres):
    """The Groebner bases schreyer_resolution takes syzygies of, level by level."""
    current = groebner(presentation_elements(pres), pres.ring, pres.row_twists)
    while current.elements:
        yield current
        syz, _, skey = schreyer_syzygies(current)
        current = GroebnerBasis(
            ring=pres.ring,
            row_twists=tuple(current.element_degrees()),
            key=skey,
            elements=syz,
            lts=[max(s, key=skey) for s in syz],
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


def test_schreyer_syzygies_of_a_tracked_basis():
    # the basis syzygies_of builds: tracked, over random generators
    for seed in range(6):
        rng = random.Random(seed)
        twists = (0, 1)
        gens = []
        for _ in range(rng.randint(2, 4)):
            d = rng.randint(1, 2)
            g = {}
            for i, t in enumerate(twists):
                for m, c in random_homogeneous(R3, d + t, rng).terms.items():
                    g[(i, m)] = c
            gens.append(g)
        gb = groebner(gens, R3, twists, track=True)
        assert gb.reps is not None
        assert_matches_all_pairs(gb)


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
        pair_reductions += basis is gb.elements
        return normal_form(v, basis, *args, **kwargs)

    monkeypatch.setattr(groebner_module, "normal_form", counting_normal_form)
    basis, degrees, _ = schreyer_syzygies(gb)
    assert pair_reductions == 2  # the (xy, yz) pair is never reduced
    p = F.p
    assert basis == [
        {(0, (0, 0, 1)): 1, (2, (1, 0, 0)): p - 1},
        {(1, (0, 1, 0)): 1, (2, (1, 0, 0)): p - 1},
    ]
    assert degrees == [3, 3]
