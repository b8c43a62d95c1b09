"""Small builders shared by the test modules."""

from operator import add

from cmreg.core import NEG_INF, ZeroModule, validate_presentation
from cmreg.groebner import Codec, GroebnerBasis, autoreduce, buchberger
from cmreg.invariants import _cut, lead_torsion, numerator_of_gb


def elt_add_scaled(target, src, mono, coeff, p):
    """target += coeff * x^mono * src, in place, coefficients mod p, on
    `Element`s: the oracle of the engine's packed `groebner._add_scaled`."""
    get = target.get
    for (c, m), val in src.items():
        t = (c, tuple(map(add, m, mono)))
        nv = (get(t, 0) + coeff * val) % p
        if nv:
            target[t] = nv
        elif t in target:
            del target[t]


def cyclic(ring, polys):
    """S/(polys) presented with a single generator in degree 0."""
    return validate_presentation(ring, (0,), [list(polys)])


def twisted(pres, s):
    """M[s]: every twist and column degree raised by s, so reg M[s] = reg M + s."""
    return validate_presentation(
        pres.ring,
        tuple(t + s for t in pres.row_twists),
        [list(row) for row in pres.matrix],
        tuple(d + s for d in pres.column_degrees),
    )


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


def same_module(a, b):
    """Whether two Groebner bases, in any module orders, generate one
    submodule of one free module: equal twists and Hilbert numerators, and
    every element of each reduces to zero modulo the other."""
    return (
        a.row_twists == b.row_twists
        and numerator_of_gb(a) == numerator_of_gb(b)
        and not any(b.normal_form(v)[0] for v in a.elements)
        and not any(a.normal_form(v)[0] for v in b.elements)
    )


def reduced_basis(gens, ring, twists):
    """The reduced Groebner basis of the submodule the elements generate,
    position over term (grevlex, as every run): the basis `syzygies_of`
    returns, built here from `buchberger` directly."""
    codec, p = Codec.pot(ring, twists), ring.field.p
    packed = [codec.encode(g, twists) for g in gens]
    basis, leads = autoreduce(*buchberger(packed, codec, twists, p), codec, p)
    return GroebnerBasis(ring=ring, row_twists=tuple(twists), codec=codec, basis=basis, leads=leads)


def whole_module_walk(ideals, twists, k, nvars):
    """The filter-regular walk run on the whole module at once, one cut of
    every component per step, as `invariants._filter_regular_walk` ran before
    it split over the components: the oracle for that split."""
    unit = (0,) * nvars
    if all(unit in monos for monos in ideals):
        raise ZeroModule("regularity of the zero module")
    reg = NEG_INF
    depth = None
    for i in range(k + 1):
        x = k - 1 - i
        cut = _cut(ideals, k - i, nvars)
        if x < 0 or any(m[x] for monos in cut for m in monos):
            saturated, hd = lead_torsion(cut, twists, x, nvars)
            if hd.length is None:
                return None
            finite = all(unit in monos for monos in saturated)
            h0 = hd.q_polynomial
            if h0:
                reg = max(reg, max(h0))
                depth = i if depth is None else depth
            if finite:
                return int(reg), depth
