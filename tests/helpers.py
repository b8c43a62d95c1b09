"""Small builders shared by the test modules."""

from cmreg.core import validate_presentation
from cmreg.groebner import Codec, GroebnerBasis, autoreduce, buchberger
from cmreg.invariants import numerator_of_gb


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
    position over term in the ring's own order: the basis `syzygies_of` and
    `quotient_groebner` return, built here from `buchberger` directly."""
    codec, p = Codec.pot(ring, twists), ring.field.p
    packed = [codec.encode(g, twists) for g in gens]
    basis, leads = autoreduce(*buchberger(packed, codec, twists, p), codec, p)
    return GroebnerBasis(ring=ring, row_twists=tuple(twists), codec=codec, basis=basis, leads=leads)
