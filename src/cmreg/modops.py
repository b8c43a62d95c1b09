"""Module operations: linear quotients, colon kernels, section functors
(saturation / degree profiles of the finite-length part), symmetric powers,
Fitting ideals, presentation minimalization, and dense degreewise linear
algebra used as an independent cross-check.  `colon` is the one graph-colon
routine: `colon_kernel` and each saturation round that the degree-first basis
does not certify call it.  Units are cancelled by `invariants.cancel_units`,
which also minimalizes resolutions.  The flagged zero module runs through each
operation's general path.

The torsion K = (0 :_M l) of a linear form is read off one degree-first run
of M in coordinates where l = x_v (`_adapted_run`).  With L its lead terms,
the exact sequence 0 -> K(-1) -> M(-1) -> M -> M/lM -> 0 gives
t N(K) = N(L + x_v F) - (1 - t) N(L) for every l, with no certificate.
`torsion_hilbert` returns that K.  A tower of forms is one run, in which
they span the last variables: each level M/(l_1..l_i)M is a cut of L
(`invariants._cut`).  `verify.random_tower` draws each form by its torsion on
that cut, and `verify.tower_check` reads the torsion and the walk on it
(`invariants._filter_regular_walk`).  A `DegreeOverflow` from the run is
final, as it is in `regularity`.
`colon_kernel` presents K by the graph colon and is kept as the independent
route.

`h0_profile` saturates by rounds, and both certificates live in the round
(`colon_with_irrelevant`), read off the lead terms of U's degree-first basis,
the module's one `groebner` run.  A variable that divides no lead term is a
nonzerodivisor on F/U, so the round confirms U.  Otherwise, when
(U : x_v^oo) / U has finite length, U : x_v^oo is U^sat, and the round
divides the basis by the powers of x_v in its lead terms; a module of finite
length is settled so, with U^sat = F.  Only a round that neither certifies
builds a graph colon.

`verify.section_check` reads the columns it compares with H0(M) off the same
lead terms L (`_section_columns`): K, H0(M/lM), H0(M'/lM') and reg(M/lM),
with M' = M/H0(M).  K needs no certificate.  Each of the others is a step of
the regularity walk, and a step that is not certified falls back to
`h0_profile` or `regularity` of that quotient.  H0(M) itself stays on
`h0_profile`'s rounds, in the original coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Callable, NamedTuple

from .core import (
    AlgebraError,
    GradedPresentation,
    GradedRing,
    Mono,
    NEG_INF,
    Polynomial,
    dense_rank,
    free_presentation,
    mono_mul,
    monomials_of_degree,
)
from .groebner import (
    Codec,
    Element,
    GroebnerBasis,
    elements_to_matrix,
    elt_degree,
    groebner,
    memo_scope,
    presentation_elements,
    reduced_groebner,
    syzygies_of,
)
from .invariants import (
    HilbertData,
    _cut,
    _filter_regular_walk,
    _numerator_of_components,
    cancel_units,
    hilbert_from_numerator,
    lead_ideals,
    lead_torsion,
    numerator_of_cokernel,
    numerator_of_gb,
    tp_shift,
    tp_sub,
)


def _check_linear(pres: GradedPresentation, l: Polynomial) -> None:
    if l.ring != pres.ring.base:
        raise AlgebraError("form must live in the ambient polynomial ring")
    if l.is_zero() or not l.is_homogeneous() or l.degree() != 1:
        raise AlgebraError("expected a nonzero linear form")


def quotient_by_linear(pres: GradedPresentation, l: Polynomial) -> GradedPresentation:
    """M / l*M, presented by appending the columns l*e_i.  Graded by
    construction from a valid presentation and a checked linear form: the old
    columns are copied and the column l*e_i has degree a_i + 1, so the result
    is assembled without being validated again."""
    _check_linear(pres, l)
    if pres.is_zero_module:
        return pres
    zero = pres.ring.base.zero()
    matrix = tuple(
        (*row, *(l if r == i else zero for i in range(pres.n)))
        for r, row in enumerate(pres.matrix)
    )
    degrees = (*pres.column_degrees, *(a + 1 for a in pres.row_twists))
    return GradedPresentation(pres.ring, pres.row_twists, matrix, degrees)


def colon(
    ring: GradedRing, row_twists, columns: list[Element], forms: tuple[Polynomial, ...]
) -> GroebnerBasis:
    """Reduced Groebner basis of {v : f * v in <columns> for every f in forms}:
    one block of rows per form, v stacked as (f_1 v | ... | f_k v).

    The forms must share one degree d (every caller passes linear forms).  The
    stacked rows are twisted down by d, so the e-block of `syzygies_of` gets
    exactly `row_twists` and its basis is the answer as it stands; a uniform
    shift keeps the pair order, the packed terms and the overflow checks."""
    n, k = len(row_twists), len(forms)
    d = forms[0].degree()
    heads = [
        {(t * n + i, m): c for t, f in enumerate(forms) for m, c in f.terms.items()}
        for i in range(n)
    ]
    tails = [
        {(c + t * n, m): val for (c, m), val in col.items()}
        for col in columns
        for t in range(k)
    ]
    return syzygies_of(heads, ring, tuple(a - d for a in row_twists) * k, tails=tails)


def _has_free_variable(gb: GroebnerBasis) -> bool:
    """Whether some variable divides no lead term of gb."""
    return any(not any(m[x] for _, m in gb.lts) for x in range(gb.ring.nvars))


def _saturate_by_last_variable(gb: GroebnerBasis, saturated: list[frozenset]) -> GroebnerBasis:
    """The reduced Groebner basis, position over term, of U : x_v^oo from U's
    degree-first basis gb, given in(U) : x_v^oo per component.

    Under `Codec.top` a homogeneous g with x_v^k | lt(g) is divisible by x_v^k,
    so the quotients g / x_v^k, k the x_v exponent of lt(g), are a Groebner
    basis of U : x_v^oo (Bayer-Stillman 1987).  Dividing moves every packed
    term by -k times x_v's weight.  Only the quotients whose lead terms are
    minimal generators of in(U) : x_v^oo are kept; they are still a Groebner
    basis.  A reduced basis is unique, so this is the one the graph colon
    gives for the same module."""
    ring, twists, codec = gb.ring, gb.row_twists, gb.codec
    weight, last = codec.weights[-1], ring.nvars - 1
    pot = Codec.pot(ring, twists)
    gens = []
    for g, (c, m) in zip(gb.basis, gb.lts):
        if m[:last] + (0,) in saturated[c]:
            shift = m[last] * weight
            quotient = codec.decode_element({t - shift: val for t, val in g.items()})
            gens.append(pot.encode(quotient, twists))
    return reduced_groebner(gens, pot, ring, twists)


def colon_with_irrelevant(
    ring: GradedRing, row_twists, columns: list[Element]
) -> GroebnerBasis:
    """One saturation round on the module U the columns generate: a Groebner
    basis of some W with U : m <= W <= U^sat, m the irrelevant ideal.

    The round reads U's own basis first, the degree-first run that the scope
    shares with the module's Hilbert numerator and `invariants.regularity`,
    and holds two certificates.
    - When some variable x divides no lead term there, x f in U with f in
      normal form would give x lt(f) = lt(x f) in in(U), so lt(f) in in(U):
      x is a nonzerodivisor on F/U and U : m = U (Eisenbud, "The Geometry of
      Syzygies", ch. 4).  The answer is that basis.
    - Otherwise, when (U : x_v^oo) / U has finite length, read off the lead
      terms (`invariants.lead_torsion`), it is H^0_m(F/U) and U : x_v^oo is
      U^sat (Bermejo-Gimenez, "Saturation and Castelnuovo-Mumford
      regularity", 2006).  The answer is its reduced basis, position over
      term (`_saturate_by_last_variable`), with no graph colon.
    Otherwise the graph colon gives U : m, position over term."""
    gb = groebner(columns, ring, row_twists)
    if _has_free_variable(gb):
        return gb
    ideals = lead_ideals(gb.lts, len(gb.row_twists))
    saturated, torsion = lead_torsion(ideals, gb.row_twists, ring.nvars - 1, ring.nvars)
    if torsion.length is not None:
        return _saturate_by_last_variable(gb, saturated)
    return colon(ring, row_twists, columns, ring.gens())


def _presented(ring: GradedRing, twists, elements: list[Element]) -> GradedPresentation:
    """The minimal presentation of the cokernel of these homogeneous elements
    of the free module with the given twists; zero elements are dropped."""
    elements = [v for v in elements if v]
    matrix = elements_to_matrix(elements, len(twists), ring.base)
    degrees = tuple(int(elt_degree(v, twists)) for v in elements)
    return minimal_presentation(GradedPresentation(ring, twists, matrix, degrees))


def colon_kernel(
    pres: GradedPresentation, l: Polynomial
) -> tuple[GradedPresentation, int | None]:
    """(presentation of K = (0 :_M l), its length or None when infinite), by
    the graph colon: W = (U :_F l) from `colon`, K = W/U presented by the
    relations of W's basis modulo U.  Its length reads the numerators of U
    and W; `torsion_hilbert`, the library's own route, shares at most U's run
    with it (when l = x_v), and W, the presentation of K and K's series are
    built apart from it, so it serves as its oracle."""
    _check_linear(pres, l)
    base, a = pres.ring.base, pres.row_twists
    cols = presentation_elements(pres)
    w = colon(base, a, cols, (l,))
    n_k = tp_sub(numerator_of_cokernel(base, a, cols), numerator_of_gb(w))
    lam = hilbert_from_numerator(n_k, base.nvars).length
    rels = syzygies_of(w.elements, w.ring, w.row_twists, tails=cols)
    return _presented(pres.ring, rels.row_twists, rels.elements), lam


@dataclass
class H0Profile:
    """Degreewise sizes of the finite-length part (sections supported at the
    irrelevant ideal)."""

    h0_by_degree: dict[int, int]
    a0: int | float  # top degree of the finite part, -inf when it vanishes
    indeg_h0: int | None
    a_span: int


@memo_scope()
def h0_profile(pres: GradedPresentation) -> tuple[H0Profile, GradedPresentation]:
    """Profile of the finite-length part of M plus a presentation of M' = M/H0,
    obtained by saturating U, the column module over S, with the irrelevant
    ideal m.

    A round replaces U by some W with U :_F m <= W <= U^sat until the
    Hilbert numerator stops changing, which ends at U^sat.  The round itself
    settles the cases it can certify (`colon_with_irrelevant`), with no graph
    colon.  A variable free of U's degree-first lead terms confirms U, so a
    saturated U costs one round.  When (U : x_v^oo) / U has finite length,
    the round answers U^sat at once, and the next round confirms it; for M of
    finite length that is F, whose reduced basis is the unit vectors e_i.
    Either way the presentation of M' is built from the reduced basis of
    U^sat, position over term, or from U's own columns when U is saturated,
    as the graph colon's rounds give it.  It runs in one memo scope, so its
    own numerator and its first round read one run of U.

    H0's series is read and checked by `invariants.hilbert_from_numerator`.
    """
    base, a = pres.ring.base, pres.row_twists
    cur = presentation_elements(pres)
    n_u = cur_n = numerator_of_gb(groebner(cur, base, a))
    while True:
        gb = colon_with_irrelevant(base, a, cur)
        n_big = numerator_of_gb(gb)
        if n_big == cur_n:
            break
        cur, cur_n = gb.elements, n_big

    hd = hilbert_from_numerator(tp_sub(n_u, cur_n), base.nvars)
    if hd.length is None:
        raise AlgebraError("H0 of infinite length")
    h0 = hd.q_polynomial

    if h0:
        a0: int | float = max(h0)
        indeg: int | None = min(h0)
        span = int(a0) - indeg + 1
    else:
        a0, indeg, span = NEG_INF, None, 0

    return H0Profile(h0, a0, indeg, span), _presented(pres.ring, a, cur)


# -- the torsion of linear forms, in adapted coordinates ------------------------------


def _adapted_coordinates(l: Polynomial, v: int) -> Callable[[Element], Element] | None:
    """A linear change of coordinates phi of S with phi(l) = x_v modulo the
    variables after x_v, applied to elements of a free module; None when l
    lies in their ideal.  For l = sum c_j x_j it sends x_k to
    (x_v - sum_{j <= v, j != k} c_j x_j) / c_k and fixes every other variable,
    with k = v when c_v != 0; otherwise k is the last variable before x_v that
    l involves, and x_v goes to x_k.  v counts from 0."""
    ring, gens = l.ring, l.ring.gens()
    p = ring.field.p
    coeff = [0] * ring.nvars
    for m, c in l.terms.items():
        coeff[m.index(1)] = c
    involved = [j for j in range(v + 1) if coeff[j]]
    if not involved:
        return None
    k = involved[-1]
    inv = ring.field.inv(coeff[k])
    image = sum((gens[j] * -coeff[j] for j in involved[:-1]), gens[v]) * inv
    powers = [ring.one()]

    def apply(elt: Element) -> Element:
        out: Element = {}
        for (c, m), val in elt.items():
            fixed = list(m)
            fixed[k], fixed[v] = m[v], 0
            while len(powers) <= m[k]:
                powers.append(powers[-1] * image)
            for pm, pc in powers[m[k]].terms.items():
                term = (c, mono_mul(fixed, pm))
                out[term] = (out.get(term, 0) + val * pc) % p
        return {t: c for t, c in out.items() if c}

    return apply


def _adapted_run(pres: GradedPresentation, forms) -> tuple[list[frozenset], list[int]]:
    """(L per component, the variables left uncut on each level
    M_i = M/(l_1..l_i)M), off one degree-first run.  `_adapted_coordinates`
    sends each form in turn to the last variable not yet cut, modulo the cut
    ones, moving M's columns over S (J's generators among them) and the later
    forms; a form in the span of the earlier ones cuts nothing.  Under
    `Codec.top`, in(U' + (x_{k+1}..x_v)F) = L + (x_{k+1}..x_v)F for the moved
    columns U' (Bayer-Stillman 1987), so M_i has the numerator of the cut of
    L at the variables left on level i (`invariants._cut`); `_cut_torsion`
    reads the torsion of each form off two consecutive cuts.  The columns
    l e_j have degree a_j + 1, so the run refuses with `DegreeOverflow` where
    their own run would.  With one form l = x_v it is M's own run."""
    for l in forms:
        _check_linear(pres, l)
    base, a = pres.ring.base, pres.row_twists
    cols = presentation_elements(pres)
    later = [{(0, m): c for m, c in l.terms.items()} for l in forms]
    left = [base.nvars]
    for i, form in enumerate(later):
        l = Polynomial(base, {m: c for (_, m), c in form.items()})
        phi = _adapted_coordinates(l, left[-1] - 1)
        if phi is not None:
            cols = [phi(col) for col in cols]
            later[i + 1 :] = map(phi, later[i + 1 :])
        left.append(left[-1] - (phi is not None))
    gb = groebner(cols, base, a)
    gb.codec.check(max(a, default=0) + 1)
    return lead_ideals(gb.lts, len(a)), left


def _cut_torsion(
    pres: GradedPresentation, ideals: list[frozenset], left: list[int]
) -> list[HilbertData]:
    """The Hilbert data of K_i = (0 :_{M_i} l_{i+1}) for each pair of
    consecutive levels in `left`, off the cuts J_i of an adapted run's L
    (`_adapted_run`): t N(K_i) = N(J_{i+1}) - (1 - t) N(J_i), from the exact
    sequence 0 -> K_i(-1) -> M_i(-1) -> M_i -> M_{i+1} -> 0, with no
    certificate.  A form that cuts nothing has K_i = M_i.  A caller that
    reads one level passes its two entries of `left` alone."""
    a, nvars = pres.row_twists, pres.ring.base.nvars
    nums = [_numerator_of_components(_cut(ideals, k, nvars), a) for k in left]
    return [
        hilbert_from_numerator(tp_shift(tp_sub(cut, tp_sub(n, tp_shift(n, 1))), -1), nvars)
        for n, cut in zip(nums, nums[1:])
    ]


def torsion_hilbert(pres: GradedPresentation, l: Polynomial) -> HilbertData:
    """Hilbert data of K = (0 :_M l), off the lead terms of M's run in
    coordinates where l = x_v (`_adapted_run`); K is not presented.  The
    library reads `_adapted_run` itself; this is its single-form reader."""
    return _cut_torsion(pres, *_adapted_run(pres, [l]))[0]


class _SectionColumns(NamedTuple):
    """What `_section_columns` reads off one run; a column is None where its
    step is not certified, and every column but K is None when K has infinite
    length."""

    torsion: HilbertData
    h0_bar: dict[int, int] | None
    h0_bar_prime: dict[int, int] | None
    reg_bar: int | None


def _section_columns(pres: GradedPresentation, l: Polynomial) -> _SectionColumns:
    """K = (0 :_M l), H0(M/lM), H0(M'/lM') and reg(M/lM), M' = M/H0(M), from
    the lead terms L of the run `torsion_hilbert` reads (`_adapted_run`).

    A graded automorphism of S keeps every H0 and regularity, and under
    `Codec.top` in(W : x_v^oo) = in(W) : x_v^oo for every W (Bayer-Stillman
    1987), so:
    - when K has finite length, l is filter-regular on M, so U' : x_v^oo is
      U'^sat (Bermejo-Gimenez 2006) and M' = F / (U' : x_v^oo);
    - H0(M/lM) and H0(M'/lM') are the walk's step at x_{v-1} on L + x_v F and
      on (L : x_v^oo) + x_v F (`invariants.lead_torsion`), certified when the
      part has finite length;
    - reg(M/lM) is the walk on the cut below x_v
      (`invariants._filter_regular_walk`), M/lM being a module over S/(x_v),
      with no reg + pd refusal of its own."""
    ideals, left = _adapted_run(pres, [l])
    (torsion,) = _cut_torsion(pres, ideals, left)
    if torsion.length is None:
        return _SectionColumns(torsion, None, None, None)
    a, nvars = pres.row_twists, pres.ring.base.nvars
    last = nvars - 1
    saturated, _ = lead_torsion(ideals, a, last, nvars)
    h0_bar, h0_bar_prime = (
        None if hd.length is None else hd.q_polynomial
        for _, hd in (
            lead_torsion(_cut(j, last, nvars), a, last - 1, nvars) for j in (ideals, saturated)
        )
    )
    walk = _filter_regular_walk(ideals, a, last, nvars)
    return _SectionColumns(torsion, h0_bar, h0_bar_prime, None if walk is None else walk[0])


# -- symmetric powers and Fitting ideals -------------------------------------------


def sym_power(pres: GradedPresentation, l: int) -> GradedPresentation:
    """The l-th symmetric power of coker(phi): generators are the degree-l
    monomials in the module generators, one relation per (column of phi,
    degree-(l-1) monomial).  Graded by construction from a valid presentation:
    every entry is copied from phi, and the column of (j, gamma) has degree
    b_j + a_gamma, so the result is assembled without being validated again."""
    if l < 0:
        raise AlgebraError("negative symmetric power")
    ring = pres.ring
    if l == 0:
        return free_presentation(ring, (0,))
    if pres.is_zero_module:
        return pres  # Sym^l(0) = 0
    gens = list(combinations_with_replacement(range(pres.n), l))
    index = {g: k for k, g in enumerate(gens)}
    twists = tuple(sum(pres.row_twists[i] for i in g) for g in gens)
    lower = list(combinations_with_replacement(range(pres.n), l - 1))
    matrix = [[] for _ in gens]
    degrees = []
    zero = ring.base.zero()
    for j in range(pres.m):
        for gamma in lower:
            col = [zero] * len(gens)
            for i in range(pres.n):
                target = index[tuple(sorted(gamma + (i,)))]
                # gamma + (i,) is a different monomial for each i: one entry each
                col[target] = pres.matrix[i][j]
            for k in range(len(gens)):
                matrix[k].append(col[k])
            degrees.append(
                pres.column_degrees[j] + sum(pres.row_twists[i] for i in gamma)
            )
    return GradedPresentation(ring, twists, tuple(map(tuple, matrix)), tuple(degrees))


def minor_function(matrix, ring: GradedRing):
    """Memoized Laplace expansion; returns minor(rows, cols) on index tuples."""
    cache: dict[tuple[tuple[int, ...], tuple[int, ...]], Polynomial] = {}

    def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
        if not rows:
            return ring.one()
        key = (rows, cols)
        got = cache.get(key)
        if got is not None:
            return got
        acc = ring.zero()
        rest = cols[1:]
        for pos, r in enumerate(rows):
            entry = matrix[r][cols[0]]
            if entry.is_zero():
                continue
            sub = minor(rows[:pos] + rows[pos + 1 :], rest)
            term = entry * sub
            acc = acc + (term if pos % 2 == 0 else -term)
        cache[key] = acc
        return acc

    return minor


def fitting_ideal_0(pres: GradedPresentation) -> list[Polynomial]:
    """Generators (the maximal minors of size n) of the 0-th Fitting ideal.
    An n x m matrix with m < n has none: the ideal is zero."""
    n, m = pres.n, pres.m
    minor = minor_function(pres.matrix, pres.ring.base)
    all_rows = tuple(range(n))
    seen = set()
    out = []
    for cols in combinations(range(m), n):
        f = minor(all_rows, cols)
        if f.is_zero() or f in seen:
            continue
        seen.add(f)
        out.append(f)
    return out


# -- presentation minimalization ----------------------------------------------------


def minimal_presentation(pres: GradedPresentation) -> GradedPresentation:
    """Normal-form the entries, cancel unit entries, drop zero columns.  A module
    that cancels away entirely comes back as the flagged zero presentation."""
    matrix, rows, cols = cancel_units(pres.ring, pres.matrix)
    keep = [s for s in range(len(cols)) if any(not row[s].is_zero() for row in matrix)]
    return GradedPresentation(
        pres.ring,
        tuple(pres.row_twists[r] for r in rows),
        tuple(tuple(row[s] for s in keep) for row in matrix),
        tuple(pres.column_degrees[cols[s]] for s in keep),
    )


# -- dense degreewise linear algebra (oracle path) ----------------------------------


def degree_basis(ring: GradedRing, twists, d: int) -> list[tuple[int, Mono]]:
    out = []
    for i, a in enumerate(twists):
        for m in monomials_of_degree(ring.nvars, d - a):
            out.append((i, m))
    return out


def span_vectors(
    ring: GradedRing, twists, elements: list[Element], d: int
) -> list[list[int]]:
    """Dense vectors spanning the degree-d piece of the submodule the elements
    generate, in the monomial basis of the ambient free module."""
    basis = degree_basis(ring, twists, d)
    where = {bm: k for k, bm in enumerate(basis)}
    out = []
    for elt in elements:
        t = elt_degree(elt, twists)
        if t == NEG_INF:
            continue
        for mono in monomials_of_degree(ring.nvars, d - int(t)):
            vec = [0] * len(basis)
            for (c, m), coeff in elt.items():
                vec[where[(c, mono_mul(m, mono))]] = coeff % ring.field.p
            out.append(vec)
    return out


def hilbert_value_dense(
    ring: GradedRing, twists, elements: list[Element], d: int
) -> int:
    """dim of (free/submodule) in degree d, by brute-force rank."""
    total = len(degree_basis(ring, twists, d))
    return total - dense_rank(span_vectors(ring, twists, elements, d), ring.field.p)
