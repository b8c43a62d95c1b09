"""Resolutions, Betti tables, regularity, Hilbert series and derived invariants.

A module over a quotient ring R = S/J is resolved over the ambient polynomial
ring S from its columns over S: q*e_i for each generator q of J, then the
columns of phi (`groebner.presentation_elements`).  Regularity, Betti numbers
and Hilbert data all come from that S-side picture.

`regularity` needs no resolution: it walks the last variables over the lead
terms of the module's one Groebner basis, the degree-first `groebner` run (see
`_filter_regular_walk`), and falls back to the Betti table only when a step is
not certified.  `ring_invariants` reads S/J the same way, off J's run.
`module_invariants` keeps the Schreyer resolution, so its `regularity` is
the Betti-derived one, a second path from the same basis.
Every cut L + (x_{k+1}..x_v)F of lead terms L, the walk's and those of
`modops._adapted_run`, is one `_cut`, so their numerators share one cache.

`hilbert_from_numerator` alone divides a numerator by (1-t): every finite series
and length (the walk's H^0, `modops.h0_profile`'s H0 and the torsion
(0 :_M l)) is read and checked there.  Minimal relation degrees need no series:
the degree-first run flags the redundant columns (`minimal_relation_degrees`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import le

from .core import (
    CACHE_SIZE,
    AlgebraError,
    GradedPresentation,
    GradedRing,
    Mono,
    NEG_INF,
    Polynomial,
    ZeroModule,
    dense_rank,
    free_presentation,
)
from .groebner import (
    Element,
    FreeResolution,
    GroebnerBasis,
    groebner,
    memo_scope,
    presentation_elements,
    quotient_groebner,
    reduce_poly,
    schreyer_resolution,
)


# -- unit cancellation ---------------------------------------------------------


def _reduce_entry(ring: GradedRing, f: Polynomial) -> Polynomial:
    if not ring.is_quotient:
        return f
    return reduce_poly(f, quotient_groebner(ring))


def cancel_units(
    ring: GradedRing, matrix
) -> tuple[list[list[Polynomial]], list[int], list[int]]:
    """Normal-form the entries modulo the quotient ideal, then cancel unit
    entries (smallest column, then smallest row) until none is left.  Returns
    the remaining matrix and the input indices of the rows and columns it
    keeps."""
    field = ring.field
    one = (0,) * ring.nvars
    matrix = [[_reduce_entry(ring, e) for e in row] for row in matrix]
    rows = list(range(len(matrix)))
    cols = list(range(len(matrix[0]) if matrix else 0))

    def find_unit():
        for j in range(len(cols)):
            for i, row in enumerate(matrix):
                terms = row[j].terms
                if len(terms) == 1 and one in terms:
                    return i, j
        return None

    while (hit := find_unit()) is not None:
        i, j = hit
        pivot = matrix[i]
        uinv = field.inv(pivot[j].terms[one])
        keep = [s for s in range(len(cols)) if s != j]
        rebuilt = []
        for r, row in enumerate(matrix):
            if r == i:
                continue
            if row[j].is_zero():
                rebuilt.append([row[s] for s in keep])
                continue
            scale = row[j] * uinv
            # an entry whose pivot-row entry is zero is already reduced and stays
            rebuilt.append(
                [
                    row[s]
                    if pivot[s].is_zero()
                    else _reduce_entry(ring, row[s] - scale * pivot[s])
                    for s in keep
                ]
            )
        matrix = rebuilt
        rows.pop(i)
        cols.pop(j)
    return matrix, rows, cols


def minimalize_resolution(res: FreeResolution) -> FreeResolution:
    """Cancel unit entries level by level; the result is the minimal free
    resolution of the same cokernel.  A cancellation at d_k only drops a
    column of d_{k-1} and a row of d_{k+1}, so no earlier level regains a
    unit."""
    twists = list(res.twists)
    diffs = list(res.differentials)
    for k in range(len(diffs)):
        if not diffs[k]:
            continue
        diffs[k], rows, cols = cancel_units(res.ring, diffs[k])
        twists[k] = [twists[k][r] for r in rows]
        twists[k + 1] = [twists[k + 1][s] for s in cols]
        if k >= 1:
            diffs[k - 1] = [[row[r] for r in rows] for row in diffs[k - 1]]
        if k + 1 < len(diffs):
            diffs[k + 1] = [diffs[k + 1][s] for s in cols]

    while len(twists) > 1 and not twists[-1]:
        twists.pop()
        diffs.pop()
    for level in twists[1:]:
        if not level:
            raise AlgebraError("minimalization left an internal zero level")
    if len(diffs) > res.ring.nvars:
        raise AlgebraError("minimal resolution longer than the variable count")

    return FreeResolution.from_matrices(res.ring, twists, diffs)


# -- Betti tables and regularity ---------------------------------------------------


def betti_from_resolution(res: FreeResolution) -> dict[tuple[int, int], int]:
    """Twist counts of each level; the Betti table only when res is minimal."""
    table: dict[tuple[int, int], int] = {}
    for i, level in enumerate(res.twists):
        for j in level:
            table[(i, j)] = table.get((i, j), 0) + 1
    return table


def _indices_by_degree(twists) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for idx, j in enumerate(twists):
        out.setdefault(j, []).append(idx)
    return out


def betti_of_resolution(res: FreeResolution) -> dict[tuple[int, int], int]:
    """Graded Betti table of the resolved module from any graded free
    resolution, minimal or not: b_{i,j} = dim Tor_i(M, k)_j = H_i(F (x) k)_j.

    Only the scalar entries of d_k survive in F (x) k, and they sit between
    generators of equal degree.  With C_{k,j} the block of constant terms of
    d_k on the degree-j rows and columns,

        b_{i,j} = #{twists of F_i equal to j} - rank C_{i,j} - rank C_{i+1,j}.

    The constant terms are read off the packed levels: the one in row r of a
    column is its term equal to codec.bases[r].
    """
    p = res.ring.field.p
    ranks: dict[tuple[int, int], int] = {}
    for k, (codec, columns) in enumerate(res.levels, start=1):
        rows = _indices_by_degree(res.twists[k - 1])
        bases = codec.bases
        for j, cols in _indices_by_degree(res.twists[k]).items():
            if j in rows:
                block = [[columns[c].get(bases[r], 0) for c in cols] for r in rows[j]]
                ranks[(k, j)] = dense_rank(block, p)
    table: dict[tuple[int, int], int] = {}
    for (i, j), count in betti_from_resolution(res).items():
        b = count - ranks.get((i, j), 0) - ranks.get((i + 1, j), 0)
        if b < 0:
            raise AlgebraError(f"negative Betti number at ({i}, {j})")
        if b:
            table[(i, j)] = b
    levels = {i for (i, _) in table}
    if levels != set(range(len(levels))):
        raise AlgebraError("Betti table has an internal zero level")
    if len(levels) > res.ring.nvars + 1:
        raise AlgebraError("projective dimension exceeds the variable count")
    return table


def _resolve(pres: GradedPresentation) -> tuple[FreeResolution, dict[tuple[int, int], int]]:
    """A (not necessarily minimal) resolution over S of the columns over S,
    and the Betti table read off it."""
    res = schreyer_resolution(pres)
    return res, betti_of_resolution(res)


def betti_numbers(pres: GradedPresentation) -> dict[tuple[int, int], int]:
    return _resolve(pres)[1]


def regularity_from_betti(table: dict[tuple[int, int], int]) -> int:
    if not table:
        raise ZeroModule("regularity of the zero module")
    return max(j - i for (i, j) in table)


@memo_scope()
def regularity(pres: GradedPresentation) -> int:
    """reg M from the lead terms of the Groebner basis of M's columns over S,
    by the filter-regular walk (see `_filter_regular_walk`); from the Betti
    table when the walk cannot certify a step.  The basis is the module's one
    degree-first run (`groebner`, under `Codec.top`), which the scope shares
    with its Hilbert numerator, its saturation rounds and its resolution, and
    across modules whose columns agree and whose twists differ by a shift.
    It runs in one memo scope, so the Betti fallback resolves the run the
    walk read.

    Refuses with `DegreeOverflow` when reg + pd, the degree a minimal
    resolution may reach, is past the packed terms' limit.
    """
    ring, twists = pres.ring.base, pres.row_twists
    gb = groebner(presentation_elements(pres), ring, twists)
    walk = _filter_regular_walk(lead_ideals(gb.lts, len(twists)), twists, ring.nvars, ring.nvars)
    if walk is None:
        return regularity_from_betti(betti_numbers(pres))
    reg, depth = walk
    gb.codec.check(reg + ring.nvars - depth)  # Auslander-Buchsbaum: pd = v - depth
    return reg


def _filter_regular_walk(
    ideals: list[frozenset], twists, k: int, nvars: int
) -> tuple[int, int] | None:
    """(reg, depth) of the cut N_0 = F / (U + (x_{k+1}..x_v)F) from in(U),
    given per component of F by its minimal generators in the nvars
    variables (`buchberger`'s lead terms are minimal); None when a step is not
    certified: some (0 :_{N_i} x^oo) has infinite length.  Each step reads a
    cut of in(U) (`_cut`).  k = v is F/U itself (`regularity`);
    `modops._section_columns` and `verify.tower_check` walk the cuts of an
    adapted run (`modops._adapted_run`), whose numerators they share.

    Under `Codec.top` the last variables behave as Bayer and Stillman need ("A
    criterion for detecting m-regularity", 1987): with N_i = N_0 / (x_k, ...,
    x_{k-i+1}) N_0 = F / U_i and x = x_{k-i}, in(U_i) = in(U) +
    (x_{k-i+1}..x_v)F =: J_i and in(U_i : x^oo) = J_i : x^oo, so the Hilbert
    numerator of (0 :_{N_i} x^oo) is N(J_i) - N(J_i : x^oo).  When that
    module has finite length it is H^0_m(N_i), x is filter-regular on N_i,
    and reg N_i = max(a_0(N_i), reg N_{i+1}) (Eisenbud, "The Geometry of
    Syzygies", Prop. 4.16), with a_0 the top degree of H^0_m.  The walk
    stops at the first N_i of finite length, so reg N_0 is the largest a_0 on
    the way (Bermejo-Gimenez, "Saturation and Castelnuovo-Mumford
    regularity", 2006).  Before the first nonzero H^0 every x is regular, so
    depth N_0 is the index of that first one.
    """
    unit = (0,) * nvars
    if all(unit in monos for monos in ideals):
        raise ZeroModule("regularity of the zero module")
    reg: int | float = NEG_INF
    depth = None
    for i in range(k + 1):  # N_k has finite length, so this returns
        x = k - 1 - i
        cut = _cut(ideals, k - i, nvars)
        # no lead term involves x: J_i : x^oo = J_i and H^0_m(N_i) = 0
        if x < 0 or any(m[x] for monos in cut for m in monos):
            saturated, hd = lead_torsion(cut, twists, x, nvars)
            if hd.length is None:
                return None
            finite = all(unit in monos for monos in saturated)  # N_i = H^0_m(N_i)
            h0 = hd.q_polynomial
            if h0:
                reg = max(reg, max(h0))
                depth = i if depth is None else depth
            if finite:
                return int(reg), depth


def _cut(ideals: list[frozenset], k: int, nvars: int) -> list[frozenset]:
    """L + (x_{k+1}..x_v)F: per component the later variables, and L's
    minimal generators free of them."""
    cut = [tuple(int(i == j) for i in range(nvars)) for j in range(k, nvars)]
    return [frozenset([*cut, *(m for m in monos if not any(m[k:]))]) for monos in ideals]


def lead_torsion(
    ideals: list[frozenset], twists, x: int, nvars: int
) -> tuple[list[frozenset], HilbertData]:
    """(J : x^oo, the Hilbert data of (J : x^oo) / J) for the monomial module
    J of F, given per component by its minimal generators; x < 0 stands for
    the unit ideal, whose saturation is F.

    When J = in(U) under `Codec.top` and x = x_v, the last variable, the
    first is in(U : x_v^oo) and the second is the data of (U : x_v^oo) / U
    (Bayer-Stillman 1987).  When that has finite length, U : x_v^oo is the
    saturation of U by m, and the quotient is H^0_m(F/U)."""
    unit = (0,) * nvars
    saturated = [
        _minimalize_monos(m[:x] + (0,) + m[x + 1 :] for m in monos) if x >= 0 else frozenset([unit])
        for monos in ideals
    ]
    num = _numerator_of_components(ideals, twists)
    if not all(unit in monos for monos in saturated):  # else N(J : x^oo) = 0
        num = tp_sub(num, _numerator_of_components(saturated, twists))
    return saturated, hilbert_from_numerator(num, nvars)


# -- integer polynomials in one variable t (dict exponent -> coefficient) --------


def tp_add(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    out = dict(f)
    for e, c in g.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def tp_sub(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    return tp_add(f, {e: -c for e, c in g.items()})


def tp_shift(f: dict[int, int], k: int) -> dict[int, int]:
    return {e + k: c for e, c in f.items()}


def tp_eval1(f: dict[int, int]) -> int:
    return sum(f.values())


def tp_divide_one_minus_t(f: dict[int, int]) -> dict[int, int]:
    """Exact division by (1 - t); requires f(1) = 0."""
    if tp_eval1(f) != 0:
        raise AlgebraError("polynomial not divisible by (1-t)")
    if not f:
        return {}
    lo, hi = min(f), max(f)
    out: dict[int, int] = {}
    running = 0
    for e in range(lo, hi + 1):
        running += f.get(e, 0)
        if running:
            out[e] = running
    return out


# -- Hilbert numerators -----------------------------------------------------------


def _minimalize_monos(monos) -> frozenset:
    keep = []
    for m in sorted(set(monos), key=lambda m: (sum(m), m)):
        if not any(all(map(le, k, m)) for k in keep):
            keep.append(m)
    return frozenset(keep)


@lru_cache(maxsize=CACHE_SIZE)
def _numerator_of_lead_terms(monos: frozenset) -> tuple[tuple[int, int], ...]:
    """Numerator of Hilb(S/L) * (1-t)^v for the monomial ideal L, given by its
    minimal generators, by splitting on a power of the most frequent variable:
    N(L) = N(L + x^k) + t^k N(L : x^k), k the lower median of the positive
    exponents of x among the mixed generators (Bigatti, "Computation of
    Hilbert-Poincare series", 1997): each branch keeps about half of them, so
    the depth is about log2 D on S/(x, y)^D.  L + x^k needs no minimalization:
    no kept generator is a multiple of x^k, and a power x^j, j < k, would
    divide the mixed generator that sets k."""
    if not monos:
        return ((0, 1),)
    if any(not any(m) for m in monos):
        return ()
    nvars = len(next(iter(monos)))
    mixed = [m for m in monos if m.count(0) <= nvars - 2]
    if not mixed:
        # pure powers of distinct variables: product formula
        out = {0: 1}
        for m in monos:
            out = tp_sub(out, tp_shift(out, sum(m)))
        return tuple(sorted(out.items()))
    # pivot: most frequent variable among the mixed (non-pure-power) generators;
    # a mixed generator with x^k exactly leaves L + x^k and loses x^k in L : x^k,
    # so both branches strictly shrink
    counts = [sum(1 for m in mixed if m[v]) for v in range(nvars)]
    pivot = max(range(nvars), key=lambda v: counts[v])
    exponents = sorted(m[pivot] for m in mixed if m[pivot])
    k = exponents[(len(exponents) - 1) // 2]
    power = tuple(k if v == pivot else 0 for v in range(nvars))
    plus = frozenset([*(m for m in monos if m[pivot] < k), power])
    colon = _minimalize_monos(m[:pivot] + (max(m[pivot] - k, 0),) + m[pivot + 1 :] for m in monos)
    total = tp_add(
        dict(_numerator_of_lead_terms(plus)),
        tp_shift(dict(_numerator_of_lead_terms(colon)), k),
    )
    return tuple(sorted(total.items()))


def lead_ideals(lts, n: int) -> list[frozenset]:
    """Per component of a rank-n free module, the monomial ideal of the lead
    terms (c, m) in it, as given: `buchberger`'s leads are already minimal."""
    ideals: list[list[Mono]] = [[] for _ in range(n)]
    for c, m in lts:
        ideals[c].append(m)
    return list(map(frozenset, ideals))


def numerator_of_gb(gb: GroebnerBasis) -> dict[int, int]:
    """Hilbert numerator of the cokernel presented by an already computed
    Groebner basis, from its lead terms alone."""
    return _numerator_of_components(lead_ideals(gb.lts, len(gb.row_twists)), gb.row_twists)


def _numerator_of_components(ideals, twists) -> dict[int, int]:
    """Hilbert numerator of (+)_c S(-twists[c]) / L_c for minimal monomial
    ideals L_c."""
    total: dict[int, int] = {}
    for monos, twist in zip(ideals, twists):
        total = tp_add(total, tp_shift(dict(_numerator_of_lead_terms(monos)), twist))
    return total


def numerator_of_cokernel(
    ring: GradedRing, row_twists, elements: list[Element]
) -> dict[int, int]:
    """Hilbert numerator of coker(elements -> free module with row_twists),
    over a plain ring, from the lead terms of a Groebner basis."""
    return numerator_of_gb(groebner(elements, ring, row_twists))


def hilbert_numerator(pres: GradedPresentation) -> dict[int, int]:
    return numerator_of_cokernel(
        pres.ring.base, pres.row_twists, presentation_elements(pres)
    )


def numerator_from_resolution(res: FreeResolution) -> dict[int, int]:
    """Alternating sum of twists: the independent cross-check path."""
    total: dict[int, int] = {}
    for i, level in enumerate(res.twists):
        sign = -1 if i % 2 else 1
        for j in level:
            total = tp_add(total, {j: sign})
    return total


@dataclass
class HilbertData:
    numerator: dict[int, int]
    var_count: int
    dimension: int | float  # -inf for the zero module
    codimension: int | None
    multiplicity: int
    length: int | None  # None when infinite
    q_polynomial: dict[int, int]


def hilbert_from_numerator(num: dict[int, int], var_count: int) -> HilbertData:
    """Dimension, multiplicity and length from a Hilbert numerator, with
    `q_polynomial` = num / (1-t)^codimension, the Hilbert series when the length
    is finite.  Raises `AlgebraError` when no module has this numerator, a
    finite series with a negative coefficient included."""
    num = {e: c for e, c in num.items() if c}
    if not num:
        return HilbertData(
            numerator={},
            var_count=var_count,
            dimension=NEG_INF,
            codimension=None,
            multiplicity=0,
            length=0,
            q_polynomial={},
        )
    q = dict(num)
    c = 0
    while tp_eval1(q) == 0:
        q = tp_divide_one_minus_t(q)
        c += 1
    delta = var_count - c
    e = tp_eval1(q)
    if delta < 0 or e <= 0 or (delta == 0 and min(q.values()) < 0):
        raise AlgebraError("Hilbert numerator inconsistent with a nonzero module")
    return HilbertData(
        numerator=num,
        var_count=var_count,
        dimension=delta,
        codimension=c,
        multiplicity=e,
        length=e if delta == 0 else None,
        q_polynomial=q,
    )


def hilbert_data(pres: GradedPresentation) -> HilbertData:
    return hilbert_from_numerator(hilbert_numerator(pres), pres.ring.nvars)


# -- relation degrees over the presented ring ------------------------------------


def minimal_relation_degrees(pres: GradedPresentation) -> dict[int, int]:
    """Degrees (with multiplicity) of minimal relations among the generators
    over the presentation's ring: the columns of phi that the degree-first run
    of its columns over S leaves unflagged (`groebner.buchberger`).  J's
    columns run first, so over S/J the images of the unflagged ones are a
    basis of (im phi + JG) / (m im phi + JG).  With minimal generators these
    are the degrees of b_1; J's generator degrees are those of S/J presented
    over S by J's generators."""
    if not pres.m:
        return {}
    cols = presentation_elements(pres)
    flagged = groebner(cols, pres.ring.base, pres.row_twists).redundant
    first = len(cols) - pres.m
    return dict(Counter(d for j, d in enumerate(pres.column_degrees) if first + j not in flagged))


# -- ring-level invariants ---------------------------------------------------------


@lru_cache(maxsize=CACHE_SIZE)
def ring_invariants(ring: GradedRing) -> tuple[int, int, int, bool]:
    """(dim R, deg R, reg R, is_cohen_macaulay), treating R = S/J as S-module,
    off J's degree-first run: dim and deg from its numerator, reg and depth
    from the walk (`_filter_regular_walk`), refused as `regularity` refuses,
    and R is Cohen-Macaulay when depth = dim.  Only where a step is not
    certified is R resolved (`module_invariants`)."""
    pres = free_presentation(ring, (0,))
    base = ring.base
    gb = groebner(presentation_elements(pres), base, (0,))
    ideals = lead_ideals(gb.lts, 1)
    walk = _filter_regular_walk(ideals, (0,), base.nvars, base.nvars)
    if walk is None:
        mi = module_invariants(pres)
        return int(mi.hilbert.dimension), mi.hilbert.multiplicity, mi.regularity, mi.is_cm
    reg, depth = walk
    gb.codec.check(reg + base.nvars - depth)  # pd = v - depth
    hd = hilbert_from_numerator(_numerator_of_components(ideals, (0,)), base.nvars)
    return int(hd.dimension), hd.multiplicity, reg, depth == hd.dimension


@dataclass
class ModuleInvariants:
    """Invariants of a nonzero module.  `resolution` is the Schreyer
    resolution over S of its columns over S, resolved from their degree-first
    basis and not minimal: read Betti numbers from `betti`, not from its
    twists.  Its levels stay packed; `resolution.differentials` decodes them
    on first access."""

    presentation: GradedPresentation
    resolution: FreeResolution
    betti: dict[tuple[int, int], int]
    regularity: int
    hilbert: HilbertData
    is_cm: bool


def module_invariants(pres: GradedPresentation) -> ModuleInvariants:
    res, betti = _resolve(pres)
    if not betti:
        raise ZeroModule("module is zero")
    hd = hilbert_from_numerator(numerator_from_resolution(res), pres.ring.nvars)
    projective_dimension = max(i for (i, _) in betti)
    return ModuleInvariants(
        presentation=pres,
        resolution=res,
        betti=betti,
        regularity=regularity_from_betti(betti),
        hilbert=hd,
        is_cm=projective_dimension == hd.codimension,
    )
