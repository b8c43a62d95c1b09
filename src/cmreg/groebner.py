"""Buchberger engine over free modules, Schreyer syzygies, free resolutions.

An element of the free module (+)_c R*e_c is a flat dict {(component, mono):
coeff}.  Basis elements are kept monic, input is homogeneous throughout, and
pair selection is by ascending module degree, so the engine works degree by
degree without re-checking gradedness in hot loops.

Schreyer syzygies reduce only the pairs whose predicted lead term is minimal
(see `schreyer_syzygies`); the other pairs' syzygies would be dropped by
autoreduce, which returns the same reduced basis either way.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Callable, Sequence

from .core import (
    CACHE_SIZE,
    AlgebraError,
    GradedPresentation,
    GradedRing,
    Mono,
    Polynomial,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

Term = tuple[int, Mono]
Element = dict[Term, int]
OrderKey = Callable[[Term], tuple]


def pot_key(ring: GradedRing) -> OrderKey:
    """Position-over-term: lower component index wins, ring order breaks ties."""
    rk = ring.key

    @lru_cache(maxsize=None)
    def key(term: Term):
        c, m = term
        return (-c, rk(m))

    return key


def schreyer_key(parent_key: OrderKey, parent_lts: Sequence[Term]) -> OrderKey:
    """Order induced by a list of lead terms: compare images under e_i -> lt_i,
    lower index wins ties."""
    parent_lts = tuple(parent_lts)

    @lru_cache(maxsize=None)
    def key(term: Term):
        i, m = term
        c, lm = parent_lts[i]
        return (parent_key((c, mono_mul(m, lm))), -i)

    return key


def elt_add_scaled(target: Element, src: Element, mono: Mono, coeff: int, p: int) -> None:
    """target += coeff * x^mono * src, in place, coefficients mod p."""
    get = target.get
    for (c, m), val in src.items():
        t = (c, tuple(map(add, m, mono)))
        nv = (get(t, 0) + coeff * val) % p
        if nv:
            target[t] = nv
        elif t in target:
            del target[t]


def elt_degree(v: Element, row_twists: Sequence[int]) -> int | float:
    """Module degree of a homogeneous element (any term will do, use the max
    for a deterministic answer on accidental junk)."""
    if not v:
        return float("-inf")
    return max(mono_deg(m) + row_twists[c] for c, m in v)


def normal_form(
    v: Element,
    basis: Sequence[Element],
    lts: Sequence[Term],
    by_comp: dict[int, list[int]],
    key: OrderKey,
    p: int,
    track: bool = False,
    div_cache: dict[Term, int] | None = None,
):
    """Full normal form of v against a monic basis.

    Returns (remainder, quotients); quotients maps basis index -> {monomial:
    coeff} with v = sum_k quot_k * basis_k + remainder when tracking is on,
    else None.  Only indices actually used appear.  div_cache memoizes term ->
    reducer index; the caller must flush it whenever the basis grows (a stale
    miss would silently skip reductions).
    """
    work = dict(v)
    rem: Element = {}
    quots: dict[int, dict[Mono, int]] | None = {} if track else None
    if div_cache is None:
        div_cache = {}

    while work:
        t = max(work, key=key)
        coeff = work[t]
        comp, mono = t
        red = div_cache.get(t)
        if red is None:
            red = -1
            for idx in by_comp.get(comp, ()):
                if mono_divides(lts[idx][1], mono):
                    red = idx
                    break
            div_cache[t] = red
        if red < 0:
            rem[t] = coeff
            del work[t]
            continue
        shift = mono_div(mono, lts[red][1])
        elt_add_scaled(work, basis[red], shift, -coeff, p)
        if track:
            q = quots.setdefault(red, {})
            q[shift] = (q.get(shift, 0) + coeff) % p
    return rem, quots


@dataclass
class GroebnerBasis:
    ring: GradedRing
    row_twists: tuple[int, ...]
    key: OrderKey
    elements: list[Element]
    lts: list[Term]
    reps: list[Element] | None = None  # expression of each element in the input gens

    def __post_init__(self) -> None:
        self._by_comp: dict[int, list[int]] = {}
        for idx, (c, _) in enumerate(self.lts):
            self._by_comp.setdefault(c, []).append(idx)
        self._div_cache: dict[Term, int] = {}  # sound: the basis never grows

    def normal_form(self, v: Element, track: bool = False):
        return normal_form(
            v,
            self.elements,
            self.lts,
            self._by_comp,
            self.key,
            self.ring.field.p,
            track,
            div_cache=self._div_cache,
        )

    def reduces_to_zero(self, v: Element) -> bool:
        rem, _ = self.normal_form(v)
        return not rem

    def element_degrees(self) -> list[int]:
        return [mono_deg(m) + self.row_twists[c] for c, m in self.lts]


def _monic(elt: Element, rep: Element | None, key: OrderKey, p: int):
    lt = max(elt, key=key)
    lc = elt[lt]
    if lc != 1:
        inv = pow(lc, p - 2, p)
        elt = {t: (c * inv) % p for t, c in elt.items()}
        if rep is not None:
            rep = {t: (c * inv) % p for t, c in rep.items()}
    return elt, lt, rep


def buchberger(
    gens: Sequence[Element],
    ring: GradedRing,
    row_twists: Sequence[int],
    key: OrderKey,
    track: bool = False,
):
    """Raw Buchberger loop: returns (basis, lts, reps) before auto-reduction.

    Pair selection is by ascending module degree.  The chain criterion prunes a
    pair (i, j) when some other lead term in the component divides lcm(i, j)
    and both cross pairs have already been dealt with; unlike the coprimality
    shortcut, that one stays valid for module lead terms.
    """
    p = ring.field.p
    zero = (0,) * ring.nvars
    basis: list[Element] = []
    lts: list[Term] = []
    reps: list[Element] = []
    by_comp: dict[int, list[int]] = {}
    pairs: list[tuple[int, int, int]] = []
    pending: set[tuple[int, int]] = set()
    div_cache: dict[Term, int] = {}

    def add(elt: Element, rep: Element | None) -> None:
        elt, lt, rep = _monic(elt, rep, key, p)
        k = len(basis)
        basis.append(elt)
        lts.append(lt)
        reps.append(rep)
        comp = lt[0]
        for j in by_comp.get(comp, ()):
            tau = mono_lcm(lts[j][1], lt[1])
            heapq.heappush(pairs, (mono_deg(tau) + row_twists[comp], j, k))
            pending.add((j, k))
        by_comp.setdefault(comp, []).append(k)
        # only cached misses can go stale, but flushing hits too costs little
        div_cache.clear()

    for g_idx, g in enumerate(gens):
        if g:
            add(dict(g), {(g_idx, zero): 1} if track else None)

    def chained(i: int, j: int, tau: Mono) -> bool:
        for k in by_comp.get(lts[i][0], ()):
            if k == i or k == j or not mono_divides(lts[k][1], tau):
                continue
            ik = (i, k) if i < k else (k, i)
            jk = (j, k) if j < k else (k, j)
            if ik not in pending and jk not in pending:
                return True
        return False

    while pairs:
        _, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        mi, mj = lts[i][1], lts[j][1]
        tau = mono_lcm(mi, mj)
        if chained(i, j, tau):
            continue
        s: Element = {}
        elt_add_scaled(s, basis[i], mono_div(tau, mi), 1, p)
        elt_add_scaled(s, basis[j], mono_div(tau, mj), -1, p)
        srep: Element = {}
        if track:
            elt_add_scaled(srep, reps[i], mono_div(tau, mi), 1, p)
            elt_add_scaled(srep, reps[j], mono_div(tau, mj), -1, p)
        rem, quots = normal_form(s, basis, lts, by_comp, key, p, track=track, div_cache=div_cache)
        if rem:
            if track:
                for k2, q in quots.items():
                    for mono, c in q.items():
                        elt_add_scaled(srep, reps[k2], mono, -c, p)
            add(rem, srep if track else None)

    return basis, lts, reps


def autoreduce(
    basis: list[Element],
    lts: list[Term],
    reps: list[Element],
    key: OrderKey,
    p: int,
    track: bool = False,
):
    """Drop lead-redundant elements, tail-reduce the rest, then sort by
    (lead component, descending lex on the lead monomial).

    The sort is what keeps Schreyer towers short: it forces each level of
    syzygies to avoid one more variable in its lead monomials.
    """
    order_idx = sorted(range(len(basis)), key=lambda i: (key(lts[i]), i))
    keep: list[int] = []
    for i in order_idx:
        ci, mi = lts[i]
        if not any(lts[j][0] == ci and mono_divides(lts[j][1], mi) for j in keep):
            keep.append(i)

    current = {i: basis[i] for i in keep}
    for i in keep:
        others = [j for j in keep if j != i]
        sub_basis = [current[j] for j in others]
        sub_lts = [lts[j] for j in others]
        by_comp: dict[int, list[int]] = {}
        for pos, (c, _) in enumerate(sub_lts):
            by_comp.setdefault(c, []).append(pos)
        rem, quots = normal_form(current[i], sub_basis, sub_lts, by_comp, key, p, track)
        current[i] = rem
        if track:
            for pos, q in quots.items():
                for mono, c in q.items():
                    elt_add_scaled(reps[i], reps[others[pos]], mono, -c, p)

    final = sorted(keep, key=lambda i: (lts[i][0], tuple(-e for e in lts[i][1]), i))
    out_basis = [current[i] for i in final]
    out_lts = [lts[i] for i in final]
    out_reps = [reps[i] for i in final] if track else None
    return out_basis, out_lts, out_reps


def groebner(
    gens: Sequence[Element],
    ring: GradedRing,
    row_twists: Sequence[int],
    key: OrderKey | None = None,
    track: bool = False,
) -> GroebnerBasis:
    """Fully auto-reduced Groebner basis of the submodule generated by `gens`."""
    if key is None:
        key = pot_key(ring)
    basis, lts, reps = buchberger(gens, ring, row_twists, key, track=track)
    basis, lts, reps = autoreduce(basis, lts, reps, key, ring.field.p, track=track)
    return GroebnerBasis(
        ring=ring,
        row_twists=tuple(row_twists),
        key=key,
        elements=basis,
        lts=lts,
        reps=reps,
    )


def schreyer_syzygies(gb: GroebnerBasis):
    """Auto-reduced Groebner basis (for the induced order) of Syz(gb.elements).

    Returns (elements, degrees, key): elements live in the free module indexed
    by gb's elements, degrees are their module degrees there.

    Only the minimal pairs are reduced.  Under the Schreyer order the syzygy of
    the pair (i, j), i < j, has the lead term (i, s_ij) with s_ij =
    lcm(m_i, m_j)/m_i, known before any reduction (Schreyer's theorem).  For
    each i the pairs are taken by ascending (deg s_ij, j), and one is kept
    unless an already kept s_ik divides its s_ij, so equal shifts keep the
    smallest j.  These are the lead terms autoreduce would keep out of all the
    pairs, with the same tie rule, and the reduced basis is determined by its
    lead terms: the output is the same element for element as reducing every
    pair (La Scala-Stillman, "Strategies for computing minimal free
    resolutions", 1998).
    """
    p = gb.ring.field.p
    degs = gb.element_degrees()
    skey = schreyer_key(gb.key, gb.lts)

    syz: list[Element] = []
    syz_lts: list[Term] = []
    by_comp: dict[int, list[int]] = {}
    for idx, (c, _) in enumerate(gb.lts):
        by_comp.setdefault(c, []).append(idx)
    for group in by_comp.values():
        for a, i in enumerate(group):
            mi = gb.lts[i][1]
            # (shift of e_i, j) with j ascending; the stable sort makes it (deg, j)
            candidates = [(mono_div(mono_lcm(mi, gb.lts[j][1]), mi), j) for j in group[a + 1 :]]
            candidates.sort(key=lambda cand: mono_deg(cand[0]))
            kept: list[Mono] = []
            for si, j in candidates:
                if any(mono_divides(m, si) for m in kept):
                    continue
                kept.append(si)
                sj = mono_div(mono_mul(si, mi), gb.lts[j][1])
                s: Element = {}
                elt_add_scaled(s, gb.elements[i], si, 1, p)
                elt_add_scaled(s, gb.elements[j], sj, -1, p)
                rem, quots = gb.normal_form(s, track=True)
                if rem:
                    raise AlgebraError("S-pair of a Groebner basis failed to reduce")
                rel: Element = {(i, si): 1, (j, sj): p - 1}
                for k, q in quots.items():
                    for mono, c in q.items():
                        t = (k, mono)
                        nv = (rel.get(t, 0) - c) % p
                        if nv:
                            rel[t] = nv
                        elif t in rel:
                            del rel[t]
                syz.append(rel)
                syz_lts.append((i, si))

    basis, lts, _ = autoreduce(syz, syz_lts, [None] * len(syz), skey, p, track=False)
    degrees = [mono_deg(m) + degs[c] for c, m in lts]
    return basis, degrees, skey


# -- conversions ---------------------------------------------------------------


def column_element(pres: GradedPresentation, j: int) -> Element:
    out: Element = {}
    for i in range(pres.n):
        for m, c in pres.matrix[i][j].terms.items():
            out[(i, m)] = c
    return out


def presentation_elements(pres: GradedPresentation) -> list[Element]:
    return [column_element(pres, j) for j in range(pres.m)]


def elements_to_matrix(
    elements: Sequence[Element], n_rows: int, ring: GradedRing
) -> tuple[tuple[Polynomial, ...], ...]:
    """Pack module elements as the columns of an n_rows x len(elements) matrix."""
    cols = []
    for v in elements:
        col = [dict() for _ in range(n_rows)]
        for (c, m), val in v.items():
            col[c][m] = val
        cols.append([Polynomial(ring, d) for d in col])
    return tuple(
        tuple(cols[j][i] for j in range(len(elements))) for i in range(n_rows)
    )


# -- resolutions ---------------------------------------------------------------


@dataclass
class FreeResolution:
    """Chain ... -> F_2 -> F_1 -> F_0 with coker(d_1) the presented module.

    twists[k] lists the generator degrees of F_k; differentials[k-1] is the
    matrix of d_k (rows indexed by F_{k-1}, columns by F_k).
    """

    ring: GradedRing
    twists: list[tuple[int, ...]]
    differentials: list[tuple[tuple[Polynomial, ...], ...]]

    @property
    def length(self) -> int:
        return len(self.differentials)


def schreyer_resolution(pres: GradedPresentation) -> FreeResolution:
    """Free resolution via iterated Schreyer syzygies, over a plain ring."""
    ring = pres.ring
    if ring.is_quotient:
        raise AlgebraError("resolutions are computed over the ambient ring")
    twists: list[tuple[int, ...]] = [pres.row_twists]
    diffs: list[tuple[tuple[Polynomial, ...], ...]] = []

    current = groebner(presentation_elements(pres), ring, pres.row_twists)
    while current.elements:
        if len(diffs) > ring.nvars + 1:
            raise AlgebraError("resolution failed to terminate")
        diffs.append(elements_to_matrix(current.elements, len(twists[-1]), ring))
        level = tuple(current.element_degrees())
        twists.append(level)
        syz, _, skey = schreyer_syzygies(current)
        current = GroebnerBasis(
            ring=ring,
            row_twists=level,
            key=skey,
            elements=syz,
            lts=[max(s, key=skey) for s in syz],
        )
    return FreeResolution(ring=ring, twists=twists, differentials=diffs)


# -- syzygies of arbitrary generators -------------------------------------------


def syzygies_of(
    gens: Sequence[Element],
    ring: GradedRing,
    row_twists: Sequence[int],
) -> list[Element]:
    """Generators of Syz(gens) = {(h_1..h_k) : sum h_i gens_i = 0}.

    Standard lift: Schreyer syzygies of a tracked Groebner basis pushed through
    the change-of-basis matrices, plus the rows of I - B*A.  Zero input columns
    contribute their unit syzygies.
    """
    p = ring.field.p
    zero = (0,) * ring.nvars
    gb = groebner(gens, ring, row_twists, track=True)

    out: list[Element] = []

    syz, _, _ = schreyer_syzygies(gb)
    for s in syz:
        lifted: Element = {}
        for (k, m), c in s.items():
            elt_add_scaled(lifted, gb.reps[k], m, c, p)
        if lifted:
            out.append(lifted)

    for g_idx, g in enumerate(gens):
        rem, quots = gb.normal_form(dict(g), track=True)
        if rem:
            raise AlgebraError("generator failed to reduce against its own basis")
        row: Element = {(g_idx, zero): 1}
        for k, q in quots.items():
            for mono, c in q.items():
                elt_add_scaled(row, gb.reps[k], mono, -c, p)
        if row:
            out.append(row)

    return out


# -- polynomial-level helpers ---------------------------------------------------


def poly_element(f: Polynomial) -> Element:
    return {(0, m): c for m, c in f.terms.items()}


def element_poly(v: Element, ring: GradedRing) -> Polynomial:
    return Polynomial(ring, {m: c for (_, m), c in v.items()})


@lru_cache(maxsize=CACHE_SIZE)
def quotient_groebner(ring: GradedRing) -> GroebnerBasis:
    """Groebner basis of the defining ideal of a quotient ring (empty if none)."""
    base = ring.base
    return groebner([poly_element(q) for q in ring.quotient_gens], base, (0,))


def reduce_poly(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    rem, _ = gb.normal_form(poly_element(f))
    return element_poly(rem, gb.ring)
