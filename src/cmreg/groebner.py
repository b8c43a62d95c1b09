"""Buchberger engine over free modules, Schreyer syzygies, free resolutions.

At the boundary an element of the free module (+)_c R*e_c is an `Element`, a
flat dict {(component, mono): coeff}.  Inside the engine every term is one
Python int whose natural `<` is the module order (`Codec` holds the layout and
converts), and an element is a dict {term: coeff}.  So the lead term is
`max(element)`, multiplying a term by x^s adds a constant, and divisibility
within a component is one mask test (Monagan-Pearce, "Sparse polynomial
division using a heap", 2011).

Level 0, position over term.  From the most significant end the fields are
n-1-c, the total degree, then one field of FIELD bits per variable whose top
bit is a guard bit, always clear.  For grevlex the variable fields hold
MAX_DEGREE - e_j with x_v most significant; for lex (degree-lex) they hold e_j
with x_1 most significant.  A Schreyer level over the packed lead terms
lt_0..lt_{N-1} of the level below stores (i, m) as
((lt_i + shift(m)) << IB) | (N-1-i), IB = N.bit_length(): images compare
first and the lower index wins ties, which is the induced order.  No field may
wrap, so an element whose module degree is more than MAX_DEGREE above the
smallest level-0 twist raises `DegreeOverflow`; that is checked on input and
for every S-pair.

`Codec.top` is a Schreyer level over the rank-one grevlex module R(-low), low
the smallest twist, whose e_c maps to the term of degree twist_c and monomial 1:
module degree minus low, then the grevlex variable fields (whatever the ring's
order), then n-1-c in the low bits.  The layout depends on the number of
variables and the twists alone, never on the ring's order or field, so it is
built once per such shape and kept in a bounded process-wide cache
(`_top_layout`), the one layout cache: each entry is immutable and keyed by
ints.  Under it a homogeneous element's lead term has the fewest factors x_v,
so in(U + x_v F) = in(U) + x_v F, in(U : x_v) = in(U) : x_v and
in(U : x_v^oo) = in(U) : x_v^oo, which position over term breaks.

One basis per module.  `groebner` is the only builder of a module's basis: one
Buchberger run under `Codec.top`, handed out as it stands, with minimal lead
terms and no tail reduction.  Every reader of the module takes that run:
the Hilbert numerator, `invariants.regularity`'s walk,
`modops.colon_with_irrelevant` (one saturation round) and
`schreyer_resolution`, which alone finishes it (`autoreduce`: tail reduction
and the tower order) before resolving it.  `modops.torsion_hilbert` and
`verify.tower_check` read the run of M in coordinates where the forms are the
last variables.  Position over term in the ring's own order stays where the
order is part of the answer: `quotient_groebner` builds J's basis that way,
as `buchberger` leaves it, so that a normal form mod J, and every entry a
presentation prints, is the one the ring's order gives, lex rings included
(a full normal form is the same modulo any Groebner basis); the graph colon
(`syzygies_of`) needs its row block ahead of the e-block; and a saturation
round that the degree-first run certifies hands back the graph colon's basis.

Basis elements are kept monic, input is homogeneous throughout, and pair
selection is by ascending module degree, so the engine works degree by degree
without re-checking gradedness in hot loops.  The input generators wait in the
same degree queue, after that degree's pairs, and each joins the basis as its
normal form, so a basis grows in nondecreasing degree and its lead terms come
out minimal: none divides another in its component.  An input whose normal
form is zero is redundant, and the run flags it (`GroebnerBasis.redundant`).

Schreyer syzygies reduce only the pairs whose predicted lead term is minimal
(see `schreyer_syzygies`) and keep those relations as they come: their lead
terms are already the minimal generators of the syzygies' lead-term module, so
they form a Groebner basis, and no level of a resolution past the first is
tail-reduced.

Syzygies of arbitrary generators, and module colons {r : sum_k r_k h_k in
<tails>}, are one Groebner basis of the graph module (see `syzygies_of`).  No
basis records how its elements arise from the generators; only a single normal
form can return its quotients, which Schreyer syzygies read off.

Within one top-level call the same degree-first run recurs: the basis of a
module's own columns is wanted by its Hilbert numerator, its saturation
rounds, its regularity and its resolution.  `groebner` therefore keeps its
runs in one memo, keyed by the exact input (ring, generators as given, row
twists less their minimum, so a module and its twist share one run) and
holding the run as it stands.  Nothing else is memoised: the graph colon
(`syzygies_of`) is built on every call.  The memo lives only inside
`memo_scope()`: `verify.audit`, `section_check`, `random_tower`,
`tower_check`, `modops.h0_profile` and `invariants.regularity` each open one
(or join the one already open), and `random_section_form` runs in
`random_tower`'s.  Outside a scope nothing is memoised, and a scope lives no
longer than one instance: `cmreg random --audit` gets one per trial, through
`audit`.  Sharing a basis is sound because callers only read it; its division
cache, the one state that changes, stays valid since the basis never grows.
"""

from __future__ import annotations

import heapq
import struct
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from operator import add, mul
from typing import Callable, Iterator, NamedTuple, Sequence

from .core import (
    CACHE_SIZE,
    AlgebraError,
    DegreeOverflow,
    GradedPresentation,
    GradedRing,
    Mono,
    Polynomial,
    mono_deg,
    mono_div,
    mono_lcm,
)

Term = tuple[int, Mono]
Element = dict[Term, int]
Packed = dict[int, int]

MAX_DEGREE = (1 << 15) - 1  # largest exponent or degree a packed field holds
FIELD = 16  # bits per variable field, guard bit on top: one struct "H" each
_INPUT = sys.maxsize  # a queued input's first pair index, past every basis index


@lru_cache(maxsize=CACHE_SIZE)
def _reader(nvars: int, lex: bool, off: int) -> Callable[[int], Mono]:
    """Exponent tuple from the variable fields starting at bit `off`."""
    unpack = struct.Struct((">" if lex else "<") + "H" * nvars).unpack
    mask = (1 << (FIELD * nvars)) - 1
    nbytes = FIELD // 8 * nvars
    order = "big" if lex else "little"

    def read(s: int) -> Mono:
        return unpack(((s >> off) & mask).to_bytes(nbytes, order))

    return read


class Codec(NamedTuple):
    """Layout of the packed terms of one free module (see the module docstring).

    x^s moves a term by `shift(s)` = sum_j s_j * weights[j].  sign is +1 when
    the variable fields count exponents up (lex) and -1 when they count down
    (grevlex); off is the bit offset of the lowest variable field, guard the
    mask of their guard bits, and read turns sign * shift into the exponent
    tuple.  bases[c] is the term e_c.  The component field is
    (t >> cshift) & cmask and holds len(bases)-1-c; ib is the width of a
    Schreyer level's index field (0 from `pot`; `top` is a Schreyer level).
    limit is the largest module degree an element may have.
    """

    weights: tuple[int, ...]
    sign: int
    guard: int
    bases: tuple[int, ...]
    cshift: int
    cmask: int
    ib: int
    off: int
    limit: int
    read: Callable[[int], Mono]

    @classmethod
    def pot(cls, ring: GradedRing, row_twists: Sequence[int]) -> "Codec":
        """Position over term on a free module with the given twists."""
        return _pot(ring.nvars, ring.order == "lex", row_twists)

    @classmethod
    def top(cls, ring: GradedRing, row_twists: Sequence[int]) -> "Codec":
        """Degree first on a free module with the given twists, for any ring
        order: the Schreyer level over the rank-one grevlex module R(-low),
        low the smallest twist, whose e_c maps to degree twist_c, monomial 1.
        The layout depends on the number of variables and the twists alone,
        so it is built once per such shape (`_top_layout`)."""
        return _top_layout(ring.nvars, tuple(row_twists))

    def schreyer(self, leads: Sequence[int]) -> "Codec":
        """The Schreyer level whose e_i maps to the term leads[i] of this one."""
        n = len(leads)
        ib = n.bit_length()
        return Codec(
            weights=tuple(w << ib for w in self.weights),
            sign=self.sign,
            guard=self.guard << ib,
            bases=tuple((lt << ib) | (n - 1 - i) for i, lt in enumerate(leads)),
            cshift=0,
            cmask=(1 << ib) - 1,
            ib=ib,
            off=self.off + ib,
            limit=self.limit,
            read=_reader(len(self.weights), self.sign > 0, self.off + ib),
        )

    def shift(self, mono: Mono) -> int:
        return sum(map(mul, mono, self.weights))

    def component(self, t: int) -> int:
        return len(self.bases) - 1 - ((t >> self.cshift) & self.cmask)

    def mono(self, shift: int) -> Mono:
        """The monomial whose shift is `shift`."""
        return self.read(self.sign * shift)

    def divides(self, a: int, b: int) -> bool:
        """Whether term a divides term b, both in one component."""
        return not (self.sign * (b - a)) & self.guard

    def decode(self, t: int) -> Term:
        c = len(self.bases) - 1 - ((t >> self.cshift) & self.cmask)
        return c, self.read(self.sign * (t - self.bases[c]))

    def check(self, deg: int) -> None:
        """Refuse an element of module degree deg whose terms might not fit."""
        if deg > self.limit:
            raise DegreeOverflow(
                f"module degree {deg} exceeds {self.limit}, the packed terms' "
                f"limit of {MAX_DEGREE} above the smallest twist"
            )

    def encode(self, v: Element, twists: Sequence[int]) -> Packed:
        """Pack an element of the free module with these twists."""
        bases, weights = self.bases, self.weights
        out: Packed = {}
        for (c, m), val in v.items():
            self.check(mono_deg(m) + twists[c])
            out[bases[c] + sum(map(mul, m, weights))] = val
        return out

    def decode_element(self, v: Packed) -> Element:
        bases, cs, cm, sign, read = self.bases, self.cshift, self.cmask, self.sign, self.read
        last = len(bases) - 1
        out: Element = {}
        for t, val in v.items():
            c = last - ((t >> cs) & cm)
            out[c, read(sign * (t - bases[c]))] = val
        return out


def _pot(nvars: int, lex: bool, row_twists: Sequence[int]) -> Codec:
    """`Codec.pot` for this many variables, lex or grevlex."""
    positions = [FIELD * (nvars - 1 - j if lex else j) for j in range(nvars)]
    deg_at = FIELD * nvars
    comp_at = deg_at + FIELD
    sign = 1 if lex else -1
    fill = 0 if lex else sum(MAX_DEGREE << q for q in positions)
    n = len(row_twists)
    return Codec(
        weights=tuple((1 << deg_at) + sign * (1 << q) for q in positions),
        sign=sign,
        guard=sum(1 << (q + FIELD - 1) for q in positions),
        bases=tuple(((n - 1 - c) << comp_at) + fill for c in range(n)),
        cshift=comp_at,
        cmask=-1,
        ib=0,
        off=0,
        limit=MAX_DEGREE + min(row_twists, default=0),
        read=_reader(nvars, lex, 0),
    )


@lru_cache(maxsize=CACHE_SIZE)
def _top_layout(nvars: int, row_twists: tuple[int, ...]) -> Codec:
    """`Codec.top` for this many variables and these twists, whatever the
    ring's order or field: `pot` of the rank-one grevlex module R(-low), then
    its Schreyer level.  A `Codec` is an immutable NamedTuple, so the cache
    hands the same layout to every caller."""
    low = min(row_twists, default=0)
    line = _pot(nvars, False, (low,))
    deg_at = FIELD * nvars
    return line.schreyer([line.bases[0] + ((t - low) << deg_at) for t in row_twists])


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


def _add_scaled(target: Packed, src: Packed, shift: int, coeff: int, p: int) -> None:
    """target += coeff * x^s * src for packed elements, shift = the shift of
    x^s; coeff must be nonzero mod p, so a new term is never zero."""
    for t, val in src.items():
        t += shift
        if t in target:
            nv = (target[t] + coeff * val) % p
            if nv:
                target[t] = nv
            else:
                del target[t]
        else:
            target[t] = coeff * val % p


def elt_degree(v: Element, row_twists: Sequence[int]) -> int | float:
    """Module degree of a homogeneous element (any term will do, use the max
    for a deterministic answer on accidental junk)."""
    if not v:
        return float("-inf")
    return max(mono_deg(m) + row_twists[c] for c, m in v)


def _index(codec: Codec, leads: Sequence[int]) -> dict[int, list[int]]:
    """Basis indices by the component field of their lead terms."""
    by_comp: dict[int, list[int]] = {}
    cs, cm = codec.cshift, codec.cmask
    for idx, t in enumerate(leads):
        by_comp.setdefault((t >> cs) & cm, []).append(idx)
    return by_comp


def normal_form(
    v: Packed,
    basis: Sequence[Packed],
    lts: Sequence[int],
    by_comp: dict[int, list[int]],
    codec: Codec,
    p: int,
    track: bool = False,
    div_cache: dict[int, int] | None = None,
):
    """Full normal form of v against a monic basis.

    Returns (remainder, quotients); quotients maps basis index -> {shift:
    coeff} with v = sum_k sum x^shift * coeff * basis_k + remainder when
    tracking is on, else None.  Only indices actually used appear.  div_cache
    memoizes term -> reducer index (-1 for none); the caller must flush it
    whenever the basis grows (a stale miss would silently skip reductions).
    """
    work = dict(v)
    rem: Packed = {}
    quots: dict[int, dict[int, int]] | None = {} if track else None
    if div_cache is None:
        div_cache = {}
    sign, guard, cs, cm = codec.sign, codec.guard, codec.cshift, codec.cmask

    while work:
        t = max(work)
        coeff = work[t]
        red = div_cache.get(t)
        if red is None:
            red = -1
            for idx in by_comp.get((t >> cs) & cm, ()):
                if not (sign * (t - lts[idx])) & guard:  # codec.divides, inlined
                    red = idx
                    break
            div_cache[t] = red
        if red < 0:
            rem[t] = coeff
            del work[t]
            continue
        shift = t - lts[red]
        _add_scaled(work, basis[red], shift, -coeff, p)
        if track:
            # terms only decrease, so each shift is used once per index
            quots.setdefault(red, {})[shift] = coeff
    return rem, quots


@dataclass
class GroebnerBasis:
    """A Groebner basis in packed form; `elements`, `lts` and `normal_form`
    speak `Element`s, and iterating yields the elements.  A `groebner` run
    keeps the indices of the inputs `buchberger` flagged in `redundant`."""

    ring: GradedRing
    row_twists: tuple[int, ...]
    codec: Codec
    basis: list[Packed]
    leads: list[int]
    redundant: frozenset[int] = frozenset()
    lts: list[Term] = field(init=False)  # decoded lead terms

    def __post_init__(self) -> None:
        self.lts = list(map(self.codec.decode, self.leads))
        self._by_comp = _index(self.codec, self.leads)
        self._div_cache: dict[int, int] = {}  # sound: the basis never grows
        self._elements: list[Element] | None = None

    @property
    def elements(self) -> list[Element]:
        if self._elements is None:
            self._elements = [self.codec.decode_element(v) for v in self.basis]
        return self._elements

    def __iter__(self):
        return iter(self.elements)

    def _reduce(self, v: Packed, track: bool):
        return normal_form(
            v,
            self.basis,
            self.leads,
            self._by_comp,
            self.codec,
            self.ring.field.p,
            track,
            div_cache=self._div_cache,
        )

    def normal_form(self, v: Element, track: bool = False):
        """(remainder, quotients {index: {mono: coeff}} or None), as Elements."""
        codec = self.codec
        rem, quots = self._reduce(codec.encode(v, self.row_twists), track)
        if track:
            quots = {k: {codec.mono(s): c for s, c in q.items()} for k, q in quots.items()}
        return codec.decode_element(rem), quots

    def element_degrees(self) -> list[int]:
        return [mono_deg(m) + self.row_twists[c] for c, m in self.lts]


def _monic(elt: Packed, p: int) -> tuple[Packed, int]:
    lt = max(elt)
    lc = elt[lt]
    if lc != 1:
        inv = pow(lc, p - 2, p)
        elt = {t: (c * inv) % p for t, c in elt.items()}
    return elt, lt


def buchberger(
    gens: Sequence[Packed],
    codec: Codec,
    row_twists: Sequence[int],
    p: int,
    redundant: set[int] | None = None,
) -> tuple[list[Packed], list[int]]:
    """Raw Buchberger loop: returns (basis, lts) before auto-reduction.

    Pair selection is by ascending module degree.  Each nonzero generator waits
    in the same queue at its module degree, after that degree's pairs and the
    generators listed before it, and joins the basis only as its normal form.
    So the basis grows in nondecreasing degree and every element enters
    reduced: its lead term is divisible by no earlier one, and a later lead
    term, of no smaller degree and different, cannot divide it.  The lead terms
    are therefore minimal: none divides another in its component.

    A generator of degree d meets a d-truncated Groebner basis of those before
    it, so its normal form is zero exactly when it lies in their span; its
    index, and a zero generator's, go into `redundant` when that is given.  By
    graded Nakayama the others are a minimal generating set (Kreuzer-Robbiano,
    "Computational Commutative Algebra 2", 2005).

    The chain criterion prunes a pair (i, j) when some other lead term in the
    component divides lcm(i, j) and both cross pairs have already been dealt
    with; unlike the coprimality shortcut, that one stays valid for module lead
    terms.
    """
    cs, cm, divides = codec.cshift, codec.cmask, codec.divides
    basis: list[Packed] = []
    lts: list[int] = []
    lms: list[Mono] = []  # lead monomials, for the pairs' lcms
    by_comp: dict[int, list[int]] = {}
    pairs: list[tuple[int, int, int]] = []
    pending: set[tuple[int, int]] = set()
    div_cache: dict[int, int] = {}

    def add_element(elt: Packed) -> None:
        elt, lt = _monic(elt, p)
        k = len(basis)
        basis.append(elt)
        lts.append(lt)
        c, m = codec.decode(lt)
        lms.append(m)
        group = by_comp.setdefault((lt >> cs) & cm, [])
        for j in group:
            tau = mono_lcm(lms[j], m)
            heapq.heappush(pairs, (mono_deg(tau) + row_twists[c], j, k))
            pending.add((j, k))
        group.append(k)
        # only cached misses can go stale, but flushing hits too costs little
        div_cache.clear()

    # a generator is queued as (degree, _INPUT, index): it sorts after the pairs
    for k, g in enumerate(gens):
        if g:
            c, m = codec.decode(max(g))
            heapq.heappush(pairs, (mono_deg(m) + row_twists[c], _INPUT, k))
        elif redundant is not None:
            redundant.add(k)

    def chained(i: int, j: int, tau: int) -> bool:
        for k in by_comp[(tau >> cs) & cm]:
            if k == i or k == j or not divides(lts[k], tau):
                continue
            ik = (i, k) if i < k else (k, i)
            jk = (j, k) if j < k else (k, j)
            if ik not in pending and jk not in pending:
                return True
        return False

    while pairs:
        deg, i, j = heapq.heappop(pairs)
        if i == _INPUT:
            s = gens[j]
        else:
            pending.discard((i, j))
            tau = lts[i] + codec.shift(mono_div(mono_lcm(lms[i], lms[j]), lms[i]))
            if chained(i, j, tau):
                continue
            codec.check(deg)
            s = {}
            _add_scaled(s, basis[i], tau - lts[i], 1, p)
            _add_scaled(s, basis[j], tau - lts[j], -1, p)
        rem, _ = normal_form(s, basis, lts, by_comp, codec, p, div_cache=div_cache)
        if rem:
            add_element(rem)
        elif i == _INPUT and redundant is not None:
            redundant.add(j)

    return basis, lts


def autoreduce(
    basis: list[Packed], lts: list[int], codec: Codec, p: int
) -> tuple[list[Packed], list[int]]:
    """Tail-reduce each element against the others, then sort them as
    `_tower_order` does.

    Every caller hands in `buchberger`'s elements or a subset of them, whose
    lead terms are minimal (see `buchberger`): none divides another in its
    component, so no element is lead-redundant and all of them stay."""
    # A lead term divides no smaller term, so reducing each element against
    # the whole set, its own lead term marked irreducible, is reducing its tail
    # against the others; by ascending lead terms, those are already reduced.
    order = sorted(range(len(basis)), key=lts.__getitem__)
    current = [basis[i] for i in order]
    leads = [lts[i] for i in order]
    by_comp = _index(codec, leads)
    div_cache = dict(zip(leads, range(len(leads))))
    for pos, lt in enumerate(leads):
        div_cache[lt] = -1
        current[pos], _ = normal_form(current[pos], current, leads, by_comp, codec, p, div_cache=div_cache)
        div_cache[lt] = pos

    return _tower_order(current, leads, codec)


def _tower_order(
    basis: list[Packed], leads: list[int], codec: Codec
) -> tuple[list[Packed], list[int]]:
    """Sort by (lead component, descending lex on the lead monomial); the lead
    terms are distinct, so nothing ties.

    The sort is what keeps Schreyer towers short: it forces each level of
    syzygies to avoid one more variable in its lead monomials.
    """
    decoded = [codec.decode(t) for t in leads]
    final = sorted(
        range(len(leads)), key=lambda a: (decoded[a][0], tuple(-e for e in decoded[a][1]))
    )
    return [basis[a] for a in final], [leads[a] for a in final]


# the open scope's `groebner` runs by exact input, None outside every scope
_MEMO: ContextVar[dict | None] = ContextVar("cmreg_groebner_memo", default=None)


@contextmanager
def memo_scope() -> Iterator[None]:
    """Memoise `groebner`'s runs until the outermost scope exits; a nested
    scope joins the open one."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def groebner(
    gens: Sequence[Element],
    ring: GradedRing,
    row_twists: Sequence[int],
) -> GroebnerBasis:
    """Groebner basis under `Codec.top` of the submodule generated by `gens`:
    `buchberger`'s basis as it stands, neither tail-reduced nor sorted.  No
    basis element is superfluous: each joined the basis as its normal form, in
    nondecreasing degree, so no lead term divides another in its component
    (see `buchberger`).  `schreyer_resolution` finishes it with `autoreduce`.
    `redundant` holds the gens that `buchberger` flagged, by index.

    Inside a `memo_scope()` the run is kept, keyed by the ring, the input
    elements as given and the twists less their minimum: neither the packing
    nor the limit checks see a uniform shift of the twists, so a module and
    its twist share one run, and each caller gets the basis with its own
    twists.  The elements are packed only when the run is built: a hit
    neither encodes nor re-checks the limit, which is relative to the
    smallest twist and so the same."""
    row_twists = tuple(row_twists)
    codec = Codec.top(ring, row_twists)
    memo = _MEMO.get()
    if memo is not None:
        low = min(row_twists, default=0)
        key = (ring, tuple(t - low for t in row_twists), tuple(tuple(g.items()) for g in gens))
        gb = memo.get(key)
        if gb is not None:
            return gb if gb.row_twists == row_twists else replace(gb, row_twists=row_twists, codec=codec)
    packed = [codec.encode(g, row_twists) for g in gens]
    flagged: set[int] = set()
    basis, lts = buchberger(packed, codec, row_twists, ring.field.p, flagged)
    gb = GroebnerBasis(ring, row_twists, codec, basis, lts, frozenset(flagged))
    if memo is not None:
        memo[key] = gb
    return gb


def reduced_groebner(
    gens: Sequence[Packed], codec: Codec, ring: GradedRing, row_twists: Sequence[int]
) -> GroebnerBasis:
    """The reduced Groebner basis under codec of the submodule the packed
    generators span: `buchberger`, then `autoreduce`.  It depends on the
    submodule alone, not on the generators chosen."""
    p = ring.field.p
    basis, leads = autoreduce(*buchberger(gens, codec, row_twists, p), codec, p)
    return GroebnerBasis(ring=ring, row_twists=tuple(row_twists), codec=codec, basis=basis, leads=leads)


def schreyer_syzygies(gb: GroebnerBasis):
    """Groebner basis (for the induced order) of Syz(gb.basis), not
    tail-reduced, sorted as `_tower_order` sorts.

    Returns (elements, leads, codec): the elements and their lead terms are
    packed by codec, the Schreyer level over gb's lead terms.

    Only the minimal pairs are reduced.  Under the Schreyer order the syzygy of
    the pair (i, j), i < j, has the lead term (i, s_ij) with s_ij =
    lcm(m_i, m_j)/m_i, known before any reduction (Schreyer's theorem), and
    the relations of all pairs form a Groebner basis of the syzygies.  For
    each i the pairs are taken by ascending (deg s_ij, j), and one is kept
    unless an already kept s_ik divides its s_ij, so equal shifts keep the
    smallest j.  The kept lead terms generate the same lead-term module, so
    the kept relations are a Groebner basis as they stand; they have the lead
    terms of the reduced basis, and `autoreduce` of them is that basis element
    for element (La Scala-Stillman, "Strategies for computing minimal free
    resolutions", 1998).  A resolution needs no more, so none is reduced.
    """
    p = gb.ring.field.p
    codec, leads, lts = gb.codec, gb.leads, gb.lts
    degs = gb.element_degrees()
    nxt = codec.schreyer(leads)
    ib, last = nxt.ib, len(leads) - 1

    syz: list[Packed] = []
    syz_lts: list[int] = []
    for group in gb._by_comp.values():
        for a, i in enumerate(group):
            mi = lts[i][1]
            # (shift of e_i, j) with j ascending; the stable sort makes it (deg, j)
            candidates = [(mono_div(mono_lcm(mi, lts[j][1]), mi), j) for j in group[a + 1 :]]
            candidates.sort(key=lambda cand: mono_deg(cand[0]))
            kept: list[int] = []  # the pairs' packed lead terms in gb's module
            for si, j in candidates:
                tau = leads[i] + codec.shift(si)
                if any(codec.divides(k, tau) for k in kept):
                    continue
                codec.check(mono_deg(si) + degs[i])
                kept.append(tau)
                s: Packed = {}
                _add_scaled(s, gb.basis[i], tau - leads[i], 1, p)
                _add_scaled(s, gb.basis[j], tau - leads[j], -1, p)
                rem, quots = gb._reduce(s, track=True)
                if rem:
                    raise AlgebraError("S-pair of a Groebner basis failed to reduce")
                # (k, shift) is the term of index k over image leads[k] + shift;
                # every quotient term lies below tau, and each appears once
                lead = (tau << ib) | (last - i)
                rel: Packed = {lead: 1, (tau << ib) | (last - j): p - 1}
                for k, q in quots.items():
                    for shift, c in q.items():
                        rel[((leads[k] + shift) << ib) | (last - k)] = p - c
                syz.append(rel)
                syz_lts.append(lead)

    basis, lts_out = _tower_order(syz, syz_lts, nxt)
    return basis, lts_out, nxt


# -- conversions ---------------------------------------------------------------


def column_element(matrix: Sequence[Sequence[Polynomial]], j: int) -> Element:
    """Column j of a matrix of polynomials, as an element of the free module."""
    return {(i, m): c for i, row in enumerate(matrix) for m, c in row[j].terms.items()}


def presentation_elements(pres: GradedPresentation) -> list[Element]:
    """The columns over S of the presented module's relations: q*e_i for each
    row i and each quotient generator q, then the columns of phi, so that the
    cokernel over the ambient ring is the module over S/J.  J's columns come
    first, so the columns of phi that `groebner` leaves unflagged are minimal
    relations modulo JG (`invariants.minimal_relation_degrees`)."""
    gens = pres.ring.quotient_gens
    cols = [{(i, m): c for m, c in q.terms.items()} for i in range(pres.n) for q in gens]
    return cols + [column_element(pres.matrix, j) for j in range(pres.m)]


def elements_to_matrix(
    elements: Sequence[Element], n_rows: int, ring: GradedRing
) -> tuple[tuple[Polynomial, ...], ...]:
    """Pack module elements as the columns of an n_rows x len(elements) matrix;
    zero entries share one zero polynomial."""
    cols: list[dict[int, dict[Mono, int]]] = []
    for v in elements:
        col: dict[int, dict[Mono, int]] = {}
        for (c, m), val in v.items():
            entry = col.get(c)
            if entry is None:
                col[c] = entry = {}
            entry[m] = val
        cols.append(col)
    zero = ring.zero()
    return tuple(
        tuple(Polynomial(ring, col[i]) if i in col else zero for col in cols)
        for i in range(n_rows)
    )


# -- resolutions ---------------------------------------------------------------


@dataclass
class FreeResolution:
    """Chain ... -> F_2 -> F_1 -> F_0 with coker(d_1) the presented module.

    twists[k] lists the generator degrees of F_k.  levels[k-1] = (codec,
    columns) holds d_k packed: columns[c] is the image of the c-th generator of
    F_k, an element of F_{k-1} packed by codec, and codec.bases[r] is the
    r-th generator of F_{k-1}, so the scalar entry of d_k at (r, c) is
    columns[c].get(codec.bases[r], 0).  A Schreyer resolution keeps its
    Groebner levels here as they are; `from_matrices` packs hand-built
    matrices.  `differentials[k-1]`, the matrix of d_k (rows indexed by
    F_{k-1}, columns by F_k), is decoded on first access.
    """

    ring: GradedRing
    twists: list[tuple[int, ...]]
    levels: list[tuple[Codec, list[Packed]]]

    @classmethod
    def from_matrices(
        cls,
        ring: GradedRing,
        twists: Sequence[Sequence[int]],
        differentials: Sequence[Sequence[Sequence[Polynomial]]],
    ) -> "FreeResolution":
        """The resolution with these matrices, each level position over term."""
        twists = [tuple(t) for t in twists]
        levels = []
        for k, mat in enumerate(differentials):
            codec = Codec.pot(ring, twists[k])
            columns = [
                codec.encode(column_element(mat, j), twists[k])
                for j in range(len(twists[k + 1]))
            ]
            levels.append((codec, columns))
        return cls(ring=ring, twists=twists, levels=levels)

    @cached_property
    def differentials(self) -> list[tuple[tuple[Polynomial, ...], ...]]:
        return [
            elements_to_matrix(list(map(codec.decode_element, columns)), len(rows), self.ring)
            for (codec, columns), rows in zip(self.levels, self.twists)
        ]

    @property
    def length(self) -> int:
        return len(self.levels)


def schreyer_resolution(pres: GradedPresentation) -> FreeResolution:
    """Free resolution over the ambient ring S, via iterated Schreyer
    syzygies, of the module's columns over S (see `presentation_elements`).
    Level 0 is the module's degree-first `groebner` basis, which this
    function alone finishes (`autoreduce`) before resolving it."""
    ring = pres.ring.base
    twists: list[tuple[int, ...]] = [pres.row_twists]
    levels: list[tuple[Codec, list[Packed]]] = []

    gb = groebner(presentation_elements(pres), ring, pres.row_twists)
    basis, leads = autoreduce(gb.basis, gb.leads, gb.codec, ring.field.p)
    current = GroebnerBasis(
        ring=ring, row_twists=gb.row_twists, codec=gb.codec, basis=basis, leads=leads
    )
    while current.basis:
        if len(levels) > ring.nvars + 1:
            raise AlgebraError("resolution failed to terminate")
        levels.append((current.codec, current.basis))
        level = tuple(current.element_degrees())
        twists.append(level)
        syz, leads, codec = schreyer_syzygies(current)
        current = GroebnerBasis(
            ring=ring, row_twists=level, codec=codec, basis=syz, leads=leads
        )
    return FreeResolution(ring=ring, twists=twists, levels=levels)


# -- syzygies and colons ---------------------------------------------------------


def syzygies_of(
    heads: Sequence[Element],
    ring: GradedRing,
    row_twists: Sequence[int],
    tails: Sequence[Element] = (),
) -> GroebnerBasis:
    """Reduced Groebner basis of {r : sum_k r_k heads_k in <tails>}, a submodule
    of the free module whose e_k has the degree of heads_k (0 for a zero head);
    with no tails that is Syz(heads).

    One Groebner basis of the graph module generated by (heads_k | e_k) and
    (tails_j | 0) in (+)_c R(-row_twists_c) (+) (+)_k R e_k, position over term
    with the row components first.  An element whose lead term lies in the
    e-block has no row part, and those elements, auto-reduced, are the reduced
    Groebner basis of the answer (Kreuzer-Robbiano, "Computational Commutative
    Algebra 1", Section 3.1).  Component n + k of the graph module packs its
    terms exactly as component k of `Codec.pot(ring, twists of the e_k)` does,
    so the e-block elements are the answer's packed elements as they stand.
    """
    n = len(row_twists)
    twists = tuple(int(elt_degree(h, row_twists)) if h else 0 for h in heads)
    graph_twists = (*row_twists, *twists)
    codec = Codec.pot(ring, graph_twists)
    gens = []
    for k, h in enumerate(heads):
        g = codec.encode(h, graph_twists)
        g[codec.bases[n + k]] = 1
        gens.append(g)
    gens.extend(codec.encode(u, graph_twists) for u in tails)
    p = ring.field.p
    basis, lts = buchberger(gens, codec, graph_twists, p)
    # a row-block lead term divides no e-block term: reduce the e-block alone
    e_block = [i for i, t in enumerate(lts) if codec.component(t) >= n]
    basis, lts = autoreduce([basis[i] for i in e_block], [lts[i] for i in e_block], codec, p)
    return GroebnerBasis(
        ring=ring,
        row_twists=twists,
        codec=Codec.pot(ring, twists),
        basis=basis,
        leads=lts,
    )


# -- polynomial-level helpers ---------------------------------------------------


def poly_element(f: Polynomial) -> Element:
    return {(0, m): c for m, c in f.terms.items()}


def element_poly(v: Element, ring: GradedRing) -> Polynomial:
    return Polynomial(ring, {m: c for (_, m), c in v.items()})


@lru_cache(maxsize=CACHE_SIZE)
def quotient_groebner(ring: GradedRing) -> GroebnerBasis:
    """Groebner basis of the defining ideal of a quotient ring (empty if
    none), in the ring's own order, position over term: `buchberger`'s basis
    as it stands.  Its one reader is `reduce_poly`, and a full normal form
    modulo any Groebner basis under that order is the same, so it needs no
    tail reduction."""
    base = ring.base
    codec = Codec.pot(base, (0,))
    gens = [codec.encode(poly_element(q), (0,)) for q in ring.quotient_gens]
    basis, leads = buchberger(gens, codec, (0,), base.field.p)
    return GroebnerBasis(ring=base, row_twists=(0,), codec=codec, basis=basis, leads=leads)


def reduce_poly(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """The normal form of f; f itself when no term of f reduces."""
    packed = gb.codec.encode(poly_element(f), gb.row_twists)
    rem, _ = gb._reduce(packed, False)
    # a reduction step removes a term of f for good, so rem == f means none
    if rem == packed:
        return f
    return element_poly(gb.codec.decode_element(rem), gb.ring)
