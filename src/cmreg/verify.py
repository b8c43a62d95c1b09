"""Empirical certification of the bound formulas.

Everything here compares a formula against a value the engine actually
computes: `audit` evaluates every bound whose hypotheses a module satisfies
and checks it against the true regularity (of the module, its symmetric
powers, or its Fitting quotient), `section_check` verifies the arithmetic
relating torsion of a linear form to finite-length sections, and
`tower_check` walks a quotient tower and tests the squaring recursion that
drives the doubly exponential bound.  `random_module` supplies seeded,
reproducible instances; `mayr_meyer` builds the classical worst-case family
(only its shape is ever inspected -- resolving it is the whole point of not
trusting single examples).

`audit`, `section_check`, `random_tower` (and so `random_section_form`) and
`tower_check` each run in one `groebner.memo_scope()`, so a Groebner basis
wanted twice by one call is built once (see the `groebner` module docstring).
The torsion of a form is read one way everywhere: off one run of M in
coordinates where the forms are the last variables (`modops._adapted_run`).
`random_tower` draws each form off that run, resampling until its torsion on
the level it cuts has finite length; `random_section_form` is its first
level.  `section_check` reads the H0 of the quotients and reg(M/lM) off the
run of one form (`modops._section_columns`), and `tower_check` every level
of a tower off the run of all its forms.  The latest adapted run is kept in
a one-entry slot, so a check called right after its draw reads the draw's
run.  reg M is the walk on M's own run (`_generator_data`), so neither check
resolves anything where the walks certify.  Only their fallbacks, for a step
the walk does not certify, present a quotient (`quotient_by_linear`) or
read a Betti table.
"""

from dataclasses import dataclass, field
from functools import reduce
from math import comb
import random
import time

from .core import (
    AlgebraError,
    GradedPresentation,
    GradedRing,
    NEG_INF,
    Polynomial,
    PrimeField,
    ZeroModule,
    monomials_of_degree,
    render_poly,
    validate_presentation,
)
from .groebner import Codec, memo_scope, quotient_groebner
from .invariants import (
    _filter_regular_walk,
    hilbert_data,
    hilbert_numerator,
    minimal_relation_degrees,
    module_invariants,
    numerator_from_resolution,
    regularity,
    ring_invariants,
)
from .modops import (
    _adapted_run,
    _cut_torsion,
    _section_columns,
    fitting_ideal_0,
    h0_profile,
    minimal_presentation,
    quotient_by_linear,
    sym_power,
)
from .complexes import complex_regularity_bound, complex_terms
from .bounds import (
    bounded_power,
    dim1_module_fitt,
    dim1_module_sym,
    dim1_ring_fitt,
    dim1_ring_sym,
    main_bound,
    uniform_dim1_bound,
)

# true values are only computed when they stay cheap
SYM_TARGET_GEN_LIMIT = 20
FITT_TARGET_ROW_LIMIT = 4
# symmetric powers l = 1..SYM_LIMIT are scored
SYM_LIMIT = 3
# every formula `audit` may score, in the order of the CSV columns
FORMULA_IDS = (
    *(f"sym_dim1_ring_l{l}" for l in range(1, SYM_LIMIT + 1)),
    "fitt_dim1_ring",
    *(f"sym_dim1_module_l{l}" for l in range(1, SYM_LIMIT + 1)),
    "fitt_dim1_module", "uniform_dim1", "main", "complex",
)
# linear forms drawn before giving up on finite torsion
FORM_ATTEMPTS = 20


# -- random instances ----------------------------------------------------------------


def _variable_names(count: int) -> tuple[str, ...]:
    short = ("x", "y", "z", "w")
    if count <= len(short):
        return short[:count]
    return short + tuple(f"x{i}" for i in range(5, count + 1))


def random_polynomial(rng: random.Random, ring: GradedRing, degree: int) -> Polynomial:
    """Random nonzero homogeneous polynomial of the given degree."""
    if degree < 0:
        raise AlgebraError("cannot draw a polynomial of negative degree")
    monos = list(monomials_of_degree(ring.nvars, degree))
    p = ring.field.p
    terms = {m: rng.randrange(p) for m in monos}
    if not any(terms.values()):
        pick = monos[rng.randrange(len(monos))]
        terms[pick] = 1 + rng.randrange(p - 1)
    return Polynomial(ring, terms)


def random_linear_form(rng: random.Random, ring: GradedRing) -> Polynomial:
    return random_polynomial(rng, ring.base, 1)


def random_module(
    seed: int,
    *,
    p_vars: int = 3,
    char: int = 101,
    n: int = 2,
    m: int = 4,
    max_a: int = 2,
    max_b: int = 4,
    density: float = 0.75,
    order: str = "grevlex",
) -> GradedPresentation:
    """Seeded random graded module over F_char in `p_vars` variables.

    Generator twists land in [0, max_a], column degrees in [min(a)+1, max_b]
    (bumped up when max_b is too small to admit a nonzero entry).  Entries of
    degree zero are never drawn, no column is zero and the ring has no
    quotient, so the output is a minimal presentation (`minimal_presentation`
    returns it unchanged) of a nonzero module.  Same seed, same module.
    """
    rng = random.Random(seed)
    ring = GradedRing(PrimeField(char), _variable_names(p_vars), order)
    for _ in range(50):
        a = tuple(sorted(rng.randint(0, max_a) for _ in range(n)))
        lo = min(a) + 1
        hi = max(max_b, lo)
        rows: list[list[Polynomial]] = [[] for _ in range(n)]
        degrees: list[int] = []
        stuck = False
        for _j in range(m):
            for _try in range(20):
                bj = rng.randint(lo, hi)
                col = []
                for i in range(n):
                    d = bj - a[i]
                    if d >= 1 and rng.random() < density:
                        col.append(random_polynomial(rng, ring, d))
                    else:
                        col.append(ring.zero())
                if any(not f.is_zero() for f in col):
                    break
            else:
                stuck = True
                break
            degrees.append(bj)
            for i in range(n):
                rows[i].append(col[i])
        if stuck:
            continue
        return validate_presentation(ring, a, rows, degrees)
    raise AlgebraError("random search failed to produce a usable module")


def random_complete_intersection(
    seed: int,
    *,
    p_vars: int = 3,
    char: int = 101,
    max_codim: int = 3,
    max_degree: int = 4,
) -> tuple[GradedPresentation, list[int]]:
    """Cyclic quotient by a random regular sequence, plus the form degrees.

    Regularity of the sequence is certified by codimension == length of the
    sequence, so callers can rely on the complete-intersection identities.
    """
    rng = random.Random(seed)
    ring = GradedRing(PrimeField(char), _variable_names(p_vars))
    c = rng.randint(1, min(max_codim, p_vars))
    degs = [rng.randint(1, max_degree) for _ in range(c)]
    for _ in range(50):
        polys = [random_polynomial(rng, ring, d) for d in degs]
        pres = validate_presentation(ring, (0,), [polys])
        if hilbert_data(pres).codimension == c:
            return pres, degs
    raise AlgebraError("failed to draw a regular sequence; degrees too constrained")


# -- bound audit ---------------------------------------------------------------------


@dataclass
class BoundReport:
    """Everything one audited module produced, JSON-shaped."""

    instance: dict
    computed: dict
    bounds: list[dict] = field(default_factory=list)
    verdicts: list[dict] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return all(v["holds"] for v in self.verdicts)


def _instance_summary(pres: GradedPresentation, extra: dict | None) -> dict:
    ring = pres.ring
    info = {
        "char": ring.field.p,
        "variables": list(ring.variables),
        "order": ring.order,
        "quotient": [render_poly(q) for q in ring.quotient_gens],
        "row_twists": list(pres.row_twists),
        "column_degrees": list(pres.column_degrees),
    }
    if extra:
        info.update(extra)
    return info


@memo_scope()
def audit(
    pres: GradedPresentation,
    instance: dict | None = None,
    check: bool = True,
) -> BoundReport:
    """Evaluate every formula whose hypotheses the module satisfies, then
    compare each against the regularity of its actual target.

    The presentation is minimalized first: the closed forms are only claimed
    for minimal generator/relation degrees.  Symmetric-power formulas are
    checked against reg Sym_l(M) while the power stays small, Fitting-ideal
    formulas against reg R/Fitt_0(M), the rest against reg M itself.  With
    check=False the (possibly expensive) true targets are skipped and the
    report carries bound values only.
    """
    t0 = time.perf_counter()
    pres_min = minimal_presentation(pres)
    if pres_min.is_zero_module:
        raise ZeroModule("cannot audit the zero module")
    ring = pres_min.ring
    dim_r, deg_r, reg_r, cm_r = ring_invariants(ring)
    mi = module_invariants(pres_min)
    timings = {"invariants": time.perf_counter() - t0}

    # cross-check: the two numerator paths must agree before anything is scored
    if hilbert_numerator(pres_min) != numerator_from_resolution(mi.resolution):
        raise AlgebraError("Hilbert numerator mismatch between engine paths")

    a, b = pres_min.row_twists, pres_min.column_degrees
    n, m = pres_min.n, pres_min.m
    delta = int(mi.hilbert.dimension)
    c = dim_r - delta

    t1 = time.perf_counter()
    bounds: list[dict] = []

    def entry(formula: str, value, applicable: bool = True, l: int | None = None):
        bounds.append({"formula": formula, "l": l, "value": value, "applicable": applicable})

    if dim_r <= 1 and m >= 1:
        for l in range(1, SYM_LIMIT + 1):
            entry(f"sym_dim1_ring_l{l}", dim1_ring_sym(a, b, reg_r, dim_r, l), l=l)
        fv = dim1_ring_fitt(a, b, reg_r, dim_r)
        entry("fitt_dim1_ring", fv, applicable=fv is not None)
    if dim_r >= 2 and delta <= 1 and m >= n + dim_r - 2:
        for l in range(1, SYM_LIMIT + 1):
            entry(f"sym_dim1_module_l{l}", dim1_module_sym(a, b, reg_r, dim_r, l), l=l)
        entry("fitt_dim1_module", dim1_module_fitt(a, b, reg_r, dim_r))
    if delta <= 1 and not any(a) and (dim_r > 0 or n > 1):
        entry("uniform_dim1", uniform_dim1_bound(a, b, reg_r, dim_r))
    entry("main", main_bound(a, b, c, delta, reg_r, deg_r, cm_r))
    if delta <= 1:
        terms = complex_terms(a, b, 1)
        entry("complex", complex_regularity_bound(terms, reg_r, dim_r))
    timings["bounds"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    sym_regs: dict[int, int] = {}
    if check:
        for l in sorted(
            {e["l"] for e in bounds if e["l"] is not None and e["applicable"]}
        ):
            if comb(n + l - 1, l) <= SYM_TARGET_GEN_LIMIT:
                sym_regs[l] = (
                    mi.regularity if l == 1 else regularity(sym_power(pres_min, l))
                )

    fitt_reg: int | None = None
    if check and any(e["formula"].startswith("fitt_") and e["applicable"] for e in bounds):
        if n <= FITT_TARGET_ROW_LIMIT:
            minors = fitting_ideal_0(pres_min)
            if minors:
                fitt_reg = regularity(validate_presentation(ring, (0,), [minors]))
            else:
                fitt_reg = reg_r  # zero Fitting ideal: the quotient is R itself

    verdicts: list[dict] = []

    def verdict(formula: str, bound, actual: int) -> None:
        verdicts.append(
            {"formula": formula, "bound": bound, "actual": actual, "holds": bound >= actual}
        )

    for e in bounds if check else ():
        if not e["applicable"]:
            continue
        name, val = e["formula"], e["value"]
        if name.startswith("sym_"):
            if e["l"] in sym_regs:
                verdict(name, val, sym_regs[e["l"]])
        elif name.startswith("fitt_"):
            if fitt_reg is not None:
                verdict(name, val, fitt_reg)
        elif name == "uniform_dim1":
            verdict(name, val, max(set(sym_regs.values()) | {mi.regularity}))
        else:  # main, complex
            verdict(name, val, mi.regularity)
    timings["verdicts"] = time.perf_counter() - t2

    computed = {
        "regularity": mi.regularity,
        "dimension": delta,
        "codimension": c,
        "multiplicity": mi.hilbert.multiplicity,
        "length": mi.hilbert.length,
        "is_cm": mi.is_cm,
        "betti": sorted([i, j, v] for (i, j), v in mi.betti.items()),
        "ring": {"dim": dim_r, "degree": deg_r, "regularity": reg_r, "is_cm": cm_r},
        "sym_regularities": {str(l): r for l, r in sym_regs.items()},
        "fitting_regularity": fitt_reg,
    }
    return BoundReport(
        instance=_instance_summary(pres_min, instance),
        computed=computed,
        bounds=bounds,
        verdicts=verdicts,
        timings=timings,
    )


def audit_random(seed: int, **params) -> BoundReport:
    pres = random_module(seed, **params)
    return audit(pres, instance={"seed": seed, **params})


# -- torsion/section arithmetic ------------------------------------------------------


@dataclass
class SectionReport:
    """Outcome of the torsion-vs-sections comparison for one linear form."""

    form: str
    window: tuple[int, int]
    colon_length: int
    kernel_by_degree: dict[int, int]
    h0: dict[int, int]
    h0_bar: dict[int, int]
    h0_bar_prime: dict[int, int]
    mu_star: int
    identity_rows: list[tuple[int, int, int]]  # (mu, lhs, rhs), cumulative form
    identity_cumulative: bool
    identity_per_degree: bool
    upper_estimate: bool
    tail_bound: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.identity_cumulative
            and self.identity_per_degree
            and self.upper_estimate
            and self.tail_bound
        )


def _generator_data(pres: GradedPresentation) -> tuple[int, int]:
    """(reg M, floor = max(b0 + h - 2, max b1 - 2)): the degree floor that the
    section and tower estimates start from, with b0 the top generator degree
    of M, b1 its first-syzygy degrees over R and h the top generator degree
    of J but at least 1.  All are read off M's minimal presentation, so its
    generators are minimal: reg M is `regularity`'s walk on the module's one
    degree-first run (the Betti table only where a step is not certified), b1
    the minimal relation degrees that run flags, and J's minimal generators
    the ones that J's one basis (`quotient_groebner`) leaves unflagged."""
    minimal = minimal_presentation(pres)
    if minimal.is_zero_module:
        raise ZeroModule("module is zero")
    gens = pres.ring.quotient_gens
    flagged = quotient_groebner(pres.ring).redundant if gens else frozenset()
    h = max((q.degree() for j, q in enumerate(gens) if j not in flagged), default=1)
    floor = max([max(minimal.row_twists) + h, *minimal_relation_degrees(minimal)]) - 2
    return regularity(minimal), floor


@memo_scope()
def section_check(pres: GradedPresentation, l: Polynomial) -> SectionReport:
    """Compare the torsion K = (0 :_M l) against finite-length sections.

    With M' = M/H0(M), Mbar = M/lM and Mbar' = M'/lM', the lengths satisfy,
    degree by degree,

        len(K_mu) = h0(M)_mu - h0(M)_{mu+1} + h0(Mbar)_{mu+1} - h0(Mbar')_{mu+1},

    the window estimate h0(M)_{mu+a} <= sum_{j<=a} (h0(Mbar) - h0(Mbar'))_{mu+j}
    for a = the span of h0(M), and the section count at

        mu* = max(floor, reg(Mbar)) + 1,   floor = max(b0(M) + h - 2, b1(M) - 2),

    h the top generator degree of J (`_generator_data`), bounds the
    regularity: reg M <= mu - 1 + h0(M)_mu at mu in {mu*, mu*+1}.  The
    identity rows are suffix sums from the top of the window, and each check
    reads them in one pass, so the report costs time linear in the window.

    K's series, H0(Mbar), H0(Mbar') and reg(Mbar) are read off one
    degree-first run of M in coordinates where l = x_v
    (`modops._section_columns`): K from the exact sequence on the numerators
    of M and Mbar, the run `random_section_form` draws l by (kept in
    `modops._adapted_run`'s slot, so a check right after the draw builds
    no run of its own), and the others from the walk's lead-term steps.  K
    is never presented, and reg M, in the tail bound, is the walk on M's own
    run (`_generator_data`).  A column whose step is not certified falls
    back on its own: H0(Mbar) and H0(Mbar') to `h0_profile` of M/lM and
    M'/lM', reg(Mbar) to `regularity`.  H0(M), and M' for that fallback,
    come from `h0_profile`'s saturation rounds of M in the original
    coordinates.  So the per-degree identity compares two runs
    in two coordinate systems: those rounds against the adapted run.  The
    tier-1 tests check every column against a route of its own: K against
    the graph colon, the others against the rounds.
    """
    if pres.is_zero_module:
        raise ZeroModule("section check needs a nonzero module")
    prof_m, mprime = h0_profile(pres)
    # ahead of the reader: an unflagged zero module is refused here, with
    # `_generator_data`'s message rather than the walk's
    reg, floor = _generator_data(pres)
    columns = _section_columns(pres, l)
    if columns.torsion.length is None:
        raise AlgebraError("the form has infinite torsion; pick a more generic one")
    lam, kvals = columns.torsion.length, columns.torsion.q_polynomial
    hb, hbp, reg_bar = columns.h0_bar, columns.h0_bar_prime, columns.reg_bar
    if hb is None:
        hb = h0_profile(quotient_by_linear(pres, l))[0].h0_by_degree
    if hbp is None:
        hbp = h0_profile(quotient_by_linear(mprime, l))[0].h0_by_degree
    if reg_bar is None:
        reg_bar = regularity(quotient_by_linear(pres, l))

    hm = prof_m.h0_by_degree
    support = set(hm) | set(hb) | set(hbp) | set(kvals)
    lo = min(support, default=0) - 1
    hi = max(support, default=0) + 2

    # suffix sums from the top of the window, where every column is zero:
    # len K in degrees >= mu, and h0(Mbar) - h0(Mbar') in degrees > mu
    rows: list[tuple[int, int, int]] = []
    gains: dict[int, int] = {}
    lhs = gain = 0
    for mu in range(hi, lo - 1, -1):
        lhs += kvals.get(mu, 0)
        gains[mu] = gain
        rows.append((mu, lhs, hm.get(mu, 0) + gain))
        gain += hb.get(mu, 0) - hbp.get(mu, 0)
    rows.reverse()
    cumulative = all(lhs == rhs for _, lhs, rhs in rows)
    # row mu less row mu + 1 is the identity in degree mu; at hi every column
    # vanishes in degrees hi and hi + 1, so it holds there
    per_degree = all(l0 - l1 == r0 - r1 for (_, l0, r0), (_, l1, r1) in zip(rows, rows[1:]))
    # the window's sum over degrees mu + 1 .. mu + span is a difference of suffix sums
    span = prof_m.a_span
    upper = all(
        hm.get(mu + span, 0) <= gains[mu] - gains.get(mu + span, 0) for mu in range(lo, hi + 1)
    )

    mu_star = max(floor, reg_bar) + 1
    tail = all(reg <= mu - 1 + hm.get(mu, 0) for mu in (mu_star, mu_star + 1))

    return SectionReport(
        form=render_poly(l),
        window=(lo, hi),
        colon_length=lam,
        kernel_by_degree=dict(sorted(kvals.items())),
        h0=dict(sorted(hm.items())),
        h0_bar=dict(sorted(hb.items())),
        h0_bar_prime=dict(sorted(hbp.items())),
        mu_star=mu_star,
        identity_rows=rows,
        identity_cumulative=cumulative,
        identity_per_degree=per_degree,
        upper_estimate=upper,
        tail_bound=tail,
    )


def random_section_form(pres: GradedPresentation, rng: random.Random) -> Polynomial:
    """A linear form whose torsion on M is finite (resampled until it is)."""
    return random_tower(pres, rng, 1)[0]


# -- quotient towers -----------------------------------------------------------------


@dataclass
class TowerReport:
    """Squaring recursion along a tower M -> M/l1 -> M/(l1,l2) -> ..."""

    forms: list[str]
    regularities: list[int]
    colon_lengths: list[int]
    q_values: list[int]
    chain_holds: list[bool]
    final_bound: int
    final_holds: bool

    @property
    def all_hold(self) -> bool:
        return all(self.chain_holds) and self.final_holds


@memo_scope()
def tower_check(pres: GradedPresentation, forms: list[Polynomial]) -> TowerReport:
    """Walk the quotient tower M_i = M/(l_1..l_i)M cut out by the forms and
    test, level by level, Q_i <= Q_{i+1}^2 with Q_i = 1 + max(reg M_i, len K_i,
    floor), where K_i is the torsion of the next form on M_i and the floor
    collects the generator and relation degrees of M.  The last level must
    certify reg M <= Q_s^(2^s).  The floor and reg M, level 0 and the final
    bound's target, are `_generator_data`'s, the ones `section_check`'s mu*
    and tail bound read.  Each K_i, and each reg M_i past M's own, is read
    off one adapted run (`modops._adapted_run`, the run `random_tower` draws
    the forms by, which its slot hands a check right after the draw; reg M_i
    is the walk on its cut, `invariants._filter_regular_walk`), refused past
    the packed terms' limit as `regularity` refuses.  Each level whose walk
    is not certified costs one run more: `regularity` of M_i, presented by
    `quotient_by_linear`.
    """
    if not forms:
        raise AlgebraError("a tower needs at least one form")
    if pres.is_zero_module:
        raise ZeroModule("tower check needs a nonzero module")
    if min(pres.row_twists) < 0:
        raise AlgebraError("tower floor assumes generators in nonnegative degrees")

    reg, floor = _generator_data(pres)
    ideals, left = _adapted_run(pres, forms)
    torsion = _cut_torsion(pres, ideals, left)
    base, a = pres.ring.base, pres.row_twists
    regs: list[int] = []
    for i, (k, hd) in enumerate(zip(left, torsion)):
        if i == 0:
            reg_i = reg
        elif (walk := _filter_regular_walk(ideals, a, k, base.nvars)) is None:
            reg_i = regularity(reduce(quotient_by_linear, forms[:i], pres))
        else:
            reg_i, depth = walk
            Codec.top(base, a).check(reg_i + base.nvars - depth)  # pd = v - depth
        if hd.length is None:
            raise AlgebraError(f"form {i + 1} has infinite torsion on level {i}")
        regs.append(reg_i)
    lengths = [hd.length for hd in torsion]
    qs = [1 + max(r, lam, floor) for r, lam in zip(regs, lengths)]

    s = len(forms) - 1
    chain = [qs[i] <= qs[i + 1] ** 2 for i in range(s)]
    final_bound = bounded_power("final_bound", qs[s], 2**s)
    return TowerReport(
        forms=[render_poly(f) for f in forms],
        regularities=regs,
        colon_lengths=lengths,
        q_values=qs,
        chain_holds=chain,
        final_bound=final_bound,
        final_holds=reg <= final_bound,
    )


@memo_scope()
def random_tower(
    pres: GradedPresentation, rng: random.Random, levels: int
) -> list[Polynomial]:
    """Forms l_1..l_levels, l_{i+1} with finite torsion on M_i =
    M/(l_1..l_i)M: each draw is resampled until it has.  The torsion is read
    off the adapted run of M in which l_1..l_i and the draw are the last
    variables (`modops._adapted_run`), so no quotient is presented; only the
    draw's own level is read, off its two cuts (`modops._cut_torsion`).  The
    last run is that of all the forms, the one `tower_check` reads, and
    `modops._adapted_run` keeps it, so a check right after the draw reads
    it without a run of its own."""
    forms: list[Polynomial] = []
    for _ in range(levels):
        for _ in range(FORM_ATTEMPTS):
            l = random_linear_form(rng, pres.ring)
            ideals, left = _adapted_run(pres, [*forms, l])
            if _cut_torsion(pres, ideals, left[-2:])[0].length is not None:
                forms.append(l)
                break
        else:
            raise AlgebraError("no linear form with finite torsion found")
    return forms


# -- worst-case family ---------------------------------------------------------------


def mayr_meyer(k: int = 1, d: int = 2, char: int = 101) -> GradedPresentation:
    """Homogeneous binary-counter ideal with doubly exponential complexity.

    One global degree variable z plus, per level r = 0..k, a start/finish pair
    (s_r, f_r) and two quadruples (b_r_i, c_r_i): 10(k+1)+1 variables.  Level 0
    contributes the four degree-(d+2) amplifiers

        s_0 c_0_i z^d - f_0 c_0_i b_0_i^d,

    and each level r >= 1 adds three degree-2 transfers, four level-r
    amplifiers, and one degree-2 drain: 4 + 8k generators in total.  Only the
    shape of this presentation is meant to be used; resolving it blows up
    doubly exponentially in k, which is exactly why it is here.  Levels beyond
    2 are refused outright -- nothing downstream could survive them.
    """
    if k < 1 or k > 2:
        raise AlgebraError("level must be 1 or 2")
    if d < 1:
        raise AlgebraError("amplification exponent must be positive")
    names = ["z"]
    for r in range(k + 1):
        names += [f"s{r}", f"f{r}"]
        names += [f"b{r}_{i}" for i in range(1, 5)]
        names += [f"c{r}_{i}" for i in range(1, 5)]
    ring = GradedRing(PrimeField(char), tuple(names))

    z = ring.var("z")
    s = [ring.var(f"s{r}") for r in range(k + 1)]
    f = [ring.var(f"f{r}") for r in range(k + 1)]
    bb = [[ring.var(f"b{r}_{i}") for i in range(1, 5)] for r in range(k + 1)]
    cc = [[ring.var(f"c{r}_{i}") for i in range(1, 5)] for r in range(k + 1)]

    gens: list[Polynomial] = []
    for i in range(4):
        gens.append(s[0] * cc[0][i] * z**d - f[0] * cc[0][i] * bb[0][i] ** d)
    for r in range(1, k + 1):
        gens.append(s[r] * z - s[r - 1] * cc[r - 1][0])
        gens.append(f[r - 1] * cc[r - 1][0] - s[r - 1] * cc[r - 1][1])
        gens.append(f[r - 1] * cc[r - 1][1] - f[r] * z)
        for i in range(4):
            gens.append(s[r] * cc[r][i] * z**d - f[r] * cc[r][i] * bb[r][i] ** d)
        gens.append(f[r] * bb[r - 1][1] - f[r] * z)
    return validate_presentation(ring, (0,), [gens])
