"""Closed-form regularity and multiplicity bounds from presentation degrees.

Every function here is pure integer arithmetic on the row twists `a`, the
column degrees `b`, and precomputed ring invariants (reg, dim, degree of the
base ring).  Nothing touches Groebner bases, so the values stay exact for
arbitrarily large inputs.

Naming: `dim1_ring_*` applies over base rings of dimension at most one,
`dim1_module_*` to modules of dimension at most one over a bigger ring,
`uniform_dim1` is the single formula covering all symmetric powers at once,
`main_bound` is the general-dimension bound, and `multiplicity_bound_*` are the
three equivalent-degree estimates.

Twists.  Raising every twist and column degree by s raises reg M by s,
reg Sym^l M by l*s, and leaves reg R/Fitt_0 and the multiplicity alone.
- `dim1_*` and `multiplicity_bound_*` (and `complexes.complex_regularity_bound`)
  move that way as written.
- `main_bound` and `refined_bracket_bound` are read for generators in degrees
  >= 0: with s0 = min(min(a), 0) they are evaluated at a - s0 and b - s0, and
  s0 is added back.  `sym_main_bound` is `main_bound` at Sym^l's degrees, so
  its value moves by l*s0.
- `refined_exact_bound` is written in a form that moves by s.
- `uniform_dim1_bound` needs a = 0: no one shift fits every Sym^l at once.

Size.  A doubly exponential value is refused with `AlgebraError` before it is
taken when it would pass `MAX_BOUND_DIGITS` decimal digits (`bounded_power`),
so no bound can exhaust memory, and every value that is returned prints
quickly.
"""

from __future__ import annotations

import warnings
from itertools import combinations_with_replacement
from math import comb, factorial, log10

from .core import AlgebraError

# the most decimal digits a doubly exponential bound may have; the CLI prints
# every value within it.  At least criterion 6's largest, 20^5040 (6,557 digits)
MAX_BOUND_DIGITS = 100_000


def bounded_power(name: str, base: int, exp: int) -> int:
    """base ** exp, refused with `AlgebraError` when exp * log10|base|, its
    digit count less at most one, reaches `MAX_BOUND_DIGITS`."""
    if abs(base) > 1 and exp >= MAX_BOUND_DIGITS / log10(abs(base)):
        digits = log10(exp) + log10(log10(abs(base)))
        about = f"{round(10**digits):,}" if digits < 15 else f"10^{digits:.1f}"
        raise AlgebraError(
            f"{name} would have about {about} digits, past the budget of {MAX_BOUND_DIGITS:,}"
        )
    return base**exp


def degree_cap(a, b) -> int:
    """B = max(1 + max twist, max column degree, 1): the single number most of
    the coarse bounds are phrased in."""
    vals = [1]
    if a:
        vals.append(1 + max(a))
    if b:
        vals.append(max(b))
    return max(vals)


# -- base ring of dimension <= 1 ----------------------------------------------------


def _check_dim1_ring(dim_r: int) -> None:
    if dim_r > 1:
        raise AlgebraError("formula needs a base ring of dimension at most 1")


def dim1_ring_sym(a, b, reg_r: int, dim_r: int, l: int) -> int:
    _check_dim1_ring(dim_r)
    amax = max(a)
    if dim_r <= 0 or not b:
        return reg_r + l * amax
    return reg_r + max(l * amax, (l - 1) * amax + max(b) - 1)


def dim1_ring_fitt(a, b, reg_r: int, dim_r: int) -> int | None:
    _check_dim1_ring(dim_r)
    if dim_r <= 0:
        return reg_r
    n = len(a)
    if len(b) < n:
        return None  # no maximal minors: the Fitting ideal is zero
    top = sorted(b, reverse=True)[:n]
    return reg_r + max(0, sum(top) - sum(a) - 1)


# -- module of dimension <= 1 over a bigger ring ------------------------------------


def _dim1_module_data(a, b, dim_r: int):
    n, m = len(a), len(b)
    d = dim_r
    if d < 2:
        raise AlgebraError("use the dim <= 1 ring formulas instead")
    if m < n + d - 2:
        raise AlgebraError("presentation too narrow for the two-sided complex")
    b_desc = sorted(b, reverse=True)
    s_max = min(m - n, d - 1)
    delta_eff = (
        sum(b_desc[: n + s_max]) - s_max * min(a) - sum(a) - s_max - 1
    )
    return n, m, d, b_desc, s_max, delta_eff


def dim1_module_sym(a, b, reg_r: int, dim_r: int, l: int) -> int:
    """Regularity bound for the l-th symmetric power of a module of dimension
    at most one, via the largest term of its two-sided complex."""
    n, m, d, b_desc, s_max, delta_eff = _dim1_module_data(a, b, dim_r)
    if l < 1:
        raise AlgebraError("symmetric power index must be positive")

    def left(s: int) -> int:
        s = min(s, m)
        return sum(b_desc[:s]) - s + (l - s) * max(a)

    if l <= d - 1:
        candidates = [sum(b_desc[: min(l, m)]) - min(l, m)]
        if l <= s_max:
            candidates.append(delta_eff + l * min(a))
    else:
        candidates = [left(d - 1), left(d)]
    return reg_r + max(candidates)


def dim1_module_fitt(a, b, reg_r: int, dim_r: int) -> int:
    """Regularity bound for the quotient by the 0-th Fitting ideal.  The
    narrowness precondition already forces at least n columns, so the maximal
    minors exist."""
    _, _, _, _, _, delta_eff = _dim1_module_data(a, b, dim_r)
    return reg_r + max(0, delta_eff)


def uniform_dim1_bound(a, b, reg_r: int, dim_r: int) -> int:
    """One bound covering every symmetric power of a dim <= 1 module at once.

    Only meaningful for modules generated in degree 0.  A positive twist feeds
    l * max(a) into the l-th power and no l-free bound survives (already over
    F_p[x], the shifted residue field k(-1) has reg Sym_l = l).  A negative
    twist shifts M and Sym_l M by different amounts, so no one shift of the
    value fits both: S(1)/(x^2, y^2) has reg 1 above a value of 0.
    """
    n = len(a)
    d = dim_r
    if any(a):
        raise AlgebraError("uniform bound assumes every generator in degree 0")
    if d <= 0 and n == 1:
        raise AlgebraError("uniform bound needs positive dimension or two generators")
    cap = degree_cap(a, b)
    return reg_r + (d + n - 1) * cap - d


# -- multiplicity (degree) bounds ---------------------------------------------------


def _check_codim(c: int) -> None:
    if c < 0:
        raise AlgebraError("negative codimension")


def multiplicity_bound_sum(a, b, c: int, deg_r: int) -> int:
    """deg R times the sum, over nondecreasing index tuples, of products of
    staircase differences of column degrees minus twists."""
    _check_codim(c)
    n = len(a)
    a_asc = sorted(a)
    b_desc = sorted(b, reverse=True)
    if len(b) < c + n - 1:
        raise AlgebraError("needs at least c + n - 1 columns")
    total = 0
    for tup in combinations_with_replacement(range(1, n + 1), c):
        prod = 1
        for pos, i in enumerate(tup, start=1):
            prod *= b_desc[i + pos - 2] - a_asc[i - 1]
        total += prod
    return deg_r * total


def _elementary_symmetric(values, k: int) -> list[int]:
    """e_0..e_k of the given values."""
    es = [1] + [0] * k
    for v in values:
        for j in range(min(k, len(es) - 1), 0, -1):
            es[j] += v * es[j - 1]
    return es


def _complete_homogeneous(values, k: int) -> list[int]:
    """h_0..h_k of the given values, by direct multiset enumeration."""
    out = []
    for q in range(k + 1):
        tot = 0
        for tup in combinations_with_replacement(values, q):
            prod = 1
            for v in tup:
                prod *= v
            tot += prod
        out.append(tot)
    return out


def multiplicity_bound_series(a, b, c: int, deg_r: int) -> int:
    """Same number extracted as a power series coefficient: deg R times
    (-1)^c [t^c] prod(1 - b_i t) / prod(1 - a_j t), over the top c+n-1 columns."""
    _check_codim(c)
    n = len(a)
    if len(b) < c + n - 1:
        raise AlgebraError("needs at least c + n - 1 columns")
    b_top = sorted(b, reverse=True)[: c + n - 1]
    es = _elementary_symmetric(b_top, c)
    hs = _complete_homogeneous(list(a), c)
    coeff = sum((-1) ** p * es[p] * hs[c - p] for p in range(c + 1))
    return deg_r * (-1) ** c * coeff


def multiplicity_bound_binomial(a, b, c: int, deg_r: int) -> int:
    """Coarser closed form: a binomial count times the product of the top c
    column degrees over the smallest twist."""
    _check_codim(c)
    n = len(a)
    if len(b) < c:
        raise AlgebraError("needs at least c columns")
    amin = min(a)
    b_desc = sorted(b, reverse=True)
    prod = 1
    for i in range(c):
        prod *= b_desc[i] - amin
    return deg_r * comb(c + n - 1, n - 1) * prod


# -- the general bound and its refinements ------------------------------------------


def _lowered(a, b):
    """(s0, a - s0, b - s0), s0 = min(min(a), 0): degrees >= 0 presenting M
    shifted by -s0, whose regularity is reg M - s0."""
    s0 = min(min(a, default=0), 0)
    return s0, [t - s0 for t in a], [t - s0 for t in b]


def main_bound(
    a, b, c: int, delta, reg_r: int, deg_r: int, ring_cm: bool = True
) -> int:
    """Regularity bound for any finitely presented module, doubly exponential
    in its dimension, read at `_lowered` degrees and shifted back by s0."""
    _check_codim(c)
    if not ring_cm:
        warnings.warn(
            "base ring is not Cohen-Macaulay: the bound is heuristic here",
            stacklevel=2,
        )
    s0, a, b = _lowered(a, b)
    n = len(a)
    cap = degree_cap(a, b)
    if delta <= 1:
        if c > 0:
            d = int(max(delta, 0)) + c  # dimension of the base ring's support
            return s0 + reg_r + (d + n - 1) * cap - d
        return s0 + reg_r + cap - 1
    if c > 0:
        base = deg_r * (reg_r + (c + n) * cap - c) * comb(c + n - 1, c) * cap**c
    else:
        base = n * deg_r * (reg_r + cap)
    return s0 + bounded_power("main", base, 2 ** (int(delta) - 2))


def refined_exact_bound(a, b, c: int, reg_r: int) -> int:
    """Sharper value when the column count is exactly c + n - 1, assuming (not
    checking) that the complex is exact: reg_r + sum(b) - sum(a) - c * a_min
    read at a - a_min, b - a_min and shifted back by a_min."""
    _check_codim(c)
    if len(b) != c + len(a) - 1:
        raise AlgebraError("exact form needs exactly c + n - 1 columns")
    return reg_r + sum(b) - sum(a) - (c - 2) * min(a)


def refined_bracket_bound(a, b, c: int, delta, reg_r: int, deg_r: int) -> int:
    """Variant of the general bound with the multiplicity estimate replacing
    the binomial factor; needs c + n columns.  Lowered as `main_bound` is."""
    _check_codim(c)
    n = len(a)
    if len(b) < c + n:
        raise AlgebraError("needs at least c + n columns")
    if delta < 2:
        raise AlgebraError("bracket form only applies in dimension >= 2")
    s0, a, b = _lowered(a, b)
    b_top = sorted(b, reverse=True)[: c + n]
    bare_sum = multiplicity_bound_sum(a, b, c, 1)
    base = deg_r * (reg_r + sum(b_top) - c) * bare_sum
    return s0 + bounded_power("refined_bracket", base, 2 ** (int(delta) - 2))


def sym_main_bound(
    a, b, c: int, delta, reg_r: int, deg_r: int, l: int, ring_cm: bool = True
) -> int:
    """`main_bound` at the degrees of Sym^l's presentation, as
    `modops.sym_power` builds it: a generator per degree-l monomial in the
    generators, twisted by the sum of its l twists, and a relation per
    (column j, degree-(l-1) monomial) in degree b_j plus that monomial's sum."""
    if delta < 2:
        raise AlgebraError("symmetric-power form only applies in dimension >= 2")
    if l < 1:
        raise AlgebraError("symmetric power index must be positive")
    twists = [sum(g) for g in combinations_with_replacement(a, l)]
    lower = [sum(g) for g in combinations_with_replacement(a, l - 1)]
    degrees = [bj + t for bj in b for t in lower]
    return main_bound(twists, degrees, c, delta, reg_r, deg_r, ring_cm)


# -- bounds phrased for ideals in terms of the ambient variable count ----------------


def ideal_bounds(
    p_vars: int,
    cap: int,
    c: int | None = None,
    n: int | None = None,
    deg_r: int | None = None,
    reg_r: int | None = None,
) -> dict[str, int]:
    """Classical regularity bounds for an ideal generated in degrees <= cap in
    p_vars variables.  Entries whose hypotheses fail are simply absent."""
    if cap < 1:
        raise AlgebraError(f"degree cap {cap} is below 1")
    out: dict[str, int] = {}
    if c is not None and p_vars - c >= 2:
        out["general_c"] = bounded_power(
            "general_c", (c + 1) * cap ** (c + 1), 2 ** (p_vars - c - 2)
        )
    if p_vars <= 3:
        out["small_p"] = p_vars * (cap - 1) + 1
    if p_vars >= 4:
        out["large_p"] = bounded_power("large_p", 3 * cap**3, 2 ** (p_vars - 4))
        out["refined"] = bounded_power("refined", 3 * cap * cap * (cap - 1), 2 ** (p_vars - 4)) + 1
    if p_vars >= 3:
        out["caviglia_sbarra"] = bounded_power(
            "caviglia_sbarra", cap * cap + 2 * cap - 1, 2 ** (p_vars - 3)
        )
    if n is not None and deg_r is not None and reg_r is not None and p_vars >= 1:
        out["brodmann_goetsch"] = bounded_power(
            "brodmann_goetsch", reg_r + (n + 1) * deg_r + cap + 1, 2 ** (p_vars - 1)
        )
    if p_vars >= 2:
        out["galligo_giusti"] = bounded_power("galligo_giusti", 2 * cap, 2 ** (p_vars - 2))
    if p_vars >= 1:
        out["bayer_mumford"] = bounded_power("bayer_mumford", 2 * cap, factorial(p_vars - 1))
    return out
