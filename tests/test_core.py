import pytest
from hypothesis import given, strategies as st

from cmreg.core import (
    AlgebraError,
    EmptyColumn,
    NEG_INF,
    NonHomogeneous,
    NonPrime,
    PRIME_LIMIT,
    Polynomial,
    PrimeField,
    GradedRing,
    RingMismatch,
    ZeroModule,
    deglex_key,
    grevlex_key,
    is_prime,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    render_poly,
    validate_presentation,
)
from cmreg.groebner import elt_add_scaled

F101 = PrimeField(101)
R = GradedRing(F101, ("x", "y", "z"))
x, y, z = R.gens()


def test_is_prime_small():
    assert [q for q in range(20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_agrees_with_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

    assert all(is_prime(n) == by_trial_division(n) for n in range(10**5))


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,  # to the bases 2..23
        318665857834031151167461,  # to the bases 2..37
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_large_prime_field_is_decided():
    assert PrimeField(10**18 + 3).p == 10**18 + 3
    with pytest.raises(NonPrime):
        PrimeField(10**18 + 1)


def test_characteristic_beyond_the_certified_range_is_refused():
    for p in (PRIME_LIMIT, 2**89 - 1):  # the limit is composite, 2^89 - 1 a prime
        with pytest.raises(AlgebraError, match="too large"):
            PrimeField(p)


def test_nonprime_rejected():
    with pytest.raises(NonPrime):
        PrimeField(15)


@given(st.integers(), st.integers())
def test_field_add_commutes(a, b):
    f = PrimeField(13)
    assert f.normalize(a + b) == f.normalize(b + a)


@given(st.integers(min_value=1, max_value=100))
def test_field_inverse(a):
    f = PrimeField(101)
    assert f.normalize(a * f.inv(a)) == 1


def test_mono_helpers():
    assert mono_mul((1, 0, 2), (0, 3, 1)) == (1, 3, 3)
    assert mono_divides((1, 0, 0), (2, 1, 0))
    assert not mono_divides((0, 2, 0), (1, 1, 3))
    assert mono_div((2, 1, 0), (1, 0, 0)) == (1, 1, 0)
    assert mono_lcm((2, 0, 1), (1, 3, 1)) == (2, 3, 1)


def _monos(n, count):
    return st.tuples(*(st.tuples(*(st.integers(0, 5) for _ in range(n))) for _ in range(count)))


mono_pairs = st.integers(1, 4).flatmap(lambda n: _monos(n, 2))


@given(mono_pairs)
def test_mono_kernels_elementwise(pair):
    a, b = pair
    assert mono_mul(a, b) == tuple(x + y for x, y in zip(a, b))
    assert mono_div(mono_mul(a, b), b) == a
    assert mono_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
    assert mono_divides(a, b) == all(x <= y for x, y in zip(a, b))
    assert mono_divides(a, mono_lcm(a, b)) and mono_divides(b, mono_lcm(a, b))
    assert mono_divides(a, mono_mul(a, b))


def _element(n, p):
    return st.dictionaries(
        st.tuples(st.integers(0, 2), st.tuples(*(st.integers(0, 3) for _ in range(n)))),
        st.integers(1, p - 1),
        max_size=6,
    )


@given(st.data())
def test_elt_add_scaled_elementwise(data):
    p = 7
    n = data.draw(st.integers(1, 4))
    src = data.draw(_element(n, p))
    target = data.draw(_element(n, p))
    (mono,) = data.draw(_monos(n, 1))
    coeff = data.draw(st.integers(-2 * p, 2 * p))
    if src and data.draw(st.booleans()):
        # make the first product cancel against what target holds there
        (c, m), val = next(iter(src.items()))
        target[(c, mono_mul(m, mono))] = (-coeff * val) % p or 1
    expected = dict(target)
    for (c, m), val in src.items():
        t = (c, tuple(x + y for x, y in zip(m, mono)))
        expected[t] = (expected.get(t, 0) + coeff * val) % p
    expected = {t: v for t, v in expected.items() if v}
    elt_add_scaled(target, src, mono, coeff, p)
    assert target == expected


def test_monomials_of_degree_counts():
    # C(v+d-1, d) monomials of degree d in v variables
    assert len(list(monomials_of_degree(3, 2))) == 6
    assert len(list(monomials_of_degree(2, 5))) == 6
    assert list(monomials_of_degree(3, 0)) == [(0, 0, 0)]
    assert list(monomials_of_degree(3, -1)) == []


def test_grevlex_vs_deglex():
    # both refine total degree
    assert grevlex_key((0, 0, 2)) > grevlex_key((1, 0, 0))
    assert deglex_key((0, 2, 0)) > deglex_key((1, 0, 0))
    # x^2*y > x*z^2 in grevlex and in deglex
    assert grevlex_key((2, 1, 0)) > grevlex_key((1, 0, 2))
    assert deglex_key((2, 1, 0)) > deglex_key((1, 0, 2))
    # tie-break differs on x*z vs y^2: grevlex ranks y^2 higher, deglex x*z
    assert grevlex_key((1, 0, 1)) < grevlex_key((0, 2, 0))
    assert deglex_key((1, 0, 1)) > deglex_key((0, 2, 0))


poly_strategy = st.builds(
    lambda terms: Polynomial(R, terms),
    st.dictionaries(
        st.tuples(*(st.integers(0, 3) for _ in range(3))),
        st.integers(-200, 200),
        max_size=6,
    ),
)


@given(poly_strategy, poly_strategy, poly_strategy)
def test_poly_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == R.zero()


@given(poly_strategy)
def test_poly_mul_identity(f):
    assert f * R.one() == f
    assert f * R.zero() == R.zero()


def test_degree_and_homogeneity():
    assert R.zero().degree() == NEG_INF
    assert (x * y + z * z).is_homogeneous()
    assert not (x + R.one()).is_homogeneous()
    assert (x**3).degree() == 3


def test_lead_term_grevlex():
    f = x * z * z + x * x * y
    assert f.lead_term() == ((2, 1, 0), 1)


def test_ring_mismatch():
    other = GradedRing(F101, ("x", "y"))
    with pytest.raises(RingMismatch):
        x + other.var("x")


def test_render_roundtrippable_form():
    f = 3 * x**2 * y + z + R.constant(5)
    assert render_poly(f) == "3*x^2*y + z + 5"
    assert render_poly(R.zero()) == "0"
    assert render_poly(x) == "x"


def test_quotient_ring_carries_gens():
    Rq = GradedRing(F101, ("x", "y", "z"), quotient_gens=(x * x, y * z))
    assert Rq.is_quotient
    assert Rq.base == R
    with pytest.raises(NonHomogeneous):
        GradedRing(F101, ("x", "y", "z"), quotient_gens=(x + R.one(),))


def test_validate_presentation_infers_degrees():
    # G = R(0) + R(-1), single column (x*y, y)^T: degree 2 from both slots
    pres = validate_presentation(R, (0, 1), ((x * y,), (y,)))
    assert pres.column_degrees == (2,)
    assert pres.n == 2 and pres.m == 1


def test_validate_presentation_rejects_mixed_column():
    with pytest.raises(NonHomogeneous):
        validate_presentation(R, (0, 0), ((x * y,), (y,)))


def test_validate_presentation_empty_column():
    with pytest.raises(EmptyColumn):
        validate_presentation(R, (0,), ((R.zero(),),))
    pres = validate_presentation(R, (0,), ((R.zero(),),), column_degrees=(3,))
    assert pres.column_degrees == (3,)


def test_validate_presentation_zero_module():
    with pytest.raises(ZeroModule):
        validate_presentation(R, (), ())


def test_validate_presentation_rejects_quotient_entries():
    Rq = GradedRing(F101, ("x", "y", "z"), quotient_gens=(x * x,))
    # entries must be written over the plain ring, which these are
    pres = validate_presentation(Rq, (0,), ((x * y,),))
    assert pres.ring.is_quotient
