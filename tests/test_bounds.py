import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmreg.bounds import (
    degree_cap,
    dim1_module_fitt,
    dim1_module_sym,
    dim1_ring_fitt,
    dim1_ring_sym,
    ideal_bounds,
    main_bound,
    multiplicity_bound_binomial,
    multiplicity_bound_series,
    multiplicity_bound_sum,
    refined_bracket_bound,
    refined_exact_bound,
    sym_main_bound,
    uniform_dim1_bound,
)
from cmreg.core import (
    AlgebraError,
    GradedRing,
    PrimeField,
    validate_presentation,
)
from cmreg.invariants import regularity
from cmreg.modops import fitting_ideal_0, sym_power
from helpers import cyclic

F = PrimeField(101)
R2 = GradedRing(F, ("x", "y"))
R3 = GradedRing(F, ("x", "y", "z"))
u, v = R2.gens()
x, y, z = R3.gens()


def test_degree_cap():
    assert degree_cap((0,), (2, 2)) == 2
    assert degree_cap((3,), (2,)) == 4
    assert degree_cap((0,), ()) == 1
    assert degree_cap((), ()) == 1


# -- worked example: S/(x^2, xy) over two variables ---------------------------------


def test_dim1_module_worked_example():
    a, b = (0,), (2, 2)
    assert dim1_module_sym(a, b, 0, 2, 1) == 2
    assert dim1_module_sym(a, b, 0, 2, 2) == 2
    assert dim1_module_fitt(a, b, 0, 2) == 2
    pres = cyclic(R2, [u * u, u * v])
    assert regularity(sym_power(pres, 1)) <= 2
    assert regularity(sym_power(pres, 2)) <= 2


def test_dim1_module_fitt_tight_on_complete_intersection():
    # two quadrics in three variables: the narrowest admissible presentation
    a, b = (0,), (2, 2)
    bound = dim1_module_fitt(a, b, 0, 3)
    assert bound == 2
    pres = cyclic(R3, [x * x, y * y])
    fitt = fitting_ideal_0(pres)
    assert regularity(cyclic(R3, fitt)) == 2  # the bound is sharp here


def test_dim1_module_sym_direct_sum_regression():
    # S(-1)/(x^2) (+) S/(x, y): the l = dim R case must take the step past
    # l - 1 columns into account
    a, b = (1, 0), (3, 1, 1)
    assert dim1_module_sym(a, b, 0, 2, 1) == 2
    assert dim1_module_sym(a, b, 0, 2, 2) == 3
    zero = R2.zero()
    pres = validate_presentation(
        R2, (1, 0), [[u * u, zero, zero], [zero, u, v]]
    )
    assert regularity(pres) == 2
    assert regularity(sym_power(pres, 2)) == 3  # meets the bound exactly


def test_dim1_module_preconditions():
    with pytest.raises(AlgebraError):
        dim1_module_sym((0,), (2, 2), 0, 1, 1)  # ring dimension too small
    with pytest.raises(AlgebraError):
        dim1_module_sym((0,), (2,), 0, 3, 1)  # too few columns
    with pytest.raises(AlgebraError):
        dim1_module_sym((0,), (2, 2), 0, 2, 0)


def test_dim1_module_fitt_square_case():
    # d = 2 admits square matrices; the bound is the clipped excess degree
    assert dim1_module_fitt((0, 0), (2, 2), 0, 2) == 3


def test_dim1_ring_bounds():
    # dimension 0: twists alone drive the growth
    assert dim1_ring_sym((1,), (3,), 2, 0, 3) == 5
    assert dim1_ring_fitt((1,), (3,), 2, 0) == 2
    # dimension 1
    assert dim1_ring_sym((0,), (2, 2), 0, 1, 1) == 1
    assert dim1_ring_sym((0,), (2, 2), 0, 1, 5) == 1
    assert dim1_ring_fitt((0,), (2, 2), 0, 1) == 1
    assert dim1_ring_fitt((0, 0), (2,), 0, 1) is None
    with pytest.raises(AlgebraError):
        dim1_ring_sym((0,), (2,), 0, 2, 1)


def test_uniform_bound():
    assert uniform_dim1_bound((0,), (2, 2), 0, 2) == 2
    assert uniform_dim1_bound((0,), (), 0, 2) == 0  # free module: exact
    with pytest.raises(AlgebraError):
        uniform_dim1_bound((0,), (2,), 0, 0)
    with pytest.raises(AlgebraError):
        # k(-1) over F_p[x]: reg Sym_l = l, so no l-free bound can accept this
        uniform_dim1_bound((1,), (2,), 0, 1)
    with pytest.raises(AlgebraError):
        # S(1)/(x^2, y^2): reg 1 above the value 0 a twist of -1 would give
        uniform_dim1_bound((-1,), (1, 1), 0, 2)


def test_main_bound_low_dimension():
    assert main_bound((0,), (2, 2), 1, 1, 0, 1) == 2
    assert main_bound((0,), (), 0, 1, 0, 1) == 0


def test_main_bound_growth_with_dimension():
    # same quadric pair viewed in more and more variables
    assert main_bound((0,), (2, 2), 1, 2, 0, 1) == 6
    assert main_bound((0,), (2, 2), 1, 3, 0, 1) == 36
    assert main_bound((0,), (2, 2), 1, 4, 0, 1) == 1296


def test_main_bound_under_a_negative_twist():
    # S(1)/(x^2, y^2) has reg 1: the closed form is read at S/(x^2, y^2), whose
    # value 2 comes back down by the twist
    assert main_bound((0,), (2, 2), 2, 0, 0, 1) == 2
    assert main_bound((-1,), (1, 1), 2, 0, 0, 1) == 1
    # a >= 0 is read as it stands
    assert main_bound((1,), (3, 3), 2, 0, 0, 1) == 4


def test_main_bound_codim_zero():
    assert main_bound((0, 0), (1,), 0, 2, 0, 1) == 2  # n * deg * (reg + B)


def test_main_bound_warns_on_non_cm_ring():
    with pytest.warns(UserWarning):
        main_bound((0,), (2, 2), 1, 2, 0, 1, ring_cm=False)


def test_main_bound_actually_bounds():
    cases = [
        cyclic(R2, [u * u, u * v]),  # delta 1
        cyclic(R3, [x * x, x * y]),  # delta 2
        cyclic(R3, [x * y * z]),  # hypersurface, delta 2
    ]
    from cmreg.invariants import hilbert_data

    for pres in cases:
        hd = hilbert_data(pres)
        val = main_bound(
            pres.row_twists,
            pres.column_degrees,
            hd.codimension,
            hd.dimension,
            0,
            1,
        )
        assert regularity(pres) <= val


def test_multiplicity_bounds_complete_intersection():
    # S/(f2, f3): degree 6, codim 2
    a, b = (0,), (2, 3)
    assert multiplicity_bound_sum(a, b, 2, 1) == 6
    assert multiplicity_bound_series(a, b, 2, 1) == 6
    assert multiplicity_bound_binomial(a, b, 2, 1) == 6


def test_multiplicity_bounds_two_generators():
    a, b = (0, 0), (2, 2, 2)
    # tuples (1,1),(1,2),(2,2): 2*2 + 2*2 + 2*2
    assert multiplicity_bound_sum(a, b, 2, 1) == 12
    assert multiplicity_bound_series(a, b, 2, 1) == 12
    assert multiplicity_bound_binomial(a, b, 2, 1) == 12
    with pytest.raises(AlgebraError):
        multiplicity_bound_sum(a, (2, 2), 2, 1)


def test_refined_exact_form():
    assert refined_exact_bound((0,), (2, 2), 2, 0) == 4
    with pytest.raises(AlgebraError):
        refined_exact_bound((0,), (2, 2, 2), 2, 0)


def test_refined_bracket_form():
    assert refined_bracket_bound((0,), (2, 2), 1, 2, 0, 1) == 6
    with pytest.raises(AlgebraError):
        refined_bracket_bound((0,), (2,), 1, 2, 0, 1)
    with pytest.raises(AlgebraError):
        refined_bracket_bound((0,), (2, 2), 1, 1, 0, 1)


def test_sym_main_bound_example():
    assert sym_main_bound((0,), (2, 2), 1, 2, 0, 1, 3) == 6
    with pytest.raises(AlgebraError):
        sym_main_bound((0,), (2, 2), 1, 1, 0, 1, 2)


def test_refined_forms_move_with_a_twist():
    # S(-1)/(x^2) over x, y, z: reg 2, one above S/(x^2), and so is the form
    assert regularity(validate_presentation(R3, (1,), [[x * x]])) == 2
    assert refined_exact_bound((1,), (3,), 1, 0) == 3
    # S(3)/(xy, xz): reg -2; the bracket is read at a = 0, b = (2, 2) and moved by -3
    assert regularity(validate_presentation(R3, (-3,), [[x * y, x * z]])) == -2
    assert refined_bracket_bound((-3,), (-1, -1), 1, 2, 0, 1) == 3
    for s in range(-3, 4):
        a, b = (s, s + 1), (s + 2, s + 2, s + 3)
        assert refined_exact_bound(a, b, 2, 0) == refined_exact_bound((0, 1), (2, 2, 3), 2, 0) + s


def test_sym_main_bound_is_main_at_the_degrees_of_sym_l():
    # Sym^2 of generators in degrees 0, 1 with columns in 2, 3: twists 0, 1, 2
    # and columns 2, 3, 3, 4; B = 4 over three generators, 15 * 3 * 4
    assert sym_main_bound((0, 1), (2, 3), 1, 2, 0, 1, 2) == 180
    # a negative twist: the value at the lowered twists, moved by l * s
    for l in (1, 2, 3):
        assert sym_main_bound((-2, 0), (1, 2), 1, 3, 1, 2, l) == (
            sym_main_bound((0, 2), (3, 4), 1, 3, 1, 2, l) - 2 * l
        )


def test_sym_main_bound_warns_once_on_non_cm_ring():
    with pytest.warns(UserWarning, match="not Cohen-Macaulay") as caught:
        sym_main_bound((0,), (2, 2), 1, 2, 0, 1, 2, ring_cm=False)
    assert len(caught) == 1


def test_ideal_bounds_three_vars():
    out = ideal_bounds(3, 2)
    assert out["small_p"] == 4
    assert "large_p" not in out
    with pytest.raises(AlgebraError):
        ideal_bounds(3, 0)


def test_ideal_bounds_four_vars():
    out = ideal_bounds(4, 2, c=2, n=1, deg_r=1, reg_r=0)
    assert out["general_c"] == 24
    assert out["large_p"] == 24
    assert out["refined"] == 13
    assert out["caviglia_sbarra"] == 49
    assert out["galligo_giusti"] == 256
    assert out["bayer_mumford"] == 4096
    assert out["brodmann_goetsch"] == (0 + 2 * 1 + 2 + 1) ** (2**3)
    assert "small_p" not in out


# -- property checks -----------------------------------------------------------------

degree_lists = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4)
twist_lists = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(a=twist_lists, b_extra=degree_lists, c=st.integers(min_value=0, max_value=4))
def test_multiplicity_sum_equals_series(a, b_extra, c):
    n = len(a)
    need = c + n - 1
    b = tuple((b_extra * (need // len(b_extra) + 1))[:need]) if need else ()
    assert multiplicity_bound_sum(a, b, c, 3) == multiplicity_bound_series(a, b, c, 3)


@settings(max_examples=100, deadline=None)
@given(a=twist_lists, c=st.integers(min_value=0, max_value=3), data=st.data())
def test_multiplicity_binomial_dominates_sum(a, c, data):
    n = len(a)
    lo = max(a)
    b = tuple(
        data.draw(
            st.lists(
                st.integers(min_value=lo, max_value=lo + 5),
                min_size=c + n - 1 if c + n - 1 > 0 else 1,
                max_size=c + n + 2,
            )
        )
    )
    assert multiplicity_bound_sum(a, b, c, 2) <= multiplicity_bound_binomial(
        a, b, c, 2
    )


@settings(max_examples=100, deadline=None)
@given(
    reg_r=st.integers(min_value=0, max_value=3),
    deg_r=st.integers(min_value=1, max_value=4),
    delta=st.integers(min_value=2, max_value=4),
)
def test_main_bound_monotone_in_ring_data(reg_r, deg_r, delta):
    a, b, c = (0, 1), (2, 2, 3), 1
    base = main_bound(a, b, c, delta, reg_r, deg_r)
    assert main_bound(a, b, c, delta, reg_r + 1, deg_r) >= base
    assert main_bound(a, b, c, delta, reg_r, deg_r + 1) >= base
    assert main_bound(a, b, c, delta + 1, reg_r, deg_r) >= base
