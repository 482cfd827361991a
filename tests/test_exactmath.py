from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codezeta.exactmath import (
    BiPoly,
    RatFun,
    UniPoly,
    interpolate,
    ratfun_equal,
)

# the routes that the closed-form zeta solves are checked against
import reference
from reference import mobius_compose, series_quotient, solve_linear

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rationals, rationals)
def test_rational_arithmetic_exact(a, b):
    assert (a + b) - b == a


def test_unipoly_arithmetic():
    p = UniPoly([1, 2, 3])
    q = UniPoly([0, -2, -3])
    assert p + q == UniPoly([1])
    assert p - p == UniPoly()
    assert (p * q).coeff(1) == -2
    assert p(2) == 1 + 4 + 12
    assert UniPoly([0, 1]) ** 3 == UniPoly([0, 0, 0, 1])
    assert p.degree == 2 and UniPoly().degree == -1


def _fraction_horner(p, x):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


@given(
    st.lists(rationals, max_size=8),
    st.one_of(st.integers(-50, 50), rationals),
)
@example([], 3)  # the zero polynomial
@example([], Fraction(-2, 7))
@example([Fraction(1, 3), 0, Fraction(-5, 2)], -4)
def test_unipoly_call_matches_fraction_horner(coeffs, x):
    p = UniPoly(coeffs)
    value = p(x)
    assert type(value) is Fraction
    assert value == _fraction_horner(p, x)


def test_unipoly_trims_leading_zeros():
    assert UniPoly([1, 0, 0]).coeffs == (Fraction(1),)


def test_series_quotient_geometric_pair():
    den = UniPoly([1, -1]) * UniPoly([1, -2])
    s = series_quotient(UniPoly([1]), den, 4)
    assert s == [1, 3, 7, 15, 31]  # 2^(a+1) - 1


def test_series_quotient_identity_denominator():
    p = UniPoly([5, 0, 2, 7])
    assert series_quotient(p, UniPoly([1]), 2) == [5, 0, 2]


def test_series_quotient_hamming_numerator():
    s = series_quotient(UniPoly([1, -1]) ** 3, UniPoly([1, -2]), 4)
    assert s == [1, -1, 1, 1, 2]


def test_series_quotient_rejects_zero_constant():
    with pytest.raises(ZeroDivisionError):
        series_quotient(UniPoly([1]), UniPoly([0, 1]), 3)


def test_series_quotient_multiplies_back():
    num = UniPoly([2, -1, 3])
    den = UniPoly([1, 4, -2, 1])
    s = series_quotient(num, den, 6)
    back = (UniPoly(s) * den).truncate(6)
    assert back == num.truncate(6)


def test_mobius_compose_constant():
    assert mobius_compose(UniPoly([1]), 5) == [1, 0, 0, 0, 0, 0]


def test_mobius_compose_t():
    s = mobius_compose(UniPoly([0, 1]), 3)
    assert s == [0, 1, 1, 1]


def test_mobius_compose_hamming():
    a = UniPoly([Fraction(1, 5), Fraction(1, 5), 0, 0, 1])
    s = mobius_compose(a, 4)
    assert s == [
        Fraction(1, 5),
        Fraction(1, 5),
        Fraction(1, 5),
        Fraction(1, 5),
        Fraction(6, 5),
    ]


@given(
    st.lists(rationals, max_size=5),
    st.lists(rationals, max_size=5),
    st.integers(min_value=0, max_value=8),
)
def test_mobius_compose_linearity(a, b, order):
    pa, pb = UniPoly(a), UniPoly(b)
    sums = [x + y for x, y in zip(mobius_compose(pa, order), mobius_compose(pb, order))]
    assert mobius_compose(pa + pb, order) == sums


def test_unipoly_truncate():
    p = UniPoly([1, 1, 0, 0, 1])
    assert p.truncate(3) == UniPoly([1, 1])
    assert p.truncate(0) == UniPoly([1])
    assert p.truncate(9) == p  # past the degree, nothing is cut
    assert UniPoly().truncate(2).is_zero()
    with pytest.raises(ValueError):
        p.truncate(-1)


def test_ratfun_equal():
    x, y = BiPoly.x(), BiPoly.y()
    one = BiPoly.const(1)
    f = RatFun(one - x * y, (one - x) * (one - y))
    assert ratfun_equal(f, f)
    g = RatFun(one - x * x, one - x)
    h = RatFun(one + x, one)
    assert ratfun_equal(g, h)
    assert not ratfun_equal(f, h)


def test_ratfun_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RatFun(BiPoly.const(1), BiPoly())


def test_bipoly_basics():
    p = BiPoly({(1, 0): 1, (0, 1): -1})  # x - y
    assert (p * p).coeff(1, 1) == -2
    assert p.subs_second(2)(3) == 1
    assert p.subs_second(1) == UniPoly([-1, 1])
    assert (p - p).is_zero()


def test_solve_linear():
    sol, rank, nullity = solve_linear([[1, 1], [1, -1]], [3, 1])
    assert sol == [2, 1] and rank == 2 and nullity == 0
    sol, rank, nullity = solve_linear([[1, 1]], [3])
    assert sol is None and nullity == 1
    with pytest.raises(ValueError):
        solve_linear([[1, 1], [2, 2]], [1, 3])


def test_interpolate():
    p = interpolate([(1, 1), (2, 4), (3, 9)])
    assert p == UniPoly([0, 0, 1])
    assert interpolate([]) == UniPoly()
    assert interpolate([(Fraction(-1, 2), 0), (3, 0)]) == UniPoly()
    with pytest.raises(ZeroDivisionError):
        interpolate([(1, 2), (Fraction(2, 2), 3)])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-40, max_value=40, max_denominator=9),
            rationals,
        ),
        max_size=25,
        unique_by=lambda point: point[0],
    )
)
def test_interpolate_matches_the_lagrange_reference(points):
    # unsorted, negative, non-consecutive nodes with rational values
    assert interpolate(points) == reference.interpolate(points)
