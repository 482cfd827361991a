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


# Polynomials against plain references: a {(i, j): Fraction} dict with no
# zeros for BiPoly, a tuple of Fractions with no trailing zero for UniPoly.
# Small keys and coefficients, plus negated copies of drawn terms, make sums
# that cancel common.
coefficients = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
bi_keys = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def bi_terms(draw, negate=()):
    """(key, coeff) pairs, some repeated negated so that their sum is zero,
    and the negations of some of the pairs `negate`."""
    pairs = draw(st.lists(st.tuples(bi_keys, coefficients), max_size=6))
    for source in (pairs, negate):
        if source:
            cancel = draw(st.lists(st.sampled_from(source), max_size=3))
            pairs += [(key, -c) for key, c in cancel]
    return draw(st.permutations(pairs))


@st.composite
def bi_term_pairs(draw):
    a = draw(bi_terms())
    return a, draw(bi_terms(negate=a))


@st.composite
def uni_coeff_pairs(draw):
    """Two coefficient lists; the second may end in the first's negated top
    coefficients, so that their sum loses its leading terms."""
    a = draw(st.lists(coefficients, max_size=6))
    b = draw(st.lists(coefficients, max_size=6))
    if draw(st.booleans()):
        low = draw(st.integers(0, len(a)))
        b = b[:low] + [0] * (low - len(b)) + [-c for c in a[low:]]
    return a, b


def bi_ref(pairs):
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + Fraction(c)
    return {key: c for key, c in out.items() if c}


def bi_ref_mul(a, b):
    return bi_ref(((i1 + i2, j1 + j2), c1 * c2)
                  for (i1, j1), c1 in a.items() for (i2, j2), c2 in b.items())


def uni_ref(coeffs):
    cs = [Fraction(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def uni_ref_add(a, b):
    n = max(len(a), len(b))
    return uni_ref([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                    for i in range(n)])


def uni_ref_mul(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return uni_ref(out)


def assert_bipoly(p, expected):
    assert type(p) is BiPoly
    assert p.terms == expected
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())


def assert_unipoly(p, expected):
    assert type(p) is UniPoly
    assert p.coeffs == expected
    assert all(type(c) is Fraction for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0


@settings(max_examples=150)
@given(bi_term_pairs(), coefficients)
def test_bipoly_arithmetic_matches_dict_reference(terms, s):
    a, b = terms
    p, q = BiPoly(a), BiPoly(b)
    ra, rb = bi_ref(a), bi_ref(b)
    neg_a = {key: -c for key, c in ra.items()}
    neg_b = {key: -c for key, c in rb.items()}
    rs = bi_ref([((0, 0), s)])
    assert_bipoly(p, ra)
    assert_bipoly(BiPoly({**dict(a), (4, 4): 0}), bi_ref(dict(a).items()))
    assert_bipoly(p + q, bi_ref([*ra.items(), *rb.items()]))
    assert_bipoly(-p, neg_a)
    assert_bipoly(p - q, bi_ref([*ra.items(), *neg_b.items()]))
    assert_bipoly(p * q, bi_ref_mul(ra, rb))
    assert_bipoly(p + s, bi_ref([*ra.items(), *rs.items()]))
    assert_bipoly(s + p, bi_ref([*ra.items(), *rs.items()]))
    assert_bipoly(p - s, bi_ref([*ra.items(), ((0, 0), -Fraction(s))]))
    assert_bipoly(s - p, bi_ref([*neg_a.items(), *rs.items()]))
    assert_bipoly(p * s, bi_ref_mul(ra, rs))
    assert_bipoly(s * p, bi_ref_mul(ra, rs))
    assert (p == q) is (ra == rb)
    assert (p == s) is (s == p) is (ra == rs)


@settings(max_examples=150)
@given(uni_coeff_pairs(), coefficients)
def test_unipoly_arithmetic_matches_list_reference(coeffs, s):
    a, b = coeffs
    p, q = UniPoly(a), UniPoly(b)
    ra, rb, rs = uni_ref(a), uni_ref(b), uni_ref([s])
    neg_a = tuple(-c for c in ra)
    neg_b = tuple(-c for c in rb)
    assert_unipoly(p, ra)
    assert_unipoly(p + q, uni_ref_add(ra, rb))
    assert_unipoly(-p, neg_a)
    assert_unipoly(p - q, uni_ref_add(ra, neg_b))
    assert_unipoly(p * q, uni_ref_mul(ra, rb))
    assert_unipoly(p + s, uni_ref_add(ra, rs))
    assert_unipoly(s + p, uni_ref_add(ra, rs))
    assert_unipoly(p - s, uni_ref_add(ra, uni_ref([-s])))
    assert_unipoly(s - p, uni_ref_add(neg_a, rs))
    assert_unipoly(p * s, uni_ref_mul(ra, rs))
    assert_unipoly(s * p, uni_ref_mul(ra, rs))
    assert (p == q) is (ra == rb)
    assert (p == s) is (s == p) is (ra == rs)


@given(bi_term_pairs(), uni_coeff_pairs())
def test_equal_polynomials_hash_equally(terms, coeffs):
    a, b = terms
    p, q = BiPoly(a), BiPoly(b)
    for x, y in [(p + q, q + p), (p * q, q * p), (BiPoly(a[::-1]), p),
                 (p - p, BiPoly()), (p + q - q, p)]:
        assert x == y and hash(x) == hash(y)
    u, v = UniPoly(coeffs[0]), UniPoly(coeffs[1])
    for x, y in [(u + v, v + u), (u * v, v * u), (u - u, UniPoly()),
                 (u + v - v, u), (UniPoly([*coeffs[0], 0, 0]), u)]:
        assert x == y and hash(x) == hash(y)


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
