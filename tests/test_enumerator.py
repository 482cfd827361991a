from fractions import Fraction

import pytest
from hypothesis import given, settings

import reference
from codezeta.code import macwilliams_counts, weight_distribution
from codezeta.enumerator import (
    invariant_thm23,
    normalize,
    normalize_counts,
    puncture_avg,
    shorten_avg,
)
from codezeta.exactmath import UniPoly
from strategies import distributions


def test_macwilliams_hamming(hamming74):
    dual = weight_distribution(hamming74).dual()
    assert dual.counts == (1, 0, 0, 0, 7, 0, 0, 0)
    assert dual.k == 3 and dual.d == 4 and dual.d_dual == 3


def test_macwilliams_involution(corpus):
    # .dual().dual() only hands back stored counts, so transform both ways
    for entry in corpus[:15]:
        wd = entry.wd
        dual = macwilliams_counts(wd.q, wd.n, wd.k, wd.counts)
        back = macwilliams_counts(wd.q, wd.n, wd.n - wd.k, dual)
        assert tuple(back) == wd.counts


def test_macwilliams_rejects_garbage():
    with pytest.raises(ValueError):
        macwilliams_counts(2, 2, 1, (1, 1, 1))


def test_normalize_hamming(hamming74):
    a = normalize(weight_distribution(hamming74))
    assert a.d == 3
    assert a.a_list[3] == Fraction(1, 5) and a.a_list[7] == 1
    assert a.a_poly == UniPoly([Fraction(1, 5), Fraction(1, 5), 0, 0, 1])


def test_normalize_divides_by_q_minus_1(hexacode63):
    a = normalize(weight_distribution(hexacode63))
    assert a.d == 4
    # a_4 = 45/C(6,4) = 3, a_6 = 18; a_poly carries the 1/(q-1) factor
    assert a.a_poly == UniPoly([1, 0, 6])


def test_normalize_rejects_trivial():
    with pytest.raises(ValueError):
        normalize_counts(2, 3, (1, 0, 0, 0))


def test_puncture_avg_hamming(hamming74):
    B = puncture_avg(weight_distribution(hamming74))
    assert B.n == 6
    assert B.counts == (1, 0, 3, 8, 3, 0, 1)
    assert B.d == 2


def test_shorten_avg_hamming(hamming74):
    B = shorten_avg(weight_distribution(hamming74))
    assert B.counts == (1, 0, 0, 4, 3, 0, 0)
    assert B.d == 3


def test_avg_operators_preserve_totals(corpus):
    for entry in corpus[:15]:
        wd = entry.wd
        assert sum(puncture_avg(wd).counts) == sum(wd.counts)
        assert sum(shorten_avg(wd).counts) == Fraction(sum(wd.counts), wd.q)


def test_invariant_thm23_hamming(hamming74):
    # a(t) = (1/5)(1 + t) + t^4, times (1 + t)^3; the terms up to t^(n-d)
    # = t^4 are the invariant
    inv = invariant_thm23(normalize(weight_distribution(hamming74)))
    assert inv.degree == 7
    assert list(inv.truncate(4).coeffs) == [
        Fraction(1, 5),
        Fraction(4, 5),
        Fraction(6, 5),
        Fraction(4, 5),
        Fraction(6, 5),
    ]


def _common_truncation_equal(inv_a, na, da, inv_b, nb, db):
    order = min(na - da, nb - db)
    return inv_a.truncate(order) == inv_b.truncate(order)


def test_invariant_preserved_under_puncture_and_shorten(corpus):
    for entry in corpus:
        a = entry.norm
        inv = invariant_thm23(a)
        for op in (puncture_avg, shorten_avg):
            B = op(entry.wd)
            if B.d > B.n:
                continue
            b = normalize(B)
            assert _common_truncation_equal(
                inv, a.n, a.d, invariant_thm23(b), b.n, b.d
            ), (entry.code.q, entry.code.n, entry.code.k, op.__name__)


@settings(max_examples=150, deadline=None)
@given(distributions())
def test_normalized_enumerator_matches_the_fraction_route(A):
    # integer counts and the Fraction counts of puncture_avg/shorten_avg
    a = normalize(A)
    N, L = a.scaled
    assert all(type(v) is int for v in N) and type(L) is int and L > 0
    a_list, a_poly = reference.normalized_fractions(A.q, A.n, A.counts)
    assert [Fraction(v, L) for v in N] == list(a_list)
    assert a.a_list == a_list and a.a_poly == a_poly
