"""The shared formulas of `codezeta` against plain references: the
Krawtchouk recurrence, the MacWilliams transform by Kronecker substitution
against the recurrence and the direct sum, and the Greene substitution."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from codezeta.code import LinearCode, macwilliams_counts, rref_rank
from codezeta.gf import SUPPORTED_Q, field_new
from codezeta.matroid import greene_weight_enumerator, rank_gen_poly
from strategies import codes


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_krawtchouk_table_matches_the_direct_sum(q):
    # column i of the table is the sums on the counts with A_i = 1 alone
    for n in [*range(41), 96]:
        table = [
            [reference.krawtchouk(q, n, j, i) for i in range(n + 1)]
            for j in range(n + 1)
        ]
        assert reference.krawtchouk_table(q, n) == table
        columns = [
            reference.krawtchouk_sums(q, n, [int(w == i) for w in range(n + 1)])
            for i in range(n + 1)
        ]
        assert [list(row) for row in zip(*columns)] == table


def _random_code(rng, q, n, k):
    field = field_new(q)
    while True:
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
        if rref_rank(field, rows)[0] == k:
            return LinearCode(field=field, n=n, k=k, generator=tuple(rows))


def _expected_transform(q, n, k, counts):
    """The reference transform, or the message macwilliams_counts raises:
    the first bad count decides, non-integral before negative."""
    out = reference.macwilliams(q, n, k, counts)
    for v in out:
        if v.denominator != 1:
            return "non-integral"
        if v < 0:
            return "negative"
    return out


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_macwilliams_counts_matches_the_reference(q):
    rng = random.Random(q)
    vectors = []
    for _ in range(6):  # weight distributions of codes: integral duals
        n = rng.randrange(1, 9)
        k = rng.randrange(1, n + 1)
        if q**k <= 1 << 12:
            C = _random_code(rng, q, n, k)
            vectors.append((n, k, reference.enumerate_counts(C)))
    for _ in range(12):  # random integral vectors, some scaled by q^k
        n = rng.randrange(1, 25)
        k = rng.randrange(0, n + 1)
        scale = q**k if rng.random() < 0.5 else 1
        counts = [1] + [scale * rng.randrange(0, 4) for _ in range(n)]
        vectors.append((n, k, counts))
    outcomes = set()
    for n, k, counts in vectors:
        expected = _expected_transform(q, n, k, counts)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                macwilliams_counts(q, n, k, counts)
            outcomes.add(expected)
        else:
            assert macwilliams_counts(q, n, k, counts) == expected
            table = reference.krawtchouk_table(q, n)  # the full-table route
            assert expected == [
                sum(a * row[i] for i, a in enumerate(counts)) // q**k for row in table
            ]
            outcomes.add("valid")
    assert "valid" in outcomes and len(outcomes) >= 2


def _transform(fn, q, n, k, counts):
    try:
        return fn(q, n, k, counts)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("q", SUPPORTED_Q)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kronecker_macwilliams_matches_the_recurrence(q, data):
    """Signed count vectors, small and wide, some scaled by q^k: the
    Kronecker transform gives the recurrence's counts or its ValueError."""
    n = data.draw(st.integers(0, 40))
    k = data.draw(st.integers(0, n))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(1 << 80), 1 << 80))
    counts = data.draw(st.lists(entry, min_size=n + 1, max_size=n + 1))
    if data.draw(st.booleans()):
        counts = [c * q**k for c in counts]
    assert (_transform(macwilliams_counts, q, n, k, counts)
            == _transform(reference.macwilliams_counts, q, n, k, counts))


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_kronecker_macwilliams_raises_both_errors(q):
    # A_0 = 1 over q^1 is no integer; A_1 = 1 over q^0 gives K_1(1) = -1
    for counts, k, message in [([1, 0], 1, "non-integral"), ([0, 1], 0, "negative")]:
        assert message in _transform(macwilliams_counts, q, 1, k, counts)
        assert message in _transform(reference.macwilliams_counts, q, 1, k, counts)


@settings(max_examples=150, deadline=None)
@given(codes(max_n=10, max_words=9**4))
def test_kronecker_macwilliams_gives_the_enumerated_dual_counts(C):
    counts = reference.enumerate_counts(C)
    dual = macwilliams_counts(C.q, C.n, C.k, counts)
    assert dual == reference.macwilliams_counts(C.q, C.n, C.k, counts)
    if C.q ** (C.n - C.k) <= 9**4:
        assert dual == reference.enumerate_counts(C.dual)
    assert macwilliams_counts(C.q, C.n, C.n - C.k, dual) == counts


def _assert_greene_matches_reference(W, q):
    for Q in (q, q**2, q**3):
        assert greene_weight_enumerator(W, Q) == reference.greene_weight_enumerator(W, Q)


def test_greene_matches_the_reference_on_the_fixtures(
    hamming74, ext_hamming84, hexacode63, code10, rep2, pair22, selfdual105
):
    for C in (hamming74, ext_hamming84, hexacode63, code10, rep2, pair22, selfdual105):
        _assert_greene_matches_reference(rank_gen_poly(C), C.q)


def test_greene_matches_the_reference_on_the_corpus(corpus):
    for an in corpus:
        _assert_greene_matches_reference(an.W, an.code.q)
