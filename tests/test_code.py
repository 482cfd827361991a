import math
import random

import pytest
from hypothesis import given, settings

import reference
from codezeta.code import (
    CapacityError,
    LinearCode,
    ParseError,
    contains_code,
    dual_code,
    macwilliams_counts,
    make_mds_code,
    parse_code,
    rref_rank,
    subset_ranks,
    weight_distribution,
)
from codezeta.gf import SUPPORTED_Q, field_new
from strategies import codes


def test_parse_repetition():
    C = parse_code("2 2 1\n1 1")
    assert (C.q, C.n, C.k) == (2, 2, 1)
    assert C.generator == ((1, 1),)


def test_parse_the_10_code():
    C = parse_code("2 2 1\n1 0")
    assert C.generator == ((1, 0),)


def test_parse_comments_and_blank_lines(hexacode63):
    text = "# comment\n\n4 6 3\n1 0 0 1 2 2\n0 1 0 2 1 2\n\n0 0 1 2 2 1\n"
    assert parse_code(text).generator == hexacode63.generator


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "empty"),
        ("2 2\n1 1", "header"),
        ("2 x 1\n1 1", "non-integer"),
        ("2 2 1\n1 2", "out of range"),
        # the first symbol out of range is named, whichever side it is on
        ("3 4 1\n1 -1 7 2", r"^symbol -1 out of range for GF\(3\)$"),
        ("3 4 1\n1 7 -1 2", r"^symbol 7 out of range for GF\(3\)$"),
        ("2 2 1\n1 1.0", r"^non-integer symbol in row '1 1.0'$"),
        ("2 3 1\n1 1", r"^row '1 1' has 2 symbols, expected 3$"),
        ("2 2 1\n1", "symbols"),
        ("2 2 2\n1 1", "rows"),
        ("2 3 2\n1 1 0\n1 1 0", "rank"),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(ParseError, match=match):
        parse_code(text)


def test_rref_rank_identity_and_zero():
    f = field_new(3)
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert rref_rank(f, eye)[0] == 4
    assert rref_rank(f, [[0, 0], [0, 0]])[0] == 0


def test_rref_rank_hexacode(hexacode63):
    rank, _, pivots = rref_rank(hexacode63.field, hexacode63.generator)
    assert rank == 3 and pivots == (0, 1, 2)


def test_dual_of_repetition_is_itself(rep2):
    dual = dual_code(rep2)
    assert contains_code(dual, rep2) and dual.k == rep2.k


def test_dual_of_10_code(code10):
    assert dual_code(code10).generator == ((0, 1),)


@settings(max_examples=100, deadline=None)
@given(codes(max_n=8))
def test_dual_generator_is_the_null_space_basis(C):
    assert dual_code(C).generator == tuple(reference.nullspace(C.field, C.generator))


@settings(max_examples=40, deadline=None)
@given(codes(max_n=6, max_words=9**6).filter(lambda C: C.k == C.n))
def test_full_space_has_the_zero_dual_and_binomial_weights(C):
    # the rows of a k = n code span GF(q)^n: its dual is [n, 0], and it has
    # C(n, i) (q - 1)^i words of weight i
    q, n = C.q, C.n
    dual = dual_code(C)
    assert (dual.n, dual.k, dual.generator) == (n, 0, ())
    wd = weight_distribution(C)
    assert wd.counts == tuple(math.comb(n, i) * (q - 1) ** i for i in range(n + 1))
    assert wd.dual_counts == (1,) + (0,) * n


def test_dual_of_hamming_is_simplex(hamming74):
    simplex = dual_code(hamming74)
    wd = weight_distribution(simplex)
    assert wd.counts == (1, 0, 0, 0, 7, 0, 0, 0)


def test_weight_distribution_repetition(rep2):
    wd = weight_distribution(rep2)
    assert wd.counts == (1, 0, 1) and wd.d == 2 and wd.d_dual == 2


def test_weight_distribution_hamming(hamming74):
    wd = weight_distribution(hamming74)
    assert wd.counts == (1, 0, 0, 7, 7, 0, 0, 1)
    assert (wd.d, wd.d_dual) == (3, 4)


def test_weight_distribution_hexacode(hexacode63):
    wd = weight_distribution(hexacode63)
    assert wd.counts == (1, 0, 0, 0, 45, 0, 18)
    assert sum(wd.counts) == 64


def test_weight_distribution_uses_dual_when_smaller():
    # k > n-k: [7,4] enumerated through its [7,3] dual and transformed back
    C = parse_code("2 7 4\n1 0 0 0 0 1 1\n0 1 0 0 1 0 1\n0 0 1 0 1 1 0\n0 0 0 1 1 1 1")
    assert C.k > C.n - C.k
    assert weight_distribution(C).counts == (1, 0, 0, 7, 7, 0, 0, 1)


def test_weight_distribution_capacity_guard():
    f = field_new(2)
    gen = tuple(
        tuple(1 if j == i else 0 for j in range(60)) for i in range(30)
    )
    C = LinearCode(field=f, n=60, k=30, generator=gen)
    with pytest.raises(CapacityError):
        weight_distribution(C)


def test_macwilliams_counts_rejects_invalid():
    with pytest.raises(ValueError):
        macwilliams_counts(2, 2, 1, (1, 1, 1))


def test_direct_vs_macwilliams_route():
    rng = random.Random(5)
    for q in SUPPORTED_Q:
        f = field_new(q)
        for _ in range(5):
            n = rng.randrange(4, 10)
            k = rng.randrange(1, n)
            rows = []
            while True:
                rows = [
                    tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)
                ]
                if rref_rank(f, rows)[0] == k:
                    break
            C = LinearCode(field=f, n=n, k=k, generator=tuple(rows))
            direct = weight_distribution(C).counts
            via_dual = macwilliams_counts(
                q, n, n - k, weight_distribution(dual_code(C)).counts
            ) if k < n else None
            if via_dual is not None:
                assert tuple(via_dual) == direct


def test_subset_rank_basics(hamming74, code10):
    full = (1 << 7) - 1
    assert subset_ranks(hamming74, [0, full]) == [0, 4]
    assert subset_ranks(hamming74, [full, 0b11], [2, 5]) == [2, 2]
    assert subset_ranks(code10, [0b10]) == [0]


def test_subset_rank_monotone_submodular(hamming74):
    rng = random.Random(3)
    cols = list(range(hamming74.n))
    for _ in range(40):
        A = sum(1 << j for j in cols if rng.random() < 0.4)
        B = sum(1 << j for j in cols if rng.random() < 0.4)
        rA, rB, rU, rI = subset_ranks(hamming74, [A, B, A | B, A & B])
        assert rA <= rU and rB <= rU
        assert rU + rI <= rA + rB


@pytest.mark.parametrize("q,n,k", [(5, 5, 2), (2, 2, 1), (4, 4, 2), (7, 6, 3), (9, 8, 4)])
def test_make_mds_meets_singleton(q, n, k):
    C = make_mds_code(q, n, k)
    wd = weight_distribution(C)
    assert wd.d == n - k + 1


def test_make_mds_rejects_bad_params():
    with pytest.raises(ValueError):
        make_mds_code(4, 5, 2)
    with pytest.raises(ValueError):
        make_mds_code(5, 4, 0)


def test_double_dual_spans_same_space(corpus):
    for entry in corpus[:10]:
        double_dual = dual_code(entry.code.dual)
        assert contains_code(double_dual, entry.code) and double_dual.k == entry.code.k
