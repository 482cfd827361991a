import random

import pytest

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
    subset_rank,
    weight_distribution,
)
from codezeta.gf import SUPPORTED_Q, field_new


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
    assert subset_rank(hamming74, 0) == 0
    assert subset_rank(hamming74, full) == 4
    assert subset_rank(hamming74, full, stop=2) == 2
    assert subset_rank(hamming74, 0b11, stop=5) == 2
    assert subset_rank(code10, 0b10) == 0


def test_subset_rank_monotone_submodular(hamming74):
    rng = random.Random(3)
    cols = list(range(hamming74.n))
    for _ in range(40):
        A = sum(1 << j for j in cols if rng.random() < 0.4)
        B = sum(1 << j for j in cols if rng.random() < 0.4)
        rA = subset_rank(hamming74, A)
        rB = subset_rank(hamming74, B)
        rU = subset_rank(hamming74, A | B)
        rI = subset_rank(hamming74, A & B)
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
        double_dual = dual_code(entry.dual)
        assert contains_code(double_dual, entry.code) and double_dual.k == entry.code.k
