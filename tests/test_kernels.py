"""The kernels of `codezeta.code` against plain references: codeword
enumeration, the subset-rank DFS, the point ranks and the row reduction in
every field, and the binary column-rank paths against the generic ones."""

import random
import tracemalloc
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from codezeta import code as code_mod
from codezeta import matroid as matroid_mod
from codezeta.code import (
    LinearCode,
    iter_subset_ranks,
    rref_rank,
    subset_rank,
    weight_distribution,
)
from codezeta.gf import SUPPORTED_Q, field_new
from reference import column_rank, enumerate_counts, subset_ranks
from reference import rref_rank as reference_rref_rank
from strategies import codes, make_code


# 1 sends every word through the Gray-code walk, 4 splits it between the
# walk and a small table, 2^12 is the table size the kernel uses
@settings(max_examples=300, deadline=None)
@given(codes(), st.sampled_from([1, 4, 1 << 12]))
@example(make_code(9, [[0, 5, 8, 3]]), 4)  # k = 1 and a zero column
@example(make_code(4, [[1, 0, 0, 2, 3], [0, 1, 0, 3, 3], [0, 0, 1, 1, 0]]), 1)  # k > n - k
@example(make_code(8, [[1, 0, 7, 0], [0, 1, 5, 0]]), 4)
def test_enumeration_matches_reference(C, table_words):
    expected = enumerate_counts(C)
    with mock.patch.object(code_mod, "_TABLE_WORDS", table_words):
        assert code_mod._enumerate_counts(C) == expected
        if C.k < C.n:  # k > n - k enumerates the dual and transforms back
            assert list(weight_distribution(C).counts) == expected


def test_enumeration_memory_is_bounded():
    # 2^18 codewords; a kernel holding them all would peak near 10 MB
    rng = random.Random(11)
    n, k = 36, 18
    gen = tuple(
        tuple((1 if j == i else 0) if j < k else rng.randrange(2) for j in range(n))
        for i in range(k)
    )
    C = LinearCode(field=field_new(2), n=n, k=k, generator=gen)
    tracemalloc.start()
    try:
        wd = weight_distribution(C)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(wd.counts) == 2**k
    assert peak < 4 * 2**20


# any k <= n: the DFS costs 2^n whatever the code's size
@settings(max_examples=80, deadline=None)
@given(codes(max_n=10, max_words=9**10))
@example(make_code(9, [[0, 5, 8, 3]]))  # k = 1 and a zero column
@example(make_code(3, [[1, 0, 2, 0], [0, 1, 1, 0]]))  # a zero column
@example(make_code(7, [[3, 0, 0, 5, 1], [0, 0, 2, 6, 1], [0, 4, 0, 0, 2]]))  # k = n - 2
@example(make_code(2, [[1, 1, 1, 1, 1, 1]]))  # k = 1
def test_subset_dfs_matches_reference(C):
    assert list(iter_subset_ranks(C)) == list(subset_ranks(C))


@st.composite
def rank_queries(draw):
    """A code of any k <= n with a column mask and a stop in [0, k + 2]."""
    C = draw(codes(max_n=10, max_words=9**10))
    return C, draw(st.integers(0, (1 << C.n) - 1)), draw(st.integers(0, C.k + 2))


@settings(max_examples=200, deadline=None)
@given(rank_queries())
@example((make_code(9, [[0, 5, 8, 3]]), 0b0111, 1))  # k = 1 and a zero column
@example((make_code(3, [[1, 0, 2, 0], [0, 1, 1, 0]]), 0b1001, 0))  # a zero column
@example((make_code(7, [[3, 0, 0], [0, 2, 6], [0, 4, 2]]), 0b110, 2))  # k = n
@example((make_code(2, [[1, 1, 1, 1, 1, 1]]), 0b100100, 3))  # k = 1
def test_subset_rank_matches_reference(query):
    # the drawn mask, the empty mask and the full mask
    C, mask, stop = query
    for m in (mask, 0, (1 << C.n) - 1):
        rank = column_rank(C, m)
        assert subset_rank(C, m) == rank
        assert subset_rank(C, m, stop) == min(stop, rank)


@settings(max_examples=100, deadline=None)
@given(codes(fields=(2,), max_n=14), st.data())
def test_binary_rank_matches_generic(C, data):
    for _ in range(5):
        cols = data.draw(st.lists(st.integers(0, C.n - 1), max_size=C.n + 2))
        mask = sum(1 << j for j in set(cols))  # a repeated column is one bit
        stop = data.draw(st.integers(0, C.k + 1))
        assert subset_rank(C, mask) == code_mod._generic_rank(C, mask, C.k)
        assert subset_rank(C, mask, stop) == code_mod._generic_rank(C, mask, stop)


@settings(max_examples=60, deadline=None)
@given(codes(fields=(2,), max_n=12, halves=True))
def test_binary_disjoint_bases_match_generic(C):
    packed = matroid_mod.find_two_disjoint_bases(C)

    def generic(C, mask):
        return code_mod._generic_rank(C, mask, C.k)

    with mock.patch.object(matroid_mod, "subset_rank", generic):
        assert packed == matroid_mod.find_two_disjoint_bases(C)


@st.composite
def matrices(draw):
    """A matrix over one of the seven fields, of any rank, rows and zero
    rows included."""
    field = field_new(draw(st.sampled_from(SUPPORTED_Q)))
    ncols = draw(st.integers(1, 8))
    row = st.lists(st.integers(0, field.q - 1), min_size=ncols, max_size=ncols)
    return field, draw(st.lists(row, max_size=6))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_rank_matches_reference(case):
    field, matrix = case
    assert rref_rank(field, matrix) == reference_rref_rank(field, matrix)
