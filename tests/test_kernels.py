"""The kernels of `codezeta.code` against plain references: codeword
enumeration and the subset-rank DFS in every field, and the binary
column-rank paths against the generic ones."""

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
    subset_rank,
    weight_distribution,
)
from codezeta.gf import SUPPORTED_Q, field_new
from reference import enumerate_counts, subset_ranks


@st.composite
def codes(draw, fields=SUPPORTED_Q, max_n=8, max_words=1 << 12, halves=False):
    """A full-rank generator over one of `fields`, possibly with zero columns:
    an identity on random pivot columns, random entries elsewhere, then mixed
    by random row operations so that it is not systematic. `halves` asks
    for n = 2k."""
    q = draw(st.sampled_from(fields))
    field = field_new(q)
    if halves:
        k = draw(st.integers(1, max_n // 2))
        n = 2 * k
    else:
        n = draw(st.integers(1, max_n))
        k_max = 1
        while k_max < n and q ** (k_max + 1) <= max_words:
            k_max += 1
        k = draw(st.integers(1, k_max))
    order = draw(st.permutations(range(n)))
    pivots = order[:k]
    zero = set(order[k : k + draw(st.integers(0, n - k))])
    symbol = st.integers(0, q - 1)
    rows = []
    for i in range(k):
        rows.append([
            (1 if j == pivots[i] else 0) if j in pivots or j in zero else draw(symbol)
            for j in range(n)
        ])
    for _ in range(draw(st.integers(0, 2 * k))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        c = draw(st.integers(1, q - 1))
        if i != j:
            rows[i] = [field.add(a, field.mul(c, b)) for a, b in zip(rows[i], rows[j])]
    return LinearCode(field=field, n=n, k=k, generator=tuple(map(tuple, rows)))


def _code(q, rows):
    return LinearCode(field=field_new(q), n=len(rows[0]), k=len(rows),
                      generator=tuple(map(tuple, rows)))


# 1 sends every word through the Gray-code walk, 4 splits it between the
# walk and a small table, 2^12 is the table size the kernel uses
@settings(max_examples=300, deadline=None)
@given(codes(), st.sampled_from([1, 4, 1 << 12]))
@example(_code(9, [[0, 5, 8, 3]]), 4)  # k = 1 and a zero column
@example(_code(4, [[1, 0, 0, 2, 3], [0, 1, 0, 3, 3], [0, 0, 1, 1, 0]]), 1)  # k > n - k
@example(_code(8, [[1, 0, 7, 0], [0, 1, 5, 0]]), 4)
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
@example(_code(9, [[0, 5, 8, 3]]))  # k = 1 and a zero column
@example(_code(3, [[1, 0, 2, 0], [0, 1, 1, 0]]))  # a zero column
@example(_code(7, [[3, 0, 0, 5, 1], [0, 0, 2, 6, 1], [0, 4, 0, 0, 2]]))  # k = n - 2
@example(_code(2, [[1, 1, 1, 1, 1, 1]]))  # k = 1
def test_subset_dfs_matches_reference(C):
    assert list(iter_subset_ranks(C)) == list(subset_ranks(C))


@settings(max_examples=100, deadline=None)
@given(codes(fields=(2,), max_n=14), st.data())
def test_binary_rank_matches_generic(C, data):
    for _ in range(5):
        cols = data.draw(st.lists(st.integers(0, C.n - 1), max_size=C.n + 2))
        assert subset_rank(C, cols) == code_mod._generic_rank(C, cols)


@settings(max_examples=60, deadline=None)
@given(codes(fields=(2,), max_n=12, halves=True))
def test_binary_disjoint_bases_match_generic(C):
    packed = matroid_mod.find_two_disjoint_bases(C)
    with mock.patch.object(matroid_mod, "subset_rank", code_mod._generic_rank):
        assert packed == matroid_mod.find_two_disjoint_bases(C)
