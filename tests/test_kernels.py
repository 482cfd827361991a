"""The kernels of `codezeta.code` against plain references: codeword
enumeration, its walk of one offset per projective point, and the message
bitsets it shares with the subset table and the point ranks (in
characteristic 2 against the prefix loop), the subset-rank DFS, the point
ranks one at a time and in a batch on every route, the echelon-row rank
against the column walk at every stop, and the row reduction, each in every
field."""

import dataclasses
import random
import tracemalloc
from collections import Counter
from itertools import product, repeat
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codezeta import code as code_mod
from codezeta import matroid as matroid_mod
from codezeta.code import (
    CapacityError,
    LinearCode,
    parse_code,
    rref_rank,
    subset_rank_table,
    weight_distribution,
)
from codezeta.gf import SUPPORTED_Q, field_new
from reference import (
    column_rank,
    enumerate_counts,
    subset_ranks,
    value_sets,
)
from reference import rref_rank as reference_rref_rank
from strategies import codes, make_code

FIXTURES = Path(__file__).parent / "fixtures"


# The table size sets the block of messages counted at once: 1 makes every
# word an offset of a one-message block, 4 splits the words between a small
# block and the offsets (for q >= 5 the block is one message again), and
# 2^12 is the block size the kernel uses
@settings(max_examples=300, deadline=None)
@given(codes(), st.sampled_from([1, 4, 1 << 12]))
@example(make_code(9, [[0, 5, 8, 3]]), 4)  # k = 1 and a zero column
@example(make_code(4, [[1, 0, 0, 2, 3], [0, 1, 0, 3, 3], [0, 0, 1, 1, 0]]), 1)  # k > n - k
@example(make_code(8, [[1, 0, 7, 0], [0, 1, 5, 0]]), 4)
# the binary repetition code: its zero word has 16 zeros, a fifth counter bit
@example(make_code(2, [[1] * 16]), 1 << 12)
# a tall q = 9 code, n = 24 > 2k, counted in one block and as offsets
@example(make_code(9, [[1, 0, 0, 4, 7, 2, 0, 8, 3, 5, 1, 6, 0, 2, 4, 8, 7, 3, 1, 0, 5, 6, 2, 4],
                       [0, 1, 0, 3, 0, 8, 6, 1, 2, 7, 5, 4, 3, 0, 6, 2, 1, 8, 7, 4, 0, 3, 5, 1],
                       [0, 0, 1, 6, 2, 0, 5, 3, 8, 1, 4, 7, 2, 6, 0, 5, 3, 4, 8, 2, 1, 7, 0, 6]]),
         1 << 12)
@example(make_code(9, [[1, 0, 0, 4, 7, 2, 0, 8, 3, 5, 1, 6, 0, 2, 4, 8, 7, 3, 1, 0, 5, 6, 2, 4],
                       [0, 1, 0, 3, 0, 8, 6, 1, 2, 7, 5, 4, 3, 0, 6, 2, 1, 8, 7, 4, 0, 3, 5, 1],
                       [0, 0, 1, 6, 2, 0, 5, 3, 8, 1, 4, 7, 2, 6, 0, 5, 3, 4, 8, 2, 1, 7, 0, 6]]),
         4)
# q = 8 with k > n - k
@example(make_code(8, [[1, 0, 0, 3, 5], [0, 1, 0, 7, 2], [0, 0, 1, 4, 6]]), 1)
# two offset rows past the block of the kernel's size, in odd fields: the
# fixtures gf3_189 (block 3^7) and gf9_125 (block 9^3)
@example(parse_code((FIXTURES / "gf3_189.code").read_text()), 1 << 12)
@example(parse_code((FIXTURES / "gf9_125.code").read_text()), 1 << 12)
def test_enumeration_matches_reference(C, table_words):
    expected = enumerate_counts(C)
    with mock.patch.object(code_mod, "_TABLE_WORDS", table_words):
        assert code_mod._enumerate_counts(C) == expected
        if C.k < C.n:  # k > n - k enumerates the dual and transforms back
            assert list(weight_distribution(C).counts) == expected


@st.composite
def offset_cases(draw):
    """0 to 3 rows over one of the seven fields whose first columns are the
    identity, so that a combination's coefficients are its first r values,
    then up to 3 random columns."""
    field = field_new(draw(st.sampled_from(SUPPORTED_Q)))
    r = draw(st.integers(0, 3))
    symbol = st.integers(0, field.q - 1)
    extra = draw(st.integers(0 if r else 1, 3))
    rows = [[int(i == j) for j in range(r)] + [draw(symbol) for _ in range(extra)]
            for i in range(r)]
    return field, rows, r + extra


@settings(max_examples=100, deadline=None)
@given(offset_cases())
def test_offsets_walk_one_combination_per_projective_point(case):
    field, rows, n = case
    q, r = field.q, len(rows)
    offsets = list(code_mod._offsets(field, rows, n))
    assert sum(multiplicity for _, multiplicity in offsets) == q**r
    covered = Counter()
    for h, multiplicity in offsets:
        coefficients = h[:r]
        lead = next((c for c in coefficients if c), None)
        assert lead in (None, 1)
        assert multiplicity == (1 if lead is None else q - 1)
        scalars = [1] if lead is None else range(1, q)
        covered.update(tuple(field.mul(c, v) for v in h) for c in scalars)
    combinations = Counter()
    for coefficients in product(range(q), repeat=r):
        word = [0] * n
        for c, row in zip(coefficients, rows):
            word = [field.add(w, field.mul(c, g)) for w, g in zip(word, row)]
        combinations[tuple(word)] += 1
    assert covered == combinations


def all_value_sets(field, rows, n):
    """`_value_sets` with every value of every column asked for."""
    return [[by_value[c] for c in range(field.q)]
            for by_value in code_mod._value_sets(field, rows, n)]


@st.composite
def value_set_cases(draw):
    """Rows over one of the seven fields with at most 2^12 messages, no rows
    included, and some columns zero."""
    field = field_new(draw(st.sampled_from(SUPPORTED_Q)))
    n = draw(st.integers(1, 6))
    r_max = 0
    while field.q ** (r_max + 1) <= 1 << 12:
        r_max += 1
    zero = draw(st.sets(st.integers(0, n - 1)))
    symbol = st.integers(0, field.q - 1)
    rows = [[0 if j in zero else draw(symbol) for j in range(n)]
            for _ in range(draw(st.integers(0, min(r_max, 4))))]
    return field, rows, n


@settings(max_examples=200, deadline=None)
@given(value_set_cases())
@example((field_new(9), [], 3))  # no rows: the one message reads 0
@example((field_new(3), [[0, 2], [0, 1]], 2))  # a zero column
def test_value_sets_match_evaluation(case):
    # bit x of by_value[j][c] is set exactly when message x, whose base-q
    # digits are the coefficients of the rows, reads c at column j
    field, rows, n = case
    q = field.q
    expected = [[0] * q for _ in range(n)]
    for x in range(q ** len(rows)):
        word = [0] * n
        for r, row in enumerate(rows):
            digit = x // q**r % q
            word = [field.add(w, field.mul(digit, g)) for w, g in zip(word, row)]
        for j, c in enumerate(word):
            expected[j][c] |= 1 << x
    assert all_value_sets(field, rows, n) == expected


@st.composite
def parity_value_set_cases(draw):
    """Rows over GF(2), GF(4) or GF(8) whose messages take up to 16 bits (so
    up to four 4-bit chunks, the last one partial for q = 8), some columns
    zero and some repeated."""
    field = field_new(draw(st.sampled_from((2, 4, 8))))
    n = draw(st.integers(1, 6))
    zero = draw(st.sets(st.integers(0, n - 1)))
    symbol = st.integers(0, field.q - 1)
    rows = [[0 if j in zero else draw(symbol) for j in range(n)]
            for _ in range(draw(st.integers(0, 16 // field.m)))]
    if n > 1 and draw(st.booleans()):
        for row in rows:
            row[-1] = row[0]
    return field, rows, n


@settings(max_examples=100, deadline=None)
@given(parity_value_set_cases())
@example((field_new(8), [], 2))  # no rows: the one message reads 0
@example((field_new(2), [[1, 0, 1]] * 16, 3))  # 16 bits in four full chunks
@example((field_new(8), [[7, 3], [5, 0], [1, 6], [2, 2], [4, 1]], 2))  # 15 bits
def test_parity_value_sets_match_prefix_loop(case):
    field, rows, n = case
    assert all_value_sets(field, rows, n) == value_sets(field, rows, n)


def test_enumeration_memory_is_bounded():
    # binary [36,18]: 2^18 codewords; a kernel holding them all would peak
    # near 10 MB. q = 3 [30,15]: 3281 projective offsets; a kernel listing
    # them would peak near 1.2 MB
    for q, n, k, bound in ((2, 36, 18, 4 << 20), (3, 30, 15, 1 << 19)):
        rng = random.Random(11)
        gen = tuple(
            tuple((1 if j == i else 0) if j < k else rng.randrange(q) for j in range(n))
            for i in range(k)
        )
        C = LinearCode(field=field_new(q), n=n, k=k, generator=gen)
        tracemalloc.start()
        try:
            wd = weight_distribution(C)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(wd.counts) == q**k
        assert peak < bound


# Every drawn code has q^min(k, n - k) <= 9^5 bits, so it takes the bitset
# route as it runs (a no-op patch); a block of 2^10 bits holds only its last
# two columns, so the walk over the columns above the block runs too; and a
# bit budget of 0 sends it through the reduce DFS
TABLE_ROUTES = [
    ("_BLOCK_BITS", code_mod._BLOCK_BITS),
    ("_BLOCK_BITS", 1 << 10),
    ("_ZERO_SET_BITS", 0),
]


# any k <= n: the table costs 2^n whatever the code's size
@settings(max_examples=80, deadline=None)
@given(codes(max_n=10, max_words=9**10))
@example(make_code(9, [[0, 5, 8, 3]]))  # k = 1 and a zero column
@example(make_code(3, [[1, 0, 2, 0], [0, 1, 1, 0]]))  # a zero column
@example(make_code(7, [[3, 0, 0, 5, 1], [0, 0, 2, 6, 1], [0, 4, 0, 0, 2]]))  # k = n - 2
@example(make_code(2, [[1, 1, 1, 1, 1, 1]]))  # k = 1
@example(make_code(7, [[3, 0, 0], [0, 2, 6], [0, 4, 2]]))  # k = n
@example(make_code(4, [  # n = 9 > 2, the small block's width, and 2k > n
    [1, 0, 0, 0, 0, 2, 3, 1, 1], [0, 1, 0, 0, 0, 1, 0, 3, 2], [0, 0, 1, 0, 0, 3, 1, 2, 0],
    [0, 0, 0, 1, 0, 2, 2, 0, 3], [0, 0, 0, 0, 1, 1, 3, 1, 1],
]))
def test_subset_dfs_matches_reference(C):
    # the (size, rank) tally of the reference walk, and its subsets with
    # 2 r(A) <= |A| with their ranks, in the same DFS order, by every route
    assert C.q ** min(C.k, C.n - C.k) <= code_mod._ZERO_SET_BITS
    expected = list(subset_ranks(C))
    counts = Counter((size, rank) for _, size, rank in expected)
    low = [(mask, rank) for mask, size, rank in expected if 2 * rank <= size]
    for name, value in TABLE_ROUTES:
        with mock.patch.object(code_mod, name, value):
            table = subset_rank_table(dataclasses.replace(C))  # its own zero sets
        assert table.counts == counts
        assert list(table.counts) == list(counts)  # first seen in DFS order
        assert list(zip(table.low_masks, table.low_ranks)) == low


@pytest.mark.parametrize("q,n,k", [(2, 20, 10), (4, 16, 8)])
def test_subset_table_memory_is_bounded(q, n, k):
    # 2^n subsets over zero sets of q^k bits (2^16 for q = 4, the widest the
    # bitset route takes); holding a set per subset would need 128 MB and 8 GB.
    # The bound covers a cold build of the block layout, whatever ran before
    rng = random.Random(n)
    C = make_code(q, [
        [int(j == i) if j < k else rng.randrange(q) for j in range(n)] for i in range(k)
    ])
    code_mod._block_layout.cache_clear()
    tracemalloc.start()
    try:
        table = subset_rank_table(C)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(table.counts.values()) == 2**n
    assert peak < 4 * 2**20


def test_subset_pass_guard_comes_first():
    # n = 23 columns, one past the guard: no zero set is built and no
    # column is reduced
    rng = random.Random(23)
    unused = mock.Mock(side_effect=AssertionError("the guard must come first"))
    for q in (2, 3):
        C = make_code(q, [
            [int(j == i) if j < 11 else rng.randrange(q) for j in range(23)]
            for i in range(11)
        ])
        with mock.patch.object(code_mod, "_zero_sets", unused), \
                mock.patch.object(code_mod, "_reduce_column", unused):
            with pytest.raises(CapacityError, match="guarded at n <= 22"):
                subset_rank_table(C)


# The chunk width the kernel takes; a budget of 2^13 bits, which gives
# narrower chunks (at most 5 columns) and, for the wider zero sets of the
# longer codes, no tables (the echelon route); and the echelon route for
# every code
RANK_ROUTES = [
    ("_BLOCK_BITS", code_mod._BLOCK_BITS),
    ("_BLOCK_BITS", 1 << 13),
    ("_ZERO_SET_BITS", 0),
]


@st.composite
def rank_queries(draw):
    """A code of any k <= n over one of the seven fields, and three column
    masks."""
    C = draw(codes(max_n=10, max_words=9**10))
    mask = st.integers(0, (1 << C.n) - 1)
    return C, [draw(mask) for _ in range(3)]


@settings(max_examples=150, deadline=None)
@given(rank_queries())
@example((make_code(9, [[0, 5, 8, 3]]), [0b0111, 0b1000, 0b0110]))  # k = 1, a zero column
@example((make_code(3, [[1, 0, 2, 0], [0, 1, 1, 0]]), [0b1001, 0b0110, 0b1000]))  # 2k = n
@example((make_code(7, [[3, 0, 0], [0, 2, 6], [0, 4, 2]]), [0b110, 0b001, 0b101]))  # k = n
@example((make_code(2, [[1, 1, 1, 1, 1, 1]]), [0b100100, 0b000001, 0b111110]))  # k = 1
# 2k > n with a zero column, over GF(2)
@example((make_code(2, [[1, 0, 0, 1, 0], [0, 1, 0, 1, 0], [0, 0, 1, 1, 0]]),
          [0b10000, 0b01011, 0b11110]))
@example((make_code(4, [  # 2k > n, n = 9 past one chunk of the narrow budget
    [1, 0, 0, 0, 0, 2, 3, 1, 1], [0, 1, 0, 0, 0, 1, 0, 3, 2], [0, 0, 1, 0, 0, 3, 1, 2, 0],
    [0, 0, 0, 1, 0, 2, 2, 0, 3], [0, 0, 0, 0, 1, 1, 3, 1, 1],
]), [0b111100000, 0b000011111, 0b101010101]))
# 2k < n over GF(8), n = 10
@example((make_code(8, [[1, 0, 3, 5, 7, 2, 0, 4, 6, 1], [0, 1, 6, 1, 4, 3, 0, 2, 5, 7]]),
          [0b1111100000, 0b0001110011, 0b1000000001]))
def test_subset_rank_matches_reference(query):
    # the drawn masks, the empty mask and the full mask, at every stop from
    # 0 to k + 1, one at a time and in one batch, by every route
    C, masks = query
    masks = [*masks, 0, (1 << C.n) - 1]
    expected = [column_rank(C, m) for m in masks]
    for name, value in RANK_ROUTES:
        with mock.patch.object(code_mod, name, value):
            fresh = dataclasses.replace(C)  # builds its own tables
            assert code_mod.subset_ranks(fresh, masks) == expected
            for stop in range(C.k + 2):
                stopped = [min(stop, rank) for rank in expected]
                assert code_mod.subset_ranks(fresh, masks, repeat(stop)) == stopped
                assert [code_mod.subset_ranks(fresh, [m], [stop])[0]
                        for m in masks] == stopped
            assert [code_mod.subset_ranks(fresh, [m])[0] for m in masks] == expected


@pytest.mark.parametrize("q,n,k", [(4, 16, 8), (2, 22, 11)])
def test_rank_tables_memory_is_bounded(q, n, k):
    # zero sets of 2^16 and 2^11 bits in chunks of 4 and 8 columns; a table
    # over all 2^n column subsets would need 512 MB and 1 GB
    rng = random.Random(n)
    C = make_code(q, [
        [int(j == i) if j < k else rng.randrange(q) for j in range(n)] for i in range(k)
    ])
    masks = [rng.getrandbits(n) for _ in range(200)]
    tracemalloc.start()
    try:
        ranks = code_mod.subset_ranks(C, masks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert C._zero_set_chunks is not None
    assert ranks == [column_rank(C, m) for m in masks]
    assert peak < 4 * 2**20


@st.composite
def echelon_rank_queries(draw):
    """A code over one of the seven fields, binary up to n = 30 and k = 14
    (so 2k < n at n = 29, 30) and the others up to n = 12, its pivots
    anywhere and some columns zero, and five column masks."""
    q = draw(st.sampled_from(SUPPORTED_Q))
    if q == 2:
        C = draw(codes(fields=(2,), max_n=30, max_words=1 << 14))
    else:
        C = draw(codes(fields=(q,), max_n=12, max_words=9**6))
    column = st.integers(0, C.n - 1)
    # a repeated column is one bit
    masks = [sum(1 << j for j in set(draw(st.lists(column, max_size=C.n + 2))))
             for _ in range(5)]
    return C, masks


@settings(max_examples=150, deadline=None)
@given(echelon_rank_queries())
@example((make_code(2, [[1, 0, 0], [0, 1, 0], [1, 1, 1]]), [0b101, 0b111]))  # k = n
@example((make_code(2, [[1, 1, 0, 1, 1]]), [0b00100, 0b01100, 0]))  # k = 1, a zero column
# a zero column
@example((make_code(2, [[1, 0, 1, 0, 1, 1], [0, 1, 1, 0, 0, 1]]), [0b001000, 0b101010]))
# pivots at columns 1 and 4, past a zero column 0
@example((make_code(3, [[0, 2, 1, 1, 0], [0, 1, 2, 2, 1]]), [0b11110, 0b10101, 0b01010]))
@example((make_code(7, [[3, 0, 0], [0, 2, 6], [0, 4, 2]]), [0b110, 0b011, 0b111]))  # k = n
@example((make_code(9, [[0, 5, 8, 3]]), [0b0001, 0b1110, 0b1111]))  # k = 1, a zero column
# 2k > n over GF(8), pivots at columns 0, 1 and 4
@example((make_code(8, [[0, 3, 1, 5, 7], [0, 6, 2, 1, 4], [1, 0, 0, 2, 3]]),
          [0b00110, 0b11001, 0b11111]))
def test_echelon_rank_matches_reference(query):
    # the echelon-row rank against the column walk, at every stop from 0 to
    # k + 1
    C, masks = query
    for mask in masks:
        for stop in range(C.k + 2):
            assert code_mod._echelon_rank(C, mask, stop) == column_rank(C, mask, stop)


def test_sampled_clifford_matches_the_column_walk():
    # a systematic binary [28, 10] code, read off zero sets, and three
    # fixtures past 2^16 zero-set bits, read off the echelon rows: bin34_17
    # (2^17), gf7_126 (7^6) and the Pless code pless11 (3^12); every seed
    # draws its own 1500 masks
    rng = random.Random(28)
    n, k = 28, 10
    samples = [make_code(2, [
        [int(j == i) if j < k else rng.randrange(2) for j in range(n)] for i in range(k)
    ])]
    samples += [parse_code((FIXTURES / f"{stem}.code").read_text())
                for stem in ("bin34_17", "gf7_126", "pless11")]
    assert [C._zero_set_chunks is None for C in samples] == [False, True, True, True]

    def walk_ranks(C, masks, stops):
        return list(map(column_rank, repeat(C), masks, stops))

    for C in samples:
        for seed in range(4):
            report = matroid_mod.clifford_check(C, mode="sample", count=1500, seed=seed)
            with mock.patch.object(matroid_mod, "subset_ranks", walk_ranks):
                assert report == matroid_mod.clifford_check(
                    C, mode="sample", count=1500, seed=seed
                )


@settings(max_examples=60, deadline=None)
@given(codes(max_n=12, halves=True))
def test_disjoint_bases_match_on_the_echelon_route(C):
    # the search with its ranks read off the echelon rows, in every field,
    # against the same search on the column walk
    def walk_ranks(C, masks):
        return [column_rank(C, mask) for mask in masks]

    with mock.patch.object(matroid_mod, "subset_ranks", walk_ranks):
        expected = matroid_mod.find_two_disjoint_bases(C)
    with mock.patch.object(code_mod, "_ZERO_SET_BITS", 0):
        fresh = dataclasses.replace(C)  # builds its own tables
        assert fresh._zero_set_chunks is None
        assert matroid_mod.find_two_disjoint_bases(fresh) == expected


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
