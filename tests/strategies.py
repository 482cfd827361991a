"""Hypothesis strategies shared by the test modules."""

import random

from hypothesis import assume
from hypothesis import strategies as st

from codezeta.code import LinearCode, rref_rank
from codezeta.enumerator import puncture_avg, shorten_avg
from codezeta.gf import SUPPORTED_Q, field_new


@st.composite
def codes(draw, fields=SUPPORTED_Q, max_n=8, max_words=1 << 12, halves=False,
          zero_columns=True, isodual=False, self_dual=False):
    """A full-rank generator over one of `fields`, possibly with zero columns:
    an identity on random pivot columns, random entries elsewhere, then mixed
    by random row operations so that it is not systematic. `halves` asks
    for n = 2k; `zero_columns=False` for none, that is, d_dual >= 2.
    `isodual` asks for C = [I | A] with A a symmetric k x k matrix, its rows
    mixed the same way: C-perp = [-A | I] maps onto C by swapping the two
    halves and scaling the last k columns by -1. `self_dual` asks for a
    self-dual code, of even n, and of n divisible by 4 over GF(3) and GF(7),
    where -1 is not a square; `_witt_extension` builds it from a drawn seed."""
    q = draw(st.sampled_from(fields))
    field = field_new(q)
    if self_dual:
        step = 4 if q % 4 == 3 else 2
        n = draw(st.integers(1, max_n // step)) * step
        return _witt_extension(field, n, random.Random(draw(st.integers(0, 2**32 - 1))))
    if isodual:
        k = draw(st.integers(1, max_n // 2))
        symbol = st.integers(0, q - 1)
        upper = {(i, j): draw(symbol) for i in range(k) for j in range(i, k)}
        rows = [[int(i == j) for j in range(k)]
                + [upper[min(i, j), max(i, j)] for j in range(k)] for i in range(k)]
        return _mixed(draw, field, rows)
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
    zero = set(order[k : k + draw(st.integers(0, n - k))]) if zero_columns else set()
    symbol = st.integers(0, q - 1)
    rows = []
    for i in range(k):
        rows.append([
            (1 if j == pivots[i] else 0) if j in pivots or j in zero else draw(symbol)
            for j in range(n)
        ])
    if not zero_columns:
        for j in range(n):
            if not any(row[j] for row in rows):
                rows[0][j] = 1
    return _mixed(draw, field, rows)


def _witt_extension(field, n, rng):
    """A self-dual [n, n/2] code, grown from the zero code: a random word v
    of the current code's dual is kept as a new row when v.v = 0 and v is not
    in the code, until k = n/2. Every self-orthogonal code of such a length
    lies in a self-dual one, so the growth never gets stuck."""
    add, mul = field.add_table, field.mul_table
    C = LinearCode(field=field, n=n, k=0, generator=())
    while 2 * C.k < n:
        v = [0] * n
        for row in C.dual.generator:
            coeff = mul[rng.randrange(field.q)]
            v = [add[a][coeff[b]] for a, b in zip(v, row)]
        square = 0
        for a in v:
            square = add[square][mul[a][a]]
        rows = C.generator + (tuple(v),)
        if square == 0 and rref_rank(field, rows)[0] > C.k:
            C = LinearCode(field=field, n=n, k=C.k + 1, generator=rows)
    return C


def _mixed(draw, field, rows):
    """The code of `rows` (k x n, full rank), its rows first mixed by up to
    2k random row operations."""
    k, q = len(rows), field.q
    for _ in range(draw(st.integers(0, 2 * k))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        c = draw(st.integers(1, q - 1))
        if i != j:
            rows[i] = [field.add(a, field.mul(c, b)) for a, b in zip(rows[i], rows[j])]
    return LinearCode(field=field, n=len(rows[0]), k=k, generator=tuple(map(tuple, rows)))


@st.composite
def distributions(draw, max_n=8):
    """Counts the one-variable layer can normalize: the weight distribution
    of a code from `codes` (integer counts), or its coordinate-averaged
    puncturing or shortening (Fraction counts), with a nonzero weight."""
    wd = draw(codes(max_n=max_n)).weights
    op = draw(st.sampled_from([None, puncture_avg, shorten_avg]))
    A = wd if op is None or wd.n < 2 else op(wd)
    assume(A.d <= A.n)
    return A


def make_code(q, rows):
    return LinearCode(field=field_new(q), n=len(rows[0]), k=len(rows),
                      generator=tuple(map(tuple, rows)))
