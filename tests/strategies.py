"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from codezeta.code import LinearCode
from codezeta.gf import SUPPORTED_Q, field_new


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


def make_code(q, rows):
    return LinearCode(field=field_new(q), n=len(rows[0]), k=len(rows),
                      generator=tuple(map(tuple, rows)))
