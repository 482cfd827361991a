"""Plain reference implementations that the packed kernels of
`codezeta.code` are tested against."""

import itertools


def enumerate_counts(C):
    """A_0 .. A_n of C by summing scaled generator rows for every message."""
    field, q, n, k = C.field, C.q, C.n, C.k
    counts = [0] * (n + 1)
    mul = field.mul_table
    add = field.add_table
    # pre-scale every generator row by every nonzero coefficient
    scaled = [
        [None] + [tuple(mul[c][v] for v in row) for c in range(1, q)]
        for row in C.generator
    ]
    for msg in itertools.product(range(q), repeat=k):
        acc = None
        for i, mi in enumerate(msg):
            if mi:
                row = scaled[i][mi]
                if acc is None:
                    acc = list(row)
                else:
                    acc = [add[a][b] for a, b in zip(acc, row)]
        if acc is None:
            counts[0] += 1
        else:
            counts[sum(1 for v in acc if v)] += 1
    return counts
