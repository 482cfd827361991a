"""Plain reference implementations that the kernels and shared formulas of
`codezeta` are tested against."""

import itertools
import math
from fractions import Fraction

from codezeta.exactmath import BiPoly


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


def krawtchouk(q, n, j, i):
    """K_j(i) by its defining sum over s of
    (-1)^s (q-1)^(j-s) C(i, s) C(n-i, j-s)."""
    return sum(
        (-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s)
        for s in range(max(0, j - (n - i)), min(i, j) + 1)
    )


def macwilliams(q, n, k, counts):
    """sum_i A_i K_j(i) / q^k for j = 0 .. n, as Fractions, unchecked."""
    return [
        Fraction(sum(a * krawtchouk(q, n, j, i) for i, a in enumerate(counts)), q**k)
        for j in range(n + 1)
    ]


def greene_weight_enumerator(W, q):
    """W_G(qy/(x-y), (x-y)/y) (x-y)^k y^(n-k), multiplied out monomial by
    monomial over a table of the powers of (x - y)."""
    n, k = W.n, W.k
    x_minus_y = BiPoly({(1, 0): 1, (0, 1): -1})
    xmy_pow = [BiPoly.const(1)]
    for _ in range(n):
        xmy_pow.append(xmy_pow[-1] * x_minus_y)
    out = BiPoly()
    for (cor, nul), c in W.W.terms.items():
        term = xmy_pow[k - cor + nul] * BiPoly.monomial(0, cor - nul + n - k)
        out = out + term * (c * Fraction(q) ** cor)
    return out
