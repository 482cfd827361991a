"""Plain reference implementations that the kernels, the shared formulas
and the Gleason-basis extremal synthesis of `codezeta` are tested against."""

import itertools
import math
from fractions import Fraction

from codezeta.bounds import MALLOWS_SLOANE
from codezeta.exactmath import BiPoly, solve_linear
from codezeta.extremal import ExtremalEnumerator, InfeasibleError


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


def solve_self_dual(q, c, n, d, kraw):
    """Impose A_0 = 1, divisibility-by-c support, minimum distance d, and
    MacWilliams self-invariance with k = n/2 as a rational linear system;
    `kraw` is the Krawtchouk table of (q, n)."""
    support = [0] + [i for i in range(d, n + 1) if i % c == 0]
    size = Fraction(q) ** (n // 2)
    matrix = []
    rhs = []
    for j, values in enumerate(kraw):
        row = [Fraction(values[i]) for i in support]
        if j in support:
            row[support.index(j)] -= size
        matrix.append(row)
        rhs.append(Fraction(0))
    matrix.append([Fraction(1)] + [Fraction(0)] * (len(support) - 1))
    rhs.append(Fraction(1))
    sol, _, nullity = solve_linear(matrix, rhs)
    return support, sol, nullity


def extremal_sd_enumerator(q, c, n):
    """Largest d (descending from the Mallows-Sloane bound, in steps of c)
    whose overdetermined Krawtchouk system has a unique solution with
    minimum weight d and integral counts; a consistent but underdetermined
    system at the maximal feasible d is reported as an ambiguity."""
    bound = next(b for tq, tc, _, b in MALLOWS_SLOANE.values() if (tq, tc) == (q, c))
    kraw = [[krawtchouk(q, n, j, i) for i in range(n + 1)] for j in range(n + 1)]
    d = bound(n)
    while d >= c:
        try:
            support, sol, nullity = solve_self_dual(q, c, n, d, kraw)
        except ValueError:
            d -= c
            continue
        if nullity:
            return ExtremalEnumerator(
                q=q, c=c, n=n, d=d, counts=None, unique=False,
                solution_dim=nullity, nonnegative=False,
            )
        counts = [Fraction(0)] * (n + 1)
        for i, v in zip(support, sol):
            counts[i] = v
        min_weight = next((i for i in range(1, n + 1) if counts[i]), n + 1)
        if min_weight != d or any(v.denominator != 1 for v in counts):
            d -= c  # a larger-d family member, or no integral enumerator
            continue
        return ExtremalEnumerator(
            q=q, c=c, n=n, d=d,
            counts=tuple(int(v) for v in counts),
            unique=True, solution_dim=0,
            nonnegative=all(v >= 0 for v in counts),
        )
    raise InfeasibleError(f"no self-dual enumerator found for (q={q}, c={c}, n={n})")
