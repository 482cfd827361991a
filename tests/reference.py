"""Plain reference implementations that the kernels, the shared formulas,
the subset-rank DFS and point ranks, the table-driven row reduction, the
dimension-first classification, the Gleason-basis extremal synthesis, the
closed-form zeta and ultraspherical constructions and the Newton
interpolation of `codezeta` are tested against."""

import itertools
import math
from fractions import Fraction

from codezeta.bounds import MALLOWS_SLOANE
from codezeta.code import contains_code, dual_code, weight_distribution
from codezeta.exactmath import BiPoly, UniPoly
from codezeta.extremal import ExtremalEnumerator, gegenbauer


class InfeasibleError(RuntimeError):
    """No self-dual enumerator passes the descending-d search."""


def solve_linear(matrix, rhs):
    """Exact Gaussian elimination for matrix . x = rhs over the rationals.

    Returns (solution, rank, nullity). solution is None when the system is
    consistent but underdetermined. Raises ValueError on inconsistency.
    """
    m = len(matrix)
    ncols = len(matrix[0]) if m else 0
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    rank = 0
    pivots = []
    for col in range(ncols):
        pivot = next((r for r in range(rank, m) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    for r in range(rank, m):
        if rows[r][ncols] != 0:
            raise ValueError("inconsistent linear system")
    nullity = ncols - rank
    if nullity:
        return None, rank, nullity
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = rows[r][ncols]
    return sol, rank, nullity


def series_quotient(num, den, order):
    """The coefficients of num/den modulo T^(order+1), for UniPoly num and
    den with den(0) != 0."""
    if den.coeff(0) == 0:
        raise ZeroDivisionError("denominator has zero constant term")
    inv0 = 1 / den.coeff(0)
    out = []
    for m in range(order + 1):
        acc = num.coeff(m)
        for j in range(1, m + 1):
            dj = den.coeff(j)
            if dj:
                acc -= dj * out[m - j]
        out.append(acc * inv0)
    return out


def mobius_compose(a, order):
    """The coefficients of a(T/(1-T)) modulo T^(order+1), from
    T^j (1-T)^(-j) = sum_i C(i+j-1, j-1) T^(i+j)."""
    out = [Fraction(0)] * (order + 1)
    if not a.is_zero():
        out[0] = a.coeff(0)
        for m in range(1, order + 1):
            out[m] = sum(
                (a.coeff(j) * math.comb(m - 1, j - 1)
                 for j in range(1, min(m, a.degree) + 1)),
                Fraction(0),
            )
    return out


def zeta_from_normalized(a):
    """P(T) from P(T)(1-T)^d/(1-qT) = a(T/(1-T)) mod T^(n-d+1), solved as a
    triangular system in p_0 .. p_(n-d) against the series (1-T)^d/(1-qT)."""
    order = a.n - a.d
    target = mobius_compose(a.a_poly, order)
    s = series_quotient(UniPoly([1, -1]) ** a.d, UniPoly([1, -a.q]), order)
    p = []
    for m in range(order + 1):
        p.append(target[m] - sum((p[j] * s[m - j] for j in range(m)), Fraction(0)))
    return UniPoly(p)


def zeta_from_enumerator_def1(A):
    """P(T) from the full (n+1) x (n-d+1) system of the original definition
    (the T^(n-d) coefficient of P(T)/((1-T)(1-qT)) (y+(x-y)T)^n at x^(n-i) y^i
    is A_i/(q-1)), by Gaussian elimination; None if it is not uniquely
    solvable."""
    q, n, d = A.q, A.n, A.d
    matrix = []
    rhs = []
    for i in range(n + 1):
        row = []
        for l in range(n - d + 1):
            acc = 0
            for m in range(n - i, n + 1):
                j = n - d - m - l
                if j >= 0:
                    acc += (math.comb(n, m) * math.comb(m, n - i) * (-1) ** (m - n + i)
                            * ((q ** (j + 1) - 1) // (q - 1)))
            row.append(acc)
        matrix.append(row)
        rhs.append(Fraction(A.counts[i], q - 1) if i > 0 else 0)
    try:
        sol, _, nullity = solve_linear(matrix, rhs)
    except ValueError:
        return None
    return None if nullity else UniPoly(sol)


def check_ultraspherical(P, m):
    """(lambda, holds) for Q(T^2/2) = lambda C_m^{m+1}((1/T + T)/2) T^m with
    Q = P(1+2T), raising 1 + T^2 to each power j by repeated squaring."""
    Q = P.P * UniPoly([1, 2])
    lhs = UniPoly(
        [
            Q.coeff(i // 2) * Fraction(1, 2 ** (i // 2)) if i % 2 == 0 else 0
            for i in range(2 * max(Q.degree, 0) + 1)
        ]
    )
    rhs = UniPoly()
    for j, cj in enumerate(gegenbauer(m, m + 1).poly.coeffs):
        if cj:
            t_power = UniPoly([0] * (m - j) + [1])
            rhs = rhs + UniPoly([1, 0, 1]) ** j * t_power * (cj * Fraction(1, 2**j))
    if rhs.is_zero() or lhs.is_zero() or lhs.degree != rhs.degree:
        return Fraction(0), False
    lam = lhs.coeffs[-1] / rhs.coeffs[-1]
    return lam, lhs == rhs * lam


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


def _reduce_column(field, basis, vec):
    """Reduce vec against an echelonized basis of (pivot, vector) pairs;
    returns the basis, grown by the normalized remainder when nonzero."""
    cur = list(vec)
    for pivot, bvec in basis:
        c = cur[pivot]
        if c:
            cur = [field.sub(a, field.mul(c, b)) for a, b in zip(cur, bvec)]
    pivot = next((i for i, v in enumerate(cur) if v), None)
    if pivot is None:
        return basis
    inv = field.inv(cur[pivot])
    return basis + ((pivot, tuple(field.mul(inv, v) for v in cur)),)


def subset_ranks(C):
    """(mask, size, rank) for every column subset, in the DFS order of
    `iter_subset_ranks` (column j taken before it is left out), reducing
    every column against a tuple echelon basis over GF(q), for every q."""
    n = C.n
    field = C.field
    columns = [tuple(row[j] for row in C.generator) for j in range(n)]
    stack = [(0, 0, 0, ())]
    while stack:
        j, mask, size, basis = stack.pop()
        if j == n:
            yield mask, size, len(basis)
            continue
        stack.append((j + 1, mask, size, basis))
        grown = _reduce_column(field, basis, columns[j])
        stack.append((j + 1, mask | (1 << j), size + 1, grown))


def column_rank(C, mask):
    """Rank of the generator columns whose bits are set in mask, each
    reduced against a tuple echelon basis over GF(q)."""
    basis = ()
    for j in range(C.n):
        if mask >> j & 1:
            column = tuple(row[j] for row in C.generator)
            basis = _reduce_column(C.field, basis, column)
    return len(basis)


def rref_rank(field, matrix):
    """(rank, rref rows, pivot columns) over GF(q) by the field's methods."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    pivots = []
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [
                    field.sub(a, field.mul(f, b))
                    for a, b in zip(rows[r], rows[rank])
                ]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rank, tuple(tuple(r) for r in rows), tuple(pivots)


def classify(C):
    """The Clifford classification whatever the dimensions: build the dual,
    test containment, then compare the two weight distributions."""
    if C.k == C.n:
        return "other"
    dual = dual_code(C)
    if contains_code(C, dual):
        return "self-dual" if C.k == dual.k else "contains-dual"
    wd = weight_distribution(C)
    return "formally-self-dual" if wd.counts == wd.dual_counts else "other"


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


def interpolate(points):
    """Lagrange interpolation through (x, y) pairs with distinct x: one
    UniPoly product per basis factor, O(n^3)."""
    result = UniPoly()
    xs = [Fraction(x) for x, _ in points]
    for i, (_, yi) in enumerate(points):
        if yi == 0:
            continue
        basis = UniPoly([1])
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = basis * UniPoly([-xj, 1])
                denom *= xs[i] - xj
        result = result + basis * (Fraction(yi) / denom)
    return result
