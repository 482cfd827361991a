"""Plain reference implementations that the kernels, the shared formulas,
the subset-rank DFS and point ranks, the table-driven row reduction, the
dimension-first classification, the Gleason-basis extremal synthesis,
the closed-form zeta and ultraspherical constructions, the Gegenbauer
polynomials (by a grid count of their sign changes), the Newton
interpolation, W_n^+, the two-variable zeta and self-relation, the
Greene checks, the comparison of Z(T, q) with P(T) and the Clifford
decomposition of `codezeta` are tested against, among them routes that
`codezeta` used before: the column walk of the point ranks, the prefix
loop of the message bitsets in characteristic 2, the full Krawtchouk
table and the Krawtchouk recurrence of the MacWilliams transform, the
field products as polynomial products, the one-variable layer on
`Fraction`s (the normalized enumerator, the functional equation with
Fraction powers of q, the g/h values and their evaluations), the two
Greene checks and the Z(T, q) comparison on `Fraction`s, W_n^+ as a
product of `Fraction` BiPolys, Z(T,u) by substitution and synthetic
division by (u - 1), the flipped and cross-multiplied Z(T,u) and the
null-space subcodes, the classical Mallows-Sloane formulas and the
human-readable renderer with a branch each for dicts and lists."""

import itertools
import math
from fractions import Fraction

from codezeta.bounds import MALLOWS_SLOANE
from codezeta.code import contains_code, dual_code, weight_distribution
from codezeta.exactmath import BiPoly, RatFun, UniPoly, ratfun_equal
from codezeta.extremal import ExtremalEnumerator, gegenbauer
from codezeta.zeta import StructuralError


# The Mallows-Sloane bound on d of each self-dual type, as the classical
# formulas (Mallows & Sloane, Inform. Control 22, 1973; MacWilliams & Sloane,
# Ch. 19); `codezeta.bounds` derives them from the divisibility bound.
MALLOWS_SLOANE_BOUNDS = {
    "I": lambda n: 2 * (n // 8) + 2,
    "II": lambda n: 4 * (n // 24) + 4,
    "III": lambda n: 3 * (n // 12) + 3,
    "IV": lambda n: 2 * (n // 6) + 2,
}


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


def normalized_fractions(q, n, counts):
    """(a_list, a_poly) of counts A_0 .. A_n built directly as Fractions:
    a_w = A_w / C(n, w), and a(t) from a_w / (q - 1) for w = d .. n."""
    a_list = [Fraction(c) / math.comb(n, w) for w, c in enumerate(counts)]
    d = next(w for w in range(1, n + 1) if a_list[w])
    return tuple(a_list), UniPoly([aw / (q - 1) for aw in a_list[d:]])


def check_functional_eq(Pc, Pd):
    """Pd(T) == Pc(1/qT) q^g T^(g+g_dual), with every term p_j q^(g-j)
    built as a Fraction."""
    g, gd, q = Pc.g, Pc.g_dual, Pc.q
    top = g + gd
    coeffs = [Fraction(0)] * (top + 1)
    for j, pj in enumerate(Pc.P.coeffs):
        if pj:
            if top - j < 0:
                return False
            coeffs[top - j] += pj * Fraction(q) ** (g - j)
    return UniPoly(coeffs) == Pd.P


def difference_values(a_list, q, d, c):
    """(a_w - (q-1)^c a_{w-c})(-1)^(w-d) for w = c .. n, as Fractions."""
    return [
        (a_list[w] - (q - 1) ** c * a_list[w - c]) * (-1) ** ((w - d) % 2)
        for w in range(c, len(a_list))
    ]


def fit(values, first, use):
    """(poly, miss): the Lagrange interpolant through (first + i, values[i])
    for i <= use, and the first later w whose value it misses, or None."""
    poly = interpolate([(first + i, values[i]) for i in range(use + 1)])
    miss = next(
        (first + i for i in range(use + 1, len(values)) if poly(first + i) != values[i]),
        None,
    )
    return poly, miss


def h_poly(a_list, q, d, c, d_dual):
    """`codezeta.bounds.h_poly` on Fractions: (h, None), or (None, the w of
    the first missed value), or (h, "degree") past the degree bound."""
    n = len(a_list) - 1
    bound = n - d_dual
    if q == 2 and a_list[n] and not any(a_list[1::2]):
        bound -= 1
    h, miss = fit(difference_values(a_list, q, d, c), c, min(bound, n - c))
    if miss is not None:
        return None, miss
    return h, "degree" if h.degree > bound else None


def g_poly(a_list, q, d, d_dual):
    """`codezeta.bounds.g_poly` on Fractions, reported as `h_poly` does,
    with "degree" when deg g is not exactly n - d_dual."""
    n = len(a_list) - 1
    g, miss = fit(difference_values(a_list, q, d, 1), 1, n - d_dual)
    if miss is not None:
        return None, miss
    return g, "degree" if g.degree != n - d_dual else None


def integer_zeros(poly, w_min, w_max):
    """The w in [w_min, w_max] with poly(w) == 0, each value a Fraction."""
    return [w for w in range(w_min, w_max + 1) if poly(Fraction(w)) == 0]


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
    for j, cj in enumerate(gegenbauer(m, m + 1).coeffs):
        if cj:
            t_power = UniPoly([0] * (m - j) + [1])
            rhs = rhs + UniPoly([1, 0, 1]) ** j * t_power * (cj * Fraction(1, 2**j))
    if rhs.is_zero() or lhs.is_zero() or lhs.degree != rhs.degree:
        return Fraction(0), False
    lam = lhs.coeffs[-1] / rhs.coeffs[-1]
    return lam, lhs == rhs * lam


def gegenbauer_sign_changes(m, lam, grid_steps=2000):
    """Count sign changes of C_m^lam on a rational grid over (-1, 1)."""
    poly = gegenbauer(m, lam)
    changes = 0
    prev = None
    for i in range(grid_steps + 1):
        x = Fraction(-1) + Fraction(2 * i, grid_steps)
        v = poly(x)
        if v == 0:
            continue
        s = v > 0
        if prev is not None and s != prev:
            changes += 1
        prev = s
    return changes


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


def value_sets(field, rows, n):
    """For each of the n columns of `rows`, the q bitsets of the messages at
    which the column reads each value (bit x is the message whose base-q
    digits are the coefficients of the rows), built row by row: row r, with
    entry g, sends c to c + dg at digit d, a shift by d q^r. Columns that
    agree on their first r entries share the sets over those rows."""
    q = field.q
    add, mul = field.add_table, field.mul_table
    by_prefix = {(): [1] + [0] * (q - 1)}
    sets = []
    for j in range(n):
        column = tuple(row[j] for row in rows)
        for r, g in enumerate(column):
            if column[: r + 1] in by_prefix:
                continue
            grown, width = [0] * q, q**r
            for d in range(q):
                shift = d * width
                for to, s in zip(add[mul[d][g]], by_prefix[column[:r]]):
                    grown[to] |= s << shift
            by_prefix[column[: r + 1]] = grown
        sets.append(by_prefix[column])
    return sets


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
    `code.subset_rank_table` (column j taken before it is left out), reducing
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


def column_rank(C, mask, stop=None):
    """min(stop, rank) of the generator columns whose bits are set in mask,
    or their rank when stop is None: each column reduced against a tuple
    echelon basis over GF(q), walking the columns until the rank reaches
    `stop`."""
    basis = ()
    for j in range(C.n):
        if stop is not None and len(basis) >= stop:
            break
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
    dual = dual_code(C)
    if contains_code(C, dual):
        return "self-dual" if C.k == dual.k else "contains-dual"
    wd = weight_distribution(C)
    return "formally-self-dual" if wd.counts == wd.dual_counts else "other"


def field_tables(q):
    """(add, mul, neg, inv) of GF(q) as tuples, every product a polynomial
    product reduced by the modulus of `codezeta.gf`, for all q^2 pairs."""
    p, modulus = {4: (2, (1, 1, 1)), 8: (2, (1, 1, 0, 1)), 9: (3, (1, 0, 1))}.get(
        q, (q, (0, 1)))
    m = len(modulus) - 1

    def digits(a):
        return [a // p**i % p for i in range(m)]

    def encode(ds):
        return sum(c * p**i for i, c in enumerate(ds))

    def product(a, b):
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] += x * y
        for i in range(len(prod) - 1, m - 1, -1):  # x^m = -(lower terms)
            for j, cm in enumerate(modulus[:m]):
                prod[i - m + j] -= prod[i] * cm
        return encode([c % p for c in prod[:m]])

    add = tuple(tuple(encode([(x + y) % p for x, y in zip(digits(a), digits(b))])
                      for b in range(q)) for a in range(q))
    mul = tuple(tuple(product(a, b) for b in range(q)) for a in range(q))
    neg = tuple(row.index(0) for row in add)
    inv = (0,) + tuple(mul[a].index(1) for a in range(1, q))
    return add, mul, neg, inv


def krawtchouk(q, n, j, i):
    """K_j(i) by its defining sum over s of
    (-1)^s (q-1)^(j-s) C(i, s) C(n-i, j-s)."""
    return sum(
        (-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s)
        for s in range(max(0, j - (n - i)), min(i, j) + 1)
    )


def krawtchouk_table(q, n):
    """Rows K_0 .. K_n of Krawtchouk values, K_j[i] = K_j(i), by the
    three-term recurrence
    (j+1) K_{j+1}(i) = [(q-1)(n-j) + j - q i] K_j(i) - (q-1)(n-j+1) K_{j-1}(i)
    at every i, in O(n^2) integer steps."""
    prev, cur = [0] * (n + 1), [1] * (n + 1)
    rows = [cur]
    for j in range(n):
        a, b = (q - 1) * (n - j) + j, (q - 1) * (n - j + 1)
        prev, cur = cur, [
            ((a - q * i) * c - b * p) // (j + 1)
            for i, (c, p) in enumerate(zip(cur, prev))
        ]
        rows.append(cur)
    return rows


def krawtchouk_sums(q, n, counts):
    """sum_i A_i K_j(i) for j = 0 .. n by the three-term recurrence of
    `krawtchouk_table`, run on the products A_i K_j(i) at the weights i
    with A_i nonzero: O(n) integer steps per such weight."""
    support = [i for i, a in enumerate(counts) if a]
    slopes = [q * i for i in support]
    prev, cur = [0] * len(support), [counts[i] for i in support]
    sums = [sum(cur)]
    for j in range(n):
        a, b = (q - 1) * (n - j) + j, (q - 1) * (n - j + 1)
        prev, cur = cur, [
            ((a - s) * c - b * p) // (j + 1) for s, c, p in zip(slopes, cur, prev)
        ]
        sums.append(sum(cur))
    return sums


def macwilliams_counts(q, n, k, counts):
    """The dual counts sum_i A_i K_j(i) / q^k off the Krawtchouk recurrence,
    raising ValueError as `codezeta.code.macwilliams_counts` does: at the
    first bad j, a non-integral count before a negative one."""
    out = []
    for total in krawtchouk_sums(q, n, counts):
        acc, rem = divmod(total, q**k)
        if rem:
            raise ValueError("MacWilliams transform produced a non-integral count")
        if acc < 0:
            raise ValueError("MacWilliams transform produced a negative count")
        out.append(acc)
    return out


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


def check_greene(A, W):
    """A(x,y) against the Greene substitution of W_G, both as Fraction
    BiPolys, the substitution by `greene_weight_enumerator` above."""
    predicted = greene_weight_enumerator(W, A.q)
    actual = BiPoly({(A.n - i, i): c for i, c in enumerate(A.counts)})
    return predicted == actual


def check_greene_normalized(A, Wn):
    """The normalized Greene congruence on Fractions: A_n(1,t)(1+t)^(n+1),
    from the a_w of `normalized_fractions`, against the sum over the W_n
    monomials c x^a y^b of c q^a t^(a-b+n-k) (1+t)^(k+b-a), each multiplied
    out as a UniPoly; the two compared mod t^(n+1)."""
    n, k, q = Wn.n, Wn.k, A.q
    if n != A.n:
        raise ValueError("distribution and rank-generating lengths differ")
    a_list, _ = normalized_fractions(q, n, A.counts)
    one_plus_t = UniPoly([1, 1])
    lhs = UniPoly(a_list) * one_plus_t ** (n + 1)
    rhs = UniPoly()
    for (a, b), c in Wn.Wn.terms.items():
        shift, power = a - b + n - k, k + b - a
        if shift < 0 or power < 0:
            raise ValueError("rank-generating exponent out of range")
        rhs = rhs + UniPoly([0] * shift + [c * q**a]) * one_plus_t**power
    return lhs.truncate(n) == rhs.truncate(n)


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
    name = next(name for name, (tq, tc, _) in MALLOWS_SLOANE.items() if (tq, tc) == (q, c))
    kraw = [[krawtchouk(q, n, j, i) for i in range(n + 1)] for j in range(n + 1)]
    d = MALLOWS_SLOANE_BOUNDS[name](n)
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


def nullspace(field, matrix):
    """Basis of {v : matrix . v = 0} over GF(q), one vector per free column
    of the reduced echelon form."""
    ncols = len(matrix[0]) if matrix else 0
    _, rref, pivots = rref_rank(field, matrix)
    basis = []
    for j in range(ncols):
        if j not in pivots:
            v = [0] * ncols
            v[j] = 1
            for r, p in enumerate(pivots):
                v[p] = field.neg(rref[r][j])
            basis.append(tuple(v))
    return basis


def wn_plus(Wn):
    """W_n^+ as the RatFun W_n (1-x)(1-y) + x^(k+1) (1-y) + y^(n-k+1) (1-x)
    over (1-x)(1-y), multiplied out as Fraction BiPolys."""
    k, n = Wn.k, Wn.n
    one_minus_x = BiPoly({(0, 0): 1, (1, 0): -1})
    one_minus_y = BiPoly({(0, 0): 1, (0, 1): -1})
    num = (
        Wn.Wn * one_minus_x * one_minus_y
        + BiPoly.monomial(k + 1, 0) * one_minus_y
        + BiPoly.monomial(0, n - k + 1) * one_minus_x
    )
    return RatFun(num, one_minus_x * one_minus_y)


def _divide_by_u_minus_1(terms):
    """Exact division of a (T, u) polynomial by (u - 1)."""
    by_u = {}
    for (t, u), c in terms.items():
        by_u.setdefault(u, {})[t] = c
    top = max(by_u) if by_u else 0
    quotient = {}
    carry = {}  # current quotient coefficient (a poly in T), u-degree descending
    for u in range(top, 0, -1):
        cur = dict(carry)
        for t, c in by_u.get(u, {}).items():
            cur[t] = cur.get(t, Fraction(0)) + c
        for t, c in cur.items():
            if c:
                quotient[(t, u - 1)] = c
        carry = cur
    remainder = dict(by_u.get(0, {}))
    for t, c in carry.items():
        remainder[t] = remainder.get(t, Fraction(0)) + c
    if any(c for c in remainder.values()):
        raise StructuralError("numerator is not divisible by (u - 1)")
    return BiPoly(quotient)


def _subs_uT_invT(poly, shift):
    """x^i y^j -> (uT)^i (1/T)^j, cleared by T^shift; returns a (T, u) BiPoly."""
    out = {}
    for (i, j), c in poly.terms.items():
        t_exp = shift + i - j
        if t_exp < 0:
            raise StructuralError("insufficient T power to clear the y tail")
        key = (t_exp, i)
        out[key] = out.get(key, Fraction(0)) + c
    return BiPoly(out)


def two_var_zeta(Wn_plus, k, n, g):
    """Z(T, u) as a RatFun: W_n^+(uT, 1/T) cleared by T^(n-k+1) on both
    sides, the numerator divided by (u - 1) by synthetic division in u,
    then T^(g-1) on the numerator or T^(1-g) on the denominator."""
    shift = n - k + 1
    num = _subs_uT_invT(Wn_plus.num, shift)
    den = _subs_uT_invT(Wn_plus.den, shift)
    num = _divide_by_u_minus_1(num.terms)
    if g >= 1:
        num = num * BiPoly.monomial(g - 1, 0)
    else:
        den = den * BiPoly.monomial(1 - g, 0)
    return RatFun(num, den)


def two_var_functional_eq(Z):
    """Whether Z(T,u) = Z(1/(uT), u) u^(g-1) T^(2g-2): Z flipped term by term,
    cleared by powers of T and u, and compared by cross-multiplication."""
    g = Z.g

    def flip(poly, t_shift, u_shift):
        return BiPoly(
            {(t_shift - a, b + u_shift - a): c for (a, b), c in poly.terms.items()}
        )

    exps = list(Z.value.num.terms) + list(Z.value.den.terms)
    t_shift = max(a for a, _ in exps)
    u_shift = max(max(a - b for (a, b) in exps), 0) + t_shift
    num = flip(Z.value.num, t_shift, u_shift)
    den = flip(Z.value.den, t_shift, u_shift)
    # multiply by u^(g-1) T^(2g-2), putting negative powers in the denominator
    if g >= 1:
        num = num * BiPoly.monomial(2 * g - 2, g - 1)
    else:
        den = den * BiPoly.monomial(2 - 2 * g, 1 - g)
    return ratfun_equal(Z.value, RatFun(num, den))


def check_two_var_compat(Z, P):
    """Z(T, q) against P(T)/((1-T)(1-qT)): Z's numerator and denominator
    evaluated at u = q as Fraction UniPolys, then cross-multiplied."""
    q = P.q
    num_t = Z.value.num.subs_second(q)
    den_t = Z.value.den.subs_second(q)
    one_var_den = UniPoly([1, -1]) * UniPoly([1, -q])
    return num_t * one_var_den == den_t * P.P


def support_subcode(C, inside):
    """Basis of the codewords of C supported inside the column set `inside`:
    the messages killed by the other columns, multiplied out."""
    outside = [j for j in range(C.n) if j not in inside]
    if outside:
        transposed = [[row[j] for row in C.generator] for j in outside]
        messages = nullspace(C.field, transposed)
    else:
        messages = [tuple(int(i == r) for i in range(C.k)) for r in range(C.k)]
    field = C.field
    words = []
    for m in messages:
        word = [0] * C.n
        for i, mi in enumerate(m):
            if mi:
                for j in range(C.n):
                    word[j] = field.add(word[j], field.mul(mi, C.generator[i][j]))
        words.append(tuple(word))
    return words


def decomposition_report(C, cols, rank):
    """The Clifford decomposition entry of the column set `cols` with rank
    `rank`, from the subcodes on it and on its complement."""
    cols = set(cols)
    comp = set(range(C.n)) - cols
    sub_a = support_subcode(C, cols)
    sub_b = support_subcode(C, comp)
    support_a = {j for w in sub_a for j, v in enumerate(w) if v}
    support_b = {j for w in sub_b for j, v in enumerate(w) if v}
    dim_formula = len(cols) - rank
    ok = (
        len(sub_a) + len(sub_b) == C.k
        and support_a == cols
        and support_b == comp
        and len(sub_a) == dim_formula
    )
    return {
        "subset": sorted(cols),
        "dim_on_subset": len(sub_a),
        "dim_on_complement": len(sub_b),
        "dim_formula": dim_formula,
        "ok": ok,
    }


# The human-readable renderer `codezeta.cli._render_human` had before its
# dict and list branches became one loop, with its two helpers.
def render_human(report, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(report, dict):
        for key in report:
            value = report[key]
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{pad}{key}:")
                lines.extend(render_human(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_flat(value)}")
    elif isinstance(report, list):
        for value in report:
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{pad}-")
                lines.extend(render_human(value, indent + 1))
            else:
                lines.append(f"{pad}- {_flat(value)}")
    else:
        lines.append(f"{pad}{_flat(report)}")
    return lines


def _is_flat(value):
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value)
    return False


def _flat(value):
    if isinstance(value, list):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)
