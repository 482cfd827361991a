"""Zeta polynomials P(T) for codes, the duality functional equation, the
coefficient bound d+1 <= q+1+a, and the two-variable zeta Z(T, u)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, zip_longest
from math import comb, lcm
from operator import mul

from .exactmath import BiPoly, RatFun, UniPoly, _over_lcm


class CrossCheckError(RuntimeError):
    """The two independent routes to P(T) disagree."""


class StructuralError(RuntimeError):
    pass


@dataclass(frozen=True)
class ZetaPolynomial:
    P: UniPoly
    q: int
    n: int
    k: int
    d: int
    d_dual: int

    @property
    def g(self):
        return self.n + 1 - self.k - self.d

    @property
    def g_dual(self):
        return self.k + 1 - self.d_dual


@dataclass(frozen=True)
class TwoVarZeta:
    value: RatFun  # variables (T, u)
    g: int


def zeta_from_normalized(a, k, d_dual):
    """Definition-2 style: P(T) = a(T/(1-T)) (1-qT)/(1-T)^d mod T^(n-d+1).

    T^j (1-T)^-(j+d) = sum_i C(i+j+d-1, i) T^(i+j), so s_m, the T^m
    coefficient of a(T/(1-T))/(1-T)^d, is sum_j alpha_j C(m+d-1, m-j) with
    alpha_j the t^j coefficient of a(t), and p_m = s_m - q s_(m-1). The s_m
    are built on the integers D alpha_j = N_(d+j), D = (q-1) L, read off
    `a.scaled` (a_w = N_w / L), integer and averaged counts alike: Horner's
    rule in u = T/(1-T), where multiplying by u is a shift and a running
    sum, then d more running sums for 1/(1-T)^d. One Fraction per p_m.
    """
    n, d, q = a.n, a.d, a.q
    N, L = a.scaled
    order = n - d
    s = [0] * (order + 1)
    for aj in reversed(N[d:]):
        s = [aj] + list(accumulate(s[:order]))
    for _ in range(d):
        s = list(accumulate(s))
    D = (q - 1) * L
    p = [Fraction(s[0], D)]
    p += [Fraction(cur - q * prev, D) for prev, cur in zip(s, s[1:])]
    return ZetaPolynomial(P=UniPoly(p), q=q, n=n, k=k, d=d, d_dual=d_dual)


def zeta_from_enumerator_def1(A):
    """Solve the original definition directly: for every monomial x^(n-i) y^i,
    the T^(n-d) coefficient of P(T)/((1-T)(1-qT)) (y+(x-y)T)^n must equal
    A_i/(q-1). Entry (i, l) of this system in p_0 .. p_(n-d) is C(n, i) c_j,
    c_j the T^j coefficient of (1-T)^(i-1)/(1-qT) and j = i-d-l; it is zero
    for l > i-d and C(n, i) on the diagonal, so rows d..n are solved by
    forward substitution and rows 1..d-1 demand A_i = 0. The substitution
    runs on the integers D p_l, D = (q-1) lcm_i C(n, i), and moves from row i
    to row i+1 by multiplying the c_j by (1-T); one Fraction per p_l. Full
    bivariate route; used as an independent verifier."""
    q, n, d = A.q, A.n, A.d
    if any(A.counts[1:d]):
        raise CrossCheckError(
            "weight distribution is inconsistent with the direct zeta definition"
        )
    binoms = [comb(n, i) for i in range(d, n + 1)]
    L = lcm(*binoms)
    # row d: c_j = q c_(j-1) + (-1)^j C(d-1, j), for every j <= n-d
    c = [1]
    for j in range(1, n - d + 1):
        c.append(q * c[-1] + (-1) ** j * comb(d - 1, j))
    p = []
    for count, binom in zip(A.counts[d:], binoms):
        # p_l meets c_(i-d-l)
        p.append(count * (L // binom) - sum(map(mul, p, reversed(c[: len(p) + 1]))))
        c = [c[0]] + [b - a for a, b in zip(c, c[1:])]
    D = (q - 1) * L
    return ZetaPolynomial(
        P=UniPoly([Fraction(v, D) for v in p]), q=q, n=n, k=A.k, d=d, d_dual=A.d_dual
    )


def check_functional_eq(Pc, Pd):
    """True iff Pd(T) = Pc(1/qT) q^g T^(g+g_dual) as an exact polynomial.

    With top = g + g_dual, that is: neither side has a term above T^top,
    and the T^(top-j) coefficient of Pd is p_j q^(g-j) for j = 0 .. top.
    Each pair is compared on integers, cross-multiplied, with the power of
    q on the side where its exponent is nonnegative."""
    g, gd, q = Pc.g, Pc.g_dual, Pc.q
    top = g + gd
    pc, pd = Pc.P.coeffs, Pd.P.coeffs
    if max(len(pc), len(pd)) > top + 1:
        return False  # a term above T^top on either side
    pad = (0,) * (top + 1)
    pd = (pd + pad)[: top + 1]
    for j, pj in enumerate((pc + pad)[: top + 1]):
        dj, e = pd[top - j], g - j
        lhs, rhs = pj.numerator * dj.denominator, dj.numerator * pj.denominator
        if e >= 0:
            lhs *= q**e
        else:
            rhs *= q**-e
        if lhs != rhs:
            return False
    return True


def a_coefficient_bound(P, norm):
    """Extract a = p_1/p_0 from P = (a_d/(q-1))(1 + aT + ...), verify the
    relation a_d(a - d + q) = a_{d+1}, and report the bound d+1 <= q+1+a.

    `norm` is the code's `NormalizedEnumerator`; the relation is read on its
    integers a_w = N_w / L (`norm.scaled`) as N_d (a - d + q) = N_(d+1). The
    bound follows from the relation and a_{d+1} >= 0. When d = n the
    relation names a weight no word can have, so `relation_holds` and
    `bound_holds` are None and their `_not_applicable` keys say why."""
    p0 = P.P.coeff(0)
    if p0 == 0:
        raise StructuralError("zeta polynomial with zero constant term")
    q, d, n = P.q, P.d, P.n
    a = P.P.coeff(1) / p0
    bound = q + 1 + a
    report = {"a": a, "relation_holds": None, "bound": bound, "bound_holds": None}
    if d < n:
        N, _ = norm.scaled
        report["relation_holds"] = N[d] * (a - d + q) == N[d + 1]
        report["bound_holds"] = Fraction(d + 1) <= bound
    else:
        report["relation_not_applicable"] = report["bound_not_applicable"] = "d = n"
    return report


def two_var_zeta(Wn_plus, k, n, g):
    """Z(T, u) from W_n^+ via Z(T,u)(u-1)T^(1-g) = W_n^+(uT, 1/T), in one pass.

    Under T^s, s = n-k+1 (enough to clear the y^(n-k+1) tail term), x^i y^j
    goes to u^i T^(s+i-j), and c u^i = c(u-1)(1 + u + ... + u^(i-1)) + c. The
    constants c left over cancel at every power of T, since each normalized
    size layer of W_n sums to 1; a leftover flags a broken W_n^+. T^(g-1)
    then multiplies the quotient when g >= 1, T^(1-g) the denominator when
    g < 1. The numerator is read once as integers over the lcm L of its
    coefficient denominators; the leftovers and the quotient are summed on
    those integers, and each quotient term becomes one Fraction over L.
    """
    s = n - k + 1
    num_shift, den_shift = (g - 1, 0) if g >= 1 else (0, 1 - g)

    def t_power(i, j):
        if s + i - j < 0:
            raise StructuralError("insufficient T power to clear the y tail")
        return s + i - j

    terms = Wn_plus.num.terms
    coeffs, L = _over_lcm(terms.values())
    leftover = {}
    quotient = {}
    for (i, j), c in zip(terms, coeffs):
        t = t_power(i, j)
        leftover[t] = leftover.get(t, 0) + c
        for e in range(i):
            key = (t + num_shift, e)
            quotient[key] = quotient.get(key, 0) + c
    if any(leftover.values()):
        raise StructuralError("numerator is not divisible by (u - 1)")
    num = BiPoly({key: Fraction(c, L) for key, c in quotient.items() if c})
    den = [((t_power(i, j) + den_shift, i), c) for (i, j), c in Wn_plus.den.terms.items()]
    return TwoVarZeta(value=RatFun(num, BiPoly(den)), g=g)


def check_two_var_compat(Z, P):
    """True iff Z(T, q) equals P(T)/((1-T)(1-qT)) by cross-multiplication.

    It runs on integers: Z's numerator at u = q over the lcm Ln of its
    coefficient denominators, Z's denominator over Ld and P(T) over Lp, and
    num(T)(1-T)(1-qT) Ld Lp is compared with den(T) P(T) Ln."""
    q = P.q
    num, Ln = _at_u(Z.value.num, q)
    den, Ld = _at_u(Z.value.den, q)
    p, Lp = _over_lcm(P.P.coeffs)
    lhs = _times(num, (1, -1 - q, q))  # (1 - T)(1 - qT)
    rhs = _times(den, p)
    return all(l * Ld * Lp == r * Ln for l, r in zip_longest(lhs, rhs, fillvalue=0))


def _at_u(poly, u):
    """(coeffs, L): the (T, u) polynomial at the integer u, its T^i
    coefficient coeffs[i] / L, with L the lcm of its coefficient
    denominators."""
    scaled, L = _over_lcm(poly.terms.values())
    out = [0] * (max((t for t, _ in poly.terms), default=-1) + 1)
    for (t, e), c in zip(poly.terms, scaled):
        out[t] += c * u**e
    return out, L


def _times(a, b):
    """The product of two integer coefficient lists."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def two_var_functional_eq(Wn_plus):
    """Exploratory check of Z(T,u) = Z(1/(uT), u) u^(g-1) T^(2g-2).

    Under (x, y) = (uT, 1/T), the map T -> 1/(uT) swaps x and y, and the
    relation reads W_n^+(x, y) = W_n^+(y, x). The denominator (1-x)(1-y) is
    symmetric, so it holds exactly when the numerator of W_n^+ is. The
    relation is known for curves; for codes this simply reports whether it
    happens to hold. Not asserted anywhere.
    """
    terms = Wn_plus.num.terms
    return all(terms.get((j, i)) == c for (i, j), c in terms.items())
