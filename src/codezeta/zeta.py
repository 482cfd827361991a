"""Zeta polynomials P(T) for codes, the duality functional equation, the
coefficient bound d+1 <= q+1+a, and the two-variable zeta Z(T, u)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm

from .exactmath import BiPoly, RatFun, UniPoly, ratfun_equal


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
    are built on the integers D alpha_j, D the common denominator of the
    alpha_j: Horner's rule in u = T/(1-T), where multiplying by u is a shift
    and a running sum, then d more running sums for 1/(1-T)^d.
    """
    n, d, q = a.n, a.d, a.q
    alpha = a.a_poly.coeffs
    D = lcm(*(aj.denominator for aj in alpha))
    order = n - d
    s = [0] * (order + 1)
    for aj in reversed(alpha):
        s = [aj.numerator * (D // aj.denominator)] + list(accumulate(s[:order]))
    for _ in range(d):
        s = list(accumulate(s))
    p = [Fraction(s[0], D)]
    p += [Fraction(cur - q * prev, D) for prev, cur in zip(s, s[1:])]
    return ZetaPolynomial(P=UniPoly(p), q=q, n=n, k=k, d=d, d_dual=d_dual)


def zeta_from_enumerator_def1(A):
    """Solve the original definition directly: for every monomial x^(n-i) y^i,
    the T^(n-d) coefficient of P(T)/((1-T)(1-qT)) (y+(x-y)T)^n must equal
    A_i/(q-1). Entry (i, l) of this system in p_0 .. p_(n-d) is C(n, i) c_j,
    c_j the T^j coefficient of (1-T)^(i-1)/(1-qT) and j = i-d-l; it is zero
    for l > i-d and C(n, i) on the diagonal, so rows d..n are solved by
    forward substitution and rows 1..d-1 demand A_i = 0. Full bivariate
    route; used as an independent verifier."""
    q, n, d = A.q, A.n, A.d
    if any(A.counts[1:d]):
        raise CrossCheckError(
            "weight distribution is inconsistent with the direct zeta definition"
        )
    p = []
    for i in range(d, n + 1):
        # c_j = q c_(j-1) + (-1)^j C(i-1, j); p_l meets c_(i-d-l)
        c = [1]
        for j in range(1, i - d + 1):
            c.append(q * c[-1] + (-1) ** j * comb(i - 1, j))
        acc = Fraction(A.counts[i], (q - 1) * comb(n, i))
        p.append(acc - sum(pl * cj for pl, cj in zip(p, reversed(c))))
    return ZetaPolynomial(
        P=UniPoly(p), q=q, n=n, k=A.k, d=d, d_dual=A.d_dual
    )


def check_functional_eq(Pc, Pd):
    """True iff Pd(T) = Pc(1/qT) q^g T^(g+g_dual) as an exact polynomial."""
    g, gd, q = Pc.g, Pc.g_dual, Pc.q
    top = g + gd
    coeffs = [Fraction(0)] * (top + 1)
    for j, pj in enumerate(Pc.P.coeffs):
        if pj:
            e = top - j
            if e < 0:
                return False  # transform is not a polynomial
            coeffs[e] += pj * Fraction(q) ** (g - j)
    return UniPoly(coeffs) == Pd.P


def a_coefficient_bound(P, a_list):
    """Extract a = p_1/p_0 from P = (a_d/(q-1))(1 + aT + ...), verify the
    relation a_d(a - d + q) = a_{d+1}, and report the bound d+1 <= q+1+a.

    When d = n the relation names a weight no word can have, so
    `relation_holds` is None and `relation_not_applicable` says why."""
    p0 = P.P.coeff(0)
    if p0 == 0:
        raise StructuralError("zeta polynomial with zero constant term")
    q, d, n = P.q, P.d, P.n
    a = P.P.coeff(1) / p0
    relation = Fraction(a_list[d]) * (a - d + q) == a_list[d + 1] if d < n else None
    bound = q + 1 + a
    report = {
        "a": a,
        "relation_holds": relation,
        "bound": bound,
        "bound_holds": Fraction(d + 1) <= bound,
    }
    if relation is None:
        report["relation_not_applicable"] = "d = n"
    return report


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
    """Z(T, u) from W_n^+ via Z(T,u)(u-1)T^(1-g) = W_n^+(uT, 1/T).

    Multiplies through by T^(n-k+1) (enough to clear the y^(n-k+1) tail term),
    then divides the numerator exactly by (u-1); non-divisibility flags a
    broken W_n^+ construction.
    """
    shift = n - k + 1
    num = _subs_uT_invT(Wn_plus.num, shift)
    den = _subs_uT_invT(Wn_plus.den, shift)
    num = _divide_by_u_minus_1(num.terms)
    if g >= 1:
        num = num * BiPoly.monomial(g - 1, 0)
    else:
        den = den * BiPoly.monomial(1 - g, 0)
    return TwoVarZeta(value=RatFun(num, den), g=g)


def check_two_var_compat(Z, P):
    """True iff Z(T, q) equals P(T)/((1-T)(1-qT)) by cross-multiplication."""
    q = P.q
    num_t = Z.value.num.subs_second(q)
    den_t = Z.value.den.subs_second(q)
    one_var_den = UniPoly([1, -1]) * UniPoly([1, -q])
    return num_t * one_var_den == den_t * P.P


def two_var_functional_eq(Z):
    """Exploratory check of Z(T,u) = Z(1/(uT), u) u^(g-1) T^(2g-2).

    The relation is known for curves; for codes this simply reports whether
    it happens to hold. Not asserted anywhere.
    """
    g = Z.g

    def flip(poly, t_shift, u_shift):
        out = {}
        for (a, b), c in poly.terms.items():
            key = (t_shift - a, b + u_shift - a)
            out[key] = out.get(key, Fraction(0)) + c
        if any(t < 0 or u < 0 for (t, u) in out):
            raise StructuralError("clearing exponents were too small")
        return BiPoly(out)

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
