"""Interpolation polynomials on normalized weight differences and the
divisibility upper bounds, with the Mallows-Sloane bounds derived from them."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd

from .exactmath import UniPoly, _over_lcm, interpolate


class LemmaCheckError(RuntimeError):
    """Interpolation data violated a claimed degree or extrapolation."""


def _difference_values(a, c):
    """(values, L): the integers
    values[w - c] = (N_w - (q-1)^c N_{w-c})(-1)^(w-d) for w = c..n, with
    (N, L) = `a.scaled`, so that values[w - c] / L is
    (a_w - (q-1)^c a_{w-c})(-1)^(w-d)."""
    N, L = a.scaled
    scale, d = (a.q - 1) ** c, a.d
    values = [
        (N[w] - scale * N[w - c]) * (-1 if (w - d) % 2 else 1)
        for w in range(c, a.n + 1)
    ]
    return values, L


def _horner(coeffs, w):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * w + c
    return acc


def _fit(values, L, first, use):
    """Interpolate through (first + i, values[i] / L) for i = 0..use, one
    Fraction per point, and return the polynomial and the first later
    w = first + i whose value it misses (None if it meets them all),
    compared on integers."""
    poly = interpolate([(first + i, Fraction(values[i], L)) for i in range(use + 1)])
    ints, D = _over_lcm(poly.coeffs)
    miss = next(
        (first + i for i in range(use + 1, len(values))
         if _horner(ints, first + i) * L != values[i] * D),
        None,
    )
    return poly, miss


def g_poly(a, d_dual):
    """Interpolate g(w) through w = 1..n-d_dual+1 and audit the claims:
    the remaining values w = n-d_dual+2..n extrapolate correctly and the
    degree is exactly n-d_dual."""
    values, L = _difference_values(a, 1)  # indexed by w-1
    deg = a.n - d_dual
    g, miss = _fit(values, L, 1, deg)
    if miss is not None:
        raise LemmaCheckError(
            f"g(w) fails to extrapolate the value at w={miss}"
        )
    if g.degree != deg:
        raise LemmaCheckError(
            f"deg g = {g.degree}, expected exactly {deg}"
        )
    return g


def g_from_zeta(P):
    """g(w) from the zeta coefficients via the alternating binomial expansion
    (q-1) sum_j (-1)^j p_j C(w-2, d-2+j), built as a polynomial in w."""
    q, d = P.q, P.d
    w = UniPoly([0, 1])
    result = UniPoly()
    for j, pj in enumerate(P.P.coeffs):
        if pj == 0:
            continue
        m = d - 2 + j
        basis = UniPoly([1])
        for i in range(m):
            basis = basis * (w - (2 + i))
        basis = basis * Fraction(1, factorial(m))
        result = result + basis * ((-1) ** j * pj)
    return result * (q - 1)


def h_poly(a, c, d_dual):
    """Interpolate h(w) = (a_w - (q-1)^c a_{w-c})(-1)^(w-d) for w = c..n.

    The degree bound is n-d_dual, dropping by one for binary even codes that
    contain the all-one word; every prescribed value is re-verified.
    """
    if c < 1:
        raise ValueError("divisor c must be >= 1")
    n = a.n
    values, L = _difference_values(a, c)  # indexed by w-c
    bound = n - d_dual - _binary_even_allone(a)
    use = min(bound, n - c)
    h, miss = _fit(values, L, c, use)
    if miss is not None:
        raise LemmaCheckError(f"h(w) fails the prescribed value at w={miss}")
    if h.degree > bound:
        raise LemmaCheckError(
            f"deg h = {h.degree} exceeds the claimed bound {bound}"
        )
    return h


def divisibility(A):
    """c = gcd of the nonzero-codeword weights."""
    c = gcd(*(i for i in range(1, A.n + 1) if A.counts[i]))
    if c == 0:
        raise ValueError("no nonzero weight present")
    return c


def _binary_even_allone(A):
    """Whether the counts A are binary and even and count the all-one word."""
    return A.q == 2 and A.counts[A.n] != 0 and not any(A.counts[1::2])


def _divisibility_rhs(n, c, strong):
    """n + c(c + s) with s = 1 + strong: the right side of the paper's bound
    s d + c d_dual <= n + c(c + s), plain or strong (`_binary_even_allone`)."""
    return n + c * (c + 1 + strong)


def _mallows_sloane_bound(name, n):
    """The divisibility bound at d_dual = d for the self-dual type `name`,
    with its (q, c): the largest multiple of c with (c + s) d <= n + c(c + s),
    strong (s = 2) for q = 2, as a binary self-dual code contains the all-one
    word. A formally self-dual binary even code without it gets the same
    number: Gleason's bound (MacWilliams & Sloane, Ch. 19)."""
    q, c, _ = MALLOWS_SLOANE[name]
    rhs = _divisibility_rhs(n, c, q == 2)
    return c * (rhs // (rhs - n))  # rhs - n = c(c + s)


# type: (q, c, modulus of n)
MALLOWS_SLOANE = {"I": (2, 2, 2), "II": (2, 4, 8), "III": (3, 3, 4), "IV": (4, 2, 2)}


def _self_dual_type(q, c, n):
    for name, (tq, tc, mod) in MALLOWS_SLOANE.items():
        if q == tq and c % tc == 0 and n % mod == 0:
            # prefer Type II over Type I when weights are doubly even
            if name == "I" and c % 4 == 0 and n % 8 == 0:
                continue
            return name
    return None


def check_bounds(A, A_dual):
    """Full divisibility-bound report for a code/dual distribution pair."""
    q, n, k, d = A.q, A.n, A.k, A.d
    d_dual = A_dual.d
    c = divisibility(A)
    plain = _divisibility_rhs(n, c, False)
    report = {
        "q": q,
        "n": n,
        "k": k,
        "d": d,
        "d_dual": d_dual,
        "c": c,
        "singleton_bound": n - k + 1,
        "singleton_holds": d <= n - k + 1,
        "divisibility_bound": plain,
        "divisibility_lhs": d + c * d_dual,
        "divisibility_holds": d + c * d_dual <= plain,
    }
    report["binary_even_allone"] = _binary_even_allone(A)
    if report["binary_even_allone"]:
        strong = _divisibility_rhs(n, c, True)
        report["strong_bound"] = strong
        report["strong_lhs"] = 2 * d + c * d_dual
        report["strong_holds"] = 2 * d + c * d_dual <= strong
    formally_self_dual = 2 * k == n and A.counts == A_dual.counts
    report["formally_self_dual"] = formally_self_dual
    if formally_self_dual:
        type_name = _self_dual_type(q, c, n)
        if type_name:
            bound = _mallows_sloane_bound(type_name, n)
            report["mallows_sloane"] = {
                "type": type_name,
                "bound": bound,
                "holds": d <= bound,
                "extremal": d == bound,
            }
    return report


def subcode_average_identity(a, d_dual):
    """The averaging relation behind the interpolation lemma: for s beyond
    n - d_dual, sum_w a_w C(s+1, w) = q sum_w a_w C(s, w). Returns True when
    it holds at every s in (n-d_dual, n)."""
    n, q = a.n, a.q
    for s in range(n - d_dual + 1, n):
        lhs = sum(a.a_list[w] * comb(s + 1, w) for w in range(min(s + 1, n) + 1))
        rhs = q * sum(a.a_list[w] * comb(s, w) for w in range(min(s, n) + 1))
        if lhs != rhs:
            return False
    return True


def zero_count_audit(g_or_h, expected_zeros, w_min, w_max):
    """Count integer zeros of the polynomial on [w_min, w_max] and compare
    with a claimed lower bound (the bound may be fractional). The zeros are
    those of its integer numerator, found by Horner's rule on integers."""
    ints, _ = _over_lcm(g_or_h.coeffs)
    zeros = [w for w in range(w_min, w_max + 1) if _horner(ints, w) == 0]
    bound = Fraction(expected_zeros)
    return {
        "zeros": zeros,
        "count": len(zeros),
        "bound": bound,
        "meets": len(zeros) >= bound,
    }


def proof_zero_bound(n, d, c, strong=False):
    """The zero-count lower bound from the divisibility argument."""
    return Fraction(c - 1, c) * (n - c) + Fraction(1 + strong, c) * (d - 2 * c)
