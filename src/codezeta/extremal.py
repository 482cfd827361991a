"""Extremal self-dual weight enumerators from Gleason's theorem, the
ultraspherical (Gegenbauer) recurrence, and the zero-location check putting
all zeta roots of the quaternary-even extremal family on |T| = 1/2."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bounds import MALLOWS_SLOANE
from .code import CapacityError
from .exactmath import UniPoly


# Largest length the extremal command accepts. With --ultraspherical the
# companion-matrix root radii and the ultraspherical identity dominate; Type
# IV, the slowest, takes 1.4 s at n = 936 (2-vCPU Xeon VM, Python 3.11). The
# limit is not yet derived from measured throughput.
EXTREMAL_N_MAX = 936

# Gleason's generators f, g of each type's invariant ring at x = 1, as integer
# lists in z = y^c, and l = deg g / deg f (deg f is the MALLOWS_SLOANE modulus).
_GLEASON = {
    "I": ([1, 1], [0, 1, -2, 1], 4),  # x^2+y^2, x^2y^2(x^2-y^2)^2
    "II": ([1, 14, 1], [0, 1, -4, 6, -4, 1], 3),  # x^8+14x^4y^4+y^8, x^4y^4(x^4-y^4)^4
    "III": ([1, 8], [0, 1, -3, 3, -1], 3),  # x^4+8xy^3, y^3(x^3-y^3)^3
    "IV": ([1, 3], [0, 1, -2, 1], 3),  # x^2+3y^2, y^2(x^2-y^2)^2
}


@dataclass(frozen=True)
class ExtremalEnumerator:
    q: int
    c: int
    n: int
    d: int
    counts: tuple  # A_0 .. A_n; None when the solution is not unique
    unique: bool
    solution_dim: int
    nonnegative: bool


@dataclass(frozen=True)
class GegenbauerPoly:
    m: int
    lam: Fraction
    poly: UniPoly


def _type_for(q, c):
    for name, (tq, tc, mod) in MALLOWS_SLOANE.items():
        if (q, c) == (tq, tc):
            return name, mod
    raise ValueError(f"unsupported (q, c) pair ({q}, {c})")


def _times(p, h):
    """p * h, truncated to len(p) coefficients."""
    out = [0] * len(p)
    for k, hk in enumerate(h):
        if hk:
            out[k:] = [o + hk * v for o, v in zip(out[k:], p)]
    return out


def _gleason_synthesis(name, n):
    """(d, A_0 .. A_n) of the Type `name` enumerator with A_0 = 1 and
    A_c = ... = A_{d-c} = 0, unguarded. Gleason's basis in degree n is
    P_0 = f^(n/deg f), P_{j+1} = P_j g / f^l (exact) for j < m = n // deg g.
    Each P_j = z^j + ..., so the a_j of W = sum_j a_j P_j follow by integer
    forward substitution, and d = c(m+1) is the Mallows-Sloane bound."""
    _, c, mod = MALLOWS_SLOANE[name]
    f, g, ell = _GLEASON[name]
    f_ell = [1]
    for _ in range(ell):
        f_ell = _times(f_ell + [0] * (len(f) - 1), f)
    p = [1] + [0] * (n // c)
    for _ in range(n // mod):
        p = _times(p, f)
    w = [0] * len(p)
    m = n // (ell * mod)
    for j in range(m + 1):
        if j:
            p = _times(p, g)
            for i in range(1, len(p)):  # p /= f^l as a series; f_ell[0] = 1
                for k in range(1, min(i, len(f_ell) - 1) + 1):
                    p[i] -= f_ell[k] * p[i - k]
        a = (j == 0) - w[j]
        w = [x + a * y for x, y in zip(w, p)]
    counts = [0] * (n + 1)
    counts[::c] = w
    return c * (m + 1), counts


def extremal_sd_enumerator(q, c, n):
    """The extremal self-dual enumerator at the Mallows-Sloane bound d. If A_d
    vanishes, it belongs to a larger-d family, and at d - c one constraint
    fewer leaves a line of solutions: reported as an ambiguity."""
    name, mod = _type_for(q, c)
    if n <= 0 or n % mod:
        raise ValueError(f"Type {name} requires n divisible by {mod}")
    if n > EXTREMAL_N_MAX:
        raise CapacityError(f"extremal synthesis guarded at n <= {EXTREMAL_N_MAX}")
    d, counts = _gleason_synthesis(name, n)
    if not counts[d]:
        return ExtremalEnumerator(q=q, c=c, n=n, d=d - c, counts=None, unique=False,
                                  solution_dim=1, nonnegative=False)
    return ExtremalEnumerator(q=q, c=c, n=n, d=d, counts=tuple(counts), unique=True,
                              solution_dim=0, nonnegative=min(counts) >= 0)


def gegenbauer(m, lam):
    """Classical normalization: C_0 = 1, C_1 = 2*lam*x, and
    m C_m = 2x(m+lam-1) C_{m-1} - (m+2lam-2) C_{m-2}, each step a shift and
    scale of the coefficient lists."""
    lam = Fraction(lam)
    if m < 0:
        raise ValueError("degree must be nonnegative")
    prev2, prev1 = [], [Fraction(1)]  # C_{-1} = 0, C_0 = 1
    for j in range(1, m + 1):
        a = 2 * (j + lam - 1) / j
        b = (j + 2 * lam - 2) / j
        cur = [Fraction(0)] + [a * c if c else c for c in prev1]
        for i, c in enumerate(prev2):
            if c:
                cur[i] -= b * c
        prev2, prev1 = prev1, cur
    return GegenbauerPoly(m=m, lam=lam, poly=UniPoly(prev1))


def check_ultraspherical(P, m):
    """Verify Q(T^2/2) = lambda_m C_m^{m+1}((1/T + T)/2) T^m with Q = P(1+2T).

    lambda_m is solved from the leading coefficients; the return value is
    (lambda_m, exact-identity boolean).
    """
    Q = P.P * UniPoly([1, 2])
    # Q(T^2/2): coefficient q_j lands on T^(2j), scaled by 2^-j
    lhs = UniPoly(
        [
            Q.coeff(i // 2) * Fraction(1, 2 ** (i // 2)) if i % 2 == 0 else 0
            for i in range(2 * max(Q.degree, 0) + 1)
        ]
    )
    # sum_j c_j 2^-j (1+T^2)^j T^(m-j), reading (1+T^2)^j off the binomials
    rhs = [Fraction(0)] * (2 * m + 1)
    for j, cj in enumerate(gegenbauer(m, m + 1).poly.coeffs):
        if cj:
            cj /= 2**j
            for i in range(j + 1):
                rhs[m - j + 2 * i] += cj * comb(j, i)
    rhs_unit = UniPoly(rhs)
    if rhs_unit.is_zero() or lhs.is_zero() or lhs.degree != rhs_unit.degree:
        return Fraction(0), False
    lam = lhs.coeffs[-1] / rhs_unit.coeffs[-1]
    return lam, lhs == rhs_unit * lam


def critical_circle_radii(P):
    """Moduli of the complex roots of P, by double-precision companion-matrix
    numerics. The identity checks elsewhere stay exact; only the root radii
    are floating point."""
    import numpy as np  # imported here: numpy is the slowest part of start-up

    if P.P.degree < 1:
        raise ValueError("need deg P >= 1 to have roots")
    coeffs = [float(c) for c in reversed(P.P.coeffs)]
    roots = np.roots(coeffs)
    if not np.all(np.isfinite(roots)):
        raise ArithmeticError("root finding did not converge")
    return sorted(float(abs(r)) for r in roots)
