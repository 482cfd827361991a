"""Extremal self-dual weight enumerators by exact linear algebra, the
ultraspherical (Gegenbauer) recurrence, and the zero-location check putting
all zeta roots of the quaternary-even extremal family on |T| = 1/2."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import MALLOWS_SLOANE
from .code import CapacityError, _krawtchouk, _min_weight
from .exactmath import UniPoly, solve_linear


# Largest length the extremal synthesis accepts. The cost grows about as
# n^3.3; Type IV, the slowest, takes about 59 s at n = 336 (2-vCPU Xeon VM,
# Python 3.11).
EXTREMAL_N_MAX = 336


class InfeasibleError(RuntimeError):
    pass


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
    for name, (tq, tc, mod, bound) in MALLOWS_SLOANE.items():
        if (q, c) == (tq, tc):
            return name, mod, bound
    raise ValueError(f"unsupported (q, c) pair ({q}, {c})")


def _solve_self_dual(q, c, n, d, kraw):
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
    whose self-dual enumerator system has a unique solution.

    A consistent but underdetermined system at the maximal feasible d is
    reported as an ambiguity, never resolved silently.
    """
    name, mod, bound_fn = _type_for(q, c)
    if n <= 0 or n % mod:
        raise ValueError(f"Type {name} requires n divisible by {mod}")
    if n > EXTREMAL_N_MAX:
        raise CapacityError(f"extremal synthesis guarded at n <= {EXTREMAL_N_MAX}")
    kraw = _krawtchouk(q, n)
    d = bound_fn(n)
    while d >= c:
        try:
            support, sol, nullity = _solve_self_dual(q, c, n, d, kraw)
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
        if _min_weight(counts) != d:
            d -= c  # the solution degenerates to a larger-d family member
            continue
        if any(v.denominator != 1 for v in counts):
            d -= c
            continue
        return ExtremalEnumerator(
            q=q, c=c, n=n, d=d,
            counts=tuple(int(v) for v in counts),
            unique=True, solution_dim=0,
            nonnegative=all(v >= 0 for v in counts),
        )
    raise InfeasibleError(f"no self-dual enumerator found for (q={q}, c={c}, n={n})")


def gegenbauer(m, lam):
    """Classical normalization: C_0 = 1, C_1 = 2*lam*x, and
    m C_m = 2x(m+lam-1) C_{m-1} - (m+2lam-2) C_{m-2}."""
    lam = Fraction(lam)
    if m < 0:
        raise ValueError("degree must be nonnegative")
    prev2 = UniPoly([1])
    if m == 0:
        return GegenbauerPoly(m=0, lam=lam, poly=prev2)
    prev1 = UniPoly([0, 2 * lam])
    for j in range(2, m + 1):
        cur = (
            prev1 * UniPoly([0, 2 * (j + lam - 1)]) - prev2 * (j + 2 * lam - 2)
        ) * Fraction(1, j)
        prev2, prev1 = prev1, cur
    return GegenbauerPoly(m=m, lam=lam, poly=prev1)


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
    cpoly = gegenbauer(m, m + 1).poly
    one_plus_t2 = UniPoly([1, 0, 1])
    rhs_unit = UniPoly()
    for j, cj in enumerate(cpoly.coeffs):
        if cj:
            rhs_unit = rhs_unit + (one_plus_t2**j).shift(m - j) * (
                cj * Fraction(1, 2**j)
            )
    if rhs_unit.is_zero() or lhs.is_zero() or lhs.degree != rhs_unit.degree:
        return Fraction(0), False
    lam = lhs.coeffs[-1] / rhs_unit.coeffs[-1]
    return lam, lhs == rhs_unit * lam


def gegenbauer_sign_changes(m, lam, grid_steps=2000):
    """Count sign changes of C_m^lam on a rational grid over (-1, 1)."""
    poly = gegenbauer(m, lam).poly
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
