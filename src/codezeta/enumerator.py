"""Weight-enumerator algebra: normalization, averaged puncture/shorten
operators and the binomially-weighted product whose low terms they keep."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, lcm

from .code import _min_weight
from .exactmath import UniPoly


@dataclass(frozen=True)
class NormalizedEnumerator:
    """a_w = A_w / C(n, w); a(t) = (a_d + a_{d+1} t + ... + a_n t^{n-d})/(q-1).

    Kept as the counts A_0 .. A_n: ints, or Fractions for an averaged
    distribution. The zeta polynomial and the bounds read the a_w as
    integers over one denominator (`scaled`); `a_list` and `a_poly` are
    built as Fractions when first read."""

    q: int
    n: int
    d: int
    counts: tuple

    @cached_property
    def scaled(self):
        """(N, L), N_0 .. N_n integers and L > 0 with a_w = N_w / L: L is
        the lcm of the C(n, w) den(A_w) at the nonzero A_w, so that
        N_w = num(A_w) L / (C(n, w) den(A_w)), which is A_w L / C(n, w) for
        integer counts."""
        n, counts = self.n, self.counts
        dens = [comb(n, w) * c.denominator for w, c in enumerate(counts)]
        L = lcm(*(den for den, c in zip(dens, counts) if c))
        return tuple(c.numerator * (L // den) for c, den in zip(counts, dens)), L

    @cached_property
    def a_list(self):
        """a_0 .. a_n as Fractions."""
        N, L = self.scaled
        return tuple(Fraction(v, L) for v in N)

    @cached_property
    def a_poly(self):
        """a(t), its coefficients the a_w/(q-1) for w = d .. n."""
        N, L = self.scaled
        return UniPoly([Fraction(v, (self.q - 1) * L) for v in N[self.d:]])


@dataclass(frozen=True)
class AveragedDistribution:
    """Rational-coefficient weight counts produced by averaged puncturing or
    shortening; same shape as a WeightDistribution but not integral."""

    q: int
    n: int
    counts: tuple

    @property
    def d(self):
        return _min_weight(self.counts)

    @cached_property
    def normalized(self):
        return normalize(self)


def normalize_counts(q, n, counts):
    """The normalized enumerator of counts A_0 .. A_n (ints or Fractions).

    Only d is found here; raises ValueError when no A_w with w >= 1 is
    nonzero. The a_w are derived from the counts on first read, as integers
    over one denominator (`NormalizedEnumerator.scaled`) and as Fractions
    (`a_list`, `a_poly`)."""
    d = _min_weight(counts)
    if d > n:
        raise ValueError("no nonzero weight to normalize")
    return NormalizedEnumerator(q=q, n=n, d=d, counts=tuple(counts))


def normalize(A):
    """Normalized enumerator of a (possibly rational, averaged) distribution."""
    return normalize_counts(A.q, A.n, A.counts)


def puncture_avg(A):
    """Coordinate-averaged puncturing: (1/n)(d/dx + d/dy) on A(x, y).

    Output counts live on length n-1 and may be non-integral rationals.
    """
    n = A.n
    if n < 2:
        raise ValueError("cannot puncture below length 1")
    counts = [Fraction(0)] * n
    for i in range(n):  # coefficient of x^(n-1-i) y^i
        counts[i] = (
            Fraction(n - i) * A.counts[i] + Fraction(i + 1) * A.counts[i + 1]
        ) / n
    return AveragedDistribution(q=A.q, n=n - 1, counts=tuple(counts))


def shorten_avg(A):
    """Coordinate-averaged shortening: (1/n)(d/dx) on A(x, y)."""
    n = A.n
    if n < 2:
        raise ValueError("cannot shorten below length 1")
    counts = [Fraction(n - i) * A.counts[i] / n for i in range(n)]
    return AveragedDistribution(q=A.q, n=n - 1, counts=tuple(counts))


def invariant_thm23(a):
    """The exact product a(t)(1+t)^d. Its terms of degree <= n - d
    (`UniPoly.truncate`) are the invariant of averaged puncturing and
    shortening."""
    return a.a_poly * UniPoly([1, 1]) ** a.d
