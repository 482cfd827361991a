"""Weight-enumerator algebra: normalization, averaged puncture/shorten
operators and the binomially-weighted product whose low terms they keep."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb

from .code import _min_weight
from .exactmath import UniPoly


@dataclass(frozen=True)
class NormalizedEnumerator:
    """a_w = A_w / C(n, w); a(t) = (a_d + a_{d+1} t + ... + a_n t^{n-d})/(q-1)."""

    q: int
    n: int
    d: int
    a_list: tuple  # a_0 .. a_n as Fraction
    a_poly: UniPoly


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
    """The normalized enumerator of counts A_0 .. A_n (ints or Fractions),
    each a_w built as one Fraction A_w / C(n, w), and each coefficient of
    a(t) as one Fraction A_w / ((q-1) C(n, w))."""
    binoms = [comb(n, w) for w in range(n + 1)]
    a_list = [Fraction(c, b) for c, b in zip(counts, binoms)]
    d = _min_weight(a_list)
    if d > n:
        raise ValueError("no nonzero weight to normalize")
    a_poly = UniPoly([Fraction(counts[w], (q - 1) * binoms[w]) for w in range(d, n + 1)])
    return NormalizedEnumerator(q=q, n=n, d=d, a_list=tuple(a_list), a_poly=a_poly)


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
