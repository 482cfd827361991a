"""Exact rational arithmetic: dense univariate polynomials, sparse bivariate
polynomials, rational-function pairs and Newton-form interpolation.

All coefficients are `fractions.Fraction`; every operation is exact and pure.
Bivariate polynomials come from codes short enough for subset enumeration
(n <= 22), so a dict keyed by exponent pairs is plenty. Univariate ones reach
degree 2n for the extremal lengths up to 936, which a dense list holds.

Each type keeps one invariant, and its constructor is the one place that
enforces it: every coefficient is a `Fraction`; a `UniPoly` has no trailing
zero, and a `BiPoly` stores no zero and one coefficient per key. Every
operation builds its result through the constructor, and a scalar operand
(an int or a Fraction) is first lifted to a constant polynomial by
`_uni_scalar` or `_bi_scalar`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class UniPoly:
    """Dense univariate polynomial; coefficient index = degree.

    The zero polynomial has an empty coefficient list and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        # a Fraction is kept as it is: one Fraction per coefficient
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        other = _uni_scalar(other)
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _uni_scalar(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_uni_scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        result = UniPoly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x):
        """The value at x (an int or a Fraction a/b), by Horner's rule on
        integers: with D the lcm of the coefficient denominators,
        sum_i c_i x^i = sum_i (D c_i) a^i b^(deg-i) / (D b^deg); one Fraction."""
        cs = self.coeffs
        if not cs:
            return Fraction(0)
        x = Fraction(x)
        a, b = x.numerator, x.denominator
        nums, D = _over_lcm(cs)
        acc, power = 0, 1  # power = b^(deg-i) at c_i
        for c in reversed(nums):
            acc = acc * a + c * power
            power *= b
        return Fraction(acc, D * power // b)

    def truncate(self, order):
        """The terms of degree <= order, for order >= 0."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        return UniPoly(self.coeffs[: order + 1])

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self, "t")


def _uni_scalar(value):
    """An int or a Fraction as a constant UniPoly; anything else unchanged."""
    if isinstance(value, (int, Fraction)):
        return UniPoly([value])
    return value


def format_poly(p, var="t"):
    if p.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c} {var}" if c != 1 else var)
        else:
            parts.append(f"{c} {var}^{i}" if c != 1 else f"{var}^{i}")
    return " + ".join(parts).replace("+ -", "- ")


class BiPoly:
    """Sparse bivariate polynomial: {(i, j): coeff} with no stored zeros."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        """From a dict or an iterable of ((i, j), coeff) pairs; coefficients
        that share a key are summed, and zero sums dropped."""
        t = {}
        for key, c in (terms.items() if isinstance(terms, dict) else terms):
            c = c if type(c) is Fraction else Fraction(c)
            t[key] = t[key] + c if key in t else c
        self.terms = {key: c for key, c in t.items() if c}

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i, j, c=1):
        return cls({(i, j): c})

    @classmethod
    def x(cls):
        return cls({(1, 0): 1})

    @classmethod
    def y(cls):
        return cls({(0, 1): 1})

    def coeff(self, i, j):
        return self.terms.get((i, j), Fraction(0))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        other = _bi_scalar(other)
        if isinstance(other, BiPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return BiPoly([*self.terms.items(), *_bi_scalar(other).terms.items()])

    __radd__ = __add__

    def __neg__(self):
        return BiPoly((key, -c) for key, c in self.terms.items())

    def __sub__(self, other):
        return self + (-_bi_scalar(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _bi_scalar(other)
        return BiPoly(
            ((i1 + i2, j1 + j2), c1 * c2)
            for (i1, j1), c1 in self.terms.items()
            for (i2, j2), c2 in other.terms.items()
        )

    __rmul__ = __mul__

    def subs_second(self, value):
        """Evaluate the second variable at a scalar, leaving a UniPoly."""
        value = Fraction(value)
        out = {}
        for (i, j), c in self.terms.items():
            out[i] = out.get(i, Fraction(0)) + c * value**j
        deg = max(out) if out else -1
        return UniPoly([out.get(i, Fraction(0)) for i in range(deg + 1)])

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        return f"BiPoly({dict(self.sorted_terms())!r})"


def _bi_scalar(value):
    """An int or a Fraction as a constant BiPoly; anything else unchanged."""
    if isinstance(value, (int, Fraction)):
        return BiPoly.const(value)
    return value


class RatFun:
    """Ratio of two bivariate polynomials; no canonicalization is attempted.

    The library keeps no equality of its own: `ratfun_equal` cross-multiplies
    two ratios (the tests compare with it), and the checks that compare a
    RatFun with something else, such as `zeta.check_two_var_compat`,
    cross-multiply in place. No gcd is taken.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    def __repr__(self):
        return f"RatFun({self.num!r}, {self.den!r})"


def _over_lcm(values):
    """(N, L): the integers N_i and the lcm L of the denominators of
    `values` (ints or Fractions), with value_i = N_i / L."""
    L = lcm(*(v.denominator for v in values))
    return [v.numerator * (L // v.denominator) for v in values], L


def ratfun_equal(f, g):
    """True iff f.num * g.den == g.num * f.den as polynomials."""
    return f.num * g.den == g.num * f.den


def interpolate(points):
    """The polynomial of least degree through (x, y) pairs with distinct x.

    Newton's divided differences, then Horner's rule into the monomial basis:
    O(n^2) operations, all on integers. The nodes are scaled to integers
    u = Lx and the values to integers Y = Dy (L, D the lcms of the
    denominators). Column k of the divided-difference table of Y over u is
    kept as integer numerators over one denominator
    Q_k = Q_(k-1) lcm_i |u_(i+k) - u_i|, which is k! for consecutive nodes.
    Horner's rule runs on the integers Q_N f[u_0..u_k], and the t^j
    coefficient is its result times L^j / (D Q_N): one Fraction each.
    """
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ZeroDivisionError("interpolation nodes must be distinct")
    if not xs:
        return UniPoly()
    u, L = _over_lcm(xs)
    col, D = _over_lcm(ys)
    lead = [col[0]]  # numerators of f[u_0..u_k]
    scale = [1]  # Q_k
    for k in range(1, len(u)):
        gaps = [u[i + k] - u[i] for i in range(len(col) - 1)]
        M = lcm(*gaps)
        col = [(b - a) * (M // g) for a, b, g in zip(col, col[1:], gaps)]
        lead.append(col[0])
        scale.append(scale[-1] * M)
    top = scale[-1]
    coeffs = [lead[-1]]
    for k in range(len(u) - 2, -1, -1):
        # coeffs * (t - u_k) + Q_N f[u_0..u_k]
        uk = u[k]
        coeffs = ([lead[k] * (top // scale[k]) - uk * coeffs[0]]
                  + [a - uk * b for a, b in zip(coeffs, coeffs[1:])]
                  + [coeffs[-1]])
    den = D * top
    return UniPoly([Fraction(c * L**j, den) for j, c in enumerate(coeffs)])
