"""Table-driven arithmetic for the small fields GF(q), q in {2,3,4,5,7,8,9}.

Extension fields use fixed irreducible polynomials so element encodings are
reproducible across runs and in code files:

    GF(4) = GF(2)[x]/(x^2+x+1)    GF(8) = GF(2)[x]/(x^3+x+1)
    GF(9) = GF(3)[x]/(x^2+1)

An element sum(c_i x^i) is encoded as the integer sum(c_i p^i). Their
products are read off the powers of one primitive element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)

# irreducible modulus, as coefficient lists low-to-high (monic)
_IRREDUCIBLE = {
    4: (2, (1, 1, 1)),   # x^2 + x + 1
    8: (2, (1, 1, 0, 1)),  # x^3 + x + 1
    9: (3, (1, 0, 1)),   # x^2 + 1
}


class FieldError(ValueError):
    pass


@dataclass(frozen=True)
class FieldSpec:
    q: int
    p: int
    m: int
    add_table: tuple = field(repr=False)
    mul_table: tuple = field(repr=False)
    neg_table: tuple = field(repr=False)
    inv_table: tuple = field(repr=False)

    def add(self, a, b):
        return self.add_table[a][b]

    def sub(self, a, b):
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        return self.inv_table[a]


def _digits(value, p, m):
    out = []
    for _ in range(m):
        out.append(value % p)
        value //= p
    return out


def _encode(digits, p):
    value = 0
    for c in reversed(digits):
        value = value * p + c
    return value


def _poly_mul_mod(a, b, p, modulus):
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    # reduce by the monic modulus
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c:
            for j, cm in enumerate(modulus):
                prod[i - m + j] = (prod[i - m + j] - c * cm) % p
    return prod[:m]


def _primitive_powers(q, p, modulus):
    """g^0 .. g^(q-2), encoded, for the least primitive element g of
    GF(p)[x]/(modulus). x is not always primitive: modulo x^2 + 1 over
    GF(3), x^4 = 1."""
    m = len(modulus) - 1
    for g in range(2, q):
        powers, digits = [1], _digits(g, p, m)
        while True:
            value = _encode(_poly_mul_mod(_digits(powers[-1], p, m), digits, p, modulus), p)
            if value == 1:
                break
            powers.append(value)
        if len(powers) == q - 1:
            return powers


def _validate(q, add, mul, neg, inv):
    elems = range(q)
    for a in elems:
        if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
            raise FieldError("identity axiom failed")
        if add[a][neg[a]] != 0:
            raise FieldError("additive inverse failed")
        if a and mul[a][inv[a]] != 1:
            raise FieldError("multiplicative inverse failed")
    for a in elems:
        for b in elems:
            if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                raise FieldError("commutativity failed")
            for c in elems:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    raise FieldError("additive associativity failed")
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise FieldError("multiplicative associativity failed")
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    raise FieldError("distributivity failed")
    # Frobenius: a^q = a
    for a in elems:
        acc = 1
        for _ in range(q):
            acc = mul[acc][a]
        if acc != a:
            raise FieldError("Frobenius check failed")


@lru_cache(maxsize=None)
def field_new(q):
    """Build (and exhaustively validate) the arithmetic tables for GF(q)."""
    if q not in SUPPORTED_Q:
        raise FieldError(
            f"unsupported field size {q}; supported: {list(SUPPORTED_Q)}"
        )
    if q in _IRREDUCIBLE:
        p, modulus = _IRREDUCIBLE[q]
        m = len(modulus) - 1
        add = [
            [_encode([(x + y) % p for x, y in zip(_digits(a, p, m), _digits(b, p, m))], p)
             for b in range(q)]
            for a in range(q)
        ]
        # a b = g^(log a + log b): q - 1 products instead of q^2
        exp = _primitive_powers(q, p, modulus)
        log = {v: i for i, v in enumerate(exp)}
        mul = [[0] * q] + [
            [0] + [exp[(log[a] + log[b]) % (q - 1)] for b in range(1, q)]
            for a in range(1, q)
        ]
    else:
        p, m = q, 1
        add = [[(a + b) % q for b in range(q)] for a in range(q)]
        mul = [[(a * b) % q for b in range(q)] for a in range(q)]
    neg = [add[a].index(0) for a in range(q)]
    inv = [0] + [mul[a].index(1) for a in range(1, q)]
    _validate(q, add, mul, neg, inv)
    return FieldSpec(
        q=q,
        p=p,
        m=m,
        add_table=tuple(tuple(r) for r in add),
        mul_table=tuple(tuple(r) for r in mul),
        neg_table=tuple(neg),
        inv_table=tuple(inv),
    )
