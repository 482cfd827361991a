"""Linear codes over GF(q): parsing, row reduction, duals, weight
distributions, subset ranks and MDS fixtures."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field

from .gf import FieldSpec, field_new

# Largest number of codewords (or subsets) we are willing to enumerate.
ENUM_BITS = 28
SUBSET_N_MAX = 22


class ParseError(ValueError):
    pass


class CapacityError(RuntimeError):
    pass


@dataclass(frozen=True)
class LinearCode:
    field: FieldSpec
    n: int
    k: int
    generator: tuple  # k rows of n integers in [0, q)

    @property
    def q(self):
        return self.field.q


@dataclass(frozen=True)
class WeightDistribution:
    q: int
    n: int
    k: int
    counts: tuple  # A_0 .. A_n
    d: int
    d_dual: int
    # the dual code's A_0 .. A_n, when known
    dual_counts: tuple = dataclass_field(default=None, compare=False)

    def dual(self):
        """Weight distribution of the [n, n-k] dual code."""
        dual_counts = self.dual_counts
        if dual_counts is None:
            dual_counts = tuple(macwilliams_counts(self.q, self.n, self.k, self.counts))
        return WeightDistribution(
            q=self.q,
            n=self.n,
            k=self.n - self.k,
            counts=dual_counts,
            d=_min_weight(dual_counts),
            d_dual=_min_weight(self.counts),
            dual_counts=self.counts,
        )


def parse_code(text):
    """Parse the code file format: header `q n k`, then k rows of n symbols.

    `#` starts a comment line; blank lines are ignored.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("empty code file")
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError(f"malformed header {lines[0]!r}; expected 'q n k'")
    try:
        q, n, k = (int(v) for v in header)
    except ValueError:
        raise ParseError(f"non-integer header {lines[0]!r}") from None
    field = field_new(q)
    if not 1 <= k <= n:
        raise ParseError(f"dimension k={k} out of range for n={n}")
    if len(lines) - 1 != k:
        raise ParseError(f"expected {k} generator rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        try:
            row = [int(v) for v in line.split()]
        except ValueError:
            raise ParseError(f"non-integer symbol in row {line!r}") from None
        if len(row) != n:
            raise ParseError(f"row {line!r} has {len(row)} symbols, expected {n}")
        for v in row:
            if not 0 <= v < q:
                raise ParseError(f"symbol {v} out of range for GF({q})")
        rows.append(tuple(row))
    rank, _, _ = rref_rank(field, rows)
    if rank < k:
        raise ParseError(f"generator matrix has rank {rank} < k = {k}")
    return LinearCode(field=field, n=n, k=k, generator=tuple(rows))


def rref_rank(field, matrix):
    """Reduced row echelon form over GF(q): (rank, rref rows, pivot columns)."""
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


def nullspace(field, matrix):
    """Basis of {v : matrix . v = 0} over GF(q)."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    rank, rref, pivots = rref_rank(field, matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for j in free:
        v = [0] * ncols
        v[j] = 1
        for r, p in enumerate(pivots):
            v[p] = field.neg(rref[r][j])
        basis.append(tuple(v))
    return basis


def dual_code(C):
    """The [n, n-k] dual: generator spanning the null space of C's generator."""
    field = C.field
    if C.k == C.n:
        raise ValueError("the full space has a trivial dual with k=0")
    basis = nullspace(field, C.generator)
    return LinearCode(field=field, n=C.n, k=C.n - C.k, generator=tuple(basis))


def _enumerate_counts(C):
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


def _min_weight(counts):
    n = len(counts) - 1
    for i in range(1, n + 1):
        if counts[i]:
            return i
    return n + 1  # no nonzero word (k = 0)


def macwilliams_counts(q, n, k, counts):
    """Dual weight distribution via the MacWilliams transform on counts."""
    size = q**k
    out = []
    for j in range(n + 1):
        acc = 0
        for i, ai in enumerate(counts):
            if ai:
                kraw = sum(
                    (-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s)
                    for s in range(max(0, j - (n - i)), min(i, j) + 1)
                )
                acc += ai * kraw
        if acc % size:
            raise ValueError("MacWilliams transform produced a non-integral count")
        acc //= size
        if acc < 0:
            raise ValueError("MacWilliams transform produced a negative count")
        out.append(acc)
    return out


def weight_distribution(C, dual=None):
    """Exact weight distribution of C, with its dual's counts kept on the
    result.

    Enumerates whichever of C and its dual is smaller and transforms to get
    the other side; enumeration is guarded at 2^28 words. `dual` is C's dual
    code when the caller already has it.
    """
    q, n, k = C.q, C.n, C.k
    side = min(k, n - k)
    if side * math.log2(q) > ENUM_BITS:
        raise CapacityError(
            f"enumerating q^{side} = {q}^{side} codewords exceeds the 2^{ENUM_BITS} guard"
        )
    if k <= n - k:
        counts = _enumerate_counts(C)
        dual_counts = macwilliams_counts(q, n, k, counts)
    else:
        dual_counts = _enumerate_counts(dual if dual is not None else dual_code(C))
        counts = macwilliams_counts(q, n, n - k, dual_counts)
    return WeightDistribution(
        q=q,
        n=n,
        k=k,
        counts=tuple(counts),
        d=_min_weight(counts),
        d_dual=_min_weight(dual_counts),
        dual_counts=tuple(dual_counts),
    )


def _reduce_column(field, basis, vec):
    """Reduce vec against an echelonized basis; returns (new_basis, grew)."""
    cur = list(vec)
    for pivot, bvec in basis:
        c = cur[pivot]
        if c:
            cur = [field.sub(a, field.mul(c, b)) for a, b in zip(cur, bvec)]
    pivot = next((i for i, v in enumerate(cur) if v), None)
    if pivot is None:
        return basis, False
    inv = field.inv(cur[pivot])
    cur = tuple(field.mul(inv, v) for v in cur)
    return basis + ((pivot, cur),), True


def subset_rank(C, cols):
    """Rank of the generator columns indexed by cols (0-based)."""
    field = C.field
    basis = ()
    for j in cols:
        column = tuple(row[j] for row in C.generator)
        basis, _ = _reduce_column(field, basis, column)
    return len(basis)


def iter_subset_ranks(C):
    """Yield (mask, size, rank) for every subset of columns, by DFS with an
    incrementally maintained echelon basis. 2^n subsets; guarded at n <= 22."""
    n = C.n
    if n > SUBSET_N_MAX:
        raise CapacityError(f"subset enumeration guarded at n <= {SUBSET_N_MAX}")
    field = C.field
    columns = [tuple(row[j] for row in C.generator) for j in range(n)]
    stack = [(0, 0, 0, ())]
    while stack:
        j, mask, size, basis = stack.pop()
        if j == n:
            yield mask, size, len(basis)
            continue
        stack.append((j + 1, mask, size, basis))
        nb, _ = _reduce_column(field, basis, columns[j])
        stack.append((j + 1, mask | (1 << j), size + 1, nb))


def make_mds_code(q, n, k):
    """Polynomial-evaluation (Reed-Solomon style) MDS code on the first n
    field elements; rows are the monomials x^0 .. x^(k-1). Needs n <= q."""
    if n > q:
        raise ValueError(f"need n <= q distinct evaluation points, got n={n}, q={q}")
    if not 1 <= k <= n:
        raise ValueError("require 1 <= k <= n")
    field = field_new(q)
    points = list(range(n))
    rows = []
    current = [1] * n
    for _ in range(k):
        rows.append(tuple(current))
        current = [field.mul(c, x) for c, x in zip(current, points)]
    return LinearCode(field=field, n=n, k=k, generator=tuple(rows))


def row_space_equal(A, B):
    """Whether two codes over the same field span the same row space."""
    if A.n != B.n or A.k != B.k or A.q != B.q:
        return False
    _, ra, _ = rref_rank(A.field, A.generator)
    _, rb, _ = rref_rank(B.field, B.generator)
    return ra[: A.k] == rb[: B.k]


def contains_code(A, B):
    """Whether the row space of A contains the row space of B."""
    if A.n != B.n or A.q != B.q:
        return False
    rank, _, _ = rref_rank(A.field, tuple(A.generator) + tuple(B.generator))
    return rank == A.k
