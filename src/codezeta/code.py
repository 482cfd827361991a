"""Linear codes over GF(q): parsing, row reduction, duals, weight
distributions, subset ranks and MDS fixtures."""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, partial
from itertools import repeat

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

    @cached_property
    def _columns(self):
        # column j as a tuple of its k symbols
        return tuple(zip(*self.generator))

    @cached_property
    def _packed_columns(self):
        # for q = 2: column j as a k-bit int, bit i from row i
        return tuple(
            sum(row[j] << i for i, row in enumerate(self.generator))
            for j in range(self.n)
        )


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
    """Reduced row echelon form over GF(q): (rank, rref rows, pivot columns).

    Rows are scaled and eliminated through rows of the field's tables, as in
    `_reduce_column`."""
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
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
        scale = mul[field.inv(rows[rank][col])]
        prow = rows[rank] = [scale[v] for v in rows[rank]]
        for r in range(nrows):
            c = rows[r][col]
            if c and r != rank:
                minus_c = mul[neg[c]]
                rows[r] = [add[a][minus_c[b]] for a, b in zip(rows[r], prow)]
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


# Largest low-part table the enumeration keeps, in words.
_TABLE_WORDS = 1 << 12


class _PackedVectors:
    """Vectors of GF(q)^n packed into one int, for the enumeration kernel.

    Position j is the lane of `width` bits at bit j * width. An element
    sum c_d x^d (encoded sum c_d p^d) holds digit c_d at bit d * digit of its
    lane. GF(q) addition is digit-wise mod p: XOR for p = 2; for odd p one
    add, then p taken off the digits that reached p, which the carry mask
    finds. The top bit of a lane is never set in a packed vector (a spare bit
    for q = 4, 8; the top bit of a digit below p for odd p), nor in the XOR
    of two, so `(x + low) & high` marks the nonzero lanes of such an x. A
    1-bit lane (q = 2) is its own mark.
    """

    def __init__(self, field, n):
        p, m = field.p, field.m
        self.p = p
        if p == 2:
            self.digit = 1
            self.width = m if m == 1 else m + 1
        else:
            self.digit = (2 * p - 2).bit_length()
            self.width = m * self.digit
        ones_lane = ((1 << n * self.width) - 1) // ((1 << self.width) - 1)
        self.low = ones_lane * ((1 << self.width - 1) - 1)
        self.high = ones_lane << self.width - 1
        ones_digit = ones_lane * sum(1 << d * self.digit for d in range(m))
        self.carry_add = ones_digit * ((1 << self.digit - 1) - p)
        self.carry_mask = ones_digit << self.digit - 1
        self.code = [
            sum((v // p**d % p) << d * self.digit for d in range(m))
            for v in range(field.q)
        ]

    def pack(self, row):
        code, width = self.code, self.width
        return sum(code[v] << j * width for j, v in enumerate(row))

    def _reduce(self, s):
        # every digit of s lies in [0, 2p - 2]; take p off those >= p
        return s - ((s + self.carry_add & self.carry_mask) >> self.digit - 1) * self.p

    def add(self, a, b):
        return a ^ b if self.p == 2 else self._reduce(a + b)

    def add_all(self, words, v):
        """[w + v for w in words]."""
        if self.p == 2:
            return list(map(operator.xor, words, repeat(v)))
        return list(map(self._reduce, map(operator.add, words, repeat(v))))

    def tally(self, counter, offset, words):
        """Count the weights of offset + w over a subspace of words.

        The subspace holds -w with w, so offset - w has the same weights;
        its position j is zero exactly when the lanes of offset and w are
        equal, that is when the lane of offset XOR w is zero.
        """
        diffs = map(operator.xor, words, repeat(offset))
        if self.width > 1:
            diffs = map(
                operator.and_, map(operator.add, diffs, repeat(self.low)), repeat(self.high)
            )
        counter.update(map(int.bit_count, diffs))


def _gray_walk(start, gens, vec):
    """start plus every Z_p-combination of gens, one addition per step.

    Step s adds gens[j], where p^j is the largest power of p dividing s: a
    modular Gray code, which meets every combination once."""
    p = vec.p
    word = start
    yield word
    for step in range(1, p ** len(gens)):
        j = 0
        while step % p == 0:
            step //= p
            j += 1
        word = vec.add(word, gens[j])
        yield word


def _enumerate_counts(C):
    """A_0 .. A_n of C, enumerating its codewords as packed ints.

    As a Z_p-module C is spanned by x^d g_i (d < m). Only the messages whose
    first nonzero coefficient is 1 are visited, since the q - 1 multiples of
    a word share its weight: for leading row i, the words g_i + span(rows
    after i). That span is split into a table over the last t rows (at most
    _TABLE_WORDS words, built once) and a Gray-code walk over the rows in
    between, so memory does not grow with q^k.
    """
    field, q, n, k = C.field, C.q, C.n, C.k
    vec = _PackedVectors(field, n)
    gens = [
        [vec.pack([field.mul_table[field.p**d][v] for v in row]) for d in range(field.m)]
        for row in C.generator
    ]
    t = 0
    while t < k - 1 and q ** (t + 1) <= _TABLE_WORDS:
        t += 1
    # table[:q^r] spans the last r rows, for every r <= t
    table = [0]
    for row in reversed(gens[k - t:]):
        for g in row:
            layer, multiple = [], g
            for _ in range(vec.p - 1):
                layer += vec.add_all(table, multiple)
                multiple = vec.add(multiple, g)
            table += layer
    tally = Counter()
    for i in range(k):
        rest = k - 1 - i
        if rest <= t:
            vec.tally(tally, gens[i][0], table[: q**rest])
        else:
            middle = [g for row in gens[i + 1 : k - t] for g in row]
            for offset in _gray_walk(gens[i][0], middle, vec):
                vec.tally(tally, offset, table)
    counts = [0] * (n + 1)
    counts[0] = 1
    for w, c in tally.items():
        counts[w] += c * (q - 1)
    return counts


def _min_weight(counts):
    """The least i >= 1 with counts[i] nonzero, else len(counts) (no nonzero
    word)."""
    return next((i for i in range(1, len(counts)) if counts[i]), len(counts))


def _krawtchouk(q, n):
    """Rows K_0 .. K_n of Krawtchouk values, K_j[i] = K_j(i) =
    sum_s (-1)^s (q-1)^(j-s) C(i, s) C(n-i, j-s), by the three-term recurrence
    (j+1) K_{j+1}(i) = [(q-1)(n-j) + j - q i] K_j(i) - (q-1)(n-j+1) K_{j-1}(i),
    in O(n^2) integer steps."""
    prev, cur = [0] * (n + 1), [1] * (n + 1)
    rows = [cur]
    for j in range(n):
        a, b = (q - 1) * (n - j) + j, (q - 1) * (n - j + 1)
        prev, cur = cur, [
            ((a - q * i) * c - b * p) // (j + 1)
            for i, (c, p) in enumerate(zip(cur, prev))
        ]
        rows.append(cur)
    return rows


def macwilliams_counts(q, n, k, counts):
    """Dual weight distribution via the MacWilliams transform on counts:
    the Krawtchouk table times the counts, over q^k."""
    size = q**k
    support = [(i, a) for i, a in enumerate(counts) if a]
    out = []
    for row in _krawtchouk(q, n):
        acc, rem = divmod(sum(a * row[i] for i, a in support), size)
        if rem:
            raise ValueError("MacWilliams transform produced a non-integral count")
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
    """Reduce vec against an echelonized basis of (pivot, vector) pairs, each
    vector 1 at its pivot and 0 at the pivots before it; returns the basis,
    grown by the scaled remainder when that is nonzero."""
    add, mul = field.add_table, field.mul_table
    cur = vec
    for pivot, bvec in basis:
        c = cur[pivot]
        if c:
            minus_c = mul[field.neg_table[c]]
            cur = [add[a][minus_c[b]] for a, b in zip(cur, bvec)]
    pivot = next((i for i, v in enumerate(cur) if v), None)
    if pivot is None:
        return basis
    scale = mul[field.inv(cur[pivot])]
    return basis + ((pivot, tuple(scale[v] for v in cur)),)


def _xor_reduce(basis, x):
    """_reduce_column for q = 2 on packed columns: the pivot is the lowest set
    bit of the remainder, and scaling is the identity."""
    for pivot, v in basis:
        if x & pivot:
            x ^= v
    return basis + ((x & -x, x),) if x else basis


def _binary_rank(columns, mask, stop):
    """Rank over GF(2) of the packed columns whose bits are set in mask, in
    an XOR basis keyed by leading bit; stops once it reaches `stop`."""
    basis = {}
    rank = 0
    while mask and rank < stop:
        low = mask & -mask
        mask ^= low
        x = columns[low.bit_length() - 1]
        while x:
            lead = x.bit_length()
            b = basis.get(lead)
            if b is None:
                basis[lead] = x
                rank += 1
                break
            x ^= b
    return rank


def _generic_rank(C, mask, stop):
    field, columns = C.field, C._columns
    basis = ()
    while mask and len(basis) < stop:
        low = mask & -mask
        mask ^= low
        basis = _reduce_column(field, basis, columns[low.bit_length() - 1])
    return len(basis)


def subset_rank(C, mask, stop=None):
    """min(stop, rank) of the generator columns whose bits are set in mask
    (bit j is column j), for stop >= 0. The walk over the columns ends once
    the rank reaches `stop`, which defaults to k, the largest rank there is."""
    if stop is None:
        stop = C.k
    if C.q == 2:
        return _binary_rank(C._packed_columns, mask, stop)
    return _generic_rank(C, mask, stop)


def iter_subset_ranks(C):
    """Yield (mask, size, rank) for every subset of columns, by DFS with an
    incrementally maintained echelon basis (including column j before
    leaving it out). The reduce step is an XOR on packed columns for q = 2
    and `_reduce_column` otherwise; once the basis holds k vectors no column
    can grow it, so it is reused as it is. 2^n subsets; guarded at n <= 22."""
    if C.n > SUBSET_N_MAX:
        raise CapacityError(f"subset enumeration guarded at n <= {SUBSET_N_MAX}")
    n, k = C.n, C.k
    if C.q == 2:
        columns, reduce = C._packed_columns, _xor_reduce
    else:
        columns, reduce = C._columns, partial(_reduce_column, C.field)
    stack = [(0, 0, 0, ())]
    pop, push = stack.pop, stack.append
    while stack:
        j, mask, size, basis = pop()
        if j == n:
            yield mask, size, len(basis)
            continue
        push((j + 1, mask, size, basis))
        if len(basis) < k:
            basis = reduce(basis, columns[j])
        push((j + 1, mask | 1 << j, size + 1, basis))


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


def contains_code(A, B):
    """Whether the row space of A contains the row space of B."""
    if A.n != B.n or A.q != B.q:
        return False
    rank, _, _ = rref_rank(A.field, tuple(A.generator) + tuple(B.generator))
    return rank == A.k
