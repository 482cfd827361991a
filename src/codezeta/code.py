"""Linear codes over GF(q): parsing, row reduction, duals, weight
distributions, subset ranks, the (size, rank) table of the column subsets
and MDS fixtures.

A `LinearCode` keeps its dual, its weight distribution and its subset
table (`dual`, `weights`, `subset_table`), each built once on first use;
the invariants that the reports give are derived from these three. Each
is built by calling `dual_code`, `weight_distribution` or
`subset_rank_table` through this module's globals, so a caller who
replaces one of them (to count or time it) sees every call. It also keeps
its reduced echelon form (`_echelon`), the value sets over all its rows
(`_value_sets`), the zero sets of the smaller of it and its dual
(`_zero_sets`, None past 2^16 bits) and the tables its point ranks are read
from (`_zero_set_chunks`), and a `WeightDistribution` keeps its normalized
form (`normalized`). The full space, k = n, is an ordinary code: its dual
is the [n, 0] zero code.

Both exponential layers read one representation: for each column, the
bitsets of the messages at which it takes each field value
(`_value_sets`), built once per code. It has three readers: codeword
enumeration (when its block takes every row; a narrower block builds its
own sets), the bitset route of the subset table, and point ranks
(`subset_ranks`); the last two read its zero sets, the table by
intersecting them over a block of columns and counting each block's
popcounts by subset size, the point ranks per chunk of columns. Past the
zero sets, in every field, the point ranks are read off the reduced
echelon rows. In characteristic 2 the sets are cut from parity patterns.
For odd q they are grown row by row for the columns whose first nonzero
entry is 1, which the other columns relabel, and at the last row only for
the values a reader asks for. Enumeration walks one offset per projective
point, counted q - 1 times, since a nonzero multiple of a word has its
weight."""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, field as dataclass_field
from functools import cache, cached_property, partial
from itertools import accumulate, chain, compress, pairwise, repeat

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
    def _echelon(self):
        # (rank, reduced echelon rows, pivot columns) of the generator
        return rref_rank(self.field, self.generator)

    @cached_property
    def _value_sets(self):
        # the value sets over all k rows, shared by enumeration (when its
        # block takes every row) and the zero sets
        return _value_sets(self.field, self.generator, self.n)

    @cached_property
    def _zero_sets(self):
        # the zero sets of the smaller of C and its dual, or None when they
        # are wider than _ZERO_SET_BITS
        if self.q ** min(self.k, self.n - self.k) > _ZERO_SET_BITS:
            return None
        return _zero_sets(self.dual if 2 * self.k > self.n else self)

    @cached_property
    def _zero_set_chunks(self):
        return _zero_set_chunks(self)

    @cached_property
    def dual(self):
        return dual_code(self)

    @cached_property
    def weights(self):
        return weight_distribution(self)

    @cached_property
    def subset_table(self):
        return subset_rank_table(self)


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

    @cached_property
    def normalized(self):
        from .enumerator import normalize  # enumerator imports this module

        return normalize(self)

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
            row = tuple(map(int, line.split()))
        except ValueError:
            raise ParseError(f"non-integer symbol in row {line!r}") from None
        if len(row) != n:
            raise ParseError(f"row {line!r} has {len(row)} symbols, expected {n}")
        if min(row) < 0 or max(row) >= q:
            v = next(v for v in row if not 0 <= v < q)
            raise ParseError(f"symbol {v} out of range for GF({q})")
        rows.append(row)
    C = LinearCode(field=field, n=n, k=k, generator=tuple(rows))
    if C._echelon[0] < k:
        raise ParseError(f"generator matrix has rank {C._echelon[0]} < k = {k}")
    return C


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


def dual_code(C):
    """The [n, n-k] dual: generator spanning the null space of C's generator,
    one vector per free column j of its reduced echelon form (1 at j, minus
    column j of the echelon rows at the pivots). For k = n it is the [n, 0]
    zero code, with no rows."""
    field = C.field
    _, rref, pivots = C._echelon
    basis = []
    for j in range(C.n):
        if j not in pivots:
            v = [0] * C.n
            v[j] = 1
            for row, p in zip(rref, pivots):
                v[p] = field.neg(row[j])
            basis.append(tuple(v))
    return LinearCode(field=field, n=C.n, k=C.n - C.k, generator=tuple(basis))


# Largest block of messages whose words are counted at once.
_TABLE_WORDS = 1 << 12


def _value_sets(field, rows, n):
    """For each of the n columns of `rows`, its value sets: indexed by a field
    value c, the bitset by_value[c] of the messages at which the column reads
    c; bit x is the message whose base-q digits are the coefficients of the
    rows. For p = 2 they are lists of all q sets, split off parity sets
    (`_parity_value_sets`). For odd q they are built row by row: row r, with
    entry g, sends c to c + dg at digit d, a shift by d q^r (`_grow_value`).
    Only columns whose first nonzero entry is 1 are built; the column λ g
    reads by_value[g][c / λ]. Columns that agree on their first r entries
    share the sets over those rows, and at the last row a set is built only
    when its value is asked for (`_Memo`)."""
    if field.p == 2:
        return _parity_value_sets(field, rows, n)
    q = field.q
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    by_prefix = {(): [1] + [0] * (q - 1)}
    sets = []
    for j in range(n):
        column = tuple(row[j] for row in rows)
        lead = next((g for g in column if g), 1)
        unscale = mul[field.inv_table[lead]]
        column = tuple(map(unscale.__getitem__, column))
        for r, g in enumerate(column):
            if column[: r + 1] in by_prefix:
                continue
            grow = partial(_grow_value, add, by_prefix[column[:r]], mul[neg[g]], q**r)
            last = r + 1 == len(rows)
            by_prefix[column[: r + 1]] = _Memo(grow) if last else list(map(grow, range(q)))
        by_value = by_prefix[column]
        sets.append(by_value if lead == 1 else _Memo(partial(_relabel, by_value, unscale)))
    return sets


def _grow_value(add, parent, minus, width, c):
    """The set of value c one row below the sets `parent` of the rows above,
    at a row with entry g and digits of place value `width`: the union over
    digits d of parent[c - dg] shifted by d width, with minus[d] = -dg."""
    to, s = add[c], parent[c]  # digit 0
    for d in range(1, len(minus)):
        s |= parent[to[minus[d]]] << d * width
    return s


def _relabel(by_value, unscale, c):
    # by_value[c / λ], with unscale the products by 1 / λ
    return by_value[unscale[c]]


class _Memo(dict):
    """A dict that fills in the value of a missing key c with build(c)."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, c):
        value = self[c] = self.build(c)
        return value


def _parity_value_sets(field, rows, n):
    """`_value_sets` for q = 2^e. A message is a string of e r bits, digit r
    in bits e r .. e r + e - 1, and field values add by XOR, so bit b of a
    column's value is the parity of the message bits under a mask: bit i of
    digit r counts when bit b of alpha^i g_r is set. The odd-parity set of a
    mask is an XOR of the sets on[i] of messages with bit i set, looked up
    four mask bits at a time; the q value sets are cut from the full set by
    the e parity sets, value bit b by the b-th."""
    e, mul = field.m, field.mul_table
    bits = e * len(rows)
    full = (1 << (1 << bits)) - 1
    # on[i] is runs of 2^i ones every 2^(i+1) bits, read off `every`, the
    # ones at the multiples of 2^(i+1)
    on, every = [0] * bits, 1
    for i in reversed(range(bits)):
        on[i] = (every << (2 << i)) - (every << (1 << i))
        every |= every << (1 << i)
    tables = []
    for low in range(0, bits, 4):
        table = [0]
        for pattern in on[low : low + 4]:
            table += [t ^ pattern for t in table]
        tables.append(table)
    columns = list(zip(*rows)) or [()] * n
    shifts = range(0, bits, e)
    sets = [[full] for _ in range(n)]
    for b in range(e):
        # bit i of under[g] is bit b of alpha^i g
        under = [sum((mul[1 << i][g] >> b & 1) << i for i in range(e))
                 for g in range(field.q)]
        for j, column in enumerate(columns):
            mask = sum(map(operator.lshift, map(under.__getitem__, column), shifts))
            odd = 0
            for c, table in enumerate(tables):
                odd ^= table[mask >> 4 * c & 15]
            even = full ^ odd
            sets[j] = [s & even for s in sets[j]] + [s & odd for s in sets[j]]
    return sets


def _offsets(field, rows, n):
    """One combination of rows per projective point, as (h, multiplicity)
    with h the tuple of its n column values: the zero combination once, and
    each combination whose first nonzero coefficient is 1, standing for its
    q - 1 nonzero multiples. Depth first; a node is its parent plus c times
    the next row, and a combination's first nonzero row starts it."""
    add, mul = field.add_table, field.mul_table
    yield (0,) * n, 1
    stack = [(r + 1, tuple(rows[r])) for r in range(len(rows))]
    while stack:
        r, h = stack.pop()
        if r == len(rows):
            yield h, field.q - 1
            continue
        stack.append((r + 1, h))
        for c in range(1, field.q):
            scaled = mul[c]
            stack.append((r + 1, tuple(add[a][scaled[b]] for a, b in zip(h, rows[r]))))


def _enumerate_counts(C):
    """A_0 .. A_n of C, counting its words a block of messages at a time.

    The block is the span of the first t rows, the most whose q^t messages
    fit in _TABLE_WORDS; the other rows give the offsets h (`_offsets`).
    The offsets span a subspace, so the words x - h over all x and all its
    h are the words of C; since the block is a subspace too, the words of
    x - λh are λ times those of x - h and have their weights, so one offset
    per projective point is walked, its counts taken q - 1 times. Column j
    of x - h is 0 exactly where x lies in by_value[j][h_j] (`_value_sets`,
    which builds the last row's sets of the h_j walked), and a bit-sliced
    counter adds these n sets: bit i of its plane bits[i] is bit i of each
    message's number of zeros. Splitting the block by the planes gives the
    messages with each number of zeros, so memory does not grow with q^k.
    """
    n, k = C.n, C.k
    t = 0
    while t < k and C.q ** (t + 1) <= _TABLE_WORDS:
        t += 1
    by_value = C._value_sets if t == k else _value_sets(C.field, C.generator[:t], n)
    full = (1 << C.q**t) - 1
    counts = [0] * (n + 1)
    for h, multiplicity in _offsets(C.field, C.generator[t:], n):
        bits = []
        for sets, c in zip(by_value, h):
            carry = sets[c]
            for i, b in enumerate(bits):
                bits[i] = b ^ carry
                carry &= b
                if not carry:
                    break
            else:
                bits.append(carry)
        parts = [(0, full)]
        for i, b in enumerate(bits):
            split = []
            for zeros, s in parts:
                on = s & b
                if on:
                    split.append((zeros + (1 << i), on))
                if on != s:
                    split.append((zeros, s ^ on))
            parts = split
        for zeros, s in parts:
            counts[n - zeros] += s.bit_count() * multiplicity
    return counts


def _min_weight(counts):
    """The least i >= 1 with counts[i] nonzero, else len(counts) (no nonzero
    word)."""
    return next((i for i in range(1, len(counts)) if counts[i]), len(counts))


def macwilliams_counts(q, n, k, counts):
    """Dual weight distribution via the MacWilliams transform on counts:
    q^k B_j is the x^j coefficient of
    f(x) = sum_i A_i (1 + (q-1)x)^(n-i) (1 - x)^i.

    The coefficients are read off one integer, f(2^B) (Kronecker
    substitution), built by Horner's rule over the counts: multiplying by
    1 + (q-1)2^B or 1 - 2^B is a shift and an add. The absolute coefficients
    of each term's product sum to q^(n-i) 2^i <= q^n, so every coefficient
    of f is at most S = q^n sum_i |A_i| < 2^(B-2) in size. Adding 2^(B-1) to
    each B-bit slot makes every slot nonnegative, so they decode by shifts
    and masks, signs included."""
    B = (q**n * sum(map(abs, counts))).bit_length() + 2
    acc, power = 0, 1  # power = (1 - 2^B)^i at A_i
    for a in counts:
        acc += (acc * (q - 1)) << B
        if a:
            acc += a * power
        power -= power << B
    mask, half = (1 << B) - 1, 1 << (B - 1)
    # half in every one of the n + 1 slots
    acc += ((1 << (B * (n + 1))) - 1) // mask * half
    size = q**k
    out = []
    for j in range(n + 1):
        total, rem = divmod(((acc >> (j * B)) & mask) - half, size)
        if rem:
            raise ValueError("MacWilliams transform produced a non-integral count")
        if total < 0:
            raise ValueError("MacWilliams transform produced a negative count")
        out.append(total)
    return out


def weight_distribution(C):
    """Exact weight distribution of C, with its dual's counts kept on the
    result.

    Enumerates whichever of C and its dual (`C.dual`) is smaller and
    transforms to get the other side; enumeration is guarded at 2^28 words.
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
        dual_counts = _enumerate_counts(C.dual)
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


# Widest zero sets, in bits (q^min(k, n - k) messages), that the subset pass
# and the point ranks intersect (`LinearCode._zero_sets`); wider codes take
# the reduce DFS and the echelon ranks. For the pass the two routes cost
# about the same between 2^16 and 2^17 bits (the crossover moves with n),
# and the DFS is faster beyond.
_ZERO_SET_BITS = 1 << 16
# Bits of zero sets held at once: in the subset pass, the block of the last
# columns; for point ranks, the per-chunk tables. A set counts as at least
# 2^8 bits, about what a small int costs.
_BLOCK_BITS = 1 << 22


def _zero_set_chunks(C):
    """The point-rank tables of C (see `subset_ranks`), or None when its
    ranks take the echelon route. With Z_j the zero sets (`C._zero_sets`),
    table c holds, for each value v of the w-bit chunk c of a column mask,
    the intersection of the Z_j with j = c w + i over the bits i of v. w is
    the largest up to 8 with ceil(n / w) 2^w max(q^m, 2^8) <= _BLOCK_BITS."""
    n, k = C.n, C.k
    m = min(k, n - k)
    words = C.q**m
    width = next((w for w in range(8, 0, -1)
                  if -(-n // w) * max(words, 1 << 8) << w <= _BLOCK_BITS), 0)
    if not width or C._zero_sets is None:
        return None
    zeros = C._zero_sets
    full = (1 << words) - 1
    tables = []
    for low in range(0, n, width):
        table = [full]
        for z in zeros[low : low + width]:
            table += [t & z for t in table]
        tables.append(table)
    return width, tables, 2 * k > n, {C.q**e: e for e in range(m + 1)}


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


def _echelon_rank(C, mask, stop):
    """min(stop, rank) of the columns in mask, read off the reduced echelon
    rows (`C._echelon`): each pivot column in mask is a unit vector, so
    r(A) = |A ∩ pivots| + the rank of the rows whose pivot lies outside A,
    read on A (where they are zero at A's pivot columns). Those rows are
    reduced by `_reduce_column` until the rank reaches `stop`."""
    _, rows, pivots = C._echelon
    taken = [mask >> j & 1 for j in range(C.n)]
    rank = sum(map(taken.__getitem__, pivots))
    basis = ()
    for row, pivot in zip(rows, pivots):
        if rank + len(basis) >= stop:
            break
        if not taken[pivot]:
            basis = _reduce_column(C.field, basis, list(compress(row, taken)))
    return min(stop, rank + len(basis))


def subset_ranks(C, masks, stops=None):
    """min(stop, rank) of the generator columns in each mask (bit j is
    column j), for stops >= 0; `stops` defaults to k for every mask, which
    gives the exact ranks. Two routes, the same in every field:

    - when m = min(k, n - k) has q^m <= _ZERO_SET_BITS and the chunk tables
      fit (`_zero_set_chunks`), the ranks are read off zero sets, as in the
      subset pass: on C's side r(A) = k - dim of the words vanishing on A,
      on the dual's side r(A) = |A| - dim of the dual words vanishing off
      A, each dim the log_q of the popcount of an intersection of the chunk
      tables' entries. The lookups, ANDs, popcounts and exponents run as
      chained C-level `map`s over all the masks at once. For k = n the dual
      is {0}: every Z_j is 1, and every rank reads |A|;
    - otherwise off the reduced echelon rows, one mask at a time, each
      stopped once its rank reaches its stop (`_echelon_rank`)."""
    stops = repeat(C.k) if stops is None else stops
    chunks = C._zero_set_chunks
    if chunks is None:
        return list(map(_echelon_rank, repeat(C), masks, stops))
    width, tables, on_dual, exponent = chunks
    masks = list(masks)
    keys = list(map(operator.xor, masks, repeat((1 << C.n) - 1))) if on_dual else masks
    low = repeat((1 << width) - 1)
    meets = map(tables[0].__getitem__, map(operator.and_, keys, low))
    for c in range(1, len(tables)):
        shifted = map(operator.rshift, keys, repeat(c * width))
        meets = map(operator.and_, meets,
                    map(tables[c].__getitem__, map(operator.and_, shifted, low)))
    dims = map(exponent.__getitem__, map(int.bit_count, meets))
    sizes = map(int.bit_count, masks) if on_dual else repeat(C.k)
    return [r if r < s else s for r, s in zip(map(operator.sub, sizes, dims), stops)]


@dataclass(frozen=True)
class SubsetRankTable:
    """What one pass over the 2^n column subsets leaves behind."""

    counts: dict  # (size, rank) -> number of column subsets
    low_masks: array  # subsets with 2 r(A) <= |A|, in DFS order
    low_ranks: array  # their ranks


def subset_rank_table(C):
    """Count the column subsets by (size, rank) in one pass, and keep the
    subsets with 2 r(A) <= |A|, the only ones the Clifford check reports, in
    DFS order: column 0 decided first, column j taken before it is left out.

    Ranks are read off the words that vanish on column sets. Let D be the
    smaller of C and its dual, of dimension m = min(k, n - k). The words of
    C that vanish on A form a subcode of dimension k - r(A); the words of
    C-perp that vanish off A, one of dimension |A| - r(A). So with Z_j the
    bitset of D's q^m messages whose word is 0 at column j, every rank is a
    popcount of an intersection of the Z_j (`_bitset_table`). Past
    q^m = 2^16 bits a DFS with an echelon basis takes over (`_dfs_table`).
    2^n subsets; guarded at n <= 22."""
    if C.n > SUBSET_N_MAX:
        raise CapacityError(f"subset enumeration guarded at n <= {SUBSET_N_MAX}")
    if C._zero_sets is None:
        return _dfs_table(C)
    return _bitset_table(C)


def _zero_sets(D):
    """For each column of D, the bitset of D's messages whose word is 0
    there, read off D's value sets (`LinearCode._value_sets`)."""
    return [by_value[0] for by_value in D._value_sets]


@cache
def _block_layout(t):
    """The 2^t subsets of a block of t >= 1 columns, listed as the table
    lists them: by doubling, each column's takers before its leavers, so in
    DFS order. Returns their masks (over columns 0 .. t - 1) and sizes, the
    positions grouped by size (each group in DFS order) with the (start,
    stop) of each group, an itemgetter that reads a per-subset list in that
    grouped order, and one that reads a list indexed by size at each
    subset. The groups double with the block: a subset of size s that takes
    the new column is a group s - 1 subset, one that leaves it a group s
    subset shifted past the takers. It depends on t alone, so it is built
    once per process."""
    masks, groups = [0], [[0]]
    for j in reversed(range(t)):
        shift = repeat(len(masks))
        masks = list(map(operator.or_, masks, repeat(1 << j))) + masks
        groups = [taken + list(map(operator.add, left, shift))
                  for taken, left in zip([[]] + groups, groups + [[]])]
    sizes = list(map(int.bit_count, masks))
    index = list(chain.from_iterable(groups))
    bounds = list(pairwise(accumulate(map(len, groups), initial=0)))
    return (masks, sizes, index, bounds,
            operator.itemgetter(*index), operator.itemgetter(*sizes))


def _bitset_table(C):
    """The table from intersections of zero sets (see `subset_rank_table`).

    The subsets of the last t columns are listed once, by doubling: each
    column puts the sets that take it before those that leave it out, one
    C-level AND `map` per column. The columns above them are walked by a
    DFS that keeps one intersection per level, and each of its leaves ANDs
    its intersection into the listed block, so at most 2^t + O(n) sets are
    live. Taking column j intersects Z_j on C's side; on the dual's side,
    leaving it out does.

    Each leaf reads its block once. One `int.bit_count` per subset gives the
    number of vanishing words, always a power q^e; the block's layout
    (`_block_layout`) regroups these counts by subset size, and each size
    group is tallied with `tuple.count` over the powers it can hold, from
    that of the generic rank min(|A|, k) up, until the group is used up. A
    key new to the table is placed by the first position at which it
    occurs, so the keys keep their first-seen DFS order.

    2 r(A) <= |A| exactly when e >= ceil(|A| / 2) on the dual's side
    (r = |A| - e) and e >= k - floor(|A| / 2) on C's side (r = k - e). So
    the low list is one `map(operator.ge, ...)` of the counts against
    per-subset thresholds, which depend on the leaf only through its number
    of columns taken."""
    n, k, q = C.n, C.k, C.q
    on_dual = 2 * k > n
    m = n - k if on_dual else k
    zeros = C._zero_sets
    words = q**m
    powers = [q**e for e in range(m + 1)]
    exponent = {v: e for e, v in enumerate(powers)}
    t = n  # at least 1, so that the layout's itemgetters read tuples
    while t > 1 and max(words, 1 << 8) << t > _BLOCK_BITS:
        t -= 1
    top = n - t
    block_masks, sizes, index, bounds, by_group, by_size = _block_layout(t)
    masks = list(map(operator.lshift, block_masks, repeat(top))) if top else block_masks
    full = (1 << words) - 1
    sets = [full]
    for j in reversed(range(top, n)):
        cut = list(map(operator.and_, sets, repeat(zeros[j])))
        sets = sets + cut if on_dual else cut + sets
    # q^e for the least e at which a subset of each size is low
    least = [q ** ((total + 1) // 2 if on_dual else max(k - total // 2, 0))
             for total in range(n + 1)]
    thresholds = [by_size(least[size:]) for size in range(top + 1)]
    counts = {}
    low_masks = array("Q")
    low_ranks = array("B")
    stack = [(0, full, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        j, meet, mask, size = pop()
        if j < top:
            cut = meet & zeros[j]
            push((j + 1, cut if on_dual else meet, mask, size))
            push((j + 1, meet if on_dual else cut, mask | 1 << j, size + 1))
            continue
        meets = map(operator.and_, sets, repeat(meet)) if top else sets
        vanishing = list(map(int.bit_count, meets))
        grouped = by_group(vanishing)
        new = []
        for total, (a, b) in enumerate(bounds, size):
            group, left = grouped[a:b], b - a
            # r <= min(|A|, k), so e is at least that of the generic rank
            for e in range(max(total - k, 0) if on_dual else max(k - total, 0), m + 1):
                c = group.count(powers[e])
                if c:
                    key = total, (total if on_dual else k) - e
                    if key in counts:
                        counts[key] += c
                    else:
                        new.append((index[a + group.index(powers[e])], key, c))
                    left -= c
                    if not left:
                        break
        for _, key, c in sorted(new):
            counts[key] = c
        chosen = list(map(operator.ge, vanishing, thresholds[size]))
        if True in chosen:
            low_masks.extend(map(operator.or_, compress(masks, chosen), repeat(mask)))
            dims = map(exponent.__getitem__, compress(vanishing, chosen))
            bases = (map(operator.add, compress(sizes, chosen), repeat(size)) if on_dual
                     else repeat(k))
            low_ranks.extend(map(operator.sub, bases, dims))
    return SubsetRankTable(counts=counts, low_masks=low_masks, low_ranks=low_ranks)


def _dfs_table(C):
    """The table by a DFS that keeps an incrementally maintained echelon
    basis, reduced by `_reduce_column`; once the basis holds k vectors no
    column can grow it, so it is reused as it is."""
    n, k = C.n, C.k
    columns, reduce = C._columns, partial(_reduce_column, C.field)
    counts = {}
    low_masks = array("Q")
    low_ranks = array("B")
    stack = [(0, 0, 0, ())]
    pop, push = stack.pop, stack.append
    while stack:
        j, mask, size, basis = pop()
        if j == n:
            rank = len(basis)
            key = (size, rank)
            counts[key] = counts.get(key, 0) + 1
            if 2 * rank <= size:
                low_masks.append(mask)
                low_ranks.append(rank)
            continue
        push((j + 1, mask, size, basis))
        if len(basis) < k:
            basis = reduce(basis, columns[j])
        push((j + 1, mask | 1 << j, size + 1, basis))
    return SubsetRankTable(counts=counts, low_masks=low_masks, low_ranks=low_ranks)


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
