"""Rank-generating (Whitney) polynomials of the column matroid of a code,
normalized variants with their infinite-tail completion, Greene's theorem in
plain and normalized form, and the Clifford-property analysis."""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .code import (
    CapacityError,
    contains_code,
    iter_subset_ranks,
    nullspace,
    subset_rank,
)
from .exactmath import BiPoly, RatFun


@dataclass(frozen=True)
class RankGenPoly:
    W: BiPoly  # sum over subsets A of x^(k - r(A)) y^(|A| - r(A))
    n: int
    k: int


@dataclass(frozen=True)
class NormalizedRankGen:
    Wn: BiPoly  # same sum with each size-i layer divided by C(n, i)
    n: int
    k: int


@dataclass(frozen=True)
class SubsetRankTable:
    """What one pass over the 2^n column subsets leaves behind."""

    counts: dict  # (size, rank) -> number of column subsets
    low_masks: array  # subsets with 2 r(A) <= |A|, in DFS order
    low_ranks: array  # their ranks


def subset_rank_table(C):
    """Count the column subsets by (size, rank) in one DFS pass, and keep the
    subsets with 2 r(A) <= |A|, the only ones the Clifford check reports."""
    counts = {}
    low_masks = array("Q")
    low_ranks = array("B")
    for mask, size, rank in iter_subset_ranks(C):
        key = (size, rank)
        counts[key] = counts.get(key, 0) + 1
        if 2 * rank <= size:
            low_masks.append(mask)
            low_ranks.append(rank)
    return SubsetRankTable(counts=counts, low_masks=low_masks, low_ranks=low_ranks)


def rank_gen_poly(C, table=None):
    """W(x, y); `table` is C's subset_rank_table when the caller has it."""
    if table is None:
        table = subset_rank_table(C)
    terms = {}
    for (size, rank), m in table.counts.items():
        key = (C.k - rank, size - rank)
        terms[key] = terms.get(key, 0) + m
    return RankGenPoly(W=BiPoly(terms), n=C.n, k=C.k)


def normalized_rank_gen(C, table=None):
    """W_n(x, y); `table` is C's subset_rank_table when the caller has it."""
    if table is None:
        table = subset_rank_table(C)
    counts = {}
    for (size, rank), m in table.counts.items():
        key = (C.k - rank, size - rank)
        counts[key] = counts.get(key, Fraction(0)) + Fraction(m, comb(C.n, size))
    return NormalizedRankGen(Wn=BiPoly(counts), n=C.n, k=C.k)


def wn_plus(Wn):
    """W_n^+(x,y) = W_n + x^(k+1)/(1-x) + y^(n-k+1)/(1-y), over ((1-x)(1-y))."""
    k, n = Wn.k, Wn.n
    one_minus_x = BiPoly({(0, 0): 1, (1, 0): -1})
    one_minus_y = BiPoly({(0, 0): 1, (0, 1): -1})
    num = (
        Wn.Wn * one_minus_x * one_minus_y
        + BiPoly.monomial(k + 1, 0) * one_minus_y
        + BiPoly.monomial(0, n - k + 1) * one_minus_x
    )
    return RatFun(num, one_minus_x * one_minus_y)


def greene_weight_enumerator(W, q):
    """A(x,y) predicted by Greene's theorem:
    W_G(qy/(x-y), (x-y)/y) (x-y)^k y^(n-k), with denominators cleared.

    Passing q^e instead of q predicts the enumerator of the same generator
    matrix read over the degree-e extension field.
    """
    return BiPoly(_greene_terms(W.W.terms, q, W.n, W.k, -1))


def check_greene(A, W):
    """Compare A(x,y) with the Greene substitution of W_G, exactly."""
    predicted = greene_weight_enumerator(W, A.q)
    actual = BiPoly({(A.n - i, i): c for i, c in enumerate(A.counts)})
    return predicted == actual


def _normalized_counts(A):
    # the coefficients A_i / C(n, i) of A_n(1, t)
    return [Fraction(A.counts[i], comb(A.n, i)) for i in range(A.n + 1)]


def _greene_terms(terms, q, n, k, sign):
    """The Greene substitution of rank-generating monomials c x^a y^b:
    {(x_exp, y_exp): coeff} of sum c q^a (x + sign y)^(k+b-a) y^(a-b+n-k).

    Plain Greene takes sign = -1; the normalized identities take sign = +1
    with x = 1 or x = s. The monomials are grouped by a - b and each power of
    (x + sign y) is read off the binomial coefficients. Both exponents are
    nonnegative because a <= k and b <= n - k, so every term has degree n.
    """
    scales = {}
    for (a, b), c in terms.items():
        scales[a - b] = scales.get(a - b, 0) + c * q**a
    out = {}
    for diff, scale in scales.items():
        y_exp, e = diff + n - k, k - diff
        if y_exp < 0 or e < 0:
            raise ValueError("rank-generating exponent out of range")
        for j in range(e + 1):
            key = (e - j, y_exp + j)
            out[key] = out.get(key, 0) + scale * sign**j * comb(e, j)
    return out


def check_greene_normalized(A, Wn):
    """The normalized congruence
    A_n(1,t)(1+t)^(n+1) == W_n(qt/(1+t),(1+t)/t)(1+t)^k t^(n-k)  mod t^(n+1).

    Each W_n monomial x^a y^b contributes q^a t^(a-b+n-k) (1+t)^(k+b-a), a
    polynomial of degree n in t; both sides are compared as their n + 1
    lowest coefficients.
    """
    n, k, q = Wn.n, Wn.k, A.q
    if n != A.n:
        raise ValueError("distribution and rank-generating lengths differ")
    an = _normalized_counts(A)
    lhs = [sum(an[i] * comb(n + 1, m - i) for i in range(m + 1)) for m in range(n + 1)]
    rhs = [Fraction(0)] * (n + 1)
    for (_, t_exp), c in _greene_terms(Wn.Wn.terms, q, n, k, 1).items():
        rhs[t_exp] += c
    return lhs == rhs


def greene_normalized_symmetric(A, Wn):
    """Full two-sided identity for codes with a symmetric A_n(s,t), using the
    same W_n on both sides (binary self-complementary case):

    A_n(s,t)(s+t)^(n+1) ==  W_n-part(t-side) + W_n-part(s-side).

    The t-side is sum q^a s^(n+1) t^(a-b+n-k) (s+t)^(k+b-a) over the W_n
    monomials; the s-side is its mirror image, s and t swapped.
    """
    n, k, q = A.n, A.k, A.q
    an = _normalized_counts(A)
    lhs = {}
    for i, c in enumerate(an):
        for j in range(n + 2):
            key = (2 * n + 1 - i - j, i + j)
            lhs[key] = lhs.get(key, 0) + c * comb(n + 1, j)
    side = {
        (n + 1 + s_exp, t_exp): c
        for (s_exp, t_exp), c in _greene_terms(Wn.Wn.terms, q, n, k, 1).items()
    }
    rhs = dict(side)
    for (s_exp, t_exp), c in side.items():
        rhs[t_exp, s_exp] = rhs.get((t_exp, s_exp), 0) + c
    return BiPoly(lhs) == BiPoly(rhs)


def puncture_shorten_wn(Wn, which):
    """Averaged puncture/shorten acting on W_n: subtract y^(n-k) or x^k.

    Metadata follows the operation: puncturing keeps k (valid when d >= 2);
    shortening drops it by one (valid when the dual distance is >= 2).
    """
    n, k = Wn.n, Wn.k
    if which == "puncture":
        return NormalizedRankGen(
            Wn=Wn.Wn - BiPoly.monomial(0, n - k), n=n - 1, k=k
        )
    if which == "shorten":
        return NormalizedRankGen(
            Wn=Wn.Wn - BiPoly.monomial(k, 0), n=n - 1, k=k - 1
        )
    raise ValueError("which must be 'puncture' or 'shorten'")


def _support_subcode(C, inside):
    """Basis of codewords of C supported inside the column set `inside`."""
    outside = [j for j in range(C.n) if j not in inside]
    if outside:
        gen_out = [[row[j] for j in outside] for row in C.generator]
        transposed = [list(col) for col in zip(*gen_out)]
        messages = nullspace(C.field, transposed)
    else:
        messages = [
            tuple(1 if i == r else 0 for i in range(C.k)) for r in range(C.k)
        ]
    field = C.field
    words = []
    for m in messages:
        word = [0] * C.n
        for i, mi in enumerate(m):
            if mi:
                for j in range(C.n):
                    word[j] = field.add(word[j], field.mul(mi, C.generator[i][j]))
        words.append(tuple(word))
    return words


def dual_relation(C, dual):
    """'self-dual' or 'contains-dual' when C equals or contains its dual,
    else None. One elimination decides both: C contains its dual, and equals
    it exactly when the two dimensions agree (2k = n)."""
    if not contains_code(C, dual):
        return None
    return "self-dual" if C.k == dual.k else "contains-dual"


def clifford_check(C, mode="exhaustive", count=1000, seed=0, *,
                   classification=None, table=None):
    """Check 2 r(A) >= |A| over column subsets A and report the findings.

    For codes containing their dual the inequality must hold everywhere;
    for a self-dual code every proper equality witness must split the code as
    a direct sum of self-dual codes supported on A and on its complement.
    `classification` and `table` (C's subset_rank_table) are computed when
    not given. The sampled mode stops each rank at |A| // 2 + 1: the subsets
    it reports have 2 r(A) <= |A|, so their ranks lie below that stop.
    """
    if classification is None:
        from .analysis import CodeAnalysis

        classification = CodeAnalysis(C).classification
    if mode == "exhaustive":
        if table is None:
            table = subset_rank_table(C)
        checked = sum(table.counts.values())
        subsets = zip(table.low_masks, table.low_ranks)
    elif mode == "sample":
        rng = random.Random(seed)
        checked = max(count, 0)

        def sampled():
            for _ in range(count):
                mask = rng.getrandbits(C.n)
                yield mask, subset_rank(C, mask, stop=mask.bit_count() // 2 + 1)

        subsets = sampled()
    else:
        raise ValueError("mode must be 'exhaustive' or 'sample'")
    violations = []
    witnesses = []
    full_mask = (1 << C.n) - 1
    for mask, rank in subsets:
        size = mask.bit_count()
        if 2 * rank < size:
            violations.append(
                {"subset": _mask_cols(mask, C.n), "size": size, "rank": rank}
            )
        elif 2 * rank == size and 0 < size and mask != full_mask:
            witnesses.append((mask, size, rank))
    report = {
        "classification": classification,
        "mode": mode,
        "subsets_checked": checked,
        "violations": violations,
        "first_violation": violations[0] if violations else None,
        "equality_witnesses": [
            {"subset": _mask_cols(m, C.n), "rank": r} for m, _, r in witnesses
        ],
        "decompositions": [],
    }
    ok = not violations
    if classification == "self-dual":
        for mask, size, rank in witnesses:
            entry = _decomposition_report(C, mask, size, rank)
            report["decompositions"].append(entry)
            ok = ok and entry["ok"]
    report["ok"] = ok
    return report


def _mask_cols(mask, n):
    return [j for j in range(n) if mask >> j & 1]


def _decomposition_report(C, mask, size, rank):
    cols = set(_mask_cols(mask, C.n))
    comp = set(range(C.n)) - cols
    sub_a = _support_subcode(C, cols)
    sub_b = _support_subcode(C, comp)
    support_a = set()
    for w in sub_a:
        support_a |= {j for j, v in enumerate(w) if v}
    support_b = set()
    for w in sub_b:
        support_b |= {j for j, v in enumerate(w) if v}
    dim_formula = size - rank  # dual-subcode dimension from corank/nullity duality
    ok = (
        len(sub_a) + len(sub_b) == C.k
        and support_a == cols
        and support_b == comp
        and len(sub_a) == dim_formula
    )
    return {
        "subset": sorted(cols),
        "dim_on_subset": len(sub_a),
        "dim_on_complement": len(sub_b),
        "dim_formula": dim_formula,
        "ok": ok,
    }


def find_two_disjoint_bases(C):
    """First (lexicographic) partition of the columns of an n = 2k code into
    two independent k-sets, or None when no such partition exists."""
    n, k = C.n, C.k
    if n != 2 * k:
        raise ValueError("two disjoint bases need n = 2k")
    if n > 20:
        raise CapacityError("basis-partition search guarded at n <= 20")
    full = (1 << n) - 1
    for a in combinations(range(n), k):
        mask = sum(1 << j for j in a)
        if subset_rank(C, mask) == k and subset_rank(C, full ^ mask) == k:
            return a, tuple(_mask_cols(full ^ mask, n))
    return None
