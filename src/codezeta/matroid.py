"""Rank-generating (Whitney) polynomials of the column matroid of a code,
normalized variants with their infinite-tail completion, Greene's theorem in
plain and normalized form, and the Clifford-property analysis with the
classification of a code against its dual. The functions that take a code
read its own subset table, dual and weights (`C.subset_table`, `C.dual`,
`C.weights`), and the ranks of any other column sets in batches
(`subset_ranks`)."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice
from math import comb

from .code import CapacityError, WeightDistribution, contains_code, subset_ranks
from .exactmath import BiPoly, RatFun, _over_lcm


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

    @cached_property
    def scaled(self):
        """({(a, b): N}, L): W_n's coefficients as integers N over the lcm L
        of their denominators, W_n = N / L, read off `Wn` alone."""
        terms = self.Wn.terms
        N, L = _over_lcm(terms.values())
        return dict(zip(terms, N)), L


def rank_gen_poly(C):
    """W(x, y), read off C's subset table. (size, rank) -> (k - rank,
    size - rank) is one-to-one, so each key takes one count."""
    terms = {(C.k - rank, size - rank): m
             for (size, rank), m in C.subset_table.counts.items()}
    return RankGenPoly(W=BiPoly(terms), n=C.n, k=C.k)


def normalized_rank_gen(C):
    """W_n(x, y), read off C's subset table, each key as in `rank_gen_poly`."""
    counts = {(C.k - rank, size - rank): Fraction(m, comb(C.n, size))
              for (size, rank), m in C.subset_table.counts.items()}
    return NormalizedRankGen(Wn=BiPoly(counts), n=C.n, k=C.k)


# the denominator (1 - x)(1 - y) of every W_n^+
_WN_PLUS_DEN = BiPoly({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})


def wn_plus(Wn):
    """W_n^+(x,y) = W_n + x^(k+1)/(1-x) + y^(n-k+1)/(1-y), over ((1-x)(1-y)).

    The numerator runs on integers: with W_n = N / L (`Wn.scaled`), L times
    it is N (1-x)(1-y) + L x^(k+1) (1-y) + L y^(n-k+1) (1-x), and each
    nonzero term becomes one Fraction over L."""
    k, n = Wn.k, Wn.n
    N, L = Wn.scaled
    num = {}
    for (a, b), c in N.items():
        for key, sign in (((a, b), 1), ((a + 1, b), -1), ((a, b + 1), -1),
                          ((a + 1, b + 1), 1)):
            num[key] = num.get(key, 0) + sign * c
    tails = (((k + 1, 0), L), ((k + 1, 1), -L),  # x^(k+1) (1-y)
             ((0, n - k + 1), L), ((1, n - k + 1), -L))  # y^(n-k+1) (1-x)
    for key, c in tails:
        num[key] = num.get(key, 0) + c
    return RatFun(BiPoly({key: Fraction(c, L) for key, c in num.items() if c}),
                  _WN_PLUS_DEN)


def greene_weight_enumerator(W, q):
    """A(x,y) predicted by Greene's theorem:
    W_G(qy/(x-y), (x-y)/y) (x-y)^k y^(n-k), with denominators cleared.

    Passing q^e instead of q predicts the enumerator of the same generator
    matrix read over the degree-e extension field.
    """
    return BiPoly(_greene_terms(W.W.terms, q, W.n, W.k, -1))


def check_greene(A, W):
    """Compare A(x,y) with the Greene substitution of W_G, exactly.

    Both sides run on integers: W_G's coefficients over the lcm L of their
    denominators, the counts A_i over theirs, D, and each side is scaled by
    the other's denominator. Every predicted monomial has degree n, so it is
    one of the x^(n-i) y^i that the counts cover."""
    n = A.n
    _check_shapes(A, W)
    coeffs, L = _over_lcm(W.W.terms.values())
    predicted = _greene_terms(dict(zip(W.W.terms, coeffs)), A.q, n, W.k, -1)
    counts, D = _over_lcm(A.counts)
    return all(predicted.get((n - i, i), 0) * D == c * L for i, c in enumerate(counts))


def _check_shapes(A, W):
    """ValueError unless A and W have one length n, and, where A is a code's
    weight distribution, one dimension k. An averaged distribution carries
    no k."""
    if A.n != W.n:
        raise ValueError("distribution and rank-generating lengths differ")
    if isinstance(A, WeightDistribution) and A.k != W.k:
        raise ValueError("distribution and rank-generating dimensions differ")


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
    lowest coefficients. They run on integers: the left on a_w = N_w / D
    (`NormalizedEnumerator.scaled`), the right on W_n = M / L
    (`NormalizedRankGen.scaled`), and the m-th coefficients compare as
    lhs_m L == rhs_m D.
    """
    n, k, q = Wn.n, Wn.k, A.q
    _check_shapes(A, Wn)
    N, D = A.normalized.scaled
    binoms = [comb(n + 1, j) for j in range(n + 2)]
    lhs = [sum(N[i] * binoms[m - i] for i in range(m + 1)) for m in range(n + 1)]
    M, L = Wn.scaled
    rhs = [0] * (n + 1)
    for (_, t_exp), c in _greene_terms(M, q, n, k, 1).items():
        rhs[t_exp] += c
    return all(l * L == r * D for l, r in zip(lhs, rhs))


def greene_normalized_symmetric(A, Wn):
    """Full two-sided identity for codes with a symmetric A_n(s,t), using the
    same W_n on both sides (binary self-complementary case):

    A_n(s,t)(s+t)^(n+1) ==  W_n-part(t-side) + W_n-part(s-side).

    The t-side is sum q^a s^(n+1) t^(a-b+n-k) (s+t)^(k+b-a) over the W_n
    monomials; the s-side is its mirror image, s and t swapped.
    """
    n, k, q = A.n, A.k, A.q
    lhs = BiPoly(
        ((2 * n + 1 - i - j, i + j), c * comb(n + 1, j))
        for i, c in enumerate(A.normalized.a_list)
        for j in range(n + 2)
    )
    side = [
        ((n + 1 + s_exp, t_exp), c)
        for (s_exp, t_exp), c in _greene_terms(Wn.Wn.terms, q, n, k, 1).items()
    ]
    rhs = BiPoly(side + [((t_exp, s_exp), c) for (s_exp, t_exp), c in side])
    return lhs == rhs


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


def dual_relation(C, dual):
    """'self-dual' or 'contains-dual' when C equals or contains its dual,
    else None. One elimination decides both: C contains its dual, and equals
    it exactly when the two dimensions agree (2k = n)."""
    if not contains_code(C, dual):
        return None
    return "self-dual" if C.k == dual.k else "contains-dual"


def classify(C):
    """Where the code stands against its dual, for the Clifford check.

    The dimensions decide first: C contains C-perp only if 2k >= n, and the
    two share a weight distribution (q^k words against q^(n-k)) only if
    2k = n. So the dual is read only when 2k >= n, and the weights only when
    2k = n and C neither equals nor contains its dual. The full space
    (k = n) contains its [n, 0] dual. When the enumeration guard refuses
    the weights the label is "undetermined"; like "formally-self-dual" and
    "other" it claims nothing in the Clifford check."""
    if 2 * C.k < C.n:
        return "other"
    relation = dual_relation(C, C.dual)
    if relation:
        return relation
    if 2 * C.k > C.n:
        return "other"
    try:
        weights = C.weights
    except CapacityError:
        return "undetermined"
    return "formally-self-dual" if weights.counts == weights.dual_counts else "other"


# The classes whose violations the Clifford verdict counts: 2 r(A) >= |A| is
# a theorem for codes that contain their dual, and for formally self-dual
# codes it is the paper's question, which (1 0) answers in the negative.
CLIFFORD_CLASSES = ("self-dual", "contains-dual", "formally-self-dual")

# The sampled Clifford check holds all its masks and ranks at once: about
# 60 B and 1.3-1.6 us per sample (binary [28,10], 10^4 to 4 * 10^5 samples,
# 2-vCPU Xeon VM, Python 3.11), so 2^22 samples take about 240 MB and 6 s.
SAMPLE_BITS = 22


def _sample_guard(count):
    if count > 1 << SAMPLE_BITS:
        raise CapacityError(
            f"sampling {count} column subsets exceeds the 2^{SAMPLE_BITS} guard: about "
            f"{count * 60 >> 20} MB and {count * 1.5e-6:.0f} s"
        )


def clifford_check(C, mode="exhaustive", count=1000, seed=0):
    """Check 2 r(A) >= |A| over column subsets A and report the findings.

    For codes containing their dual the inequality must hold everywhere;
    for a self-dual code every proper equality witness must split the code as
    a direct sum of self-dual codes supported on A and on its complement.
    The exhaustive mode reads C's subset table. The sampled mode draws all
    its masks first and then reads their ranks in one batch
    (`subset_ranks`), each stopped at |A| // 2 + 1: the subsets it reports
    have 2 r(A) <= |A|, so their ranks lie below that stop.
    Violations are listed for every code, but `ok` counts them only for the
    `CLIFFORD_CLASSES`; for "other" and "undetermined" codes it is None and
    `ok_not_applicable` says why. More than 2^`SAMPLE_BITS` samples are
    refused before any is drawn.
    """
    if mode == "sample":
        _sample_guard(count)
    classification = classify(C)
    if mode == "exhaustive":
        table = C.subset_table
        checked = sum(table.counts.values())
        subsets = zip(table.low_masks, table.low_ranks)
    elif mode == "sample":
        rng = random.Random(seed)
        checked = max(count, 0)
        masks = [rng.getrandbits(C.n) for _ in range(count)]
        stops = [mask.bit_count() // 2 + 1 for mask in masks]
        subsets = zip(masks, subset_ranks(C, masks, stops))
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
    if classification in CLIFFORD_CLASSES:
        report["ok"] = ok
    else:
        report["ok"] = None
        report["ok_not_applicable"] = (
            "needs a code that contains its dual or is formally self-dual"
        )
    return report


def _mask_cols(mask, n):
    return [j for j in range(n) if mask >> j & 1]


def _decomposition_report(C, mask, size, rank):
    """The split of C along the column set A of `mask`, with rank r(A) =
    `rank`, read off the ranks. The words supported inside A form a subcode
    of dimension k - r(E∖A), those inside the complement one of dimension
    k - r(A), and column j of A lies in the support of the first exactly
    when it raises the rank of E∖A (and likewise for the complement). The
    n + 1 ranks, of E∖A and of each set that one column grows, are read in
    one batch."""
    comp = ((1 << C.n) - 1) ^ mask
    grown = [comp | 1 << j for j in _mask_cols(mask, C.n)]
    grown += [mask | 1 << j for j in _mask_cols(comp, C.n)]
    comp_rank, *ranks = subset_ranks(C, [comp, *grown])
    dim_a, dim_b = C.k - comp_rank, C.k - rank
    dim_formula = size - rank  # dual-subcode dimension from corank/nullity duality
    ok = (
        dim_a + dim_b == C.k
        and dim_a == dim_formula
        and all(r > comp_rank for r in ranks[:size])
        and all(r > rank for r in ranks[size:])
    )
    return {
        "subset": _mask_cols(mask, C.n),
        "dim_on_subset": dim_a,
        "dim_on_complement": dim_b,
        "dim_formula": dim_formula,
        "ok": ok,
    }


def find_two_disjoint_bases(C):
    """First (lexicographic) partition of the columns of an n = 2k code into
    two independent k-sets, or None when no such partition exists. The
    k-subsets are read in lexicographic blocks, one subset first and twice
    as many each time, and each block's ranks and its complements' ranks
    are read in one batch (`subset_ranks`)."""
    n, k = C.n, C.k
    if n != 2 * k:
        raise ValueError("two disjoint bases need n = 2k")
    if n > 20:
        raise CapacityError("basis-partition search guarded at n <= 20")
    full = (1 << n) - 1
    bits = [1 << j for j in range(n)]
    subsets = combinations(range(n), k)
    size = 1
    while block := list(islice(subsets, size)):
        masks = [sum(map(bits.__getitem__, a)) for a in block]
        ranks = subset_ranks(C, masks + [full ^ mask for mask in masks])
        for a, mask, r, r_comp in zip(block, masks, ranks, ranks[len(block):]):
            if r == k and r_comp == k:
                return a, tuple(_mask_cols(full ^ mask, n))
        size *= 2
    return None
