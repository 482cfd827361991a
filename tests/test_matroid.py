from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from codezeta import zeta
from codezeta.analysis import CodeAnalysis
from codezeta.bounds import check_bounds
from codezeta.code import (
    CapacityError,
    LinearCode,
    dual_code,
    parse_code,
    rref_rank,
    weight_distribution,
)
from codezeta.enumerator import puncture_avg, shorten_avg
from codezeta.exactmath import BiPoly, ratfun_equal
from codezeta.gf import SUPPORTED_Q, field_new
from codezeta.matroid import (
    CLIFFORD_CLASSES,
    NormalizedRankGen,
    RankGenPoly,
    _decomposition_report,
    check_greene,
    check_greene_normalized,
    classify,
    clifford_check,
    dual_relation,
    find_two_disjoint_bases,
    greene_normalized_symmetric,
    greene_weight_enumerator,
    normalized_rank_gen,
    puncture_shorten_wn,
    rank_gen_poly,
    wn_plus,
)
from strategies import codes, make_code


def test_rank_gen_poly_hamming(hamming74):
    W = rank_gen_poly(hamming74)
    assert sum(W.W.terms.values()) == 2**7  # W(1, 1): one term per column subset
    assert W.W.coeff(4, 0) == 1  # empty set
    assert W.W.coeff(0, 3) == 1  # full set
    assert W.W.coeff(3, 0) == 7  # singletons, all independent


def test_rank_gen_poly_code10(code10):
    W = rank_gen_poly(code10)
    # subsets: {} -> x, {0} -> 1, {1} -> xy, {0,1} -> y
    assert W.W.terms == {(1, 0): 1, (0, 0): 1, (1, 1): 1, (0, 1): 1}


def test_greene_fixtures(hamming74, hexacode63, ext_hamming84):
    for code in (hamming74, hexacode63, ext_hamming84):
        assert check_greene(weight_distribution(code), rank_gen_poly(code))


def test_greene_corpus(corpus):
    for entry in corpus[:20]:
        assert check_greene(entry.wd, entry.W)


def test_greene_normalized_corpus(corpus):
    for entry in corpus[:20]:
        assert check_greene_normalized(entry.wd, entry.Wn)


def test_check_greene_rejects_mismatched_lengths(hamming74, ext_hamming84):
    """Hamming [7,4]'s weights against the W and W_n of the [8,4] extended
    code (another n) and of its [7,3] dual (another k)."""
    wd = weight_distribution(hamming74)
    for other, match in ((ext_hamming84, "lengths differ"),
                         (dual_code(hamming74), "dimensions differ")):
        for check, W in ((check_greene, rank_gen_poly(other)),
                         (check_greene_normalized, normalized_rank_gen(other))):
            with pytest.raises(ValueError, match=match):
                check(wd, W)


def _raised(poly, key, amount):
    """The same rank-generating polynomial with one term raised."""
    terms = dict(poly.terms)
    terms[key] += amount
    return BiPoly(terms)


@settings(max_examples=150, deadline=None)
@given(codes(max_n=8), st.sampled_from([None, "puncture", "shorten"]), st.integers(0, 99))
@example(make_code(5, [[1, 2, 3, 4]]), None, 0)  # k = 1
@example(make_code(2, [[1, 0, 1, 1], [0, 1, 1, 1]]), "shorten", 3)  # d = d_dual = 2
@example(make_code(3, [[1, 0, 0, 2], [0, 1, 0, 1]]), "puncture", 1)  # zero column
@example(make_code(7, [[1, 0, 3], [0, 1, 0], [0, 0, 1]]), None, 2)  # k = n
def test_greene_checks_match_the_fraction_routes_and_can_fail(C, op, index):
    """Both Greene checks on integers against their Fraction references in
    `reference`: on the code's own W and W_n, or on W_n after the averaged
    puncture or shortening with the matching averaged distribution, both
    routes read True; with one W_n term raised by 1/C(n, size), and the
    same W term by 1, both read False."""
    A, W, Wn = C.weights, rank_gen_poly(C), normalized_rank_gen(C)
    if op == "puncture" and A.d >= 2 and A.n >= 2:
        A, W, Wn = puncture_avg(A), None, puncture_shorten_wn(Wn, "puncture")
    elif op == "shorten" and A.d_dual >= 2 and A.n >= 2:
        A, W, Wn = shorten_avg(A), None, puncture_shorten_wn(Wn, "shorten")
    assume(A.d <= A.n)
    keys = sorted(Wn.Wn.terms)
    key = keys[index % len(keys)]
    a, b = key
    size = b + Wn.k - a  # |A| of the subsets that x^a y^b counts
    bad_Wn = NormalizedRankGen(
        Wn=_raised(Wn.Wn, key, Fraction(1, comb(Wn.n, size))), n=Wn.n, k=Wn.k
    )
    assert check_greene_normalized(A, Wn) is reference.check_greene_normalized(A, Wn) is True
    assert check_greene_normalized(A, bad_Wn) is False
    assert reference.check_greene_normalized(A, bad_Wn) is False
    if W is not None:
        bad_W = RankGenPoly(W=_raised(W.W, key, 1), n=W.n, k=W.k)
        assert check_greene(A, W) is reference.check_greene(A, W) is True
        assert check_greene(A, bad_W) is reference.check_greene(A, bad_W) is False


def test_greene_extension_field(hamming74):
    """The binary Hamming matroid with q = 4 predicts the GF(4) enumerator."""
    W = rank_gen_poly(hamming74)
    predicted = greene_weight_enumerator(W, 4)
    counts = tuple(predicted.coeff(7 - i, i) for i in range(8))
    over_gf4 = parse_code(
        "4 7 4\n" + "\n".join(
            " ".join(str(v) for v in row) for row in hamming74.generator
        )
    )
    assert counts == weight_distribution(over_gf4).counts
    assert counts == (1, 0, 0, 21, 21, 126, 42, 45)


def test_greene_symmetric_self_complementary(ext_hamming84, selfdual105, corpus):
    from codezeta.matroid import normalized_rank_gen

    for code in (ext_hamming84, selfdual105):
        wd = weight_distribution(code)
        assert wd.counts == wd.counts[::-1]  # self-complementary
        assert greene_normalized_symmetric(wd, normalized_rank_gen(code))


def test_normalized_greene_rejects_a_changed_term(ext_hamming84):
    from fractions import Fraction

    from codezeta.exactmath import BiPoly
    from codezeta.matroid import NormalizedRankGen, normalized_rank_gen

    wd = weight_distribution(ext_hamming84)
    Wn = normalized_rank_gen(ext_hamming84)
    assert check_greene_normalized(wd, Wn) and greene_normalized_symmetric(wd, Wn)
    for key in Wn.Wn.terms:
        terms = dict(Wn.Wn.terms)
        terms[key] += Fraction(1, 3)
        changed = NormalizedRankGen(Wn=BiPoly(terms), n=Wn.n, k=Wn.k)
        assert not check_greene_normalized(wd, changed)
        assert not greene_normalized_symmetric(wd, changed)


def test_puncture_shorten_wn_match_averaged_ops(corpus):
    for entry in corpus[:15]:
        wd = entry.wd
        if wd.d >= 2:
            punctured = puncture_shorten_wn(entry.Wn, "puncture")
            assert check_greene_normalized(puncture_avg(wd), punctured)
        if wd.d_dual >= 2:
            shortened = puncture_shorten_wn(entry.Wn, "shorten")
            assert check_greene_normalized(shorten_avg(wd), shortened)
    with pytest.raises(ValueError):
        puncture_shorten_wn(corpus[0].Wn, "extend")


def test_wn_plus_invariant_under_both_ops(corpus):
    for entry in corpus[:15]:
        plus = wn_plus(entry.Wn)
        for which in ("puncture", "shorten"):
            assert ratfun_equal(plus, wn_plus(puncture_shorten_wn(entry.Wn, which)))


def test_clifford_self_dual(ext_hamming84, selfdual105):
    for code in (ext_hamming84, selfdual105):
        report = clifford_check(code)
        assert report["classification"] == "self-dual"
        assert report["ok"] and not report["violations"]
        assert all(dec["ok"] for dec in report["decompositions"])


def test_clifford_contains_dual(hamming74):
    report = clifford_check(hamming74)
    assert report["classification"] == "contains-dual"
    assert report["ok"]


def test_clifford_violation(code10):
    report = clifford_check(code10)
    assert report["classification"] == "formally-self-dual"
    assert not report["ok"]
    assert report["first_violation"] == {"subset": [1], "size": 1, "rank": 0}


def test_clifford_pair22_decomposes(pair22):
    report = clifford_check(pair22)
    assert report["ok"]
    subsets = [dec["subset"] for dec in report["decompositions"]]
    assert [0, 1] in subsets and [2, 3] in subsets


def test_clifford_sample_mode(selfdual105):
    report = clifford_check(selfdual105, mode="sample", count=200, seed=7)
    assert report["mode"] == "sample"
    assert report["subsets_checked"] == 200
    assert report["ok"]
    with pytest.raises(ValueError):
        clifford_check(selfdual105, mode="full")


def test_find_two_disjoint_bases(pair22, selfdual105, hamming74):
    assert find_two_disjoint_bases(pair22) == ((0, 2), (1, 3))
    a, b = find_two_disjoint_bases(selfdual105)
    assert sorted(a + b) == list(range(10))
    with pytest.raises(ValueError):
        find_two_disjoint_bases(hamming74)


def test_find_two_disjoint_bases_capacity_guard():
    f = field_new(2)
    n, k = 22, 11
    gen = tuple(
        tuple(1 if j == i or j == i + k else 0 for j in range(n)) for i in range(k)
    )
    C = LinearCode(field=f, n=n, k=k, generator=gen)
    with pytest.raises(CapacityError):
        find_two_disjoint_bases(C)


def reference_disjoint_bases(C):
    """The lexicographically first k-subset that is a basis with a basis for
    its complement, one subset at a time by `reference.column_rank`."""
    full = (1 << C.n) - 1
    for a in combinations(range(C.n), C.k):
        mask = sum(1 << j for j in a)
        if reference.column_rank(C, mask) == C.k == reference.column_rank(C, full ^ mask):
            return a, tuple(j for j in range(C.n) if j not in a)
    return None


@settings(max_examples=80, deadline=None)
@given(codes(max_n=10, halves=True))
# a zero column lies in one of any two k-sets, so no partition exists
@example(make_code(3, [[1, 0, 1, 0], [0, 1, 2, 0]]))
@example(make_code(9, [[1, 0, 0, 2, 5, 0], [0, 1, 0, 7, 3, 0], [0, 0, 1, 4, 8, 0]]))
def test_find_two_disjoint_bases_matches_reference(C):
    assert find_two_disjoint_bases(C) == reference_disjoint_bases(C)


def test_dual_relation_fixtures(
    ext_hamming84, hexacode63, pair22, rep2, selfdual105, hamming74, code10
):
    # the hexacode equals its Hermitian dual, not its Euclidean one
    expected = [
        (ext_hamming84, "self-dual"),
        (pair22, "self-dual"),
        (rep2, "self-dual"),
        (selfdual105, "self-dual"),
        (hamming74, "contains-dual"),
        (hexacode63, None),
        (code10, None),
    ]
    for C, relation in expected:
        assert dual_relation(C, dual_code(C)) == relation


def test_dual_relation_matches_two_eliminations(corpus):
    """Against row-space equality by comparing reduced echelon forms, and
    containment by the rank of the stacked generators."""
    seen = set()
    for an in corpus:
        C, D = an.code, an.code.dual
        same_rref = rref_rank(C.field, C.generator)[1] == rref_rank(D.field, D.generator)[1]
        if C.k == D.k and same_rref:
            expected = "self-dual"
        elif rref_rank(C.field, C.generator + D.generator)[0] == C.k:
            expected = "contains-dual"
        else:
            expected = None
        assert dual_relation(C, D) == expected
        seen.add(expected)
    assert None in seen


@settings(max_examples=200, deadline=None)
@given(codes(max_n=8), st.integers(0, (1 << 8) - 1))
@example(make_code(5, [[1, 2, 3, 4]]), 0b0011)  # k = 1
@example(make_code(3, [[1, 0, 0, 2], [0, 1, 0, 1]]), 0b0101)  # zero column
@example(make_code(2, [[1, 1, 0, 0], [0, 0, 1, 1]]), 0b0011)  # 2k = n, splits
@example(make_code(9, [[1, 0, 5, 7], [0, 1, 2, 8]]), 0b0110)  # 2k = n, MDS
@example(make_code(7, [[1, 0, 3], [0, 1, 0], [0, 0, 1]]), 0b101)  # k = n
@example(make_code(4, [[1, 2], [0, 1]]), 0b11)  # k = n, A = E
def test_decomposition_matches_the_null_space_route(C, bits):
    # any column set, not only an equality witness
    mask = bits & ((1 << C.n) - 1)
    cols = [j for j in range(C.n) if mask >> j & 1]
    rank = reference.column_rank(C, mask)
    entry = _decomposition_report(C, mask, len(cols), rank)
    assert entry == reference.decomposition_report(C, cols, rank)
    assert list(entry) == [
        "subset", "dim_on_subset", "dim_on_complement", "dim_formula", "ok"
    ]


@settings(max_examples=60, deadline=None)
@given(codes(max_n=8, isodual=True))
def test_isodual_codes_are_formally_self_dual(C):
    assert C.weights.counts == C.weights.dual_counts
    assert classify(C) in ("self-dual", "formally-self-dual")


def test_no_isodual_4_2_code_with_d_at_least_2_violates_clifford():
    """Over every symmetric 2 x 2 A in each field, C = [I | A]: a violation
    at n = 4 needs a zero column or three parallel columns, and either
    forces a word of weight 1."""
    for q in SUPPORTED_Q:
        checked = 0
        for a, b, c in product(range(q), repeat=3):
            C = make_code(q, [[1, 0, a, b], [0, 1, b, c]])
            if C.weights.d < 2:
                continue
            report = clifford_check(C)
            assert report["classification"] in CLIFFORD_CLASSES, (q, a, b, c)
            assert report["ok"] and not report["violations"], (q, a, b, c)
            checked += 1
        assert checked, q


@pytest.mark.parametrize("q", SUPPORTED_Q)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_self_dual_codes_meet_the_papers_positive_results(q, data):
    """A self-dual code in every field: no Clifford violation and every
    equality decomposition ok, P = P-perp under the functional equation, the
    Greene checks and Z(T, q), and the Mallows-Sloane bound wherever a type
    is assigned (always over GF(2) and GF(3))."""
    C = data.draw(codes(fields=(q,), self_dual=True, max_n=12))
    an = CodeAnalysis(C)
    report = clifford_check(C)
    assert report["classification"] == "self-dual"
    assert report["ok"] is True and not report["violations"]
    assert all(entry["ok"] for entry in report["decompositions"])
    assert an.wd.d >= 2 and an.wd.d_dual >= 2  # a weight-1 word is not isotropic
    assert an.P.g == an.P.g_dual and zeta.check_functional_eq(an.P, an.P_dual)
    assert check_greene(an.wd, an.W) and check_greene_normalized(an.wd, an.Wn)
    Z = zeta.two_var_zeta(an.Wn_plus, C.k, C.n, an.P.g)
    assert zeta.check_two_var_compat(Z, an.P)
    ms = check_bounds(an.wd, an.wd_dual).get("mallows_sloane")
    assert ms is not None or q not in (2, 3)
    assert ms is None or ms["holds"]


@settings(max_examples=60, deadline=None)
@given(codes(self_dual=True, max_n=12), st.data())
def test_duals_of_subcodes_of_a_self_dual_code_are_clifford(S, data):
    """C = D-perp for D a random subcode of a self-dual S, drawn in every
    field: D <= S = S-perp gives C = D-perp >= S >= D = C-perp, so C contains
    its dual and no column set A has 2 r(A) < |A|."""
    assert classify(S) == "self-dual"
    field = S.field
    symbol = st.integers(0, S.q - 1)
    messages = data.draw(st.lists(st.lists(symbol, min_size=S.k, max_size=S.k),
                                  min_size=1, max_size=S.k))
    words = []
    for m in messages:
        word = [0] * S.n
        for mi, row in zip(m, S.generator):
            word = [field.add(w, field.mul(mi, g)) for w, g in zip(word, row)]
        words.append(word)
    rank, rows, _ = rref_rank(field, words)
    assume(rank >= 1)
    D = LinearCode(field=field, n=S.n, k=rank, generator=tuple(map(tuple, rows[:rank])))
    C = dual_code(D)
    report = clifford_check(C)
    assert report["classification"] in ("self-dual", "contains-dual")
    assert report["ok"] and not report["violations"]
