import dataclasses
import random
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from codezeta.analysis import CodeAnalysis
from codezeta.bounds import MALLOWS_SLOANE
from codezeta.code import (
    LinearCode,
    WeightDistribution,
    dual_code,
    make_mds_code,
    parse_code,
    weight_distribution,
)
from codezeta.enumerator import normalize, normalize_counts
from codezeta.exactmath import BiPoly, RatFun, UniPoly, ratfun_equal
from codezeta.extremal import extremal_sd_enumerator
from codezeta.gf import field_new
from codezeta.zeta import (
    CrossCheckError,
    StructuralError,
    ZetaPolynomial,
    a_coefficient_bound,
    check_functional_eq,
    check_two_var_compat,
    two_var_functional_eq,
    two_var_zeta,
    zeta_from_enumerator_def1,
    zeta_from_normalized,
)
from codezeta import matroid
from strategies import codes, distributions, make_code

ZEROCOL = parse_code(
    (Path(__file__).parent / "fixtures" / "zerocol5_73.code").read_text()
)


def _zeta_of(code):
    wd = weight_distribution(code)
    return zeta_from_normalized(normalize(wd), k=code.k, d_dual=wd.d_dual), wd


def test_hamming_zeta(hamming74):
    P, _ = _zeta_of(hamming74)
    assert P.P == UniPoly([Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)])
    assert P.g == 1 and P.g_dual == 1
    assert P.P(1) == 1


@pytest.mark.parametrize("q,n,k", [(5, 5, 2), (4, 4, 2), (7, 6, 3)])
def test_mds_zeta_is_constant(q, n, k):
    P, _ = _zeta_of(make_mds_code(q, n, k))
    assert P.P == UniPoly([1])
    assert P.g == 0 and P.g_dual == 0


def test_def1_route_matches(hamming74, hexacode63, corpus):
    for code in (hamming74, hexacode63):
        P, wd = _zeta_of(code)
        assert zeta_from_enumerator_def1(wd).P == P.P
    for entry in corpus[:12]:
        assert zeta_from_enumerator_def1(entry.wd).P == entry.P.P


def _random_distributions():
    """Weight distributions of both sides of seeded random codes over all
    seven fields, k = 1 and k = n - 1 included, zero columns allowed."""
    rng = random.Random(20261018)
    out = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = field_new(q)
        for shape in range(6):
            n = rng.randrange(2, 10)
            k = {0: 1, 1: n - 1}.get(shape) or rng.randrange(1, n)
            gen = tuple(
                tuple(int(j == i) if j < k else rng.randrange(q) for j in range(n))
                for i in range(k)
            )
            wd = weight_distribution(LinearCode(field=field, n=n, k=k, generator=gen))
            out += [wd, wd.dual()]
    return out


def _extremal_distributions():
    """Unique extremal self-dual distributions of every type, n <= 96."""
    out = []
    for q, c, mod in MALLOWS_SLOANE.values():
        for n in range(mod, 97, mod):
            ext = extremal_sd_enumerator(q, c, n)
            if ext.unique:
                out.append(WeightDistribution(
                    q=q, n=n, k=n // 2, counts=ext.counts, d=ext.d, d_dual=ext.d
                ))
    return out


def _check_routes(wd, def1_reference=True):
    a = normalize(wd)
    P = zeta_from_normalized(a, k=wd.k, d_dual=wd.d_dual)
    assert P.P == reference.zeta_from_normalized(a)
    P1 = zeta_from_enumerator_def1(wd)
    assert P1.P == P.P
    if def1_reference:
        assert P1.P == reference.zeta_from_enumerator_def1(wd)


def test_closed_forms_match_the_reference_routes(corpus):
    distributions = _random_distributions()
    assert {wd.q for wd in distributions} == {2, 3, 4, 5, 7, 8, 9}
    assert any(wd.k == 1 for wd in distributions)  # and k = n - 1 on its dual
    for entry in corpus:
        distributions += [entry.wd, entry.wd.dual()]
    for wd in distributions:
        _check_routes(wd)


def test_closed_forms_match_the_reference_routes_on_extremal_enumerators():
    # the reference Gaussian elimination of the direct definition takes about
    # 30 s for all n <= 96, so it runs to n = 48; above that the forward
    # substitution is held to the closed form, itself checked to n = 96
    for wd in _extremal_distributions():
        _check_routes(wd, def1_reference=wd.n <= 48)


def test_def1_rejects_weights_below_d():
    wd = WeightDistribution(q=2, n=4, k=1, counts=(1, 1, 0, 0, 0), d=2, d_dual=1)
    assert reference.zeta_from_enumerator_def1(wd) is None
    with pytest.raises(CrossCheckError):
        zeta_from_enumerator_def1(wd)


def test_degree_and_value_at_one(corpus):
    for entry in corpus:
        P = entry.P
        assert P.P.degree == P.n + 2 - P.d - P.d_dual
        assert P.P(1) == 1


def test_functional_eq_hamming_simplex(hamming74):
    P, _ = _zeta_of(hamming74)
    Pd, _ = _zeta_of(dual_code(hamming74))
    assert check_functional_eq(P, Pd)
    assert check_functional_eq(Pd, P)


def test_functional_eq_corpus(corpus):
    for entry in corpus:
        assert check_functional_eq(entry.P, entry.P_dual)


def test_a_bound_hamming(hamming74):
    P, wd = _zeta_of(hamming74)
    report = a_coefficient_bound(P, normalize(wd))
    assert report["a"] == 2
    assert report["relation_holds"]
    assert report["bound"] == 5 and report["bound_holds"]


def test_a_bound_corpus(corpus):
    for entry in corpus:
        report = a_coefficient_bound(entry.P, entry.norm)
        assert report["relation_holds"]
        assert report["bound_holds"]


@pytest.mark.parametrize("q,n", [(2, 2), (7, 6), (5, 5), (2, 3)])
def test_a_bound_not_applicable_at_d_equals_n(q, n):
    # the [n, 1, n] repetition code: the relation would read the count of
    # weight n + 1, and the bound is read off that relation; at n > q,
    # P = 1 and a = 0 give d + 1 > q + 1 + a
    C = make_code(q, [[1] * n])
    P, wd = _zeta_of(C)
    assert wd.d == C.n
    report = a_coefficient_bound(P, normalize(wd))
    assert report["relation_holds"] is None
    assert report["relation_not_applicable"] == "d = n"
    assert report["bound_holds"] is None
    assert report["bound_not_applicable"] == "d = n"


@settings(max_examples=150, deadline=None)
@given(distributions(), st.integers(-2, 2))
def test_a_bound_relation_on_integers_matches_the_fraction_a_list(A, step):
    """The relation N_d (a - d + q) == N_(d+1), read on `scaled`, against
    a_d (a - d + q) == a_(d+1) on the Fraction a_w of
    `reference.normalized_fractions`, for integer and averaged counts. The
    relation is an identity of P(T) built from a(t), so it holds exactly
    when p_1 is left as it is (step = 0) and fails when it is moved by
    step/2."""
    a = normalize(A)
    P = zeta_from_normalized(a, k=0, d_dual=1)
    coeffs = list(P.P.coeffs) + [Fraction(0)] * 2
    coeffs[1] += Fraction(step, 2)
    P = dataclasses.replace(P, P=UniPoly(coeffs))
    report = a_coefficient_bound(P, a)
    d, q = P.d, P.q
    if d == P.n:
        assert report["relation_holds"] is None
        return
    a_list = reference.normalized_fractions(q, A.n, A.counts)[0]
    expected = a_list[d] * (report["a"] - d + q) == a_list[d + 1]
    assert report["relation_holds"] is expected is (step == 0)


def test_a_bound_rejects_zero_constant():
    P = ZetaPolynomial(P=UniPoly([0, 1]), q=2, n=4, k=2, d=2, d_dual=2)
    with pytest.raises(StructuralError):
        a_coefficient_bound(P, normalize_counts(2, 4, (1, 0, 2, 0, 1)))


def test_two_var_zeta_divides_by_u_minus_1():
    # k = 1, n = 2, g = 1: x^2 y^4 - y^2 goes to u^2 - 1 at T^0
    den = BiPoly({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
    Z = two_var_zeta(RatFun(BiPoly({(2, 4): 1, (0, 2): -1}), den), 1, 2, 1)
    assert Z.value.num.terms == {(0, 1): 1, (0, 0): 1}  # (u^2-1)/(u-1) = u+1
    assert Z.value.den.terms == {(2, 0): 1, (3, 1): -1, (1, 0): -1, (2, 1): 1}
    with pytest.raises(StructuralError, match="not divisible by"):
        two_var_zeta(RatFun(BiPoly({(0, 2): 1}), den), 1, 2, 1)  # u^0 T^0
    with pytest.raises(StructuralError, match="insufficient T power"):
        two_var_zeta(RatFun(BiPoly({(0, 3): 1}), den), 1, 2, 1)  # T^-1


@settings(max_examples=150, deadline=None)
@given(codes(max_n=8))
@example(make_code(5, [[1, 2, 3, 4]]))  # k = 1
@example(ZEROCOL)  # zero column
@example(make_code(7, [[1, 0, 0, 1, 1], [0, 1, 0, 1, 2], [0, 0, 1, 1, 3]]))  # MDS, g = 0
@example(make_code(2, [[1, 1, 0, 0], [0, 0, 1, 1]]))  # 2k = n
def test_two_var_zeta_matches_the_reference(C):
    an = CodeAnalysis(C)
    Z = two_var_zeta(an.Wn_plus, C.k, C.n, an.P.g)
    ref = reference.two_var_zeta(an.Wn_plus, C.k, C.n, an.P.g)
    assert Z.value.num.terms == ref.num.terms
    assert Z.value.den.terms == ref.den.terms


@settings(max_examples=200, deadline=None)
@given(codes(max_n=7), st.sampled_from([None, "puncture", "shorten"]),
       st.integers(-2, 3), st.integers(0, 99))
@example(make_code(2, [[1, 0, 1, 1], [0, 1, 1, 1]]), "shorten", 1, 3)  # d = d_dual = 2
@example(make_code(3, [[1, 0, 0, 2], [0, 1, 0, 1]]), "puncture", 0, 0)  # zero column
@example(make_code(4, [[1, 2, 3]]), "puncture", -1, 1)  # k = 1
@example(make_code(5, [[1, 2, 3, 4]]), None, 2, 4)  # k = 1, d = n
@example(make_code(7, [[1, 0, 3], [0, 1, 0], [0, 0, 1]]), None, 1, 2)  # k = n
@example(make_code(8, [[1, 5], [0, 1]]), "shorten", 0, 1)  # k = n
@example(make_code(9, [[1, 0, 5, 7], [0, 1, 2, 8]]), "puncture", 3, 5)  # 2k = n, MDS
def test_integer_wn_plus_and_two_var_zeta_match_the_reference_routes(C, op, g, index):
    """W_n^+ and Z(T, u) on integers against the Fraction BiPoly product and
    the substitution route of `reference`, term for term and under
    `ratfun_equal`: on a code's own W_n, or on W_n after the averaged
    puncture (d >= 2) or shortening (d_dual >= 2), at any genus g. With one
    W_n term raised by 1/C(n, size), both routes raise StructuralError."""
    A, Wn = C.weights, matroid.normalized_rank_gen(C)
    if op == "puncture" and A.d >= 2 or op == "shorten" and A.d_dual >= 2:
        Wn = matroid.puncture_shorten_wn(Wn, op)
    k, n = Wn.k, Wn.n
    plus, ref_plus = matroid.wn_plus(Wn), reference.wn_plus(Wn)
    assert ratfun_equal(plus, ref_plus)
    assert (plus.num, plus.den) == (ref_plus.num, ref_plus.den)
    Z, ref_Z = two_var_zeta(plus, k, n, g), reference.two_var_zeta(ref_plus, k, n, g)
    assert ratfun_equal(Z.value, ref_Z)
    assert (Z.value.num, Z.value.den) == (ref_Z.num, ref_Z.den)
    keys = sorted(Wn.Wn.terms)
    key = keys[index % len(keys)]
    terms = dict(Wn.Wn.terms)
    terms[key] += Fraction(1, comb(n, key[1] + k - key[0]))  # size = b + k - a
    bad = matroid.NormalizedRankGen(Wn=BiPoly(terms), n=n, k=k)
    with pytest.raises(StructuralError):
        two_var_zeta(matroid.wn_plus(bad), k, n, g)
    with pytest.raises(StructuralError):
        reference.two_var_zeta(reference.wn_plus(bad), k, n, g)


def test_two_var_zeta_hamming(hamming74):
    P, _ = _zeta_of(hamming74)
    Wn = matroid.normalized_rank_gen(hamming74)
    Z = two_var_zeta(matroid.wn_plus(Wn), hamming74.k, hamming74.n, P.g)
    assert check_two_var_compat(Z, P)
    assert two_var_functional_eq(matroid.wn_plus(Wn))  # exploratory; holds here


@settings(max_examples=150, deadline=None)
@given(codes(max_n=8))
@example(make_code(5, [[1, 2, 3, 4]]))  # k = 1
@example(make_code(3, [[1, 0, 0, 2], [0, 1, 0, 1]]))  # zero column
@example(make_code(2, [[1, 1, 0, 0], [0, 0, 1, 1]]))  # 2k = n
@example(make_code(9, [[1, 0, 5, 7], [0, 1, 2, 8]]))  # 2k = n, MDS
@example(ZEROCOL)  # g = 2, g_dual = 3
def test_self_relation_is_the_symmetry_of_wn_plus(C):
    # the old route flips Z(T,u) and cross-multiplies; it needs P.g
    an = CodeAnalysis(C)
    Z = two_var_zeta(an.Wn_plus, C.k, C.n, an.P.g)
    assert two_var_functional_eq(an.Wn_plus) == reference.two_var_functional_eq(Z)


def test_self_relation_fails_for_unequal_genera():
    an = CodeAnalysis(ZEROCOL)
    assert (an.P.g, an.P.g_dual) == (2, 3)
    assert not two_var_functional_eq(an.Wn_plus)


@settings(max_examples=150, deadline=None)
@given(codes(max_n=8, zero_columns=False), st.integers(0, 99), st.integers(1, 3))
@example(make_code(5, [[1, 2, 3, 4]]), 0, 1)  # k = 1, d = n
@example(make_code(3, [[1, 0, 1], [0, 1, 0]]), 1, 2)  # d = 1
@example(make_code(7, [[1, 0, 3], [0, 1, 0], [0, 0, 1]]), 2, 3)  # k = n
def test_two_var_compat_holds_when_d_dual_is_at_least_2(C, index, step):
    """P(T) is the zeta polynomial for d_dual >= 2, whatever d is, so Z(T, q)
    equals P(T)/((1-T)(1-qT)), on integers and on Fractions
    (`reference.check_two_var_compat`). Both routes read False once one
    coefficient of P(T), or that of T^(deg P + 1), is raised by step/3."""
    an = CodeAnalysis(C)
    assert an.wd.d_dual >= 2
    Z = two_var_zeta(an.Wn_plus, C.k, C.n, an.P.g)
    assert check_two_var_compat(Z, an.P) is reference.check_two_var_compat(Z, an.P) is True
    coeffs = list(an.P.P.coeffs) + [Fraction(0)]
    coeffs[index % len(coeffs)] += Fraction(step, 3)
    bad = dataclasses.replace(an.P, P=UniPoly(coeffs))
    assert check_two_var_compat(Z, bad) is reference.check_two_var_compat(Z, bad) is False


def test_two_var_compat_corpus(corpus):
    for entry in corpus[:12]:
        Z = two_var_zeta(
            matroid.wn_plus(entry.Wn), entry.code.k, entry.code.n, entry.P.g
        )
        assert check_two_var_compat(Z, entry.P)


@settings(max_examples=150, deadline=None)
@given(distributions(), st.data())
def test_integer_zeta_and_functional_equation_match_the_fraction_routes(A, data):
    """Def-2 P(T) off the integer numerators against the triangular solve
    on the Fraction a(t), and the functional equation on integers against
    the Fraction powers of q, for a code and its dual and for averaged
    counts paired with arbitrary k and d_dual."""
    if isinstance(A, WeightDistribution):
        pairs = [(A, A.k, A.d_dual), (A.dual(), A.n - A.k, A.d)]
    else:
        pairs = [
            (A, data.draw(st.integers(0, A.n)), data.draw(st.integers(1, A.n + 1)))
            for _ in range(2)
        ]
    Ps = []
    for B, k, d_dual in pairs:
        if B.d > B.n:  # the [n, n] dual has no nonzero word
            continue
        P = zeta_from_normalized(normalize(B), k=k, d_dual=d_dual)
        a_poly = reference.normalized_fractions(B.q, B.n, B.counts)[1]
        fractions = SimpleNamespace(q=B.q, n=B.n, d=B.d, a_poly=a_poly)
        assert P.P == reference.zeta_from_normalized(fractions)
        Ps.append(P)
    for Pc in Ps:
        for Pd in Ps:
            assert check_functional_eq(Pc, Pd) == reference.check_functional_eq(Pc, Pd)
