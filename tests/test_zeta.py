import random
from fractions import Fraction

import pytest

import reference
from codezeta.bounds import MALLOWS_SLOANE
from codezeta.code import (
    LinearCode,
    WeightDistribution,
    dual_code,
    make_mds_code,
    weight_distribution,
)
from codezeta.enumerator import normalize
from codezeta.exactmath import UniPoly
from codezeta.extremal import extremal_sd_enumerator
from codezeta.gf import field_new
from codezeta.zeta import (
    CrossCheckError,
    StructuralError,
    ZetaPolynomial,
    _divide_by_u_minus_1,
    a_coefficient_bound,
    check_functional_eq,
    check_two_var_compat,
    two_var_functional_eq,
    two_var_zeta,
    zeta_from_enumerator_def1,
    zeta_from_normalized,
)
from codezeta import matroid


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
    for q, c, mod, _ in MALLOWS_SLOANE.values():
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
    report = a_coefficient_bound(P, normalize(wd).a_list)
    assert report["a"] == 2
    assert report["relation_holds"]
    assert report["bound"] == 5 and report["bound_holds"]


def test_a_bound_corpus(corpus):
    for entry in corpus:
        report = a_coefficient_bound(entry.P, entry.norm.a_list)
        assert report["relation_holds"]
        assert report["bound_holds"]


@pytest.mark.parametrize("q,n", [(2, 2), (7, 6), (5, 5)])
def test_a_bound_not_applicable_at_d_equals_n(q, n):
    # an [n, 1, n] MDS code: the relation would read the count of weight n + 1
    P, wd = _zeta_of(make_mds_code(q, n, 1))
    assert wd.d == n
    report = a_coefficient_bound(P, normalize(wd).a_list)
    assert report["relation_holds"] is None
    assert report["relation_not_applicable"] == "d = n"
    assert report["bound_holds"]


def test_a_bound_rejects_zero_constant():
    P = ZetaPolynomial(P=UniPoly([0, 1]), q=2, n=4, k=2, d=2, d_dual=2)
    with pytest.raises(StructuralError):
        a_coefficient_bound(P, [Fraction(0)] * 5)


def test_divide_by_u_minus_1():
    quo = _divide_by_u_minus_1({(0, 2): Fraction(1), (0, 0): Fraction(-1)})
    assert quo.terms == {(0, 1): 1, (0, 0): 1}  # (u^2-1)/(u-1) = u+1
    with pytest.raises(StructuralError):
        _divide_by_u_minus_1({(0, 0): Fraction(1)})


def test_two_var_zeta_hamming(hamming74):
    P, _ = _zeta_of(hamming74)
    Wn = matroid.normalized_rank_gen(hamming74)
    Z = two_var_zeta(matroid.wn_plus(Wn), hamming74.k, hamming74.n, P.g)
    assert check_two_var_compat(Z, P)
    assert two_var_functional_eq(Z)  # exploratory; known to hold here


def test_two_var_compat_corpus(corpus):
    for entry in corpus[:12]:
        Z = two_var_zeta(
            matroid.wn_plus(entry.Wn), entry.code.k, entry.code.n, entry.P.g
        )
        assert check_two_var_compat(Z, entry.P)
