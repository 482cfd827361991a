"""End-to-end acceptance gate. Each test covers one numbered criterion and
prints a single PASS line when the assertions go through; runtime limits are
asserted where stated."""

import json
import time
from fractions import Fraction

from codezeta.bounds import (
    check_bounds,
    g_from_zeta,
    g_poly,
    h_poly,
    proof_zero_bound,
    zero_count_audit,
)
from codezeta.cli import run
from codezeta.code import (
    WeightDistribution,
    dual_code,
    make_mds_code,
    parse_code,
    weight_distribution,
)
from codezeta.enumerator import (
    invariant_thm23,
    normalize,
    puncture_avg,
    shorten_avg,
)
from codezeta.exactmath import BiPoly, RatFun, UniPoly, ratfun_equal
from codezeta.extremal import (
    check_ultraspherical,
    critical_circle_radii,
    extremal_sd_enumerator,
)
from codezeta.matroid import (
    check_greene,
    check_greene_normalized,
    clifford_check,
    find_two_disjoint_bases,
    greene_weight_enumerator,
    normalized_rank_gen,
    puncture_shorten_wn,
    rank_gen_poly,
    wn_plus,
)
from codezeta.zeta import (
    a_coefficient_bound,
    check_functional_eq,
    check_two_var_compat,
    two_var_zeta,
    zeta_from_enumerator_def1,
    zeta_from_normalized,
)


def _report(num, detail):
    print(f"CRITERION {num}: PASS ({detail})")


def _zeta(code, wd=None):
    wd = wd or weight_distribution(code)
    return zeta_from_normalized(normalize(wd), k=wd.k, d_dual=wd.d_dual), wd


def test_criterion_01_mds_closed_forms():
    start = time.monotonic()
    one = BiPoly.const(1)
    x, y = BiPoly.x(), BiPoly.y()
    for q, n, k in ((5, 5, 2), (4, 4, 2), (7, 6, 3)):
        code = make_mds_code(q, n, k)
        P, wd = _zeta(code)
        assert P.P == UniPoly([1])
        Wn = normalized_rank_gen(code)
        expected = BiPoly(
            {(a, 0): 1 for a in range(k + 1)} | {(0, b): 1 for b in range(1, n - k + 1)}
        )
        assert Wn.Wn == expected
        plus = wn_plus(Wn)
        assert ratfun_equal(plus, RatFun(one - x * y, (one - x) * (one - y)))
        Z = two_var_zeta(plus, k, n, P.g)
        T, u = BiPoly.x(), BiPoly.y()  # (T, u) coordinates
        assert ratfun_equal(Z.value, RatFun(one, (one - T) * (one - u * T)))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"3 MDS codes exact, {elapsed:.2f}s")


def test_criterion_02_hamming(hamming74):
    start = time.monotonic()
    wd = weight_distribution(hamming74)
    assert wd.counts == (1, 0, 0, 7, 7, 0, 0, 1)
    P, _ = _zeta(hamming74, wd)
    P1 = zeta_from_enumerator_def1(wd)
    expected = UniPoly([Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)])
    assert P.P == expected and P1.P == expected
    assert P.P.degree == 7 + 2 - 3 - 4
    assert P.P(1) == 1
    Pd, _ = _zeta(dual_code(hamming74))
    assert P.g == 1 and P.g_dual == 1
    assert check_functional_eq(P, Pd)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(2, f"P=(1+2T+2T^2)/5 both routes, {elapsed:.2f}s")


def test_criterion_03_definition_equivalence_suite(corpus):
    start = time.monotonic()
    assert len(corpus) >= 60
    for entry in corpus:
        P = entry.P
        wd = entry.wd
        assert zeta_from_enumerator_def1(wd).P == P.P
        assert P.P.degree == wd.n + 2 - wd.d - wd.d_dual
        assert P.P(1) == 1
        assert check_functional_eq(P, entry.P_dual)
        report = a_coefficient_bound(P, entry.norm)
        assert report["relation_holds"]
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(3, f"{len(corpus)} codes, {elapsed:.1f}s")


def test_criterion_04_invariance(corpus):
    checked = 0
    for entry in corpus:
        wd = entry.wd
        if wd.d < 2 or wd.d_dual < 2:
            continue
        a = entry.norm
        inv = invariant_thm23(a)
        for op in (puncture_avg, shorten_avg):
            B = op(wd)
            if B.d > B.n:
                continue
            b = normalize(B)
            order = min(a.n - a.d, b.n - b.d)
            assert inv.truncate(order) == invariant_thm23(b).truncate(order)
            checked += 1
    assert checked >= 60
    _report(4, f"{checked} puncture/shorten invariance checks")


def test_criterion_05_interpolation_lemma(corpus):
    for entry in corpus:
        wd = entry.wd
        a = entry.norm
        g = g_poly(a, wd.d_dual)  # audits degree and all prescribed values
        assert g.degree == wd.n - wd.d_dual
        for w in range(2, wd.d):
            assert g(w) == 0
        expansion = g_from_zeta(entry.P)
        # identity on w >= 2: sampling deg+2 points pins both polynomials
        points = max(g.degree, expansion.degree) + 2
        for w in range(2, 2 + points):
            assert g(w) == expansion(w)
    _report(5, f"g(w) interpolation and expansion agree on {len(corpus)} codes")


def test_criterion_06_mallows_sloane(rep2, ext_hamming84, hexacode63):
    start = time.monotonic()
    cases = []
    for code, type_name in ((ext_hamming84, "II"), (hexacode63, "IV"), (rep2, "I")):
        wd = weight_distribution(code)
        cases.append((wd, type_name))
    ext = extremal_sd_enumerator(3, 3, 12)
    assert ext.unique and ext.d == 6
    wd3 = WeightDistribution(
        q=3, n=12, k=6, counts=ext.counts, d=ext.d, d_dual=ext.d
    )
    cases.append((wd3, "III"))
    for wd, type_name in cases:
        report = check_bounds(wd, wd)
        ms = report["mallows_sloane"]
        assert ms["type"] == type_name and ms["extremal"], type_name
        c = report["c"]
        h = h_poly(normalize(wd), c, wd.d_dual)
        bound = proof_zero_bound(
            wd.n, wd.d, c, strong=report["binary_even_allone"]
        )
        audit = zero_count_audit(h, bound, c + 1, wd.n - 1)
        assert audit["meets"], type_name
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(6, f"types I-IV extremal with zero audits, {elapsed:.2f}s")


def test_criterion_07_greene(corpus, hamming74, ext_hamming84, hexacode63):
    start = time.monotonic()
    fixtures = (hamming74, ext_hamming84, hexacode63)
    for code in fixtures:
        wd = weight_distribution(code)
        assert check_greene(wd, rank_gen_poly(code))
        assert check_greene_normalized(wd, normalized_rank_gen(code))
    for entry in corpus:
        assert check_greene(entry.wd, entry.W)
        assert check_greene_normalized(entry.wd, entry.Wn)
    predicted = greene_weight_enumerator(rank_gen_poly(hamming74), 4)
    counts = tuple(predicted.coeff(7 - i, i) for i in range(8))
    over_gf4 = parse_code(
        "4 7 4\n" + "\n".join(
            " ".join(str(v) for v in row) for row in hamming74.generator
        )
    )
    assert counts == weight_distribution(over_gf4).counts
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(7, f"{len(corpus) + 3} codes plus GF(4) extension, {elapsed:.1f}s")


def test_criterion_08_two_var_compat(corpus):
    for entry in corpus:
        plus = wn_plus(entry.Wn)
        for which in ("puncture", "shorten"):
            assert ratfun_equal(plus, wn_plus(puncture_shorten_wn(entry.Wn, which)))
        # two_var_zeta raises StructuralError on any (u-1) division failure
        Z = two_var_zeta(plus, entry.code.k, entry.code.n, entry.P.g)
        assert check_two_var_compat(Z, entry.P)
    _report(8, f"Wn+ invariance and Z(T,q) compatibility on {len(corpus)} codes")


def test_criterion_09_clifford(ext_hamming84, pair22, selfdual105, capsys, tmp_path):
    start = time.monotonic()
    for code in (ext_hamming84, pair22, selfdual105):
        report = clifford_check(code)
        assert report["classification"] == "self-dual"
        assert report["ok"] and not report["violations"]
        assert all(dec["ok"] for dec in report["decompositions"])
        bases = find_two_disjoint_bases(code)
        assert bases is not None
        a, b = bases
        assert sorted(a + b) == list(range(code.n))
    bad = tmp_path / "code10.code"
    bad.write_text("2 2 1\n1 0\n")
    assert run(["--json", "clifford", str(bad)]) == 1
    witness = json.loads(capsys.readouterr().out)["first_violation"]
    assert witness == {"subset": [1], "size": 1, "rank": 0}  # second column
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(9, f"3 self-dual codes pass, (1 0) violates at column 2, {elapsed:.2f}s")


def test_criterion_10_ultraspherical():
    start = time.monotonic()
    expected_lambda = {1: Fraction(1, 2), 3: Fraction(1, 140), 5: Fraction(1, 12012)}
    for m in (1, 3, 5):
        n = 3 * m + 3
        ext = extremal_sd_enumerator(4, 2, n)
        assert ext.unique and ext.d == m + 3
        wd = WeightDistribution(
            q=4, n=n, k=n // 2, counts=ext.counts, d=ext.d, d_dual=ext.d
        )
        P, _ = _zeta(None, wd)
        lam, holds = check_ultraspherical(P, m)
        assert holds and lam == expected_lambda[m]
        if P.P.degree >= 1:
            for r in critical_circle_radii(P):
                assert abs(r - 0.5) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(10, f"m in (1,3,5) on the critical circle, {elapsed:.2f}s")
