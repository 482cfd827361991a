from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from codezeta import bounds as bounds_mod
from codezeta.bounds import (
    MALLOWS_SLOANE,
    LemmaCheckError,
    check_bounds,
    divisibility,
    g_from_zeta,
    g_poly,
    h_poly,
    proof_zero_bound,
    subcode_average_identity,
    zero_count_audit,
)
from codezeta.code import weight_distribution
from codezeta.enumerator import normalize
from codezeta.exactmath import UniPoly
from strategies import distributions


def test_divisibility(hamming74, ext_hamming84, hexacode63):
    assert divisibility(weight_distribution(hamming74)) == 1
    assert divisibility(weight_distribution(ext_hamming84)) == 4
    assert divisibility(weight_distribution(hexacode63)) == 2


def test_g_poly_hamming(hamming74):
    wd = weight_distribution(hamming74)
    g = g_poly(normalize(wd), wd.d_dual)
    assert g.degree == 3  # n - d_dual
    assert [g(w) for w in range(1, 8)] == [
        -1,
        0,
        Fraction(1, 5),
        0,
        Fraction(-1, 5),
        0,
        1,
    ]


def test_g_poly_rejects_wrong_dual_distance(hamming74):
    a = normalize(weight_distribution(hamming74))
    with pytest.raises(LemmaCheckError):
        g_poly(a, 7)


def test_g_from_zeta_matches_interpolation(hamming74, corpus):
    wd = weight_distribution(hamming74)
    a = normalize(wd)
    from codezeta.zeta import zeta_from_normalized

    P = zeta_from_normalized(a, k=hamming74.k, d_dual=wd.d_dual)
    assert g_from_zeta(P) == g_poly(a, wd.d_dual)
    for entry in corpus[:15]:
        assert g_from_zeta(entry.P) == g_poly(entry.norm, entry.wd.d_dual)


def test_h_poly_ext_hamming(ext_hamming84):
    wd = weight_distribution(ext_hamming84)
    h = h_poly(normalize(wd), 4, wd.d_dual)
    assert h.degree <= 3  # n - d_dual less one for binary even all-one codes
    assert h(4) == Fraction(-4, 5)
    assert [h(w) for w in (5, 6, 7)] == [0, 0, 0]
    assert h(8) == Fraction(4, 5)


def test_h_poly_rejects_bad_divisor(hamming74):
    a = normalize(weight_distribution(hamming74))
    with pytest.raises(ValueError):
        h_poly(a, 0, 4)


def test_h_poly_matches_g_at_c_1(corpus):
    for entry in corpus[:10]:
        a = entry.norm
        d_dual = entry.wd.d_dual
        assert h_poly(a, 1, d_dual) == g_poly(a, d_dual)


def test_check_bounds_ext_hamming(ext_hamming84):
    wd = weight_distribution(ext_hamming84)
    report = check_bounds(wd, wd)
    assert report["c"] == 4
    assert report["singleton_holds"] and report["divisibility_holds"]
    assert report["binary_even_allone"] and report["strong_holds"]
    ms = report["mallows_sloane"]
    assert ms == {"type": "II", "bound": 4, "holds": True, "extremal": True}


def test_check_bounds_hexacode(hexacode63):
    wd = weight_distribution(hexacode63)
    ms = check_bounds(wd, wd)["mallows_sloane"]
    assert ms == {"type": "IV", "bound": 4, "holds": True, "extremal": True}


def test_check_bounds_rep2(rep2):
    wd = weight_distribution(rep2)
    ms = check_bounds(wd, wd)["mallows_sloane"]
    assert ms == {"type": "I", "bound": 2, "holds": True, "extremal": True}


def test_check_bounds_selfdual105(selfdual105):
    wd = weight_distribution(selfdual105)
    report = check_bounds(wd, wd)
    ms = report["mallows_sloane"]
    assert ms["type"] == "I" and ms["bound"] == 4
    assert ms["holds"] and not ms["extremal"]


@pytest.mark.parametrize("name", sorted(MALLOWS_SLOANE))
def test_mallows_sloane_bound_is_the_classical_formula(name):
    # the divisibility bound at d_dual = d, strong for the binary types, is
    # the largest multiple d of c with (c + s) d <= n + c(c + s), and that is
    # the classical formula at every valid n <= 10^4
    q, c, mod = MALLOWS_SLOANE[name]
    strong = q == 2
    classical = reference.MALLOWS_SLOANE_BOUNDS[name]
    for n in range(mod, 10**4 + 1, mod):
        d = bounds_mod._mallows_sloane_bound(name, n)
        assert d == classical(n), n
        rhs = bounds_mod._divisibility_rhs(n, c, strong)
        assert d % c == 0 and (c + 1 + strong) * d <= rhs < (c + 1 + strong) * (d + c), n


@pytest.mark.parametrize("name, first", [("I", 6), ("II", 40)])
def test_the_binary_types_need_the_strong_form(name, first):
    # the plain form at d_dual = d, (c + 1) d <= n + c(c + 1), gives a larger
    # bound from n = `first` on: the all-one word is the proof's hypothesis
    _, c, mod = MALLOWS_SLOANE[name]
    classical = reference.MALLOWS_SLOANE_BOUNDS[name]
    misses = [n for n in range(mod, 5001, mod)
              if c * (bounds_mod._divisibility_rhs(n, c, False) // (c * (c + 1)))
              != classical(n)]
    assert misses[0] == first


def test_check_bounds_corpus(corpus):
    for entry in corpus:
        report = check_bounds(entry.wd, entry.wd_dual)
        assert report["singleton_holds"]
        assert report["divisibility_holds"]


def test_subcode_average_identity(corpus):
    for entry in corpus:
        assert subcode_average_identity(entry.norm, entry.wd.d_dual)


def test_zero_count_audits():
    bound = proof_zero_bound(8, 4, 4, strong=True)
    assert bound == 1


def test_zero_audit_hamming(hamming74):
    wd = weight_distribution(hamming74)
    g = g_poly(normalize(wd), wd.d_dual)
    audit = zero_count_audit(g, proof_zero_bound(7, 3, 1), 2, 6)
    assert audit["zeros"] == [2, 4, 6]
    assert audit["meets"]


def test_zero_audit_ext_hamming(ext_hamming84):
    wd = weight_distribution(ext_hamming84)
    h = h_poly(normalize(wd), 4, wd.d_dual)
    audit = zero_count_audit(h, proof_zero_bound(8, 4, 4, strong=True), 5, 7)
    assert audit["zeros"] == [5, 6, 7]
    assert audit["meets"]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LemmaCheckError as exc:
        return str(exc)


def _interpolated(corpus):
    out = []
    for entry in corpus:
        a, n = entry.norm, entry.wd.n
        for d_dual in {max(entry.wd.d_dual - 1, 1), entry.wd.d_dual,
                       min(entry.wd.d_dual + 1, n)}:
            out.append(_outcome(g_poly, a, d_dual))
            for c in {1, 2, divisibility(entry.wd)}:
                out.append(_outcome(h_poly, a, c, d_dual))
    return out


def test_interpolation_lemmas_match_the_lagrange_reference(corpus, monkeypatch):
    # every g/h polynomial, and every LemmaCheckError, on the corpus at the
    # true d_dual and one off either side, is what Lagrange interpolation gives
    got = _interpolated(corpus)
    assert any(isinstance(v, str) for v in got)
    assert any(not isinstance(v, str) for v in got)
    monkeypatch.setattr(bounds_mod, "interpolate", reference.interpolate)
    assert got == _interpolated(corpus)


def _reference_outcome(result, name):
    """The value or the LemmaCheckError message that `codezeta.bounds`
    gives for a (poly, None | miss | "degree") result of the reference."""
    poly, flaw = result
    if flaw is None:
        return poly
    if flaw == "degree":
        return f"deg {name} = {poly.degree}"
    return f"w={flaw}"


@settings(max_examples=150, deadline=None)
@given(distributions(), st.data())
def test_integer_interpolation_lemmas_and_audit_match_the_fraction_routes(A, data):
    """g, h and their zero audit off the integer numerators against the
    Fraction values and evaluations, on integer and averaged counts, at the
    true d_dual (codes) or an arbitrary one, and at the divisor or any c."""
    a = normalize(A)
    a_list = reference.normalized_fractions(A.q, A.n, A.counts)[0]
    n, d = A.n, A.d
    d_dual = getattr(A, "d_dual", None) or data.draw(st.integers(1, n + 1))
    c = data.draw(st.sampled_from([1, divisibility(A), data.draw(st.integers(1, n))]))
    polys = []
    for got, want, name in [
        (lambda: g_poly(a, d_dual), reference.g_poly(a_list, A.q, d, d_dual), "g"),
        (lambda: h_poly(a, c, d_dual), reference.h_poly(a_list, A.q, d, c, d_dual), "h"),
    ]:
        want = _reference_outcome(want, name)
        got = _outcome(got)
        if isinstance(want, str):
            assert isinstance(got, str) and want in got
        else:
            assert got == want
            polys.append(got)
    # a polynomial with integer zeros, scaled by a Fraction
    roots = data.draw(st.lists(st.integers(-2, n + 2), max_size=4))
    poly = UniPoly([Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))])
    for r in roots:
        poly = poly * UniPoly([-r, 1])
    for p in [*polys, poly]:
        w_min = data.draw(st.integers(-3, n))
        w_max = data.draw(st.integers(w_min - 1, n + 3))
        bound = proof_zero_bound(n, d, c)
        zeros = reference.integer_zeros(p, w_min, w_max)
        assert zero_count_audit(p, bound, w_min, w_max) == {
            "zeros": zeros, "count": len(zeros), "bound": bound,
            "meets": len(zeros) >= bound,
        }
