from fractions import Fraction
from unittest import mock

import pytest

import reference
from codezeta import bounds as bounds_mod
from codezeta import extremal as extremal_mod
from codezeta.bounds import MALLOWS_SLOANE
from codezeta.code import CapacityError, WeightDistribution, weight_distribution
from codezeta.enumerator import normalize
from codezeta.exactmath import UniPoly
from codezeta.extremal import (
    EXTREMAL_N_MAX,
    check_ultraspherical,
    critical_circle_radii,
    extremal_sd_enumerator,
    gegenbauer,
)
from codezeta.zeta import zeta_from_normalized


def _zeta_of_extremal(ext):
    wd = WeightDistribution(
        q=ext.q, n=ext.n, k=ext.n // 2, counts=ext.counts, d=ext.d, d_dual=ext.d
    )
    return zeta_from_normalized(normalize(wd), k=wd.k, d_dual=ext.d)


def test_extremal_type_I_n2(rep2):
    ext = extremal_sd_enumerator(2, 2, 2)
    assert ext.d == 2 and ext.unique and ext.nonnegative
    assert ext.counts == weight_distribution(rep2).counts


def test_extremal_type_II_n8(ext_hamming84):
    ext = extremal_sd_enumerator(2, 4, 8)
    assert ext.d == 4 and ext.unique
    assert ext.counts == weight_distribution(ext_hamming84).counts


def test_extremal_type_IV_n6(hexacode63):
    ext = extremal_sd_enumerator(4, 2, 6)
    assert ext.d == 4 and ext.unique
    assert ext.counts == weight_distribution(hexacode63).counts


def test_extremal_type_III_n12():
    ext = extremal_sd_enumerator(3, 3, 12)
    assert ext.d == 6 and ext.unique and ext.nonnegative
    assert ext.counts == (1, 0, 0, 0, 0, 0, 264, 0, 0, 440, 0, 0, 24)


def test_extremal_type_III_n24_is_the_pless_code(pless11):
    # Gleason synthesis against enumeration at n = 24: the Pless symmetry
    # code over GF(3), p = 11, is extremal Type III with d = 9
    ext = extremal_sd_enumerator(3, 3, 24)
    assert ext.d == 9 and ext.unique and ext.nonnegative
    assert ext.counts == weight_distribution(pless11).counts


def test_extremal_rejects_bad_parameters():
    with pytest.raises(ValueError):
        extremal_sd_enumerator(5, 2, 6)
    with pytest.raises(ValueError):
        extremal_sd_enumerator(2, 4, 12)  # Type II needs 8 | n


def test_extremal_capacity_guard():
    n = (EXTREMAL_N_MAX // 24 + 1) * 24  # a valid length for every type
    unused = mock.Mock(side_effect=AssertionError("the guard must come first"))
    with mock.patch.object(extremal_mod, "_gleason_synthesis", unused):
        for q, c in ((2, 2), (2, 4), (3, 3), (4, 2)):
            with pytest.raises(CapacityError):
                extremal_sd_enumerator(q, c, n)
    assert EXTREMAL_N_MAX >= 96


@pytest.mark.parametrize("name", sorted(MALLOWS_SLOANE))
def test_extremal_matches_the_krawtchouk_reference(name):
    q, c, mod = MALLOWS_SLOANE[name]
    for n in range(mod, 49, mod):
        assert extremal_sd_enumerator(q, c, n) == reference.extremal_sd_enumerator(
            q, c, n
        ), n


@pytest.mark.parametrize("name", sorted(MALLOWS_SLOANE))
def test_gleason_generators_are_self_dual_invariants(name):
    # f and g, made homogeneous of degrees deg f and l * deg f, are fixed by
    # the MacWilliams transform of a self-dual code of that length
    q, c, mod = MALLOWS_SLOANE[name]
    f, g, ell = extremal_mod._GLEASON[name]
    for coeffs, deg in ((f, mod), (g, ell * mod)):
        counts = [0] * (deg + 1)
        for j, v in enumerate(coeffs):
            counts[c * j] = v
        assert reference.macwilliams(q, deg, deg // 2, counts) == counts


@pytest.mark.parametrize("name", sorted(MALLOWS_SLOANE))
def test_mallows_sloane_bound_counts_gleason_basis(name):
    # Gleason: the degree-n invariants have the basis f^i g^j with
    # i deg f + j deg g = n, and the bound is c times its size
    q, c, deg_f = MALLOWS_SLOANE[name]
    deg_g = extremal_mod._GLEASON[name][2] * deg_f
    for n in range(deg_f, 4001, deg_f):
        basis = [j for j in range(n // deg_g + 1) if (n - j * deg_g) % deg_f == 0]
        assert bounds_mod._mallows_sloane_bound(name, n) == c * len(basis), n


@pytest.mark.parametrize("name", sorted(MALLOWS_SLOANE))
def test_gleason_synthesis_reaches_the_divisibility_bound(name):
    # the synthesis takes its d = c(m + 1) from Gleason's basis on its own;
    # it must equal the divisibility bound at d_dual = d
    mod = MALLOWS_SLOANE[name][2]
    for n in range(mod, 241, mod):
        d, _ = extremal_mod._gleason_synthesis(name, n)
        assert d == bounds_mod._mallows_sloane_bound(name, n), n


def test_zhang_first_negative_type_II_enumerator():
    # the extremal Type II enumerator first has a negative coefficient at
    # n = 3696 (Zhang 1999), at weight d + 4; at n = 3672 it has none
    d, counts = extremal_mod._gleason_synthesis("II", 3696)
    assert d == 620
    assert next(i for i, v in enumerate(counts) if v < 0) == d + 4 == 624
    d, counts = extremal_mod._gleason_synthesis("II", 3672)
    assert d == 616 and min(counts) >= 0


def test_gegenbauer_low_degrees():
    assert gegenbauer(0, 3).poly == UniPoly([1])
    assert gegenbauer(1, Fraction(1, 2)).poly == UniPoly([0, 1])
    # Legendre P_2 = (3x^2 - 1)/2
    assert gegenbauer(2, Fraction(1, 2)).poly == UniPoly(
        [Fraction(-1, 2), 0, Fraction(3, 2)]
    )
    with pytest.raises(ValueError):
        gegenbauer(-1, 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_gegenbauer_sign_changes(m):
    # C_m^{m+1} has m simple roots inside (-1, 1)
    assert reference.gegenbauer_sign_changes(m, m + 1) == m


@pytest.mark.parametrize(
    "m,n,lam",
    [
        (1, 6, Fraction(1, 2)),
        (3, 12, Fraction(1, 140)),
        (5, 18, Fraction(1, 12012)),
    ],
)
def test_ultraspherical_family(m, n, lam):
    ext = extremal_sd_enumerator(4, 2, n)
    assert ext.unique and ext.d == m + 3
    P = _zeta_of_extremal(ext)
    got_lam, holds = check_ultraspherical(P, m)
    assert holds and got_lam == lam
    if P.P.degree >= 1:
        for r in critical_circle_radii(P):
            assert abs(r - 0.5) <= 1e-9


@pytest.mark.parametrize("name", sorted(MALLOWS_SLOANE))
def test_ultraspherical_matches_the_power_reference(name):
    # m = d - 3 is the degree the extremal command checks; d - 2 is a wrong one
    q, c, mod = MALLOWS_SLOANE[name]
    for n in range(mod, 97, mod):
        ext = extremal_sd_enumerator(q, c, n)
        if not ext.unique or ext.d < 3:
            continue
        P = _zeta_of_extremal(ext)
        for m in (ext.d - 3, ext.d - 2) if n <= 48 else (ext.d - 3,):
            assert check_ultraspherical(P, m) == reference.check_ultraspherical(P, m), (
                n, m)


def test_ultraspherical_fails_for_wrong_degree():
    ext = extremal_sd_enumerator(4, 2, 12)
    P = _zeta_of_extremal(ext)
    _, holds = check_ultraspherical(P, 2)
    assert not holds


def test_critical_circle_needs_roots():
    ext = extremal_sd_enumerator(2, 2, 2)
    P = _zeta_of_extremal(ext)
    if P.P.degree < 1:
        with pytest.raises(ValueError):
            critical_circle_radii(P)
