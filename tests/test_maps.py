"""Rational maps of P^1 over Q(t): normalization, evaluation, resultants,
fibers, ramification and structural classification."""

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffdyn.heights
from ffdyn import (
    Orbit,
    Place,
    apply_map,
    bad_reduction_places,
    canonical_height,
    choose_m,
    classify_preperiodic,
    compose,
    fiber,
    is_exceptional,
    is_polynomial_iterate,
    max_fiber_ram,
    normalize_map,
    parse_point,
    parse_rational_map,
    power,
    ramification_index,
    ramification_totals,
    resultant,
)
from ffdyn.errors import DomainError
from ffdyn.exprs import _Parser, field_elem_text, map_text
from ffdyn.function_field import FieldElement
from ffdyn.maps import ProjectivePoint, common_factor
from ffdyn import maps
from ffdyn.polynomials import Poly, ZPoly, poly_gcd
from ffdyn.randgen import (
    rand_field_elem,
    rand_fraction,
    rand_map,
    rand_point,
    rand_split_fiber_instance,
    rand_tpoly,
)
from ffdyn.sympybridge import sqf_zpoly_over_k, zpoly_gcd_over_k
from oracles import (
    CharParser,
    conjugate,
    exceptional_by_second_iterate,
    linear_root_multiplicity,
    mobius_inverse,
    monomial_table_eval,
    polynomial_iterate_by_power,
    resultant_sylvester,
    specialization_normalize_map,
)


def pt(text):
    return parse_point(text)


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


def test_point_normalization():
    P = ProjectivePoint.make(Poly.of(0, 2), Poly.of(0, 0, 2))  # [2t : 2t^2]
    assert P == ProjectivePoint.make(Poly.one(), Poly.t())
    assert P.height == 1
    assert ProjectivePoint.infinity().height == 0
    with pytest.raises(DomainError):
        ProjectivePoint.make(Poly.zero(), Poly.zero())


def test_point_affine_round_trip():
    P = pt("(t^2+1)/t")
    assert P.height == 2
    assert ProjectivePoint.from_field(P.affine()) == P
    assert pt("inf").affine() is None


def test_affine_is_the_reduced_fraction_seeded():
    rng = Random(11)
    phi = rand_map(rng, d=2, coeff_deg=1, cmax=2)
    points = [rand_point(rng, max_deg=3, cmax=5) for _ in range(30)]
    points += Orbit(phi, rand_point(rng, max_deg=1, cmax=2)).prefix(5)
    for P in points:
        if not P.is_infinite:
            assert P.affine() == FieldElement.make(P.x0, P.x1)


def test_from_field_is_the_normalized_point_seeded():
    rng = Random(13)
    for _ in range(50):
        x = rand_field_elem(rng, max_deg=4, cmax=7)
        P = ProjectivePoint.from_field(x)
        assert P.affine() == x
        assert P == ProjectivePoint.make(x.num, x.den)


def test_affine_computes_no_gcd(count_calls):
    prefix = Orbit(parse_rational_map("(z^2-t)/z"), pt("t")).prefix(8)
    calls = count_calls("poly_gcd")
    values = [P.affine() for P in prefix]
    assert calls == []
    assert values[2] == FieldElement.make(Poly.of(1, -3, 1), Poly.of(-1, 1))


def in_normal_form(P: ProjectivePoint) -> bool:
    """Integer coordinates, coprime in Q[t], with no common integer factor
    and a positive leading coefficient on x1, or on x0 at infinity."""
    x0, x1 = P.x0, P.x1
    return (
        x0.den == x1.den == 1
        and gcd(*x0.ints, *x1.ints) == 1
        and (x1 if not x1.is_zero else x0).leading > 0
        and poly_gcd(x0, x1).degree == 0
    )


def normal_form_instances() -> list:
    """(phi, points) on seeded maps with rational coefficients: random points,
    0, infinity, a zero of F (so phi(P) = 0) and a zero of G (phi(P) = inf)."""
    rng = Random(31)
    out = []
    while len(out) < 8:
        a, b, e = (rand_tpoly(rng, max_deg=1, cmax=5) for _ in range(3))
        F = ZPoly.of(-a, 1) * ZPoly.of(-b, 1)
        G = ZPoly.of(-e, 1).scale(rand_fraction(rng, cmax=5, nonzero=True))
        phi = normalize_map(F, G)
        if phi.d != 2:  # a or b equals e
            continue
        zero_of_F = ProjectivePoint.from_field(FieldElement.from_poly(a))
        zero_of_G = ProjectivePoint.from_field(FieldElement.from_poly(e))
        assert apply_map(phi, zero_of_F) == ProjectivePoint.zero()
        assert apply_map(phi, zero_of_G) == ProjectivePoint.infinity()
        out.append((phi, [zero_of_F, zero_of_G]))
    for _ in range(4):
        out.append((rand_map(rng, d=rng.randint(2, 3), coeff_deg=2, cmax=5), []))
    for _, points in out:
        points += [pt("0"), pt("inf")]
        points += [rand_point(rng, max_deg=2, cmax=7) for _ in range(4)]
    return out


def test_points_have_one_normal_form_seeded():
    factor = Poly.of(Fraction(-3, 14), Fraction(-3, 7))  # -3/7 * (t + 1/2)
    for phi, points in normal_form_instances():
        for P in points:
            orbit = Orbit(phi, P)
            made = ProjectivePoint.make(P.x0 * factor, P.x1 * factor)
            parsed = parse_point(str(P))
            for Q in [P, apply_map(phi, P), made, parsed] + orbit.prefix(3):
                assert in_normal_form(Q), (str(phi), str(P), Q)
            assert made == P and parsed == P
            if not P.is_infinite:
                assert ProjectivePoint.from_field(P.affine()) == P


def test_point_equality_is_the_cross_product_seeded():
    points = []
    for phi, base in normal_form_instances():
        for P in base:
            points += [P, apply_map(phi, P), parse_point(str(P))]
    equal_pairs = 0
    for P in points:
        for Q in points:
            assert (P == Q) == (P.x0 * Q.x1 - Q.x0 * P.x1).is_zero
            equal_pairs += P == Q
    assert equal_pairs > 2 * len(points)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def test_normalize_removes_content_and_common_factors():
    # (t z^2 + t^2)/t normalizes to z^2 + t
    phi = parse_rational_map("(t*z^2 + t^2)/t")
    assert map_text(phi) == "z^2 + t"
    assert phi.d == 2
    # common z-factor cancels: (z^2 - t*z)/z = z - t
    psi = normalize_map(ZPoly.of(Poly.zero(), -Poly.t(), Poly.one()), ZPoly.z())
    assert psi.d == 1
    assert map_text(psi) == "z - t"


_Z = ZPoly.z()
_T = ZPoly.of(Poly.t())


def _c(q) -> ZPoly:
    return ZPoly.of(Fraction(q))


@pytest.mark.parametrize(
    "F, G, printed",
    [
        # (z^2-t^2)/(z-t)
        (_Z * _Z - _T * _T, _Z - _T, "z + t"),
        # (t*z^2-t)/(t*z-t): shared t-content
        (_T * _Z * _Z - _T, _T * _Z - _T, "z + 1"),
        # ((z-t)*(z^2+1/3*t))/((z-t)*(2*z+5)): rational coefficients
        (
            (_Z - _T) * (_Z * _Z + _c("1/3") * _T),
            (_Z - _T) * (_c(2) * _Z + _c(5)),
            "(3*z^2 + t)/(6*z + 15)",
        ),
        # ((t^2+1)*z^3+z)/((t^2+1)*z^2)
        (
            (_T * _T + _c(1)) * _Z**3 + _Z,
            (_T * _T + _c(1)) * _Z * _Z,
            "((t^2 + 1)*z^2 + 1)/((t^2 + 1)*z)",
        ),
        # (z^2+t)/(3/7*z)
        (_Z * _Z + _T, _c("3/7") * _Z, "(7*z^2 + 7*t)/(3*z)"),
        # ((z+t)^2*(z-1))/((z+t)*(z^2+t)*t^3): cubic common factor
        (
            (_Z + _T) ** 2 * (_Z - _c(1)),
            (_Z + _T) * (_Z * _Z + _T) * _T**3,
            "(z^2 + (t - 1)*z - t)/(t^3*z^2 + t^4)",
        ),
    ],
)
def test_normalize_map_regression(F, G, printed):
    phi = normalize_map(F, G)
    assert map_text(phi) == printed
    assert phi.d == max(phi.F.degree, phi.G.degree)


def test_normalize_sign_convention():
    phi = parse_rational_map("(-z^2 - t)/(-1)")
    assert map_text(phi) == "z^2 + t"


def test_zero_side_normalizes_to_a_constant_map():
    G = ZPoly.of(Poly.t(), 0, 1)  # z^2 + t
    assert normalize_map(ZPoly.zero(), G) == maps.RationalMap(ZPoly.zero(), ZPoly.one(), 0)
    assert normalize_map(G, ZPoly.zero()) == maps.RationalMap(ZPoly.one(), ZPoly.zero(), 0)
    with pytest.raises(DomainError, match="resultant of zero polynomial"):
        resultant(normalize_map(ZPoly.zero(), G))


# ---------------------------------------------------------------------------
# Coprimality certificates: normalize_map, compose, max_fiber_ram
# ---------------------------------------------------------------------------

_POINTS = maps._SPECIALIZATION_POINTS


def _vanishing_at(points) -> Poly:
    """prod (t - t0) over the points: zero at each, nonzero elsewhere."""
    out = Poly.one()
    for t0 in points:
        out = out * Poly.of(-t0, 1)
    return out


def _normalize_by_gcd(F: ZPoly, G: ZPoly):
    """normalize_map with the K[z] gcd always computed."""
    if not F.is_zero and not G.is_zero:
        _, F, G = zpoly_gcd_over_k(F, G)
    return maps._normalize_coprime(F, G)


@pytest.mark.parametrize("j", range(len(_POINTS) + 1))
def test_certificate_skips_points_where_lc_vanishes(j, count_calls):
    # lc_z(F) vanishes at t = 0 and at the first j points tried, where the
    # specializations drop in degree and prove nothing
    lc = _vanishing_at((0,) + _POINTS[:j])
    F = ZPoly.of(Poly.t(), Poly.one(), lc)  # lc*z^2 + z + t
    G = ZPoly.of(Poly.of(0, 0, 1), Poly.one())  # z + t^2
    calls = count_calls("zpoly_gcd_over_k")
    assert maps.coprime_by_specialization(F, G) == (j < len(_POINTS))
    assert normalize_map(F, G) == _normalize_by_gcd(F, G)
    assert len(calls) == (j == len(_POINTS))


@pytest.mark.parametrize("j", range(len(_POINTS) + 1))
def test_certificate_coprime_but_first_specializations_share_a_root(j, count_calls):
    # z - t and z - t - prod(t - t0): coprime over K, equal at the first j points
    F = ZPoly.of(-Poly.t(), Poly.one())
    G = ZPoly.of(-Poly.t() - _vanishing_at(_POINTS[:j]), Poly.one())
    calls = count_calls("zpoly_gcd_over_k")
    assert maps.coprime_by_specialization(F, G) == (j < len(_POINTS))
    phi = normalize_map(F, G)
    assert phi == _normalize_by_gcd(F, G)
    assert phi.d == 1
    assert len(calls) == (j == len(_POINTS))


def test_certificate_never_claims_a_shared_factor_coprime(count_calls):
    # a common factor z - t survives every specialization
    F = ZPoly.of(-Poly.t(), Poly.one()) * ZPoly.of(1, 1)
    G = ZPoly.of(-Poly.t(), Poly.one()) * ZPoly.of(Poly.t(), 0, 1)
    calls = count_calls("zpoly_gcd_over_k")
    assert not maps.coprime_by_specialization(F, G)
    assert map_text(normalize_map(F, G)) == "(z + 1)/(z^2 + t)"
    assert len(calls) == 1


# Pairs that share only a power of z; the last is built from two polynomials
# with which verify --suite prop23 reached the K[z] gcd
COMMON_Z_POWER = [
    "(z^3+t*z)/(z^2-z)",
    "(z^3+t*z)/(z^2-1/3*t*z)",
    "(t*z^4 + z^2)/(z^5 - t*z^2)",
    "z^2/(z^3 + z^2 + t*z^2)",
    "((3*t + 1/3)*z^2 + 2*z)/(1/3*z^2 + (-3/2*t + 3/2)*z)",
]


@pytest.mark.parametrize("text", COMMON_Z_POWER)
def test_common_power_of_z_is_divided_out_natively(text, count_calls):
    calls = count_calls("zpoly_gcd_over_k")
    phi = parse_rational_map(text)
    assert calls == []
    F, G = _Parser(text, "map").parse().zpolys()
    assert phi == _normalize_by_gcd(F, G)


# One side is a single term c*z^k: after the common power of z, no gcd and no
# specialization is needed.
MONOMIAL_SIDE = [
    "(z^3+t*z)/(2*z)",
    "(t*z^2)/(3*z)",
    "z^2/(0*z+3)",
    "(z^2+t)/(t*z)",
    "z/(z^2+1)",
    "z^2/(t+1)",
    "(t^2-1)*z^3/((t+1)*z^2+(t-1)*z)",
    "(z^2+t*z)/((t^2+1)*z^3)",
    "-z^2/(-2*t*z)",
]


@pytest.mark.parametrize("text", MONOMIAL_SIDE)
def test_monomial_side_matches_specialization_route(text, count_calls):
    F, G = CharParser(text, "map").parse().zpolys()
    expected = specialization_normalize_map(F, G)
    calls = count_calls("coprime_by_specialization")
    gcds = count_calls("zpoly_gcd_over_k")
    phi = parse_rational_map(text)
    assert (calls, gcds) == ([], [])
    assert phi == expected == _normalize_by_gcd(F, G)
    assert normalize_map(G, F) == specialization_normalize_map(G, F)


def test_monomial_side_seeded(count_calls):
    # F/(c*z^k) and (c*z^k)/F, each times a common z^j, against the route
    # the exit skips
    rng = Random(73)
    calls = count_calls("coprime_by_specialization")
    shifted = 0
    for _ in range(300):
        F = ZPoly.from_list([rand_tpoly(rng, 2, 4) for _ in range(rng.randint(1, 4))])
        if F.is_zero:
            continue
        k, j = rng.randint(0, 3), rng.choice([0, 0, 1, 2])
        c = rand_tpoly(rng, 2, 4, nonzero=True)
        G = ZPoly.from_list([Poly.zero()] * k + [c])
        zj = ZPoly.from_list([Poly.zero()] * j + [Poly.one()])
        F, G = F * zj, G * zj
        if rng.random() < 0.5:
            F, G = G, F
        shifted += F.coeffs[0].is_zero and G.coeffs[0].is_zero
        assert normalize_map(F, G) == specialization_normalize_map(F, G)
    assert calls == [] and shifted > 50
    # rand_map normalizes through either route; the oracle must agree
    for _ in range(100):
        phi = rand_map(rng, d=rng.choice([1, 2, 3]))
        assert specialization_normalize_map(phi.F, phi.G) == phi


def test_common_power_of_z_loads_no_sympy():
    code = (
        "import sys\n"
        "import ffdyn\n"
        f"for text in {COMMON_Z_POWER!r}:\n"
        "    ffdyn.parse_rational_map(text)\n"
        "sys.exit('sympy' in sys.modules)\n"
    )
    src = str(Path(maps.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr


zcoeffs = st.lists(st.integers(-3, 3), min_size=0, max_size=3).map(Poly.from_list)
small_zpolys = st.lists(zcoeffs, min_size=1, max_size=3).map(ZPoly.from_list)


@given(small_zpolys, small_zpolys, small_zpolys)
@settings(max_examples=150, deadline=None)
def test_certificate_agrees_with_the_gcd(F, G, common):
    F, G = F * common, G * common
    if F.is_zero or G.is_zero:
        return
    if maps.coprime_by_specialization(F, G):
        assert zpoly_gcd_over_k(F, G)[0] == ZPoly.one()
    assert normalize_map(F, G) == _normalize_by_gcd(F, G)


_README_MAPS = ("z^2+t", "z^2", "(z^2-t)/z", "t*z^2", "(3*z^2+t)/(t*z-2)")


def test_readme_maps_and_compose_call_no_kz_gcd(count_calls):
    calls = count_calls("zpoly_gcd_over_k")
    rng = Random(17)
    phis = [parse_rational_map(text) for text in _README_MAPS]
    phis += [rand_map(rng, d=rng.randint(2, 3), coeff_deg=2, cmax=3) for _ in range(10)]
    for phi in phis:
        psi = compose(phi, phi)
        assert psi.d == phi.d**2
        assert psi == _normalize_by_gcd(
            phi.F.homogeneous_eval(phi.F, phi.G, phi.d),
            phi.G.homogeneous_eval(phi.F, phi.G, phi.d),
        )
    assert calls == []


def test_compose_matches_the_monomial_table_route():
    # the flattened kernel against the ZPoly monomial table, on composites
    # of several degrees and heights
    rng = Random(29)
    phis = [parse_rational_map(text) for text in _README_MAPS]
    phis += [rand_map(rng, d=rng.randint(2, 3), coeff_deg=3, cmax=9) for _ in range(6)]
    phis.append(power(phis[0], 3))
    for phi in phis:
        for psi in rng.sample(phis, 4):
            F, G = (monomial_table_eval(form, psi.F, psi.G, phi.d) for form in (phi.F, phi.G))
            assert compose(phi, psi) == maps._normalize_coprime(F, G)


def test_max_fiber_ram_matches_squarefree_decomposition():
    rng = Random(23)
    cases = []
    for _ in range(8):
        phi, A, _ = rand_split_fiber_instance(rng, d=rng.randint(2, 3))
        cases.append((phi, A))  # fibers with a totally ramified point
        cases.append((phi, rand_point(rng, max_deg=1, cmax=2)))
    cases.append((parse_rational_map("(z^2-t)/z"), pt("0")))
    cases.append((parse_rational_map("z^2+t"), pt("inf")))
    cases.append((parse_rational_map("z^2+t"), pt("t")))
    ramified = set()
    for phi, A in cases:
        for m in (1, 2, 3):
            psi = power(phi, m)
            W = maps.fiber_polynomial(psi, A)
            mults = [mult for _, mult in sqf_zpoly_over_k(W)]
            mults += [psi.d - W.degree] if psi.d > W.degree else []
            assert max_fiber_ram(phi, m, A) == max(mults), (str(phi), str(A), m)
            ramified.add(max(mults) > 1)
    assert ramified == {False, True}


# ---------------------------------------------------------------------------
# Resultant (two independent routes)
# ---------------------------------------------------------------------------


def test_resultant_examples(quad_poly_map, quad_quotient_map, monomial_map):
    assert resultant(quad_poly_map) == Poly.one()
    assert resultant(quad_quotient_map).monic() == Poly.t()
    assert resultant(monomial_map).monic() == Poly.t() ** 2
    assert bad_reduction_places(quad_poly_map) == frozenset()
    assert bad_reduction_places(monomial_map) == frozenset({Place.finite(Poly.t())})


def test_resultant_routes_agree_seeded():
    rng = Random(3)
    for _ in range(25):
        phi = rand_map(rng, d=rng.choice([2, 3]))
        fast = resultant(phi)
        slow = resultant_sylvester(phi)
        assert not slow.is_zero
        assert fast.monic() == slow.monic()


# ---------------------------------------------------------------------------
# Common factors against the resultant
# ---------------------------------------------------------------------------

small_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(Poly.from_list)
factor_polys = st.lists(st.integers(-2, 2), min_size=2, max_size=3).map(Poly.from_list)


@settings(max_examples=150, deadline=None)
@given(
    parts=st.lists(st.tuples(factor_polys, st.integers(1, 3)), max_size=3),
    extra=small_polys,
    a0=small_polys,
    b0=small_polys,
    a_in_res=st.booleans(),
)
def test_common_factor_matches_gcd(parts, extra, a0, b0, a_in_res):
    g = Poly.one()
    for p, e in parts:
        if p.degree > 0:
            g = g * p**e
    res = g * (extra if not extra.is_zero else Poly.one())
    a = a0 * (res if a_in_res else g)  # res | a: a zero remainder
    b = b0 * g
    got = common_factor(a, b, res)
    assert got == poly_gcd(poly_gcd(a, b), res)
    if poly_gcd(a, b).divides(res):
        assert got == poly_gcd(a, b)


def test_common_factor_examples():
    t, u = Poly.t(), Poly.of(1, 1)  # u = t + 1
    res = t**3 * u**2  # repeated factors, e = 3 and 2
    a = t**2 * u**2 * Poly.of(-5, 1)
    b = t**4 * u * Poly.of(7, 1)
    assert common_factor(a, b, res) == t**2 * u
    # a constant resultant admits no common factor
    assert common_factor(a, b, Poly.constant(6)) == Poly.one()
    # a zero remainder on both sides gives res itself, made monic
    assert common_factor(res.scale(3), res * Poly.of(-2, 1), res.scale(-2)) == res
    assert common_factor(Poly.zero(), b, res) == t**3 * u


@pytest.mark.parametrize(
    "text, point, depth",
    [
        ("(z^2-t)/z", "t", 16),
        ("z^2/(t^2*(t+1))", "t^2*(t+1)*(t+2)", 8),
        ("((t-1)*z^2+z)/((t-1)^2)", "1/(t-1)", 8),
    ],
)
def test_orbit_paths_do_not_factor(count_calls, text, point, depth):
    # nothing on the orbit paths is factored, but for the resultant, which
    # the finite part of the stable certificate factors once per map
    phi = parse_rational_map(text)
    P = pt(point)
    assert resultant(phi).degree > 0
    ffdyn.heights._reductions.cache_clear()
    calls = count_calls("factor_tpoly")
    apply_map(phi, P)
    classify_preperiodic(phi, P)
    assert calls == []
    canonical_height(phi, P, depth)
    canonical_height(phi, pt("t"), depth)
    assert calls in ([], [(resultant(phi),)])


# ---------------------------------------------------------------------------
# Evaluation and iteration
# ---------------------------------------------------------------------------


def test_apply_examples(quad_poly_map, quad_quotient_map):
    assert apply_map(quad_poly_map, pt("0")) == pt("t")
    assert apply_map(quad_poly_map, pt("inf")) == pt("inf")
    assert apply_map(quad_quotient_map, pt("t")) == pt("t - 1")
    # poles map to infinity
    assert apply_map(quad_quotient_map, pt("0")) == pt("inf")


def test_apply_reduction_keeps_coordinates_coprime(quad_quotient_map):
    from ffdyn.polynomials import poly_gcd

    orbit = Orbit(quad_quotient_map, pt("t")).prefix(5)
    for P in orbit:
        assert poly_gcd(P.x0, P.x1).degree <= 0
    # height pattern 2^(n-2) for this orbit
    assert [P.height for P in orbit] == [1, 1, 2, 4, 8, 16]


def test_compose_and_power(quad_quotient_map):
    sq = power(quad_quotient_map, 2)
    assert map_text(sq) == "(z^4 - 3*t*z^2 + t^2)/(z^3 - t*z)"
    assert sq.d == 4
    assert power(quad_quotient_map, 1) == quad_quotient_map
    assert power(quad_quotient_map, 0).d == 1
    assert compose(quad_quotient_map, quad_quotient_map) == sq


def test_power_matches_pointwise_iteration(quad_poly_map):
    rng = Random(5)
    cube = power(quad_poly_map, 3)
    for _ in range(10):
        P = rand_point(rng, max_deg=1, cmax=3)
        assert apply_map(cube, P) == Orbit(quad_poly_map, P)[3]


# ---------------------------------------------------------------------------
# Fibers and ramification
# ---------------------------------------------------------------------------


def test_fiber_examples(quad_poly_map, quad_quotient_map):
    # fiber of z^2+t over t is {0} with multiplicity 2
    fd = fiber(quad_poly_map, pt("t"))
    assert fd.infinity_multiplicity == 0
    assert fd.factors == ((ZPoly.z(), 2),)
    assert fd.degree_sum() == 2
    # fiber of z^2+t over infinity is {infinity} with multiplicity 2
    fd_inf = fiber(quad_poly_map, pt("inf"))
    assert fd_inf.infinity_multiplicity == 2
    assert fd_inf.factors == ()
    # fiber of (z^2-t)/z over infinity: {0, infinity} each with multiplicity 1
    fd2 = fiber(quad_quotient_map, pt("inf"))
    assert fd2.infinity_multiplicity == 1
    assert fd2.factors == ((ZPoly.z(), 1),)


def test_fiber_with_irreducible_factor(quad_poly_map):
    # fiber over 0: z^2 + t = 0, irreducible over Q(t)
    fd = fiber(quad_poly_map, pt("0"))
    assert len(fd.factors) == 1
    factor, mult = fd.factors[0]
    assert factor.degree == 2 and mult == 1
    assert fd.degree_sum() == 2


def test_ramification_index(quad_poly_map, quad_quotient_map):
    assert ramification_index(quad_poly_map, pt("0")) == 2
    assert ramification_index(quad_poly_map, pt("1")) == 1
    assert ramification_index(quad_poly_map, pt("inf")) == 2
    assert ramification_index(quad_quotient_map, pt("inf")) == 1


def _ramification_by_synthetic_division(phi, P):
    W = maps.fiber_polynomial(phi, apply_map(phi, P))
    return linear_root_multiplicity(W, P.affine())


def test_ramification_index_matches_synthetic_division():
    # random maps at random finite points, then maps built as F = a*G + W
    # with W divisible by (x1 z - x0)^e, e >= 2, at P = [x0 : x1] with
    # deg x1 >= 1, so that phi(P) = a and P has multiplicity e or more
    rng = Random(83)
    for _ in range(30):
        phi = rand_map(rng, d=rng.choice([2, 3]), coeff_deg=1, cmax=3)
        P = rand_point(rng, max_deg=2, cmax=3)
        if not P.is_infinite:
            assert ramification_index(phi, P) == _ramification_by_synthetic_division(phi, P)
    checked = 0
    while checked < 15:
        d = rng.choice([2, 3, 4])
        e = rng.randint(2, d)
        P = ProjectivePoint.make(rand_tpoly(rng, 2, cmax=3), rand_tpoly(rng, 2, cmax=3))
        if P.x1.degree < 1:
            continue
        cofactor = ZPoly.from_list([rand_tpoly(rng, 1, cmax=3) for _ in range(d - e)]
                                   + [rand_tpoly(rng, 1, cmax=3, nonzero=True)])
        W = ZPoly.of(-P.x0, P.x1) ** e * cofactor
        G = ZPoly.from_list([rand_tpoly(rng, 1, cmax=3) for _ in range(d)])
        if G.is_zero:
            continue
        phi = normalize_map(G.scale_poly(rand_tpoly(rng, 1, cmax=3)) + W, G)
        try:
            resultant(phi)
        except DomainError:
            continue
        if phi.d != d:
            continue
        expected = _ramification_by_synthetic_division(phi, P)
        assert expected >= e
        assert ramification_index(phi, P) == expected
        checked += 1


def test_ramification_multiplicativity(quad_poly_map):
    rng = Random(9)
    sq = power(quad_poly_map, 2)
    for _ in range(10):
        P = rand_point(rng, max_deg=1, cmax=2)
        e1 = ramification_index(quad_poly_map, P)
        e2 = ramification_index(quad_poly_map, apply_map(quad_poly_map, P))
        assert ramification_index(sq, P) == e1 * e2


def test_riemann_hurwitz_totals(quad_poly_map, quad_quotient_map, monomial_map):
    for phi in (quad_poly_map, quad_quotient_map, monomial_map):
        finite, inf_part, target = ramification_totals(phi)
        assert finite + inf_part == target == 2 * phi.d - 2


def test_max_fiber_ram_and_choose_m(quad_quotient_map):
    # over A = 0 the ramification of iterates decays relative to d^m
    assert choose_m(quad_quotient_map, pt("0"), Fraction(1, 2)) == 4
    e1 = max_fiber_ram(quad_quotient_map, 1, pt("0"))
    e2 = max_fiber_ram(quad_quotient_map, 2, pt("0"))
    assert e2 <= quad_quotient_map.d * e1  # ratio e_m/d^m never increases
    with pytest.raises(DomainError):
        choose_m(quad_quotient_map, pt("0"), Fraction(2))


def test_choose_m_to_cap_two_composes_nothing(count_calls, capsys):
    from ffdyn.cli import main

    calls = count_calls("compose")
    argv = ["choose-m", "--map", "(z^2 + 7*t)/(z - 5)", "--target", "3"]
    assert main(argv + ["--epsilon", "1", "--cap", "2"]) != 0
    assert "no admissible level found up to cap 2" in capsys.readouterr().err
    assert calls == []


def test_choose_m_rejects_exceptional(quad_poly_map):
    with pytest.raises(DomainError):
        choose_m(quad_poly_map, pt("inf"), Fraction(1, 2))


def test_is_exceptional(quad_poly_map, quad_quotient_map, monomial_map):
    assert is_exceptional(quad_poly_map, pt("inf"))
    assert not is_exceptional(quad_poly_map, pt("0"))
    assert not is_exceptional(quad_quotient_map, pt("inf"))
    # monomial maps: 0 and infinity are both exceptional
    assert is_exceptional(monomial_map, pt("0"))
    assert is_exceptional(monomial_map, pt("inf"))


# (map, points that are exceptional, points that are not, j with phi^j a
# polynomial among 1..4)
EXCEPTIONAL_CASES = [
    # 0 and infinity form an exceptional 2-cycle
    ("1/z^2", ["0", "inf"], ["1", "t", "-1"], [2, 4]),
    ("t/z^2", ["0", "inf"], ["t", "1"], [2, 4]),
    ("1/(t*z^3)", ["0", "inf"], ["1/t", "1"], [2, 4]),
    # 0 and infinity are exceptional fixed points
    ("t*z^2", ["0", "inf"], ["1", "t"], [1, 2, 3, 4]),
    ("z^2+t", ["inf"], ["0", "t", "-t"], [1, 2, 3, 4]),
    ("(z-t)^2", ["inf"], ["t", "0"], [1, 2, 3, 4]),
    # phi^-1(0) = {t} and phi^-1(inf) = {1}, but the fibers over t and 1 are
    # not single points
    ("(z-t)^2/(z-1)^2", [], ["0", "inf", "t", "1"], []),
    # phi^-1(inf) = {0} and phi^-1(0) = {t}, a chain that does not close up
    ("(z-t)^2/z^2", [], ["0", "inf", "t", "1"], []),
    ("(z^2-t)/z", [], ["0", "inf", "t"], []),
]


@pytest.mark.parametrize("case", EXCEPTIONAL_CASES, ids=lambda c: c[0])
def test_exceptional_points_and_polynomial_iterates(case):
    text, exceptional, ordinary, polynomial_j = case
    phi = parse_rational_map(text)
    for A in exceptional:
        assert is_exceptional(phi, pt(A)) and exceptional_by_second_iterate(phi, pt(A))
    for A in ordinary:
        assert not is_exceptional(phi, pt(A))
        assert not exceptional_by_second_iterate(phi, pt(A))
    for j in range(1, 5):
        assert is_polynomial_iterate(phi, j) == (j in polynomial_j)
        assert polynomial_iterate_by_power(phi, j) == (j in polynomial_j)


def test_exceptional_finite_two_cycle():
    # 1/z^2 conjugated by M(z) = (z - t)/(z - 1), which sends t to 0 and 1 to
    # infinity: t and 1 form an exceptional 2-cycle, and infinity is not
    # exceptional, so no iterate is a polynomial
    M = parse_rational_map("(z - t)/(z - 1)")
    phi = conjugate(parse_rational_map("1/z^2"), M)
    assert is_exceptional(phi, pt("t")) and is_exceptional(phi, pt("1"))
    assert not is_exceptional(phi, pt("inf")) and not is_exceptional(phi, pt("0"))
    assert not any(is_polynomial_iterate(phi, j) for j in range(1, 5))


def _exceptional_test_cases(rng: Random) -> list:
    """(phi, points) for random maps, and for conjugates of z^d, t*z^d and
    1/z^d by random Moebius maps M, so that exceptional fixed points and
    2-cycles occur away from 0 and infinity. The conjugate's exceptional set
    is M^-1({0, inf}), and the points include it."""
    cases = []
    for _ in range(6):
        phi = rand_map(rng, d=2, coeff_deg=1, cmax=3)
        cases.append((phi, [pt("0"), pt("inf"), rand_point(rng, max_deg=1, cmax=2)]))
    for shape in ("z^2", "t*z^2", "1/z^2", "z^3", "1/(t*z^3)"):
        a = field_elem_text(rand_field_elem(rng, max_deg=1, cmax=2))
        b = field_elem_text(rand_field_elem(rng, max_deg=1, cmax=2))
        moebius = [(f"z - ({a})", [a, "inf"])]
        if a != b:  # else the quotient is constant
            moebius.append((f"(z - ({a}))/(z - ({b}))", [a, b]))
        for M, points in moebius:
            phi = conjugate(parse_rational_map(shape), parse_rational_map(M))
            cases.append((phi, [pt(x) for x in points] + [pt("0"), pt("inf")]))
    return cases


@pytest.mark.parametrize("seed", range(6))
def test_exceptional_matches_second_iterate_seeded(seed):
    rng = Random(4100 + seed)
    for phi, points in _exceptional_test_cases(rng):
        for A in points:
            assert is_exceptional(phi, A) == exceptional_by_second_iterate(phi, A)
        for j in range(1, 5 if phi.d == 2 else 4):
            assert is_polynomial_iterate(phi, j) == polynomial_iterate_by_power(phi, j)


# ---------------------------------------------------------------------------
# Structural classification
# ---------------------------------------------------------------------------


def _linear_power(c: Poly, g: FieldElement, d: int) -> ZPoly:
    """c * (den(g) z - num(g))^d, a d-th power with root g."""
    return (ZPoly.of(-g.num, g.den) ** d).scale_poly(c)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pure_power_root_matches_synthetic_division(d):
    # powers with a root outside Q[t], near misses that differ from one only
    # in the constant term, and random forms, against the multiplicity of
    # the only candidate root -W_(d-1)/(d W_d)
    rng = Random(40 + d)
    for _ in range(20):
        g = rand_field_elem(rng, max_deg=2, nonzero=rng.random() < 0.8)
        W = _linear_power(rand_tpoly(rng, 2, nonzero=True), g, d)
        near = W + ZPoly.of(rand_tpoly(rng, 0, nonzero=True))
        other = ZPoly.from_list(
            [rand_tpoly(rng, 2) for _ in range(d)] + [rand_tpoly(rng, 2, nonzero=True)]
        )
        assert maps._pure_linear_power_root(W, d) == g
        for V in (W, near, other):
            root = FieldElement.make(-V.coeff(d - 1), V.leading.scale(d))
            found = maps._pure_linear_power_root(V, d)
            if linear_root_multiplicity(V, root) == d:
                assert found == root
            else:
                assert found is None
        assert maps._pure_linear_power_root(near, d) is None


def test_is_polynomial_iterate(quad_poly_map, quad_quotient_map):
    assert is_polynomial_iterate(quad_poly_map, 1)
    assert is_polynomial_iterate(quad_poly_map, 2)
    assert not is_polynomial_iterate(quad_quotient_map, 1)
    assert not is_polynomial_iterate(quad_quotient_map, 2)


def test_mobius_inverse():
    M = parse_rational_map("(t*z+1)/(z-1)")
    Minv = mobius_inverse(M)
    assert compose(M, Minv).F == ZPoly.z()
    assert compose(M, Minv).G == ZPoly.one()
