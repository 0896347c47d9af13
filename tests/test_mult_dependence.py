"""Multiplicative dependence searches, the polynomial case split, and zero
scans of split multilinear forms along orbits."""

from fractions import Fraction
from math import gcd

import pytest

from ffdyn import (
    DependenceQuery,
    FieldElement,
    Place,
    SplitMultilinearForm,
    dependence_search,
    is_S_unit,
    ord_at,
    parse_field_elem,
    parse_point,
    parse_rational_map,
    parse_split_form,
    place_set,
    poly_case_classifier,
    saturate_exponents,
    split_multilinear_zero_scan,
    unit_hits,
)
from ffdyn.errors import DomainError
from ffdyn.heights import Preperiodic, classify_preperiodic
from ffdyn.maps import ProjectivePoint, apply_map, conjugate
from ffdyn.mult_dependence import _affine_orbit, _zero_is_periodic
from ffdyn.polynomials import Poly


def pt(text):
    return parse_point(text)


S_T_INF = place_set([Place.finite(Poly.t()), Place.infinity()])


# ---------------------------------------------------------------------------
# S-unit hits
# ---------------------------------------------------------------------------


def test_unit_hits_monomial(monomial_map):
    # t z^2 at alpha = 1: iterates t, t^3, t^7, ... all {t, inf}-units
    assert unit_hits(monomial_map, pt("1"), S_T_INF, 5) == [1, 2, 3, 4, 5]


def test_unit_hits_generic(quad_poly_map, S_inf):
    # z^2 + t at 0: iterates t, t^2+t, ... only n = 1 is a unit for {inf}
    # (a polynomial is an {inf}-unit iff it is a nonzero constant) -> none
    assert unit_hits(quad_poly_map, pt("0"), S_inf, 5) == []
    # with (t) added, n = 1 (value t) qualifies but t^2 + t = t(t+1) does not
    assert unit_hits(quad_poly_map, pt("0"), S_T_INF, 5) == [1]


def test_unit_hits_validates(quad_poly_map, S_inf):
    with pytest.raises(DomainError):
        unit_hits(quad_poly_map, pt("0"), S_inf, 0)


# ---------------------------------------------------------------------------
# Dependence search
# ---------------------------------------------------------------------------


def test_query_validation(S_inf):
    with pytest.raises(DomainError):
        DependenceQuery(pt("inf"), S_inf, 1, 1, 1, 1)
    with pytest.raises(DomainError):
        DependenceQuery(pt("0"), S_inf, 0, 1, 1, 1)


def test_search_generic_box_is_empty(quad_poly_map, S_inf):
    q = DependenceQuery(pt("0"), S_inf, n_max=3, k_max=3, r_max=3, s_max=3)
    report = dependence_search(quad_poly_map, q)
    assert report.solutions == ()
    assert report.wandering_certified


def test_search_monomial_box_is_full(monomial_map):
    # t z^2 at alpha = t: every iterate is a power of t, so every (n, k)
    # admits a dependence over S = {(t), inf}
    q = DependenceQuery(pt("t"), S_T_INF, n_max=3, k_max=3, r_max=4, s_max=9)
    report = dependence_search(monomial_map, q)
    covered = {(sol.n, sol.k) for sol in report.solutions}
    assert covered == {(n, k) for n in (1, 2, 3) for k in (1, 2, 3)}
    # phi(t) = t^3, phi^2(t) = t^7: r = 1, s = 1 already witnesses (1, 1)
    shapes = {(s.r, s.s) for s in report.solutions if (s.n, s.k) == (1, 1)}
    assert (1, 1) in shapes


def test_solutions_independently_reverified(monomial_map):
    q = DependenceQuery(pt("t"), S_T_INF, n_max=2, k_max=2, r_max=3, s_max=5)
    report = dependence_search(monomial_map, q)
    assert report.solutions
    orbit = _affine_orbit(monomial_map, pt("t"), 4)
    for sol in report.solutions:
        assert gcd(sol.r, abs(sol.s)) == 1 and sol.r > 0 and sol.s != 0
        u = orbit[sol.n + sol.k] ** sol.r / orbit[sol.k] ** sol.s
        assert u == sol.u
        assert sol.verify(S_T_INF)
        assert is_S_unit(u, S_T_INF)


def test_diagonal_r_s_one_needs_special_structure(quad_poly_map, S_inf):
    # for z^2 + t the heights of phi^{n+k} and phi^k differ, so u = f/g has
    # positive height and cannot be an S-unit for S = {inf}
    q = DependenceQuery(pt("0"), S_inf, n_max=2, k_max=2, r_max=1, s_max=1)
    assert dependence_search(quad_poly_map, q).solutions == ()


def test_search_matches_brute_force(monomial_map):
    # independent brute force over the same box
    q = DependenceQuery(pt("1"), S_T_INF, n_max=2, k_max=2, r_max=2, s_max=3)
    report = dependence_search(monomial_map, q)
    orbit = _affine_orbit(monomial_map, pt("1"), 4)
    expected = set()
    for n in (1, 2):
        for k in (1, 2):
            for r in (1, 2):
                for s in (-3, -2, -1, 1, 2, 3):
                    if gcd(r, abs(s)) != 1:
                        continue
                    u = orbit[n + k] ** r / orbit[k] ** s
                    if is_S_unit(u, S_T_INF):
                        expected.add((n, k, r, s))
    assert {(s.n, s.k, s.r, s.s) for s in report.solutions} == expected


def test_search_rejects_preperiodic(S_inf):
    sq = parse_rational_map("z^2")
    q = DependenceQuery(pt("1"), S_inf, 1, 1, 1, 1)
    with pytest.raises(DomainError, match="preperiodic"):
        dependence_search(sq, q)
    # attestation overrides the wandering check
    report = dependence_search(sq, q, wandering_attested=True)
    assert not report.wandering_certified


def test_zero_not_periodic_flag(quad_poly_map, monomial_map, S_inf):
    q = DependenceQuery(pt("0"), S_inf, 1, 1, 1, 1)
    assert dependence_search(quad_poly_map, q).zero_not_periodic
    # t z^2 fixes 0, so zero IS periodic
    q2 = DependenceQuery(pt("t"), S_T_INF, 1, 1, 1, 1)
    assert not dependence_search(monomial_map, q2).zero_not_periodic


def test_zero_periodic_at_large_height():
    # psi = M^-1 o (z^2 - 1) o M with M = z/(1 + t^70 z): 0 has period 2
    # under psi, through a point of height 70
    M = parse_rational_map("z/(1 + t^70*z)")
    psi = conjugate(parse_rational_map("z^2 - 1"), M)
    zero = ProjectivePoint.zero()
    assert apply_map(psi, zero).height == 70
    assert classify_preperiodic(psi, zero) == Preperiodic(tail=0, cycle=2)
    assert _zero_is_periodic(psi)


def test_saturate_exponents():
    assert saturate_exponents(4, -6) == (2, -3)
    assert saturate_exponents(-1, 5) == (1, -5)
    assert saturate_exponents(3, 7) == (3, 7)
    assert saturate_exponents(-2, -4) == (1, 2)
    with pytest.raises(DomainError):
        saturate_exponents(0, 5)
    with pytest.raises(DomainError):
        saturate_exponents(5, 0)


# ---------------------------------------------------------------------------
# Polynomial-case classifier
# ---------------------------------------------------------------------------


def test_classifier_cases_A(monomial_map):
    # alpha = t is integral away from S_phi, so only the exponent shape matters
    q = DependenceQuery(pt("t"), S_T_INF, n_max=2, k_max=2, r_max=3, s_max=4)
    report = dependence_search(monomial_map, q)
    seen = {}
    for sol in report.solutions:
        ev = poly_case_classifier(monomial_map, sol, S_T_INF)
        assert ev.alpha_integral
        if sol.s < 0:
            assert ev.label == "A.1"
        elif sol.s >= 2:
            assert ev.label == "A.2"
        elif sol.r >= 2:
            assert ev.label == "A.3"
        else:
            assert ev.label == "A.4"
        seen[ev.label] = seen.get(ev.label, 0) + 1
    assert {"A.1", "A.4"} <= set(seen)


def test_classifier_case_B(quad_poly_map, S_inf):
    # alpha = 1/t has a pole at (t), a good-reduction place outside S = {inf};
    # under z^2 + t the pole order doubles every step
    alpha = pt("1/t")
    q = DependenceQuery(alpha, S_inf, n_max=1, k_max=1, r_max=1, s_max=2)
    report = dependence_search(quad_poly_map, q, wandering_attested=True)
    # classify a synthetic solution to exercise the branch even if the box
    # found none
    from ffdyn.mult_dependence import DependenceSolution

    orbit = _affine_orbit(quad_poly_map, alpha, 2)
    sol = DependenceSolution(
        n=1, k=1, r=1, s=2, u=orbit[2] / orbit[1] ** 2, alpha=alpha, rho=2.0
    )
    ev = poly_case_classifier(quad_poly_map, sol, S_inf)
    assert ev.label == "B"
    assert not ev.alpha_integral
    assert ev.witness_place == Place.finite(Poly.t())
    assert ev.valuation_pattern_ok  # ord doubles: -1, -2, -4
    assert ev.shape_ok  # r = 1, s = d^n = 2
    v = Place.finite(Poly.t())
    assert [ord_at(x, v) for x in orbit] == [-1, -2, -4]
    # usable directly on any found solutions too
    for found in report.solutions:
        assert poly_case_classifier(quad_poly_map, found, S_inf).label == "B"


def test_classifier_requires_polynomial(quad_quotient_map, S_inf):
    from ffdyn.mult_dependence import DependenceSolution

    sol = DependenceSolution(
        n=1, k=1, r=1, s=1, u=FieldElement.one(), alpha=pt("t"), rho=1.0
    )
    with pytest.raises(DomainError, match="polynomial"):
        poly_case_classifier(quad_quotient_map, sol, S_inf)


def test_classifier_total_on_monomial_box(monomial_map):
    # every solution in the box receives exactly one label
    q = DependenceQuery(pt("t"), S_T_INF, n_max=2, k_max=2, r_max=2, s_max=4)
    for sol in dependence_search(monomial_map, q).solutions:
        ev = poly_case_classifier(monomial_map, sol, S_T_INF)
        assert ev.label in {"A.1", "A.2", "A.3", "A.4", "B"}


# ---------------------------------------------------------------------------
# Split multilinear forms
# ---------------------------------------------------------------------------


def one():
    return FieldElement.one()


def test_form_validation():
    with pytest.raises(DomainError, match="two blocks"):
        SplitMultilinearForm(2, ((1, 2), (2,)), (one(), one()))
    with pytest.raises(DomainError, match="cover"):
        SplitMultilinearForm(2, ((1,),), (one(),))
    with pytest.raises(DomainError, match="out of range"):
        SplitMultilinearForm(1, ((1, 2),), (one(),))
    with pytest.raises(DomainError, match="coefficient per block"):
        SplitMultilinearForm(1, ((1,),), (one(), one()))
    with pytest.raises(DomainError, match="zero coefficient"):
        SplitMultilinearForm(1, ((1,),), (FieldElement.zero(),))


def test_form_evaluate():
    # T1*T2 - t*T3 + 1  (constant block empty)
    t = parse_field_elem("t")
    form = SplitMultilinearForm(
        3, ((1, 2), (3,), ()), (one(), -t, one())
    )
    vals = [parse_field_elem(s) for s in ("t", "t+1", "1/t")]
    out = form.evaluate(vals)
    assert out == parse_field_elem("t*(t+1) - t*(1/t) + 1")
    with pytest.raises(DomainError):
        form.evaluate(vals[:2])


def test_zero_scan_simple_hit(quad_poly_map):
    # T1 - t vanishes exactly where the orbit of 0 visits t, i.e. n = 1
    form = parse_split_form("T1 - t")
    report = split_multilinear_zero_scan(form, quad_poly_map, pt("0"), 4)
    assert report.zero_tuples == ((1,),)
    assert report.scanned == 5
    assert report.skipped == ()


def test_zero_scan_bilinear(monomial_map):
    # orbit of 1 under t z^2: 1, t, t^3, t^7; T1 - t^2*T2 vanishes at
    # (n1, n2) = (2, 1): t^3 = t^2 * t
    form = parse_split_form("T1 - t^2*T2")
    report = split_multilinear_zero_scan(form, monomial_map, pt("1"), 3)
    assert (2, 1) in report.zero_tuples
    for combo in report.zero_tuples:
        assert combo[0] > combo[1]  # strictly decreasing tuples only


def test_zero_scan_no_hits(quad_poly_map):
    form = parse_split_form("T1*T2 + 1")
    report = split_multilinear_zero_scan(form, quad_poly_map, pt("0"), 4)
    assert report.zero_tuples == ()
    assert report.scanned == 10  # C(5, 2)


def test_zero_scan_skips_infinity(quad_quotient_map):
    # orbit of 0 under (z^2 - t)/z passes through infinity at n = 1
    form = parse_split_form("T1 - t")
    report = split_multilinear_zero_scan(form, quad_quotient_map, pt("0"), 2)
    assert (1,) in report.skipped


def test_zero_scan_validates(quad_poly_map):
    form = parse_split_form("T1 - t")
    with pytest.raises(DomainError):
        split_multilinear_zero_scan(form, quad_poly_map, pt("inf"), 3)
    with pytest.raises(DomainError):
        split_multilinear_zero_scan(form, quad_poly_map, pt("0"), 0)
