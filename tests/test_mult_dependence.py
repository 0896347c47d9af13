"""Multiplicative dependence searches, the polynomial case split, and zero
scans of split multilinear forms along orbits."""

from fractions import Fraction
from math import gcd
from random import Random

import pytest

from ffdyn import (
    DependenceQuery,
    FieldElement,
    Orbit,
    Place,
    SplitMultilinearForm,
    dependence_search,
    is_S_unit,
    ord_at,
    parse_field_elem,
    parse_places,
    parse_point,
    parse_rational_map,
    parse_split_form,
    poly_case_split,
    split_multilinear_zero_scan,
    unit_hits,
)
import ffdyn.function_field as function_field
import ffdyn.mult_dependence as mult_dependence
from ffdyn.errors import DomainError
from ffdyn.heights import Preperiodic, classify_preperiodic
from ffdyn.maps import ProjectivePoint, apply_map
from ffdyn.mult_dependence import _zero_is_periodic
from ffdyn.polynomials import Poly
from ffdyn.randgen import rand_field_elem, rand_map, rand_place

from oracles import conjugate, plain_orbit, quotient_dependence_search


def pt(text):
    return parse_point(text)


def affine_orbit(phi, alpha, n):
    """[alpha, phi(alpha), ..., phi^n(alpha)] as affine values; None at infinity."""
    return [x.affine() for x in plain_orbit(phi, alpha, n)]


S_T_INF = frozenset([Place.finite(Poly.t()), Place.infinity()])


# ---------------------------------------------------------------------------
# S-unit hits
# ---------------------------------------------------------------------------


def test_unit_hits_monomial(monomial_map):
    # t z^2 at alpha = 1: iterates t, t^3, t^7, ... all {t, inf}-units
    assert unit_hits(Orbit(monomial_map, pt("1")), S_T_INF, 5) == [1, 2, 3, 4, 5]


def test_unit_hits_generic(quad_poly_map, S_inf):
    # z^2 + t at 0: iterates t, t^2+t, ... only n = 1 is a unit for {inf}
    # (a polynomial is an {inf}-unit iff it is a nonzero constant) -> none
    assert unit_hits(Orbit(quad_poly_map, pt("0")), S_inf, 5) == []
    # with (t) added, n = 1 (value t) qualifies but t^2 + t = t(t+1) does not
    assert unit_hits(Orbit(quad_poly_map, pt("0")), S_T_INF, 5) == [1]


def test_unit_hits_validates(quad_poly_map, S_inf):
    with pytest.raises(DomainError):
        unit_hits(Orbit(quad_poly_map, pt("0")), S_inf, 0)


# ---------------------------------------------------------------------------
# Dependence search
# ---------------------------------------------------------------------------


def test_query_validation(quad_poly_map, S_inf):
    with pytest.raises(DomainError, match="base point must be affine"):
        dependence_search(
            Orbit(quad_poly_map, pt("inf")), DependenceQuery(S_inf, 1, 1, 1, 1)
        )
    with pytest.raises(DomainError, match="all search bounds must be at least 1"):
        DependenceQuery(S_inf, 0, 1, 1, 1)


def test_search_generic_box_is_empty(quad_poly_map, S_inf):
    q = DependenceQuery(S_inf, n_max=3, k_max=3, r_max=3, s_max=3)
    report = dependence_search(Orbit(quad_poly_map, pt("0")), q)
    assert report.solutions == ()
    assert report.wandering_certified


def test_search_monomial_box_is_full(monomial_map):
    # t z^2 at alpha = t: every iterate is a power of t, so every (n, k)
    # admits a dependence over S = {(t), inf}
    q = DependenceQuery(S_T_INF, n_max=3, k_max=3, r_max=4, s_max=9)
    report = dependence_search(Orbit(monomial_map, pt("t")), q)
    covered = {(sol.n, sol.k) for sol in report.solutions}
    assert covered == {(n, k) for n in (1, 2, 3) for k in (1, 2, 3)}
    # phi(t) = t^3, phi^2(t) = t^7: r = 1, s = 1 already witnesses (1, 1)
    shapes = {(s.r, s.s) for s in report.solutions if (s.n, s.k) == (1, 1)}
    assert (1, 1) in shapes


def test_solutions_independently_reverified(monomial_map):
    q = DependenceQuery(S_T_INF, n_max=2, k_max=2, r_max=3, s_max=5)
    report = dependence_search(Orbit(monomial_map, pt("t")), q)
    assert report.solutions
    orbit = affine_orbit(monomial_map, pt("t"), 4)
    for sol in report.solutions:
        assert gcd(sol.r, abs(sol.s)) == 1 and sol.r > 0 and sol.s != 0
        u = orbit[sol.n + sol.k] ** sol.r / orbit[sol.k] ** sol.s
        assert u == sol.u
        assert is_S_unit(sol.u, S_T_INF)


def test_diagonal_r_s_one_needs_special_structure(quad_poly_map, S_inf):
    # for z^2 + t the heights of phi^{n+k} and phi^k differ, so u = f/g has
    # positive height and cannot be an S-unit for S = {inf}
    q = DependenceQuery(S_inf, n_max=2, k_max=2, r_max=1, s_max=1)
    assert dependence_search(Orbit(quad_poly_map, pt("0")), q).solutions == ()


def test_search_matches_brute_force(monomial_map):
    # independent brute force over the same box
    q = DependenceQuery(S_T_INF, n_max=2, k_max=2, r_max=2, s_max=3)
    report = dependence_search(Orbit(monomial_map, pt("1")), q)
    orbit = affine_orbit(monomial_map, pt("1"), 4)
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
    q = DependenceQuery(S_inf, 1, 1, 1, 1)
    with pytest.raises(DomainError, match="preperiodic"):
        dependence_search(Orbit(sq, pt("1")), q)
    # attestation overrides the wandering check
    report = dependence_search(Orbit(sq, pt("1")), q, wandering_attested=True)
    assert not report.wandering_certified


# (map, alpha, places, (n_max, k_max, r_max, s_max)): orbits with many
# solutions (s < 0 among them), infinity in and out of S, places of degree 2,
# constant orbits and S empty, and orbits through 0 and through infinity
ORACLE_CASES = [
    ("t*z^2", "t", "t,inf", (2, 2, 3, 5)),
    ("t*z^2", "t", "t", (2, 2, 3, 5)),
    ("t*z^2", "1", "t,inf", (2, 2, 2, 3)),
    ("t*z^2", "1/t", "t", (2, 2, 3, 3)),
    ("z^2", "t^2+1", "t^2+1", (2, 2, 4, 4)),
    ("z^2", "t^2+1", "t^2+1,inf", (2, 2, 3, 3)),
    ("z^2", "t/(t^2+1)", "t,t^2+1", (2, 2, 4, 4)),
    ("z^2/(t^2+1)", "t", "t,t^2+1,inf", (2, 2, 3, 3)),
    ("z^2/(t^2+1)", "t", "t^2+1", (2, 2, 3, 3)),
    ("z^2+1", "2", "", (2, 2, 3, 3)),
    ("z^2+1", "2", "inf", (2, 2, 2, 2)),
    ("z^2-t^2", "t", "inf", (2, 2, 3, 3)),
    ("z^2-t^2", "t", "t,inf", (2, 2, 3, 3)),
    ("(z^2+t)/(z^2-t^2)", "t", "t,inf", (2, 2, 3, 3)),
    ("(z^2+t)/(z^2-t^2)", "t", "t-1,t+1", (2, 2, 3, 3)),
    ("z^2+t", "0", "inf", (3, 3, 3, 3)),
    ("(z^2-t)/z", "t", "t,inf", (2, 2, 3, 3)),
    ("t*z^3", "t", "t,inf", (1, 2, 3, 4)),
    # exactly one of phi^(n+k)(alpha) and phi^k(alpha) an S-unit; solutions
    # with s < 0 on a rational map; a solution (r, s) outside the box
    ("z^2+t", "0", "t,inf", (2, 2, 3, 3)),
    ("1/z^2", "t+1", "inf", (2, 2, 4, 4)),
    ("z^2", "t+1", "inf", (2, 2, 3, 3)),
    # the two dearest multdep benchmark shapes: every coprime pair solves;
    # two finite places, one with a rational coefficient, and witnesses
    # with e_v > 0 at two places and e_v < 0 at one
    ("(t+2)*z^2", "2*t-3", "t+2,inf,t-3/2", (2, 1, 2, 3)),
    ("(t-1)*z^2", "-2*t+2", "t-1,inf", (2, 1, 2, 3)),
]

# Larger exponent boxes, where the degree vectors of most (n, k) are not
# proportional, and 1/z^2 at t with infinity outside S, whose orbit
# t^((-2)^n) has solutions with s < 0 and ord_inf of both signs
PREFILTER_CASES = [
    ("(z^2-t)/z", "t", "t,inf", (3, 3, 6, 6)),
    ("t*z^2", "t", "t,inf", (3, 3, 6, 6)),
    ("z^2", "t^2+1", "t^2+1", (2, 2, 6, 6)),
    ("1/z^2", "t", "t", (2, 2, 4, 4)),
]


def _check_against_quotient_oracle(phi, alpha, S, box):
    q = DependenceQuery(S, *box)
    report = dependence_search(Orbit(phi, alpha), q, wandering_attested=True)
    orbit = affine_orbit(phi, alpha, box[0] + box[1])
    expected = quotient_dependence_search(orbit, S, *box)
    assert [(s.n, s.k, s.r, s.s, s.u) for s in report.solutions] == expected
    return report


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: f"{c[0]}@{c[1]}/{c[2]}")
def test_search_matches_quotient_oracle(case):
    text, point, places, box = case
    _check_against_quotient_oracle(
        parse_rational_map(text), pt(point), parse_places(places), box
    )


@pytest.mark.parametrize("case", PREFILTER_CASES, ids=lambda c: f"{c[0]}@{c[1]}/{c[2]}")
def test_search_matches_quotient_oracle_prefilter_cases(case):
    text, point, places, box = case
    _check_against_quotient_oracle(
        parse_rational_map(text), pt(point), parse_places(places), box
    )


def _report(text, point, places, box):
    q = DependenceQuery(parse_places(places), *box)
    orbit = Orbit(parse_rational_map(text), pt(point))
    return dependence_search(orbit, q, wandering_attested=True)


def test_oracle_cases_reach_every_branch_of_the_lattice(monkeypatch):
    # u and w are the degree vectors of the S-free parts of phi^(n+k)(alpha)
    # and phi^k(alpha); u = w = 0: every pair of the box solves
    pairs = {(r, s) for r in range(1, 4) for s in range(-5, 6)
             if s != 0 and gcd(r, abs(s)) == 1}
    assert len(_report("t*z^2", "t", "t,inf", (2, 2, 3, 5)).solutions) == 4 * len(pairs)
    # phi^k = (t + 1)^((-2)^k): s < 0 for n = 1
    report = _report("1/z^2", "t+1", "inf", (2, 2, 4, 4))
    assert {(sol.n, sol.k, sol.r, sol.s) for sol in report.solutions} == {
        (1, 1, 1, -2), (1, 2, 1, -2), (2, 1, 1, 4), (2, 2, 1, 4)}
    # phi^(n+k) = (phi^k)^(2^n): the one pair (1, 4) of n = 2 leaves the box
    report = _report("z^2", "t+1", "inf", (2, 2, 3, 3))
    assert {(sol.n, sol.r, sol.s) for sol in report.solutions} == {(1, 1, 2)}
    # proportional degree vectors, decided by one comparison of powers:
    # at (1, 1) phi(0) = t is an S-unit and t^2 + t is not (w = 0 != u);
    # at (1, 2) the parts t^3 + 2t^2 + t + 1 and t + 1 have proportional
    # degrees, but (t + 1)^3 differs; over {inf}, t^2 + t != t^2
    powers = []
    power = Poly.__pow__

    def recording(self, n):
        powers.append(self.degree)
        return power(self, n)

    monkeypatch.setattr(Poly, "__pow__", recording)
    for places in ("t,inf", "inf"):
        powers.clear()
        assert _report("z^2+t", "0", places, (2, 2, 3, 3)).solutions == ()
        assert any(degree > 0 for degree in powers)


def test_quotient_oracle_cases_reach_every_branch():
    found = []
    skipped = []
    for text, point, places, box in ORACLE_CASES:
        report = _report(text, point, places, box)
        found += report.solutions
        skipped += report.skipped
    assert any(sol.s < 0 for sol in found)
    assert any(sol.s > 0 for sol in found)
    assert any("zero" in reason for reason in skipped)
    assert any("infinity" in reason for reason in skipped)


@pytest.mark.parametrize("seed", range(16))
def test_search_matches_quotient_oracle_seeded(seed):
    rng = Random(9100 + seed)
    phi = rand_map(rng, d=2, coeff_deg=1, cmax=3)
    alpha = ProjectivePoint.from_field(rand_field_elem(rng, max_deg=1, cmax=3))
    S = frozenset(rand_place(rng) for _ in range(rng.randint(0, 3)))
    _check_against_quotient_oracle(phi, alpha, S, (2, 2, 3, 3))


def test_degree_prefilter_builds_no_powers(monkeypatch):
    # (z^2-t)/z at t: orbit values of degree up to 2^10 and no solution in
    # the box; no (n, k) has proportional degree vectors of its S-free
    # parts, so no power is built at all
    powers = []
    power = Poly.__pow__

    def recording(self, n):
        powers.append(self.degree)
        return power(self, n)

    monkeypatch.setattr(Poly, "__pow__", recording)
    q = DependenceQuery(S_T_INF, n_max=5, k_max=5, r_max=10, s_max=10)
    orbit = Orbit(parse_rational_map("(z^2-t)/z"), pt("t"))
    report = dependence_search(orbit, q, wandering_attested=True)
    assert report.solutions == ()
    assert powers == []


def test_search_builds_u_only_for_solutions(monkeypatch, quad_poly_map, monomial_map):
    calls = []
    divide = FieldElement.__truediv__

    def counting(self, other):
        calls.append(1)
        return divide(self, other)

    monkeypatch.setattr(FieldElement, "__truediv__", counting)
    S_inf = frozenset([Place.infinity()])
    q = DependenceQuery(S_inf, n_max=3, k_max=3, r_max=3, s_max=3)
    assert dependence_search(Orbit(quad_poly_map, pt("0")), q).solutions == ()
    assert calls == []
    # each u is read from leading coefficients and valuations: no division
    q = DependenceQuery(S_T_INF, n_max=2, k_max=2, r_max=3, s_max=3)
    report = dependence_search(Orbit(monomial_map, pt("t")), q)
    assert len(report.solutions) > 0
    assert calls == []


def test_witnesses_read_no_valuations_and_build_no_powers(monkeypatch):
    # once s_split has split each orbit value, the witnesses u come from
    # its orders and integer powers of the place polynomials: no ord_at, no
    # poly_ord and no Poly.__pow__ (the exponent comparison of non-unit
    # parts is the only caller of __pow__ in the search, and these parts
    # are all units)
    calls = []

    def recording(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for module in (function_field, mult_dependence):
        for name in ("ord_at", "poly_ord"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    monkeypatch.setattr(Poly, "__pow__", recording("pow", Poly.__pow__))
    report = _report("(t+2)*z^2", "2*t-3", "t+2,inf,t-3/2", (2, 1, 2, 3))
    assert len(report.solutions) == 20
    assert calls == []
    # e_v = ord_v(u) of both signs at the finite places, so both sides of u
    # take powers of place polynomials
    S = parse_places("t+2,inf,t-3/2")
    orders = {ord_at(sol.u, v) for sol in report.solutions for v in S if not v.is_infinite}
    assert min(orders) < 0 < max(orders)


@pytest.mark.parametrize("point, places, box", [
    # phi^m(t) = t^(2^m): e up to 2*2^12 + 2^6 = 8256 at the place t
    ("t", "t,inf", (6, 6, 2, 2)),
    # phi^m(t+1) = (t+1)^(2^m): e up to 2^9 + 2 = 514 at the place t + 1
    ("t+1", "t+1,inf", (8, 1, 1, 1)),
])
def test_witness_powers_take_log_e_products(monkeypatch, point, places, box):
    # every u is pi_v^e; P_v^e costs O(log e) products by binary powering,
    # and none at the place t, where P_v^e is t^e
    calls = []
    int_mul = mult_dependence._int_mul

    def counting(a, b):
        calls.append(1)
        return int_mul(a, b)

    monkeypatch.setattr(mult_dependence, "_int_mul", counting)
    report = _report("z^2", point, places, box)
    (v,) = [v for v in parse_places(places) if not v.is_infinite]
    es = [ord_at(sol.u, v) for sol in report.solutions]
    for sol, e in zip(report.solutions, es):
        power = FieldElement.from_poly(v.poly ** abs(e))
        assert sol.u == (power if e >= 0 else power.inverse())
    big = max(abs(e) for e in es)
    if v.poly == Poly.t():
        assert big == 8256
        # one product per witness: the constant times t^e
        assert len(calls) <= len(report.solutions)
    else:
        assert big == 514
        # the squares once, then one product per set bit of each e
        bound = big.bit_length() + sum(abs(e).bit_length() for e in es)
        assert len(calls) <= bound < big


def test_zero_not_periodic_flag(quad_poly_map, monomial_map, S_inf):
    q = DependenceQuery(S_inf, 1, 1, 1, 1)
    assert dependence_search(Orbit(quad_poly_map, pt("0")), q).zero_not_periodic
    # t z^2 fixes 0, so zero IS periodic
    q2 = DependenceQuery(S_T_INF, 1, 1, 1, 1)
    assert not dependence_search(Orbit(monomial_map, pt("t")), q2).zero_not_periodic


def test_zero_periodic_at_large_height():
    # psi = M^-1 o (z^2 - 1) o M with M = z/(1 + t^70 z): 0 has period 2
    # under psi, through a point of height 70
    M = parse_rational_map("z/(1 + t^70*z)")
    psi = conjugate(parse_rational_map("z^2 - 1"), M)
    zero = ProjectivePoint.zero()
    assert apply_map(psi, zero).height == 70
    assert classify_preperiodic(psi, zero) == Preperiodic(tail=0, cycle=2)
    assert _zero_is_periodic(Orbit(psi, zero))


# ---------------------------------------------------------------------------
# Polynomial-case classifier
# ---------------------------------------------------------------------------


def test_classifier_cases_A(monomial_map):
    # alpha = t is integral away from S_phi, so only the exponent shape matters
    q = DependenceQuery(S_T_INF, n_max=2, k_max=2, r_max=3, s_max=4)
    orbit = Orbit(monomial_map, pt("t"))
    report = dependence_search(orbit, q)
    case_split = poly_case_split(orbit, S_T_INF)
    seen = {}
    for sol in report.solutions:
        label = case_split(sol)
        if sol.s < 0:
            assert label == "A.1"
        elif sol.s >= 2:
            assert label == "A.2"
        elif sol.r >= 2:
            assert label == "A.3"
        else:
            assert label == "A.4"
        seen[label] = seen.get(label, 0) + 1
    assert {"A.1", "A.4"} <= set(seen)


def test_classifier_case_B(quad_poly_map, S_inf):
    # alpha = 1/t has a pole at (t), a good-reduction place outside S = {inf};
    # under z^2 + t the pole order doubles every step
    alpha = pt("1/t")
    q = DependenceQuery(S_inf, n_max=1, k_max=1, r_max=1, s_max=2)
    orbit = Orbit(quad_poly_map, alpha)
    report = dependence_search(orbit, q, wandering_attested=True)
    # classify a synthetic solution to exercise the branch even if the box
    # found none
    from ffdyn.mult_dependence import DependenceSolution

    values = affine_orbit(quad_poly_map, alpha, 2)
    v = Place.finite(Poly.t())
    assert [ord_at(x, v) for x in values] == [-1, -2, -4]
    sol = DependenceSolution(n=1, k=1, r=1, s=2, u=values[2] / values[1] ** 2, rho=2.0)
    case_split = poly_case_split(orbit, S_inf)
    assert case_split(sol) == "B"
    # usable directly on any found solutions too
    for found in report.solutions:
        assert case_split(found) == "B"


def test_classifier_case_B_with_pole_at_infinity():
    # alpha = t under z^2 over S = {(t)}: integral at every finite place, so
    # the only pole outside S_phi is at infinity, and it doubles every step
    sq = parse_rational_map("z^2")
    S = parse_places("t")
    q = DependenceQuery(S, n_max=1, k_max=1, r_max=1, s_max=2)
    orbit = Orbit(sq, pt("t"))
    report = dependence_search(orbit, q)
    assert [(sol.r, sol.s) for sol in report.solutions] == [(1, 2)]
    assert poly_case_split(orbit, S)(report.solutions[0]) == "B"


def test_classifier_requires_polynomial(quad_quotient_map, S_inf):
    with pytest.raises(DomainError, match="polynomial"):
        poly_case_split(Orbit(quad_quotient_map, pt("t")), S_inf)


def test_classifier_total_on_monomial_box(monomial_map):
    # every solution in the box receives exactly one label
    q = DependenceQuery(S_T_INF, n_max=2, k_max=2, r_max=2, s_max=4)
    orbit = Orbit(monomial_map, pt("t"))
    report = dependence_search(orbit, q)
    case_split = poly_case_split(orbit, S_T_INF)
    for sol in report.solutions:
        assert case_split(sol) in {"A.1", "A.2", "A.3", "A.4", "B"}


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
    report = split_multilinear_zero_scan(form, Orbit(quad_poly_map, pt("0")), 4)
    assert report.zero_tuples == ((1,),)
    assert report.scanned == 5
    assert report.skipped == ()


def test_zero_scan_bilinear(monomial_map):
    # orbit of 1 under t z^2: 1, t, t^3, t^7; T1 - t^2*T2 vanishes at
    # (n1, n2) = (2, 1): t^3 = t^2 * t
    form = parse_split_form("T1 - t^2*T2")
    report = split_multilinear_zero_scan(form, Orbit(monomial_map, pt("1")), 3)
    assert (2, 1) in report.zero_tuples
    for combo in report.zero_tuples:
        assert combo[0] > combo[1]  # strictly decreasing tuples only


def test_zero_scan_no_hits(quad_poly_map):
    form = parse_split_form("T1*T2 + 1")
    report = split_multilinear_zero_scan(form, Orbit(quad_poly_map, pt("0")), 4)
    assert report.zero_tuples == ()
    assert report.scanned == 10  # C(5, 2)


def test_zero_scan_skips_infinity(quad_quotient_map):
    # orbit of 0 under (z^2 - t)/z passes through infinity at n = 1
    form = parse_split_form("T1 - t")
    report = split_multilinear_zero_scan(form, Orbit(quad_quotient_map, pt("0")), 2)
    assert (1,) in report.skipped


def test_zero_scan_validates(quad_poly_map):
    form = parse_split_form("T1 - t")
    with pytest.raises(DomainError):
        split_multilinear_zero_scan(form, Orbit(quad_poly_map, pt("inf")), 3)
    with pytest.raises(DomainError):
        split_multilinear_zero_scan(form, Orbit(quad_poly_map, pt("0")), 0)
