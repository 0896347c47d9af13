"""Orbit S-integrality scans, quasi-integrality index sets, and the exact
quantitative bounds on both."""

from fractions import Fraction
from random import Random

import pytest

from ffdyn import (
    Orbit,
    Place,
    canonical_height,
    ceil_log_plus,
    count_S_integral,
    estimate_gamma,
    floor_log_plus,
    gamma_set,
    gamma_set_bound_rhs,
    integral_count_bound_rhs,
    lambda_sum,
    parse_point,
    parse_places,
    parse_rational_map,
)
from ffdyn.errors import DomainError, OrbitBudgetError
from ffdyn.polynomials import Poly


def pt(text):
    return parse_point(text)


# ---------------------------------------------------------------------------
# Exact log_d^+ brackets
# ---------------------------------------------------------------------------


def test_log_plus_examples():
    assert floor_log_plus(2, Fraction(7)) == 2
    assert ceil_log_plus(2, Fraction(7)) == 3
    assert floor_log_plus(2, Fraction(8)) == 3
    assert ceil_log_plus(2, Fraction(8)) == 3
    assert floor_log_plus(3, Fraction(1, 2)) == 0
    assert ceil_log_plus(3, Fraction(1, 2)) == 0
    with pytest.raises(DomainError):
        floor_log_plus(1, Fraction(5))


def test_log_plus_bracket_seeded():
    rng = Random(41)
    for _ in range(200):
        d = rng.choice([2, 3, 5])
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**3))
        lo, hi = floor_log_plus(d, x), ceil_log_plus(d, x)
        assert lo <= hi <= lo + 1
        if x >= 1:
            assert Fraction(d) ** lo <= x <= Fraction(d) ** hi


def test_ceil_log_plus_brute_force():
    # against its definition, the smallest e >= 0 with d^e >= x (0 when x <= 1)
    for d in range(2, 7):
        for q in range(1, 40):
            for p in range(300):
                x = Fraction(p, q)
                e = 0
                while x > 1 and d**e < x:
                    e += 1
                assert ceil_log_plus(d, x) == e, (d, x)
    with pytest.raises(DomainError):
        ceil_log_plus(1, Fraction(5))


# ---------------------------------------------------------------------------
# S-integral points in orbits
# ---------------------------------------------------------------------------


def test_count_S_integral_long_range(quad_quotient_map, S_inf):
    report = count_S_integral(Orbit(quad_quotient_map, pt("t")), S_inf, 30)
    assert report.hits == (1,)
    cert = report.certificate
    assert cert is not None
    assert cert.start == 2
    assert cert.place == Place.finite(Poly.of(-1, 1))  # t - 1
    assert report.warnings == ()


def test_certificate_really_persists(quad_quotient_map, S_inf):
    # direct check on the iterates we can afford: the pole at t-1 stays
    orbit = Orbit(quad_quotient_map, pt("t")).prefix(8)
    v = Place.finite(Poly.of(-1, 1))
    for P in orbit[2:]:
        elem = P.affine()
        assert elem is not None and elem.den.degree >= 0
        from ffdyn import ord_at

        assert ord_at(elem, v) < 0


def test_count_polynomial_map_warns(quad_poly_map, S_inf):
    # z^2 + t with S = {inf}: every iterate is a polynomial, hence S-integral
    report = count_S_integral(Orbit(quad_poly_map, pt("0")), S_inf, 10)
    assert report.hits == tuple(range(1, 11))
    assert any("polynomial" in w for w in report.warnings)


def test_count_preperiodic_warns(S_inf):
    sq = parse_rational_map("z^2")
    report = count_S_integral(Orbit(sq, pt("1")), S_inf, 5)
    assert any("preperiodic" in w for w in report.warnings)
    assert report.hits == (1, 2, 3, 4, 5)


def test_count_budget_error(quad_poly_map):
    # empty S, polynomial map: no certificate at any pole-free iterate,
    # so the scan must walk the orbit and hit the budget
    with pytest.raises(OrbitBudgetError):
        count_S_integral(Orbit(quad_poly_map, pt("0"), 64), frozenset(), 30)


def test_count_validates_range(quad_quotient_map, S_inf):
    with pytest.raises(DomainError):
        count_S_integral(Orbit(quad_quotient_map, pt("t")), S_inf, -1)


# ---------------------------------------------------------------------------
# Gamma set
# ---------------------------------------------------------------------------


def test_gamma_set_example(quad_quotient_map, S_inf, half):
    report = gamma_set(
        Orbit(quad_quotient_map, pt("t")), S_inf, pt("inf"), half, 4, depth=10
    )
    assert report.in_indices == (0, 1)
    # at n = 2 the proximity (1) equals eps * hhat exactly, so no finite
    # depth can decide it: it stays honestly undecided
    assert report.undecided_indices == (2,)
    assert report.max_in_index == 1
    memberships = [r.membership for r in report.records]
    assert memberships == ["in", "in", "undecided", "out", "out"]


def test_gamma_set_rejects_exceptional(quad_poly_map, S_inf, half):
    with pytest.raises(DomainError, match="exceptional"):
        gamma_set(Orbit(quad_poly_map, pt("0")), S_inf, pt("inf"), half, 3)


def test_gamma_set_rejects_preperiodic(S_inf, half):
    sq = parse_rational_map("z^2")
    with pytest.raises(DomainError, match="preperiodic"):
        gamma_set(Orbit(sq, pt("1")), S_inf, pt("t"), half, 3)


def test_gamma_set_eps_validation(quad_quotient_map, S_inf):
    for eps in (Fraction(0), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(DomainError):
            gamma_set(Orbit(quad_quotient_map, pt("t")), S_inf, pt("inf"), eps, 3)


def test_gamma_set_empty_S(quad_quotient_map, half):
    # no places means zero proximity everywhere: nothing is in
    report = gamma_set(
        Orbit(quad_quotient_map, pt("t")), frozenset(), pt("inf"), half, 3, depth=10
    )
    assert report.in_indices == ()
    assert report.undecided_indices == ()


def test_gamma_set_direct_hit_is_in(quad_poly_map, S_inf, half):
    # phi(0) = t, so n = 1 has infinite proximity to A = t
    report = gamma_set(Orbit(quad_poly_map, pt("0")), S_inf, pt("t"), half, 2, depth=10)
    assert 1 in report.in_indices
    assert report.records[1].proximity is None


def test_gamma_set_eps_monotone(quad_quotient_map, S_inf):
    # shrinking eps can only grow the decided in-set
    small = gamma_set(
        Orbit(quad_quotient_map, pt("t")), S_inf, pt("inf"), Fraction(1, 4), 4, depth=10
    )
    large = gamma_set(
        Orbit(quad_quotient_map, pt("t")), S_inf, pt("inf"), Fraction(3, 4), 4, depth=10
    )
    assert set(large.in_indices) <= set(small.in_indices)


def test_gamma_set_matches_exact_envelope(quad_quotient_map, S_inf, half):
    # independently recompute proximity integers from lambda sums
    report = gamma_set(
        Orbit(quad_quotient_map, pt("t")), S_inf, pt("inf"), half, 4, depth=10
    )
    orbit = Orbit(quad_quotient_map, pt("t")).prefix(4)
    for rec, P in zip(report.records, orbit):
        assert rec.proximity == lambda_sum(P, pt("inf"), S_inf)


# ---------------------------------------------------------------------------
# Quantitative bound evaluation
# ---------------------------------------------------------------------------


def test_gamma_set_bound_rhs_example(quad_poly_map):
    # gamma1 = 3, h(phi) = 1, hhat(A) = 0, hhat(P) = 1/2, d = 2: the true
    # value is 3 + log_2^+(2) = 4.  The ratio sits exactly on a power of 2,
    # so the certified enclosure brackets 4 without collapsing to it.
    lo, hi = gamma_set_bound_rhs(
        Fraction(3), Orbit(quad_poly_map, pt("0")), pt("inf"), depth=12
    )
    assert lo <= 4 <= hi
    assert hi - lo <= 2


def test_integral_count_bound_rhs(quad_poly_map):
    gamma1 = Fraction(3)
    lo, hi = integral_count_bound_rhs(gamma1, Orbit(quad_poly_map, pt("0")), depth=12)
    assert lo <= 4 <= hi  # 3 + log_2^+(1 / (1/2)), again a boundary ratio
    assert hi - lo <= 2
    # height-zero map: ratio term vanishes identically, result is exact
    sq = parse_rational_map("z^2")
    lo0, hi0 = integral_count_bound_rhs(gamma1, Orbit(sq, pt("t")), depth=8)
    assert lo0 == hi0 == 3


def test_bound_rhs_rejects_preperiodic(quad_poly_map):
    with pytest.raises(DomainError, match="preperiodic|positive"):
        integral_count_bound_rhs(Fraction(3), Orbit(quad_poly_map, pt("inf")))


def test_hits_within_gamma_for_small_eps(quad_quotient_map, S_inf):
    # S-integral iterates are quasi-integral, so for small eps the scan's
    # hit set embeds in the in-set of the Gamma scan over the same range
    scan = count_S_integral(Orbit(quad_quotient_map, pt("t")), S_inf, 6)
    gs = gamma_set(
        Orbit(quad_quotient_map, pt("t")),
        S_inf,
        pt("inf"),
        Fraction(1, 8),
        6,
        depth=10,
    )
    decided_in = set(gs.in_indices)
    for n in scan.hits:
        if n <= 6:
            assert n in decided_in or n in gs.undecided_indices


# ---------------------------------------------------------------------------
# Empirical constant estimation
# ---------------------------------------------------------------------------


def test_estimate_gamma_example(quad_quotient_map, S_inf):
    # eps = 1/4, N = 2 keeps every index strictly off the decision boundary
    instances = [(quad_quotient_map, pt("inf"), pt("t"))]
    report = estimate_gamma(instances, S_inf, Fraction(1, 4), 2, depth=10)
    # max in-index 2 less the certified log term 0
    orbit = Orbit(quad_quotient_map, pt("t"))
    assert gamma_set_bound_rhs(Fraction(0), orbit, pt("inf"), 10)[0] == 0
    assert (report.gamma_hat, report.witnesses, report.warnings) == (2, (0,), ())


def test_estimate_gamma_excludes_bad_instances(quad_poly_map, S_inf, half):
    # exceptional target -> excluded with a warning, not a crash
    instances = [
        (quad_poly_map, pt("inf"), pt("0")),
        (quad_poly_map, pt("t"), pt("0")),
    ]
    report = estimate_gamma(instances, S_inf, half, 1, depth=10)
    assert report.warnings == ("instance 0 excluded: exceptional target",)
    # instance 1 is kept: phi(0) = t hits A exactly, so its max in-index is
    # 1, and 1 less its certified log term 1 contributes 0
    orbit = Orbit(quad_poly_map, pt("0"))
    assert gamma_set(orbit, S_inf, pt("t"), half, 1, depth=10).max_in_index == 1
    assert gamma_set_bound_rhs(Fraction(0), orbit, pt("t"), 10)[0] == 1
    assert (report.gamma_hat, report.witnesses) == (0, ())


def test_estimate_gamma_requires_instances(S_inf, half):
    with pytest.raises(DomainError):
        estimate_gamma([], S_inf, half, 3)


def test_proximity_fraction_of_height_decays(quad_quotient_map, S_inf):
    # along the orbit, proximity / d^n stays bounded while hhat grows like
    # d^n, so membership eventually locks to "out"
    report = gamma_set(
        Orbit(quad_quotient_map, pt("t")), S_inf, pt("inf"), Fraction(1, 2), 6, depth=10
    )
    tail = [r.membership for r in report.records[3:]]
    assert tail == ["out"] * len(tail)
