"""Chordal local heights and the two local comparison inequalities."""

from random import Random

import pytest

from ffdyn import (
    FieldElement,
    Place,
    contact_comparison,
    fiber_pullback_defect,
    lambda_sum,
    lambda_v,
    parse_field_elem,
    parse_point,
    support,
)
from ffdyn.errors import DomainError
from ffdyn.maps import ProjectivePoint
from ffdyn.polynomials import Poly
from ffdyn.randgen import rand_field_elem, rand_place, rand_point, rand_tpoly

from oracles import lambda_v_by_logmax

INF = Place.infinity()
INF_PT = ProjectivePoint.infinity()
P_T = Place.finite(Poly.t())


def pt(text):
    return parse_point(text)


def test_lambda_basic_properties_seeded():
    rng = Random(17)
    for _ in range(200):
        P = rand_point(rng)
        Q = rand_point(rng)
        v = rand_place(rng)
        a = lambda_v(P, Q, v)
        b = lambda_v(Q, P, v)
        if P == Q:
            assert a is None and b is None
        else:
            assert a == b >= 0


def test_lambda_matches_logmax_oracle_seeded():
    rng = Random(41)
    special = [INF_PT, ProjectivePoint.zero()]
    for _ in range(300):
        v = rand_place(rng)
        P = rng.choice(special) if rng.random() < 0.15 else rand_point(rng)
        Q = rng.choice(special) if rng.random() < 0.15 else rand_point(rng)
        if rng.random() < 0.1:
            Q = P
        for A, B in ((P, Q), (P, INF_PT), (Q, ProjectivePoint.zero())):
            assert lambda_v(A, B, v) == lambda_v_by_logmax(A, B, v)
            assert lambda_v(A, B, INF) == lambda_v_by_logmax(A, B, INF)


def test_lambda_matches_logmax_oracle_when_pi_divides_x0():
    # P = [pi^e * a : b] with pi | x0, against Q with and without pi | y0
    rng = Random(43)
    for _ in range(100):
        v = rand_place(rng)
        if v.is_infinite:
            continue
        e = rng.randint(1, 3)
        a = rand_tpoly(rng, max_deg=2, cmax=5, nonzero=True)
        b = rand_tpoly(rng, max_deg=2, cmax=5, nonzero=True)
        P = ProjectivePoint.make(v.poly**e * a, b)
        c = rand_tpoly(rng, max_deg=1, cmax=5)
        Q = ProjectivePoint.make(v.poly * c, b + v.poly)
        for A in (Q, ProjectivePoint.zero(), INF_PT, P):
            assert lambda_v(P, A, v) == lambda_v_by_logmax(P, A, v)
    assert lambda_v(pt("t^2"), pt("0"), P_T) == 2
    assert lambda_v(pt("t^2"), INF_PT, P_T) == 0
    assert lambda_v(INF_PT, pt("0"), INF) == 0
    assert lambda_v(INF_PT, INF_PT, INF) is None


def test_lambda_sum_example():
    # points t and 0 over S = {(t), infinity}: contact at (t) only
    S = frozenset([P_T, INF])
    assert lambda_sum(pt("t"), pt("0"), S) == 1
    assert lambda_v(pt("t"), pt("0"), P_T) == 1
    assert lambda_v(pt("t"), pt("0"), INF) == 0


def test_lambda_sum_infinite_on_equal_points():
    S = frozenset([INF])
    assert lambda_sum(pt("t"), pt("t"), S) is None


def test_height_decomposition_exact_seeded():
    # sum over all places of lambda_v(P, infinity) equals h(P)
    rng = Random(23)
    inf_pt = ProjectivePoint.infinity()
    for _ in range(200):
        x = rand_field_elem(rng, nonzero=True)
        P = ProjectivePoint.from_field(x)
        total = lambda_v(P, inf_pt, INF)
        for v in support(x):
            total += lambda_v(P, inf_pt, v)
        assert total == P.height


def test_contact_comparison_example():
    # x = 2t, y = t at v = (t): applicable, chain collapses to 0 <= 0 <= 0
    rec = contact_comparison(
        parse_field_elem("2*t"), parse_field_elem("t"), P_T
    )
    assert rec.applicable
    assert (rec.lower, rec.middle, rec.upper) == (0, 0, 0)
    assert rec.holds


def test_contact_comparison_at_infinity():
    # x = t, y = 1/t at infinity: evaluate and check the chain
    rec = contact_comparison(
        parse_field_elem("t"), parse_field_elem("1/t"), INF
    )
    assert rec.holds


def test_contact_comparison_rejects_equal():
    x = parse_field_elem("t")
    with pytest.raises(DomainError):
        contact_comparison(x, x, P_T)


def test_contact_comparison_seeded():
    rng = Random(29)
    applicable = 0
    for _ in range(500):
        x = rand_field_elem(rng, nonzero=True)
        y = rand_field_elem(rng)
        if x == y:
            continue
        v = rand_place(rng)
        rec = contact_comparison(x, y, v)
        assert rec.holds
        applicable += rec.applicable
    assert applicable > 0  # the inequality was actually exercised


def test_fiber_pullback_example(quad_poly_map, S_inf):
    # fiber of z^2+t over t is {0} with e = 2; P = 1
    rec = fiber_pullback_defect(quad_poly_map, 1, pt("t"), pt("1"), S_inf)
    assert rec.fiber_size == 1
    assert rec.lhs == 0  # 1 and 0 are far at infinity
    assert rec.rhs == 2  # phi(1) = t+1 is close to t at infinity
    assert rec.defect == 2
    assert rec.normalizer == 3


def test_fiber_pullback_empty_S(quad_poly_map):
    rec = fiber_pullback_defect(quad_poly_map, 1, pt("t"), pt("1"), frozenset())
    assert rec.lhs == rec.rhs == rec.defect == 0


def test_fiber_pullback_requires_split_fiber(quad_poly_map, S_inf):
    # fiber over 0 is z^2 = -t, irreducible over Q(t)
    with pytest.raises(DomainError, match="extension"):
        fiber_pullback_defect(quad_poly_map, 1, pt("0"), pt("1"), S_inf)


def test_fiber_pullback_rejects_point_in_fiber(quad_poly_map, S_inf):
    with pytest.raises(DomainError, match="fiber"):
        fiber_pullback_defect(quad_poly_map, 1, pt("t"), pt("0"), S_inf)


def test_fiber_pullback_degree_sums_seeded():
    from ffdyn.randgen import rand_split_fiber_instance
    from ffdyn.maps import fiber

    rng = Random(31)
    for _ in range(30):
        phi, A, P = rand_split_fiber_instance(rng, d=rng.choice([2, 3]))
        assert fiber(phi, A).degree_sum() == phi.d
        S = frozenset({rand_place(rng)})
        rec = fiber_pullback_defect(phi, 1, A, P, S)
        assert rec.normalizer >= 1


def test_lambda_sum_builds_one_cross_term(monkeypatch):
    # the cross term x0*y1 - y0*x1 is two coordinate products, made once for
    # all of S rather than once per place
    products = []
    mul = Poly.__mul__

    def counting_mul(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    S = frozenset([P_T, Place.finite(Poly.t() + Poly.one()), INF])
    assert lambda_sum(pt("t^2 + t"), pt("0"), S) == 2
    assert len(products) == 2
