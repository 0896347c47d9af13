"""Rational maps of P^1 over Q(t): normalization, evaluation, resultants,
fibers, ramification and structural classification."""

from fractions import Fraction
from random import Random

import pytest

from ffdyn import (
    Place,
    apply_map,
    bad_reduction_places,
    choose_m,
    compose,
    fiber,
    is_exceptional,
    is_polynomial_iterate,
    isotriviality_heuristic,
    iterate,
    max_fiber_ram,
    normalize_map,
    parse_point,
    parse_rational_map,
    power,
    preimage_count_zero_infty,
    ramification_index,
    ramification_totals,
    resultant,
    special_form_classify,
)
from ffdyn.errors import DomainError
from ffdyn.exprs import map_text
from ffdyn.maps import (
    ProjectivePoint,
    SpecialForm,
    IsotrivialityVerdict,
    conjugate,
    mobius_inverse,
)
from ffdyn.polynomials import Poly, ZPoly
from ffdyn.randgen import rand_map, rand_point
from oracles import resultant_sylvester


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


def test_normalize_sign_convention():
    phi = parse_rational_map("(-z^2 - t)/(-1)")
    assert map_text(phi) == "z^2 + t"


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

    orbit = iterate(quad_quotient_map, pt("t"), 5)
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
        assert apply_map(cube, P) == iterate(quad_poly_map, P, 3)[-1]


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


def test_preimage_count(quad_poly_map, quad_quotient_map, monomial_map):
    # z^2+t: zeros of F (2 distinct), infinity -> infinity: 3 points
    assert preimage_count_zero_infty(quad_poly_map) == 3
    # (z^2-t)/z: zeros +-sqrt(t) distinct, pole 0, infinity -> infinity: 4
    assert preimage_count_zero_infty(quad_quotient_map) == 4
    # t z^2: {0, infinity} only
    assert preimage_count_zero_infty(monomial_map) == 2


# ---------------------------------------------------------------------------
# Structural classification
# ---------------------------------------------------------------------------


def test_special_form_classify(quad_poly_map, monomial_map):
    assert special_form_classify(monomial_map) == SpecialForm.MONOMIAL
    assert special_form_classify(quad_poly_map) == SpecialForm.NONE
    assert special_form_classify(parse_rational_map("t*(z-1)^2")) == SpecialForm.POWER
    assert (
        special_form_classify(parse_rational_map("t/(z-1)^2")) == SpecialForm.POWER
    )
    assert (
        special_form_classify(parse_rational_map("(z-1)^2/(z+1)^2"))
        == SpecialForm.QUOTIENT
    )
    assert special_form_classify(parse_rational_map("1/z^2")) == SpecialForm.MONOMIAL


def test_is_polynomial_iterate(quad_poly_map, quad_quotient_map):
    assert is_polynomial_iterate(quad_poly_map, 1)
    assert is_polynomial_iterate(quad_poly_map, 2)
    assert not is_polynomial_iterate(quad_quotient_map, 1)
    assert not is_polynomial_iterate(quad_quotient_map, 2)


def test_isotriviality_heuristic(quad_poly_map, monomial_map):
    const = parse_rational_map("z^2+1")
    assert (
        isotriviality_heuristic(const).verdict
        == IsotrivialityVerdict.CONSTANT_COEFFICIENTS
    )
    res = isotriviality_heuristic(monomial_map, search_degree_bound=1)
    assert res.verdict == IsotrivialityVerdict.ISOTRIVIAL_WITNESS
    # the witness actually conjugates to constant coefficients
    assert conjugate(monomial_map, res.witness).coefficient_height() == 0
    assert (
        isotriviality_heuristic(quad_poly_map, search_degree_bound=1).verdict
        == IsotrivialityVerdict.UNKNOWN
    )


def test_mobius_inverse():
    M = parse_rational_map("(t*z+1)/(z-1)")
    Minv = mobius_inverse(M)
    assert compose(M, Minv).F == ZPoly.z()
    assert compose(M, Minv).G == ZPoly.one()
