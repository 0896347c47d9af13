"""Field elements of Q(t), places, valuations, heights and S-predicates."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ffdyn import (
    FieldElement,
    Place,
    height_elem,
    height_elem_place_sum,
    is_S_integer,
    is_S_unit,
    log_abs,
    ord_at,
    product_formula_defect,
    s_free_part,
    support,
)
from ffdyn.errors import DomainError
from ffdyn.function_field import poly_ord, s_split
from ffdyn.polynomials import Poly
from ffdyn.randgen import rand_field_elem

from oracles import s_split_by_factoring

T = Poly.t()
INF = Place.infinity()
P_T = Place.finite(T)
P_T1 = Place.finite(Poly.of(1, 1))  # t + 1


def elem(num, den=Poly.one()):
    return FieldElement.make(num, den)


def test_make_reduces_and_monicizes():
    x = FieldElement.make(Poly.of(0, 2), Poly.of(0, 0, 2))  # 2t / 2t^2
    assert x.num == Poly.one()
    assert x.den == T
    assert FieldElement.make(Poly.zero(), T) == FieldElement.zero()
    with pytest.raises(DomainError):
        FieldElement.make(T, Poly.zero())


def test_field_axioms_small():
    x = elem(Poly.of(1, 1), T)
    y = elem(Poly.of(-1, 0, 1))
    assert (x + y) - y == x
    assert (x * y) / y == x
    assert x * x.inverse() == FieldElement.one()
    assert x ** (-2) == (x * x).inverse()


def test_place_validation():
    with pytest.raises(DomainError):
        Place.finite(Poly.of(0, 2))  # not monic
    with pytest.raises(DomainError):
        Place.finite(Poly.of(-1, 0, 1))  # t^2 - 1 reducible
    assert Place.finite(Poly.of(1, 0, 1)).degree == 2  # t^2 + 1 irreducible
    assert INF.degree == 1


def test_ord_and_log_abs_examples():
    # x = t^2/(t+1): ord_(t) = 2, ord_(t+1) = -1, ord_inf = -1
    x = elem(T * T, Poly.of(1, 1))
    assert ord_at(x, P_T) == 2
    assert ord_at(x, P_T1) == -1
    assert ord_at(x, INF) == -1
    assert log_abs(x, INF) == 1
    with pytest.raises(DomainError):
        ord_at(FieldElement.zero(), P_T)


def test_poly_ord():
    p = T * T * Poly.of(1, 1)
    assert poly_ord(p, T) == 2
    assert poly_ord(p, Poly.of(1, 1)) == 1
    assert poly_ord(p, Poly.of(2, 1)) == 0


def test_product_formula_seeded():
    rng = Random(7)
    for _ in range(300):
        x = rand_field_elem(rng, nonzero=True)
        assert product_formula_defect(x) == 0


def test_height_two_routes_agree_seeded():
    rng = Random(11)
    for _ in range(300):
        x = rand_field_elem(rng)
        assert height_elem(x) == height_elem_place_sum(x)


def test_height_examples():
    assert height_elem(FieldElement.zero()) == 0
    assert height_elem(elem(Poly.of(1, 0, 1), T)) == 2  # (t^2+1)/t
    assert height_elem(elem(Poly.of(5))) == 0


def test_support():
    x = elem(T * T, Poly.of(1, 1))
    sup = support(x)
    assert set(sup) == {P_T, P_T1}


def test_is_S_integer():
    S = frozenset([INF])
    # nonconstant polynomials have a pole at infinity
    assert not is_S_integer(elem(Poly.of(3, 1)), frozenset())
    assert is_S_integer(elem(Poly.of(3, 1)), S)
    assert is_S_integer(FieldElement.zero(), frozenset())
    # 1/t needs (t) in S
    x = elem(Poly.one(), T)
    assert not is_S_integer(x, S)
    assert is_S_integer(x, frozenset([P_T]))  # integral at infinity too
    assert is_S_integer(elem(Poly.of(7)), frozenset())  # constants always


def test_is_S_unit():
    S = frozenset([P_T, INF])
    assert is_S_unit(elem(T), S)
    assert is_S_unit(elem(T, Poly.of(1, 1)) * elem(Poly.of(1, 1), Poly.one()), S)
    assert not is_S_unit(elem(Poly.of(1, 1)), S)  # t+1 not an S-unit
    assert not is_S_unit(FieldElement.zero(), S)
    assert is_S_unit(elem(Poly.of(5)), frozenset())  # nonzero constants
    # t/(t+1) is a unit for S = {(t), (t+1)} (degrees match at infinity)
    S2 = frozenset([P_T, P_T1])
    assert is_S_unit(elem(T, Poly.of(1, 1)), S2)
    assert not is_S_unit(elem(T), S2)


@given(st.integers(-40, 40), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_constants_have_zero_height(a, b):
    x = FieldElement.from_rational(Fraction(a, b))
    assert height_elem(x) == 0
    if a != 0:
        assert product_formula_defect(x) == 0


_small = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=4
).map(Poly.from_list)


@given(_small, _small.filter(lambda p: not p.is_zero), st.integers(-3, 5))
@settings(max_examples=150, deadline=None)
def test_power_matches_make(num, den, n):
    x = FieldElement.make(num, den)
    assume(n >= 0 or not x.is_zero)
    if n >= 0:
        expected = FieldElement.make(x.num**n, x.den**n)
    else:
        expected = FieldElement.make(x.den**-n, x.num**-n)
    assert x**n == expected


def test_power_of_zero():
    zero = FieldElement.zero()
    assert zero**0 == FieldElement.one()
    assert zero**3 == zero


def test_inverse_computes_no_gcd(count_calls):
    rng = Random(31)
    xs = [rand_field_elem(rng, max_deg=4, cmax=7, nonzero=True) for _ in range(40)]
    calls = count_calls("poly_gcd")
    inverses = [x.inverse() for x in xs]
    assert calls == []
    for x, y in zip(xs, inverses):
        assert y == FieldElement.make(x.den, x.num)


def test_s_free_part_examples():
    # 6t^2 (t + 1) / (t - 1)^3 over S = {(t)}: infinity is outside S
    x = elem(Poly.of(0, 0, 6) * Poly.of(1, 1), Poly.of(-1, 1) ** 3)
    assert s_free_part(x, frozenset([P_T])) == (Poly.of(1, 1), Poly.of(-1, 1) ** 3, 0)
    assert s_free_part(x, frozenset([P_T1, INF])) == (T * T, Poly.of(-1, 1) ** 3, 0)
    assert s_free_part(elem(Poly.of(0, 3)), frozenset()) == (T, Poly.one(), -1)
    with pytest.raises(DomainError):
        s_free_part(FieldElement.zero(), frozenset([INF]))
    # s_split adds the orders at the finite places of S: 2 at t, -3 at t - 1
    S = frozenset([P_T, Place.finite(Poly.of(-1, 1)), INF])
    part, ords = s_split(x, S)
    assert part == (Poly.of(1, 1), Poly.one(), 0)
    assert sorted(ords) == [-3, 2]
    assert s_split(elem(Poly.of(0, 3)), frozenset()) == ((T, Poly.one(), -1), [])


# places for s_split: t (the low-zeros path of _split_place), linear places
# with integer and rational roots, and places of degree 2
_SPLIT_PLACES = (
    P_T,
    P_T1,
    Place.finite(Poly.of(Fraction(-3, 2), 1)),
    Place.finite(Poly.of(1, 0, 1)),
    Place.finite(Poly.of(Fraction(1, 3), 1, 1)),
    INF,
)


@pytest.mark.parametrize("seed", range(40))
def test_s_split_is_s_free_part_and_ord_at_seeded(seed):
    rng = Random(4300 + seed)
    # a random element times place powers of both signs, so that orders
    # are positive, negative and zero
    x = rand_field_elem(rng, max_deg=2, cmax=5, nonzero=True)
    for v in _SPLIT_PLACES[:-1]:
        e = rng.randint(-3, 3)
        factor = FieldElement.from_poly(v.poly)
        x = x * factor**e
    S = frozenset(rng.sample(_SPLIT_PLACES, rng.randint(0, len(_SPLIT_PLACES))))
    part, ords = s_split(x, S)
    assert part == s_free_part(x, S)
    assert ords == [ord_at(x, v) for v in S if not v.is_infinite]
    assert (part, ords) == s_split_by_factoring(x, S)


# products of a few place polynomials, so that quotients are often S-units
_FACTORS = (T, Poly.of(1, 1), Poly.of(1, 0, 1), Poly.of(-2, 1))
_PLACES = (P_T, P_T1, Place.finite(Poly.of(1, 0, 1)), INF)


def _product(c: Fraction, exponents: list[int]) -> FieldElement:
    num, den = Poly.constant(c), Poly.one()
    for p, e in zip(_FACTORS, exponents):
        if e > 0:
            num = num * p**e
        else:
            den = den * p**-e
    return FieldElement.make(num, den)


_exponents = st.lists(st.integers(-2, 2), min_size=4, max_size=4)
# y's exponents are x's plus a shift that is mostly 0
_shifts = st.lists(st.sampled_from((0, 0, 0, 1, -1)), min_size=4, max_size=4)
_units = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@given(_units, _exponents, _units, _shifts, st.sets(st.sampled_from(_PLACES)))
@settings(max_examples=300, deadline=None)
def test_equal_s_free_parts_iff_quotient_is_S_unit(c, ex, d, shift, S):
    x = _product(c, ex)
    y = _product(d, [e + de for e, de in zip(ex, shift)])
    S = frozenset(S)
    assert is_S_unit(x / y, S) == (s_free_part(x, S) == s_free_part(y, S))


@given(_units, _exponents, st.sets(st.sampled_from(_PLACES)))
@settings(max_examples=200, deadline=None)
def test_is_S_integer_reads_the_s_free_denominator(c, ex, S):
    x = _product(c, ex)
    S = frozenset(S)
    _, b, o = s_free_part(x, S)
    assert is_S_integer(x, S) == (b.is_constant and o >= 0)
    # the definition: no pole at a place outside S
    places = [Place.finite(p.monic()) for p in _FACTORS if p.degree > 0] + [INF]
    assert is_S_integer(x, S) == all(ord_at(x, v) >= 0 for v in places if v not in S)
