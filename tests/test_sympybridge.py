"""The sympybridge names (the K[z] fallbacks through sympy, and the native
factorization and resultant re-exported from polynomials) against the
expression-level route over QQ."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffdyn.errors import DomainError
from ffdyn.polynomials import Poly, ZPoly
from ffdyn.sympybridge import (
    factor_tpoly,
    factor_zpoly_over_k,
    resultant_z,
    sqf_zpoly_over_k,
    zpoly_gcd_over_k,
)
from oracles import (
    sympy_factor_tpoly,
    sympy_factor_zpoly_over_k,
    sympy_resultant_z,
    sympy_sqf_zpoly_over_k,
    sympy_zpoly_gcd_over_k,
)

# rational, mostly non-integral coefficients
fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)
tpolys = st.lists(fractions, min_size=0, max_size=3).map(Poly.from_list)
nonzero_tpolys = tpolys.filter(lambda p: not p.is_zero)
# z-degree 0 to 2 over tpolys
zpolys = st.lists(tpolys, min_size=1, max_size=3).map(ZPoly.from_list).filter(
    lambda f: not f.is_zero
)
# t-polynomials of degree 1 and 2 with small integer coefficients
small_factors = st.lists(
    st.integers(-3, 3), min_size=2, max_size=3
).map(Poly.from_list).filter(lambda p: p.degree >= 1)
# monic linear factors z + a(t), to build repeated factors
linear_z = tpolys.map(lambda a: ZPoly.of(a, 1))


@given(zpolys, zpolys)
@settings(max_examples=150, deadline=None)
def test_resultant_matches_oracle(f, g):
    assert resultant_z(f, g) == sympy_resultant_z(f, g)


@given(nonzero_tpolys, zpolys, zpolys)
@settings(max_examples=60, deadline=None)
def test_resultant_with_shared_t_content(c, f, g):
    f, g = f.scale_poly(c), g.scale_poly(c)
    assert resultant_z(f, g) == sympy_resultant_z(f, g)


def test_resultant_denominator_correction():
    # Res(a z + b, c z + d) = a d - b c
    half, third = Fraction(1, 2), Fraction(1, 3)
    f = ZPoly.of(Poly.constant(1), Poly.constant(half))  # z/2 + 1
    g = ZPoly.of(Poly.of(0, Fraction(-1, 5)), Poly.constant(3))  # 3z - t/5
    assert resultant_z(f, g) == Poly.of(-3, Fraction(-1, 10))
    # a z-constant operand: Res(f, c) = c^deg f
    c = ZPoly.of(Poly.of(third, 1))  # t + 1/3
    q = ZPoly.of(Poly.constant(half), 0, Poly.of(0, third))  # t/3 z^2 + 1/2
    assert resultant_z(q, c) == Poly.of(third, 1) ** 2
    assert resultant_z(c, q) == Poly.of(third, 1) ** 2
    assert resultant_z(c, c) == Poly.one()
    with pytest.raises(DomainError):
        resultant_z(f, ZPoly.zero())


def _check_gcd(f, g):
    h, cf, cg = zpoly_gcd_over_k(f, g)
    assert h == sympy_zpoly_gcd_over_k(f, g)
    assert h * cf == f and h * cg == g


@given(zpolys, zpolys, zpolys)
@settings(max_examples=100, deadline=None)
def test_gcd_and_cofactors_match_oracle(a, b, common):
    _check_gcd(a * common, b * common)


@given(nonzero_tpolys, nonzero_tpolys, zpolys, zpolys, linear_z)
@settings(max_examples=60, deadline=None)
def test_gcd_with_shared_t_content(c, e, a, b, common):
    # the t-content c is a unit of K and must not reach the gcd
    _check_gcd((a * common).scale_poly(c), (b * common).scale_poly(c * e))


def test_gcd_degenerate_operands():
    f = ZPoly.of(Poly.t(), 1)
    assert zpoly_gcd_over_k(ZPoly.zero(), f) == (f, ZPoly.zero(), ZPoly.one())
    assert zpoly_gcd_over_k(f, ZPoly.zero()) == (f, ZPoly.one(), ZPoly.zero())
    c = ZPoly.of(Poly.of(1, 2))
    assert zpoly_gcd_over_k(f, c) == (ZPoly.one(), f, c)


@given(zpolys, linear_z, linear_z, nonzero_tpolys)
@settings(max_examples=80, deadline=None)
def test_sqf_with_repeated_factors_matches_oracle(a, b, c, content):
    f = (a * b**2 * c**3).scale_poly(content)
    assert sqf_zpoly_over_k(f) == sympy_sqf_zpoly_over_k(f)


@given(zpolys, zpolys)
@settings(max_examples=60, deadline=None)
def test_factor_zpoly_matches_oracle(a, b):
    f = a * b * a
    assert factor_zpoly_over_k(f) == sympy_factor_zpoly_over_k(f)


@given(
    st.lists(st.tuples(small_factors, st.integers(1, 3)), min_size=1, max_size=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
)
@settings(max_examples=100, deadline=None)
def test_factor_tpoly_matches_oracle(parts, unit):
    p = Poly.constant(unit)
    for q, k in parts:
        p = p * q**k
    got = factor_tpoly(p)
    # equal tuples: same unit, factors, multiplicities and order
    assert got == sympy_factor_tpoly(p)
    lead, factors = got
    keys = [(q.degree, q.coeffs) for q, _ in factors]
    assert keys == sorted(keys)
    prod = Poly.constant(lead)
    for q, k in factors:
        assert q.is_monic
        prod = prod * q**k
    assert prod == p


def test_factor_tpoly_several_factors():
    t = Poly.t()
    p = (t**2 + Poly.one()) * (t - Poly.one()) ** 2 * t.scale(Fraction(3, 2))
    unit, factors = factor_tpoly(p)
    assert unit == Fraction(3, 2)
    assert factors == (
        (Poly.of(-1, 1), 2),
        (Poly.t(), 1),
        (Poly.of(1, 0, 1), 1),
    )
