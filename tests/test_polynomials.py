"""Exact polynomial arithmetic in Q[t] and Q[t][z]."""

from fractions import Fraction

import pytest
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ffdyn.errors import DomainError
from ffdyn.polynomials import _KRONECKER_MIN_LEN, BinaryMonomials, Poly, ZPoly, poly_gcd
from oracles import fraction_divmod, fraction_gcd, fraction_mul

fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=8
)
polys = st.lists(fractions, min_size=0, max_size=6).map(Poly.from_list)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


def test_zero_poly_conventions():
    z = Poly.zero()
    assert z.degree == -1
    assert z.is_zero
    assert z.coeffs == ()
    assert Poly.of(0, 0, 0) == z


def test_basic_arithmetic():
    p = Poly.of(1, 2)  # 2t + 1
    q = Poly.of(-1, 0, 3)  # 3t^2 - 1
    assert p + q == Poly.of(0, 2, 3)
    assert p * q == Poly.of(-1, -2, 3, 6)
    assert (p - p).is_zero
    assert p.scale(Fraction(1, 2)) == Poly.of(Fraction(1, 2), 1)
    assert Poly.t() ** 3 == Poly.of(0, 0, 0, 1)


def test_divmod_and_exact_div():
    p = Poly.of(-1, 0, 1)  # t^2 - 1
    d = Poly.of(1, 1)  # t + 1
    q, r = p.divmod(d)
    assert q == Poly.of(-1, 1) and r.is_zero
    assert p.exact_div(d) == q
    with pytest.raises(DomainError):
        Poly.of(1, 1).exact_div(Poly.t())


def test_gcd_and_content():
    a = Poly.of(0, 2, 2)  # 2t^2 + 2t = 2t(t+1)
    b = Poly.of(0, 0, 4)  # 4t^2
    assert poly_gcd(a, b) == Poly.t()
    assert a.content() == 2
    assert a.primitive() == Poly.of(0, 1, 1)
    assert Poly.of(-2, -4).primitive() == Poly.of(1, 2)


@given(polys, polys, polys)
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@given(polys, nonzero_polys)
@settings(max_examples=100, deadline=None)
def test_divmod_invariant(a, b):
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=100, deadline=None)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    assert g.divides(a) and g.divides(b)
    assert g.is_monic


# ---------------------------------------------------------------------------
# Integer kernels against the Fraction oracles
# ---------------------------------------------------------------------------

huge_ints = st.builds(
    lambda m, sign: sign * m,
    st.integers(min_value=1 << 700, max_value=1 << 760),
    st.sampled_from((1, -1)),
)
coefficients = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    huge_ints,
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.builds(Fraction, huge_ints, st.integers(1, 1 << 40)),
)
# lengths on both sides of the Kronecker crossover
lengths = st.sampled_from(
    (1, 2, 5, _KRONECKER_MIN_LEN - 1, _KRONECKER_MIN_LEN, _KRONECKER_MIN_LEN + 7)
)


@st.composite
def polys_of_length(draw, n=None):
    """Poly with exactly n coefficients: signed, huge and rational entries,
    with a run of zeros cut into the body."""
    if n is None:
        n = draw(lengths)
    body = draw(st.lists(coefficients, min_size=n - 1, max_size=n - 1))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n - 1))
    body[lo:hi] = [0] * (hi - lo)
    lead = draw(coefficients.filter(bool))
    return Poly.from_list(body + [lead])


def assert_canonical(p: Poly):
    assert p.den > 0
    if p.is_zero:
        assert (p.ints, p.den) == ((), 1)
    else:
        assert p.ints[-1] != 0
        assert gcd(gcd(*p.ints), p.den) == 1


@given(polys_of_length(), polys_of_length())
@settings(max_examples=60, deadline=None)
def test_mul_matches_fraction_oracle(a, b):
    p = a * b
    assert p == fraction_mul(a, b)
    assert_canonical(p)


@given(polys_of_length())
@settings(max_examples=40, deadline=None)
def test_square_matches_fraction_oracle(a):
    assert a * a == fraction_mul(a, a)
    assert a**3 == fraction_mul(fraction_mul(a, a), a)


@st.composite
def primitive_non_monic(draw):
    """Primitive integer divisor with |leading coefficient| >= 2."""
    n = draw(st.integers(2, 6))
    body = draw(st.lists(st.integers(-30, 30), min_size=n - 1, max_size=n - 1))
    lead = draw(st.integers(2, 40)) * draw(st.sampled_from((1, -1)))
    return Poly.from_list(body + [lead]).primitive()


@given(primitive_non_monic(), polys_of_length(), st.fractions(min_value=1, max_value=9, max_denominator=9))
@settings(max_examples=60, deadline=None)
def test_exact_division_divisible(p, q, unit):
    a = p * q
    assert a.exact_quotient(p) == q
    # any rational multiple of the divisor divides too
    assert a.exact_quotient(p.scale(unit)) == q.scale(1 / unit)
    assert p.divides(a)
    assert_canonical(a.exact_div(p))


@given(primitive_non_monic(), polys_of_length(), polys_of_length())
@settings(max_examples=60, deadline=None)
def test_exact_division_not_divisible(p, q, r):
    r = fraction_divmod(r, p)[1]
    assume(not r.is_zero)
    a = p * q + r
    assert a.exact_quotient(p) is None
    assert not p.divides(a)
    with pytest.raises(DomainError):
        a.exact_div(p)
    qq, rr = a.divmod(p)
    assert (qq, rr) == fraction_divmod(a, p)
    assert rr == r


@given(polys_of_length(), polys_of_length(n=4), polys_of_length(n=3))
@settings(max_examples=40, deadline=None)
def test_divmod_matches_fraction_oracle(a, b, c):
    for x, y in ((a, b), (a, c), (b, c)):
        q, r = x.divmod(y)
        assert (q, r) == fraction_divmod(x, y)
        assert_canonical(q)
        assert_canonical(r)


@given(
    polys_of_length(n=3),
    st.lists(coefficients, max_size=8).map(Poly.from_list),
    st.lists(coefficients, max_size=8).map(Poly.from_list),
)
@settings(max_examples=60, deadline=None)
def test_gcd_matches_fraction_oracle(g, x, y):
    a, b = g * x, g * y
    assert poly_gcd(a, b) == fraction_gcd(a, b)
    assert poly_gcd(x, y) == fraction_gcd(x, y)


@given(
    st.lists(coefficients, max_size=30),
    st.fractions(min_value=-40, max_value=40, max_denominator=40).filter(bool),
)
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_unique(cs, k):
    direct = Poly.from_list(cs)
    by_arithmetic = Poly.zero()
    for i, c in enumerate(cs):
        by_arithmetic = by_arithmetic + Poly.constant(c * k).shift(i)
    by_arithmetic = by_arithmetic * Poly.constant(1 / k)
    by_scale = Poly.from_list([c * k for c in cs]).scale(1 / k)
    for p in (by_arithmetic, by_scale):
        assert (p.ints, p.den) == (direct.ints, direct.den)
        assert hash(p) == hash(direct)
    assert_canonical(direct)
    assert list(direct.coeffs) == [Fraction(c) for c in cs[: direct.degree + 1]]


def test_zpoly_basic():
    f = ZPoly.of(Poly.t(), 0, 1)  # z^2 + t
    assert f.degree == 2
    assert f.coeff(0) == Poly.t()
    assert f.leading == Poly.one()
    g = ZPoly.z() * ZPoly.z() + ZPoly.of(Poly.t())
    assert f == g
    assert f.derivative_z() == ZPoly.of(0, 2)
    assert f.max_coeff_tdegree() == 1


def test_homogeneous_eval_matches_substitution():
    # f(z) = z^2 + t evaluated as a degree-2 form at (a, b)
    f = ZPoly.of(Poly.t(), 0, 1)
    a, b = Poly.of(1, 1), Poly.of(0, 2)
    direct = a * a + Poly.t() * b * b
    assert f.homogeneous_eval(BinaryMonomials(a, b, 2)) == direct
    # degree-3 homogenization multiplies by the extra power of b
    assert f.homogeneous_eval(BinaryMonomials(a, b, 3)) == direct * b


def test_homogeneous_eval_zpoly_arguments():
    # composing z^2 + t with itself through the homogeneous route
    f = ZPoly.of(Poly.t(), 0, 1)
    F = f.homogeneous_eval(BinaryMonomials(f, ZPoly.one(), 2))
    # (z^2+t)^2 + t
    expected = f * f + ZPoly.of(Poly.t())
    assert F == expected


def test_zpoly_content_and_exact_div():
    f = ZPoly.of(Poly.of(0, 2), Poly.of(0, 0, 4))  # 4t^2 z + 2t
    assert f.content_poly() == Poly.t()
    assert f.rational_content() == 2
    assert f.exact_div_poly(Poly.t()) == ZPoly.of(Poly.of(2), Poly.of(0, 4))
