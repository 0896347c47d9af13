"""Exact polynomial arithmetic in Q[t] and Q[t][z]."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random
from unittest import mock

import pytest
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ffdyn.errors import DomainError
from ffdyn.exprs import parse_rational_map
from ffdyn.maps import resultant
import ffdyn.polynomials as polynomials
from ffdyn.polynomials import (
    _KRONECKER_BIG_BITS,
    _KRONECKER_BIG_LEN,
    _KRONECKER_MIN_LEN,
    Poly,
    ZPoly,
    binary_form_values,
    factor_tpoly,
    form_resultant,
    is_irreducible_tpoly,
    poly_gcd,
    primitive_pair,
    rational_content,
    resultant_z,
)
from oracles import (
    form_resultant_sylvester,
    fraction_divmod,
    fraction_gcd,
    fraction_mul,
    monomial_table_eval,
    resultant_sylvester,
    sympy_dup_factor_tpoly,
    sympy_factor_tpoly,
    sympy_poly_gcd,
    sympy_resultant_z,
    zpoly_mul_by_coefficients,
)

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
    assert rational_content((a,)) == 2
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


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_primitive_pair_is_the_signed_integer_associate(a, b):
    assume(not (a.is_zero and b.is_zero))
    a2, b2 = primitive_pair(a, b)
    assert a2.den == b2.den == 1 and rational_content((a2, b2)) == 1
    assert (b2 if not b2.is_zero else a2).leading > 0
    c = (b2 if not b.is_zero else a2).leading / (b if not b.is_zero else a).leading
    assert (a2, b2) == (a.scale(c), b.scale(c))
    assert primitive_pair(a2, b2) == (a2, b2)


monomials = st.builds(
    lambda c, k: Poly.from_list([0] * k + [c]),
    st.fractions(max_denominator=12).filter(bool),
    st.integers(0, 12),
)


@given(st.one_of(monomials, st.just(Poly.zero())), st.integers(0, 9))
@settings(max_examples=100, deadline=None)
def test_monomial_power_matches_repeated_products(m, n):
    expected = Poly.one()
    for _ in range(n):
        expected = expected * m
    assert m**n == expected


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


@pytest.mark.parametrize(
    "n", [1, 3, _KRONECKER_BIG_LEN - 1, _KRONECKER_BIG_LEN, _KRONECKER_MIN_LEN - 1]
)
def test_big_coefficient_products_match_fraction_oracle(n):
    # both sides of the size rule of _int_mul: a top coefficient of exactly
    # _KRONECKER_BIG_BITS bits, and the schoolbook square below the crossover
    rng = Random(n)
    bound = 1 << _KRONECKER_BIG_BITS

    def poly(length):
        body = [rng.randrange(-bound, bound) for _ in range(length - 1)]
        return Poly.from_list(body + [-(bound >> 1) - rng.randrange(bound >> 1)])

    a, b = poly(n), poly(n + 2)
    assert a.ints[-1].bit_length() == _KRONECKER_BIG_BITS
    assert a * b == fraction_mul(a, b)
    assert a * a == fraction_mul(a, a)


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


# ---------------------------------------------------------------------------
# The native gcd against sympy's dup_gcd
# ---------------------------------------------------------------------------


@st.composite
def int_polys(draw, bits, max_len):
    """Integer Poly of 1..max_len coefficients of up to `bits` bits, with
    runs of zeros and a nonzero leading coefficient."""
    n = draw(st.integers(1, max_len))
    if bits <= 64:
        c = st.integers(-(1 << bits), 1 << bits)
    else:  # hypothesis cannot print bounds of thousands of digits
        c = st.builds(
            lambda seed, sign: sign * Random(seed).getrandbits(bits),
            st.integers(0, 1 << 32),
            st.sampled_from((1, -1)),
        )
    body = draw(st.lists(st.one_of(st.just(0), c), min_size=n - 1, max_size=n - 1))
    return Poly.from_list(body + [draw(c.filter(bool))])


# (coefficient bits, longest operand): 1 to 20,000 bits
gcd_sizes = st.sampled_from(((1, 9), (8, 9), (64, 8), (600, 6), (2000, 5), (20000, 3)))


@st.composite
def gcd_operands(draw):
    """a = g*x*c1, b = g*y*c2: a shared factor g, cofactors x, y and
    rational contents c1, c2, each part with its own coefficient size."""
    parts = []
    for _ in range(3):
        bits, max_len = draw(gcd_sizes)
        parts.append(draw(int_polys(bits, max_len)))
    g, x, y = parts
    contents = st.fractions(min_value=-1000, max_value=1000, max_denominator=99)
    c1, c2 = (draw(contents.filter(bool)) for _ in range(2))
    return (g * x).scale(c1), (g * y).scale(c2)


@given(gcd_operands())
@settings(max_examples=120, deadline=None)
def test_gcd_matches_dup_gcd(ab):
    a, b = ab
    assert poly_gcd(a, b) == sympy_poly_gcd(a, b)


@given(gcd_operands())
@settings(max_examples=40, deadline=None)
def test_gcd_prs_fallback_matches_dup_gcd(ab):
    a, b = ab
    with mock.patch.object(polynomials, "_heuristic_gcd", lambda f, g: None):
        assert poly_gcd(a, b) == sympy_poly_gcd(a, b)


def _rand_poly(rng: Random, deg: int, bits: int) -> Poly:
    body = [rng.randint(-(1 << bits), 1 << bits) for _ in range(deg)]
    return Poly.from_list(body + [1 + rng.getrandbits(bits)])


def test_gcd_degree_certificate_paths():
    rng = Random(5)

    def rand(deg, bits):
        return _rand_poly(rng, deg, bits)

    # coefficients above _HEU_BOUND_BYTES: the degree mod p decides coprime
    # operands, and certifies a shared factor at the smaller first point
    for shared in (0, 1, 4):
        g = rand(shared, 300) if shared else Poly.one()
        a, b = g * rand(6, 4000), g * rand(5, 4000)
        assert poly_gcd(a, b) == sympy_poly_gcd(a, b) == g.monic()
    # leading coefficients divisible by the first word primes
    p0, p1, p2 = polynomials._WORD_PRIMES
    f, g = Poly.of(3, 1, p0 * p1), Poly.of(-5, 2, p0 * p1)
    assert polynomials._gcd_degree_mod_p(f.ints, g.ints) == 0
    lead = p0 * p1 * p2
    f, g = Poly.of(3, lead), Poly.of(5, lead)
    assert polynomials._gcd_degree_mod_p(f.ints, g.ints) is None
    x = Poly.of(7, lead)
    a, b = x * Poly.of(1 << 700, 3, 1), x * Poly.of(-(1 << 700), 1)
    assert poly_gcd(a, b) == sympy_poly_gcd(a, b) == x.monic()


def test_gcd_big_operands_against_dup_gcd():
    """Shared factors of degree 20 and 10 under coefficients of 2,000 and
    20,000 bits, as in the timings of CHANGES.md."""
    rng = Random(11)

    def rand(deg, bits):
        return _rand_poly(rng, deg, bits)

    for deg, bits, shared in ((120, 2000, 20), (30, 20000, 10)):
        g = rand(shared, bits // 4)
        a, b = g * rand(deg - shared, bits), g * rand(deg - shared, bits)
        assert poly_gcd(a, b) == sympy_poly_gcd(a, b) == g.monic()


@given(polys_of_length(), polys_of_length(n=4), primitive_non_monic())
@settings(max_examples=40, deadline=None)
def test_long_remainder_matches_fraction_oracle(a, b, p):
    # a dividend many times longer than a non-monic divisor
    long = a * a * b + a
    for divisor in (b, p, p.scale(Fraction(3, 7))):
        q, r = long.divmod(divisor)
        assert (q, r) == fraction_divmod(long, divisor)
        assert_canonical(q)
        assert_canonical(r)


def test_polynomials_imports_without_sympy():
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "import ffdyn.polynomials as p\n"
        "a = p.Poly.of(-1, 0, 1)\n"
        "assert p.poly_gcd(a, p.Poly.of(1, 1) * p.Poly.of(3, 2)) == p.Poly.of(1, 1)\n"
    )
    src = str(Path(polynomials.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr


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
    assert f.homogeneous_eval(a, b, 2) == direct
    # degree-3 homogenization multiplies by the extra power of b
    assert f.homogeneous_eval(a, b, 3) == direct * b


def test_homogeneous_eval_zpoly_arguments():
    # composing z^2 + t with itself through the homogeneous route
    f = ZPoly.of(Poly.t(), 0, 1)
    F = f.homogeneous_eval(f, ZPoly.one(), 2)
    # (z^2+t)^2 + t
    expected = f * f + ZPoly.of(Poly.t())
    assert F == expected


# signed integers up to 2^300 and rationals, as the residue paths pass
kernel_coeffs = st.one_of(
    st.integers(-(1 << 300), 1 << 300),
    st.integers(-9, 9),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
)
kernel_polys = st.lists(kernel_coeffs, max_size=4).map(Poly.from_list)
kernel_zpolys = st.lists(kernel_polys, max_size=3).map(ZPoly.from_list)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_binary_form_values_match_the_monomial_table(data):
    # Poly and ZPoly pairs, d = 1..5, zero coordinates, forms of degree < d
    d = data.draw(st.integers(1, 5), label="d")
    form = st.lists(kernel_polys, max_size=d + 1).map(ZPoly.from_list)
    forms = data.draw(st.lists(form, min_size=1, max_size=3), label="forms")
    coordinates, zero = data.draw(
        st.sampled_from(((kernel_polys, Poly.zero()), (kernel_zpolys, ZPoly.zero())))
    )
    a = data.draw(st.one_of(st.just(zero), coordinates), label="a")
    b = data.draw(coordinates, label="b")
    expected = [monomial_table_eval(f, a, b, d) for f in forms]
    assert binary_form_values(forms, a, b, d) == expected
    assert forms[0].homogeneous_eval(a, b, d) == expected[0]


# z-coefficients with zeros among them (gaps in degree), constants in z,
# rationals and wide integers
mul_zpolys = st.lists(st.one_of(st.just(Poly.zero()), kernel_polys), max_size=5).map(
    ZPoly.from_list
)


@given(mul_zpolys, mul_zpolys)
@settings(max_examples=150, deadline=None)
def test_zpoly_mul_matches_the_coefficient_double_loop(f, g):
    assert f * g == zpoly_mul_by_coefficients(f, g)
    assert f * f == zpoly_mul_by_coefficients(f, f)


def test_zpoly_mul_edge_cases():
    t = Poly.t()
    gap = ZPoly.of(Fraction(1, 3), 0, 0, t)  # t z^3 + 1/3
    const = ZPoly.of(Poly.of(Fraction(-2, 5), 0, 1))  # t^2 - 2/5, constant in z
    zero = ZPoly.zero()
    for a, b in [(gap, zero), (zero, gap), (zero, zero), (gap, const), (const, gap),
                 (const, const), (gap, gap), (gap, ZPoly.z()), (ZPoly.one(), gap)]:
        assert a * b == zpoly_mul_by_coefficients(a, b)
    assert gap * ZPoly.one() == gap


def test_integer_rows_clear_the_denominators_once():
    f = ZPoly.of(Poly.of(Fraction(1, 2), 1), 0, Poly.of(0, Fraction(2, 3)))
    g = ZPoly.of(Poly.of(Fraction(1, 2), 1), 0, Poly.of(0, Fraction(2, 3)))
    assert f.integer_rows == (((3, 6), (), (0, 4)), 6)
    assert f.integer_rows is f.integer_rows
    # the cached view is no field: equality and hash ignore it
    assert f == g and hash(f) == hash(g)
    assert ZPoly.zero().integer_rows == ((), 1)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_form_resultant_matches_the_sylvester_determinant(data):
    # sides of z-degree below d on either side, zero sides, d = 0
    d = data.draw(st.integers(0, 4), label="d")
    form = st.lists(rat_tpolys, max_size=d + 1).map(ZPoly.from_list)
    f, g = data.draw(form, label="f"), data.draw(form, label="g")
    slow = form_resultant_sylvester(f, g, d)
    assert form_resultant(f, g, d) in (slow, -slow)


def test_form_resultant_conventions():
    t = Poly.t()
    f = ZPoly.of(t, 0, 1)  # z^2 + t
    g = ZPoly.of(1, t)  # t z + 1
    assert form_resultant(ZPoly.zero(), ZPoly.zero(), 0) == Poly.one()
    assert form_resultant(ZPoly.of(2), ZPoly.of(Poly.t()), 0) == Poly.one()
    assert form_resultant(f, ZPoly.zero(), 2).is_zero
    assert form_resultant(ZPoly.zero(), f, 2).is_zero
    assert form_resultant(g, ZPoly.of(3), 2).is_zero  # x1 divides both forms
    # deg g < d: Res(x0^2 + t x1^2, t x0 x1 + x1^2) = lc(f) * Res_z(f, g)
    assert form_resultant(f, g, 2) == resultant_z(f, g) == Poly.of(1, 0, 0, 1)
    assert form_resultant(g, f, 2) == resultant_z(g, f)
    with pytest.raises(DomainError):
        form_resultant(f, g, 1)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_eval_pow2_matches_the_direct_sum_for_coefficients_past_the_point(k):
    # coefficients of about 40 slots of 8k bits: r residue classes, r >> len f
    rng = Random(k)
    for n in (1, 2, 3, 7):
        f = [rng.choice((-1, 1)) * rng.getrandbits(8 * k * 40 + 5) for _ in range(n)]
        f[0] = 0 if n > 2 else f[0]
        r = -(-max(map(abs, f)).bit_length() // (8 * k))
        assert r > 4 * n
        direct = sum(c * (1 << (8 * k * i)) for i, c in enumerate(f))
        assert polynomials._eval_pow2(f, k) == direct


def test_homogeneous_eval_rejects_a_degree_below_the_form():
    f = ZPoly.of(Poly.t(), 0, 1)
    with pytest.raises(DomainError):
        f.homogeneous_eval(Poly.one(), Poly.one(), 1)
    with pytest.raises(DomainError):
        binary_form_values((f,), Poly.one(), Poly.one(), -1)


def test_zpoly_content_and_exact_div():
    f = ZPoly.of(Poly.of(0, 2), Poly.of(0, 0, 4))  # 4t^2 z + 2t
    assert f.content_poly() == Poly.t()
    assert rational_content(f.coeffs) == 2
    assert f.exact_div_poly(Poly.t()) == ZPoly.of(Poly.of(2), Poly.of(0, 4))


# ---------------------------------------------------------------------------
# Native factorization in Q[t] against sympy's dup_factor_list and factor_list
# ---------------------------------------------------------------------------


def _product(unit, parts):
    p = Poly.constant(unit)
    for q, k in parts:
        p = p * q**k
    return p


def _check_factorization(p):
    got = factor_tpoly(p)
    # equal tuples: the same unit, factors, multiplicities and order
    assert got == sympy_dup_factor_tpoly(p)
    unit, factors = got
    assert unit == p.leading
    assert all(q.is_monic for q, _ in factors)
    assert _product(unit, factors) == p


factor_parts = st.lists(
    st.tuples(
        st.sampled_from((1, 8, 64)).flatmap(lambda bits: int_polys(bits, 6)).filter(
            lambda q: q.degree >= 1
        ),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=4,
)
units = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@given(factor_parts, units)
@settings(max_examples=80, deadline=None)
def test_factor_tpoly_matches_dup_factor_list(parts, unit):
    _check_factorization(_product(unit, parts))


@given(factor_parts, units)
@settings(max_examples=25, deadline=None)
def test_factor_tpoly_matches_factor_list_over_qq(parts, unit):
    p = _product(unit, parts)
    assert factor_tpoly(p) == sympy_factor_tpoly(p)


# Swinnerton-Dyer polynomials: the minimal polynomials of sqrt2 + sqrt3 and
# sqrt2 + sqrt3 + sqrt5, irreducible over Q but split into factors of degree
# at most 2 modulo every prime, so only recombination proves them
# irreducible.
_SD4 = Poly.of(1, 0, -10, 0, 1)
_SD8 = Poly.of(576, 0, -960, 0, 352, 0, -40, 0, 1)


@pytest.mark.parametrize("sd", [_SD4, _SD8])
def test_swinnerton_dyer_needs_recombination(sd):
    dsd = sd.derivative().ints
    good = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        fp = polynomials._mod_monic(polynomials._trim_mod(sd.ints, p), p)
        if len(polynomials._mod_gcd(fp, polynomials._trim_mod(dsd, p), p)) > 1:
            continue  # p divides the discriminant
        good += 1
        parts = polynomials._ddf(fp, p)
        assert all(d <= 2 for _, d in parts)
        assert sum((len(g) - 1) // d for g, d in parts) >= sd.degree // 2
    assert good >= 6
    assert is_irreducible_tpoly(sd)
    assert factor_tpoly(sd) == (Fraction(1), ((sd, 1),))


def test_swinnerton_dyer_products_and_powers():
    t = Poly.t()
    for p in (_SD4 * _SD8, _SD4**2 * _SD8.scale(Fraction(-2, 3)), _SD8 * (t - Poly.one()) ** 3,
              _SD4 * _SD4.shift(1) * t):
        _check_factorization(p)


def test_leading_coefficient_divisible_by_the_first_primes():
    # 3*5*...*31 divides lc, so every odd prime up to 31 is skipped
    lc = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31
    t = Poly.t()
    for p in (
        Poly.of(1, lc) * Poly.of(lc, 0, 1),
        Poly.of(-1, 0, 0, lc) * Poly.of(7, 1, lc) ** 2,
        _SD4.scale(lc) + Poly.of(0, 0, 0, 0, 0, lc),
        Poly.of(2, 0, 3 * lc) * Poly.of(5, -3, 0, lc) * t,
    ):
        _check_factorization(p)


def test_repeated_factors():
    t = Poly.t()
    f, g, h = Poly.of(1, 1), Poly.of(-2, 0, 1), Poly.of(1, 1, 0, 1)
    for p in (f**2 * g**3, f * g**2 * h**3 * t**4, (f * g) ** 4, h**5 * t):
        _check_factorization(p)
    assert factor_tpoly(f**2 * g**3) == (Fraction(1), ((f, 2), (g, 3)))


@pytest.mark.parametrize("seed", range(4))
def test_large_and_rational_coefficients(seed):
    rng = Random(seed)

    def rand(deg, bits, den=1):
        return Poly.from_list(
            [Fraction(rng.getrandbits(bits) - (1 << (bits - 1)), rng.randint(1, den))
             for _ in range(deg)] + [Fraction(rng.getrandbits(bits) | 1, rng.randint(1, den))]
        )

    # 1,000-bit coefficients; rational coefficients with denominators below 50
    _check_factorization(rand(3, 1000) * rand(4, 1000) * rand(1, 1000) ** 2)
    _check_factorization(rand(2, 40, 49) * rand(5, 40, 49) * rand(3, 8, 49) ** 2)


def test_degree_one_constants_and_zero():
    assert factor_tpoly(Poly.of(Fraction(3, 4), Fraction(-1, 2))) == (
        Fraction(-1, 2), ((Poly.of(Fraction(-3, 2), 1), 1),)
    )
    assert factor_tpoly(Poly.constant(Fraction(-5, 7))) == (Fraction(-5, 7), ())
    assert not is_irreducible_tpoly(Poly.constant(3))
    assert is_irreducible_tpoly(Poly.of(5, 2))
    with pytest.raises(DomainError):
        factor_tpoly(Poly.zero())
    assert not is_irreducible_tpoly(Poly.zero())


def test_degree_64_product_of_200_bit_coefficients():
    rng = Random(64)
    parts = [
        Poly.from_list(
            [rng.getrandbits(25) - (1 << 24) for _ in range(8)] + [rng.getrandbits(24) | 1]
        )
        for _ in range(8)
    ]
    _check_factorization(_product(1, [(q, 1) for q in parts]))


# ---------------------------------------------------------------------------
# Native resultant against sympy's resultant and the Sylvester oracle
# ---------------------------------------------------------------------------


rat_tpolys = st.lists(
    st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=6)), max_size=4
).map(Poly.from_list)
res_zpolys = st.lists(rat_tpolys, min_size=1, max_size=6).map(ZPoly.from_list).filter(
    lambda f: not f.is_zero
)


@given(res_zpolys, res_zpolys)
@settings(max_examples=120, deadline=None)
def test_resultant_matches_sympy(f, g):
    assert resultant_z(f, g) == sympy_resultant_z(f, g)


@given(res_zpolys, res_zpolys, res_zpolys.filter(lambda h: h.degree >= 1))
@settings(max_examples=40, deadline=None)
def test_resultant_of_a_shared_factor_is_zero(f, g, h):
    assert resultant_z(f * h, g * h).is_zero


def test_resultant_special_shapes():
    t = Poly.t()
    f = ZPoly.of(Poly.of(1, Fraction(1, 2)), 0, t)  # t z^2 + t/2 + 1
    c = ZPoly.of(Poly.of(Fraction(2, 3), 0, 1))  # deg_z G = 0
    assert resultant_z(f, c) == Poly.of(Fraction(2, 3), 0, 1) ** 2
    assert resultant_z(c, f) == resultant_z(f, c)
    # sympy's sign convention: the operand of larger z-degree comes first, so
    # both orders give the Sylvester determinant Res(z^3 + 1, z) = -1
    z = ZPoly.z()
    g = ZPoly.of(1, 0, 0, 1)  # z^3 + 1
    assert resultant_z(z, g) == resultant_z(g, z) == Poly.of(-1)
    assert sympy_resultant_z(z, g) == sympy_resultant_z(g, z) == Poly.of(-1)
    # a shared factor z - t
    assert resultant_z(ZPoly.of(-t, 1) * f, ZPoly.of(-t, 1) * ZPoly.of(1, 1)).is_zero
    with pytest.raises(DomainError):
        resultant_z(ZPoly.zero(), f)


def test_bareiss_pivots_and_zero_columns():
    one, two, t = [1], [2], [0, 1]
    # a zero first pivot swaps rows and flips the sign
    assert polynomials._bareiss_det([[[], one], [one, []]]) == [-1]
    assert polynomials._bareiss_det([[[], two, []], [one, [], t], [[], [], one]]) == [-2]
    # a zero column below the pivot gives 0
    assert polynomials._bareiss_det([[one, t, two], [two, [0, 2], [1, 1]], [[], [], t]]) == []


@pytest.mark.parametrize(
    "text",
    ["(t)/(z^2 + 1)", "(z + t)/(t*z^2 - 1)", "(z^3 + t)/(t*z)", "z^2 + t", "(2*z^2 - t)/(z^2)"],
)
def test_map_resultant_with_a_vanishing_leading_coefficient(text):
    # deg F or deg G below d: the homogenized leading coefficient vanishes
    phi = parse_rational_map(text)
    assert resultant(phi).monic() == resultant_sylvester(phi).monic()


# ---------------------------------------------------------------------------
# sympy loads only for the K[z] fallbacks
# ---------------------------------------------------------------------------


def test_kz_fallback_imports_sympy_on_demand():
    code = (
        "import sys\n"
        "import ffdyn.cli\n"
        "from ffdyn.exprs import map_text\n"
        "from ffdyn.maps import normalize_map\n"
        "from ffdyn.polynomials import Poly, ZPoly\n"
        "assert 'sympy' not in sys.modules\n"
        "common = ZPoly.of(-Poly.t(), Poly.one())\n"
        "phi = normalize_map(common * ZPoly.of(1, 1), common * ZPoly.of(Poly.t(), 0, 1))\n"
        "assert map_text(phi) == '(z + 1)/(z^2 + t)', map_text(phi)\n"
        "assert 'sympy' in sys.modules\n"
    )
    src = str(Path(polynomials.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
