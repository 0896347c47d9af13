"""Heights, canonical-height intervals, classification and bound parameters."""

from fractions import Fraction
from random import Random

import pytest

from ffdyn import (
    Preperiodic,
    Wandering,
    apply_map,
    canonical_height,
    classify_preperiodic,
    displacement_bound,
    iterate_height_check,
    parse_point,
    parse_rational_map,
)
from ffdyn.cli import _read_gamma1
from ffdyn.errors import ConfigError, DomainError, OrbitBudgetError
from ffdyn.heights import HeightInterval
from ffdyn.randgen import rand_map, rand_point


def pt(text):
    return parse_point(text)


def test_map_height_examples(quad_poly_map, quad_quotient_map, monomial_map):
    assert quad_poly_map.coefficient_height() == 1
    assert quad_quotient_map.coefficient_height() == 1
    assert monomial_map.coefficient_height() == 1
    assert parse_rational_map("z^2+1").coefficient_height() == 0
    assert parse_rational_map("(z^2+t^3)/(t*z)").coefficient_height() == 3


def test_height_interval_validation():
    with pytest.raises(DomainError):
        HeightInterval(Fraction(1), Fraction(0))
    iv = HeightInterval(Fraction(1, 4), Fraction(3, 4))
    assert iv.width == Fraction(1, 2)
    assert iv.contains(Fraction(1, 2))
    assert not iv.contains(1)


def test_displacement_bound_examples(quad_poly_map, quad_quotient_map):
    # (2d - 1) h(phi), with no resultant term
    assert displacement_bound(quad_poly_map) == 3
    assert displacement_bound(quad_quotient_map) == 3
    assert displacement_bound(parse_rational_map("(z^3+t^2)/(t*z)")) == 10
    assert displacement_bound(parse_rational_map("z^2+1")) == 0


def test_displacement_bound_holds_seeded():
    # both one-sided bounds: -(2d - 1) h(phi) <= h(phi P) - d h(P) <= h(phi)
    rng = Random(21)
    for _ in range(200):
        d = rng.choice([2, 3])
        phi = rand_map(rng, d=d)
        P = rand_point(rng)
        h_phi = phi.coefficient_height()
        delta = apply_map(phi, P).height - d * P.height
        assert -(2 * d - 1) * h_phi <= delta <= h_phi
        assert displacement_bound(phi) == (2 * d - 1) * h_phi


def test_canonical_height_main_example(quad_poly_map):
    iv = canonical_height(quad_poly_map, pt("0"), 10)
    assert iv.contains(Fraction(1, 2))
    assert iv.width <= Fraction(5, 2**9)


def test_canonical_height_preperiodic_contains_zero(quad_poly_map):
    assert canonical_height(quad_poly_map, pt("inf"), 6).contains(0)
    # z^2: 0, 1, -1, infinity all preperiodic
    sq = parse_rational_map("z^2")
    for p in ("0", "1", "-1", "inf"):
        assert canonical_height(sq, pt(p), 6).contains(0)


def test_canonical_height_functional_equation_seeded():
    # intervals for hhat(phi(P)) and d * hhat(P) enclose the same value
    rng = Random(33)
    for _ in range(40):
        d = rng.choice([2, 3])
        phi = rand_map(rng, d=d, coeff_deg=1, cmax=3)
        P = rand_point(rng, max_deg=1, cmax=2)
        try:
            a = canonical_height(phi, apply_map(phi, P), 3, height_budget=2000)
            b = canonical_height(phi, P, 4, height_budget=2000)
        except OrbitBudgetError:
            continue
        scaled = HeightInterval(d * b.lo, d * b.hi)
        assert a.lo <= scaled.hi and scaled.lo <= a.hi  # overlap


def test_iterate_height_check(quad_poly_map):
    rec = iterate_height_check(quad_poly_map, 2)
    assert rec.lhs == 2 and rec.sharp_rhs == 3
    assert rec.holds_sharp
    rec3 = iterate_height_check(quad_poly_map, 3)
    assert rec3.sharp_rhs == 7
    assert rec3.holds_sharp


def test_iterate_height_seeded():
    rng = Random(2)
    for _ in range(30):
        phi = rand_map(rng, d=rng.choice([2, 3]), coeff_deg=1, cmax=3)
        for n in (1, 2, 3):
            assert iterate_height_check(phi, n).holds_sharp


def test_classify(quad_poly_map, quad_quotient_map):
    assert classify_preperiodic(quad_poly_map, pt("inf")) == Preperiodic(0, 1)
    w = classify_preperiodic(quad_poly_map, pt("0"))
    assert isinstance(w, Wandering) and w.canonical_lower > 0
    assert isinstance(classify_preperiodic(quad_quotient_map, pt("t")), Wandering)
    # z^2: -1 -> 1 -> 1 is preperiodic with tail 1
    sq = parse_rational_map("z^2")
    assert classify_preperiodic(sq, pt("-1")) == Preperiodic(1, 1)
    assert classify_preperiodic(sq, pt("1")) == Preperiodic(0, 1)


def test_classify_budget():
    phi = parse_rational_map("z^2+t")
    with pytest.raises(OrbitBudgetError):
        classify_preperiodic(phi, pt("0"), max_iter=1)


def test_bound_params_file(tmp_path):
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text("gamma1 = 3/2  # comment\n\n# full-line comment\n")
    assert _read_gamma1(str(cfg)) == Fraction(3, 2)
    cfg.write_text("# no constants\n")
    with pytest.raises(ConfigError, match="^bound parameter 'gamma1' not supplied$"):
        _read_gamma1(str(cfg))
    # only gamma1 is read by a bound, so no other name is accepted
    cfg.write_text("gamma1 = 3\nkappa2 = 1/2  # comment\n")
    with pytest.raises(ConfigError, match="^unknown bound parameter 'kappa2'$"):
        _read_gamma1(str(cfg))


def test_bound_params_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.cfg"
    for text, message in [
        ("nope = 1\n", "unknown bound parameter 'nope'"),
        ("gamma1 = x\n", f"{bad}:1: bad rational 'x'"),
        ("gamma1 3\n", f"{bad}:1: expected 'name = p/q'"),
        ("gamma1 = 1\ngamma1 = 2\n", "duplicate bound parameter 'gamma1'"),
        ("gamma1 = -1/2\n", "bound parameter 'gamma1' must be nonnegative"),
        # every line is parsed before any name or value is checked
        ("kappa2 = 1\ngamma1 = 1/0\n", f"{bad}:2: bad rational '1/0'"),
        ("gamma1 = -1\ngamma1 = 2\n", "bound parameter 'gamma1' must be nonnegative"),
    ]:
        bad.write_text(text)
        with pytest.raises(ConfigError) as info:
            _read_gamma1(str(bad))
        assert str(info.value) == message
