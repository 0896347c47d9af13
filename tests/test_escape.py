"""Escaping polynomial orbits under the recurrence certificate: Orbit.height,
the verdicts of classify_preperiodic and the reports of count_S_integral
against the global loops of tests/oracles.py, which build every iterate, on
seeded and on adversarial maps and points, and at budgets around each escape
height; Orbit.escape_index at or before the oracle's escape index."""

from fractions import Fraction
from random import Random

import pytest

import ffdyn.heights
from ffdyn import (
    Orbit,
    Wandering,
    canonical_height,
    classify_preperiodic,
    count_S_integral,
    parse_places,
    parse_point,
    parse_rational_map,
)
from ffdyn.errors import DomainError, OrbitBudgetError
from ffdyn.function_field import FieldElement
from ffdyn.heights import _infinity_increment, _term_degrees
from ffdyn.maps import ProjectivePoint
from ffdyn.randgen import rand_map, rand_tpoly

from oracles import (
    GlobalOrbit,
    global_classify_preperiodic,
    global_count_S_integral,
    oracle_escape_index,
)

DEPTH = 10
MAX_ITER = 12  # height-0 orbits that wander never stop under the default
SMALL_BUDGET = 200  # keeps the global oracle cheap
PLACE_SETS = [parse_places(text) for text in ("inf", "t", "t,inf", "t+1")]

ADVERSARIAL_MAPS = [
    "z^2+t",
    "t*z^2",  # deg a_d = 1
    "t*z^3+z",  # a_d nonconstant, a_1 constant
    "z^3+t",  # zero middle coefficients
    "t^2*z^2+t",  # R < 0
    "z^2+t^3",  # R = 3/2: points of degree 1 escape late
    "z^2/2+t",  # constant denominator 2
    "z^3-t*z^2+z",  # zero constant coefficient; t is fixed, short of escape
    "z^2",  # constants never escape
    "z^2-2",  # 2 is fixed
    "z^2+1",  # 0 wanders at height 0
    "(z^2+1)/t",  # denominator of positive t-degree: no escape rule
    "(z^2-t)/z",  # rational map: no escape rule
    # leading coefficients that are zero divisors mod R = t (t + 1): only
    # the hole-free clause certifies these orbits
    "t*(t+1)*z^2+t*z",
    "t*(t+1)*z^3+t*z^2+1",
]
ADVERSARIAL_POINTS = ["0", "1", "2", "-1", "1/2", "t", "-t", "t^2", "t+1", "t^2-3",
                      "inf", "1/t", "t/(t+1)"]


def outcome(call):
    """The value of call(), or the text of the OrbitBudgetError it raises."""
    try:
        return call()
    except OrbitBudgetError as exc:
        return f"error: {exc}"


@pytest.fixture
def small_max_iter(monkeypatch):
    """count_S_integral calls Orbit.classify with max_iter=10_000, which does
    not finish on a wandering orbit of height 0; both sides get at most
    MAX_ITER instead."""
    classify = Orbit.classify
    monkeypatch.setattr(
        Orbit,
        "classify",
        lambda orbit, max_iter=MAX_ITER: classify(orbit, min(max_iter, MAX_ITER)),
    )


def check_against_oracles(phi, P, budget):
    """The heights up to DEPTH, asked of one Orbit in increasing and of
    another in decreasing order, the verdict, and the reports on each place
    set, as values or error texts, equal the oracles'; where the oracle
    finds an escape index, Orbit.escape_index is at or before it."""
    escape = outcome(lambda: oracle_escape_index(phi, P, DEPTH, budget))
    if isinstance(escape, int):
        k = outcome(lambda: Orbit(phi, P, budget).escape_index(DEPTH))
        assert isinstance(k, int) and k <= escape, (str(phi), str(P), budget)
    expected = [outcome(lambda: GlobalOrbit(phi, P, budget)[n].height)
                for n in range(DEPTH + 1)]
    up, down = Orbit(phi, P, budget), Orbit(phi, P, budget)
    assert [outcome(lambda: up.height(n)) for n in range(DEPTH + 1)] == expected, (
        str(phi), str(P), budget)
    assert [outcome(lambda: down.height(n)) for n in range(DEPTH, -1, -1)] == expected[::-1]
    assert outcome(lambda: classify_preperiodic(phi, P, MAX_ITER, budget)) == outcome(
        lambda: global_classify_preperiodic(phi, P, MAX_ITER, budget)
    ), (str(phi), str(P), budget)
    for S in PLACE_SETS:
        for N in (1, DEPTH):
            scan = lambda: count_S_integral(Orbit(phi, P, budget), S, N)
            assert outcome(scan) == outcome(
                lambda: global_count_S_integral(phi, P, S, N, budget, MAX_ITER)
            ), (str(phi), str(P), sorted(map(str, S)), N, budget)


def test_seeded_polynomial_maps_match_the_global_loops(small_max_iter):
    # ten maps with a constant denominator, six with one of positive
    # t-degree, which keep the global path
    rng = Random(13)
    wanted = {True: 10, False: 6}
    escaped = 0
    while any(wanted.values()):
        phi = rand_map(rng, d=rng.choice([2, 3]), coeff_deg=2, cmax=3)
        constant_g = phi.G.coeff(0).degree == 0
        if not phi.is_polynomial or not wanted[constant_g]:
            continue
        wanted[constant_g] -= 1
        for _ in range(2):
            P = ProjectivePoint.from_field(
                FieldElement.from_poly(rand_tpoly(rng, max_deg=2, cmax=3))
            )
            check_against_oracles(phi, P, rng.choice([SMALL_BUDGET, 40]))
            escaped += Orbit(phi, P).escape_index(DEPTH) is not None
    assert escaped >= 10


@pytest.mark.parametrize("map_text", ADVERSARIAL_MAPS)
def test_adversarial_cases_match_the_global_loops(map_text, small_max_iter):
    phi = parse_rational_map(map_text)
    for point_text in ADVERSARIAL_POINTS:
        check_against_oracles(phi, parse_point(point_text), SMALL_BUDGET)


# (map, point) pairs that escape by iterate 1
ESCAPING = [
    ("z^2+t", "1"),
    ("z^2+t", "t"),
    ("t*z^2", "t"),
    ("t*z^2", "2"),
    ("t*z^3+z", "1"),
    ("z^3+t", "-1"),
    ("t^2*z^2+t", "0"),
    ("z^2+t^3", "t"),
    ("z^2/2+t", "t+1"),
    ("z^3-t*z^2+z", "t^2"),
]


@pytest.mark.parametrize("map_text, point_text", ESCAPING)
def test_budgets_around_each_escape_height(map_text, point_text, small_max_iter):
    phi, P = parse_rational_map(map_text), parse_point(point_text)
    k = Orbit(phi, P).escape_index(DEPTH)
    assert k is not None and k <= 1
    for n in range(k, 6):
        h = GlobalOrbit(phi, P, SMALL_BUDGET)[n].height
        for budget in (h - 1, h, h + 1):
            if budget < 0:  # an escape at height 0 has no budget below it
                with pytest.raises(DomainError, match="budget must be nonnegative"):
                    Orbit(phi, P, budget)
                continue
            check_against_oracles(phi, P, budget)


def test_escape_indices():
    cases = [
        ("z^2+t", "1", 1),
        ("z^2+t", "t", 0),
        ("z^2+t^3", "t", 1),  # 2 * 1 > 3 fails at iterate 0
        ("z^2+t^3", "t^2", 0),
        ("t*z^3+z", "t", 0),
        ("t^2*z^2+t", "0", 1),
        ("t^2*z^2+t", "3", 0),  # the interval rule holds at e = 0
        ("z^3-t*z^2+z", "t", None),  # 1 * 1 > 1 fails, and t is fixed
        ("z^2", "2", None),  # certified with m = 0: constant heights
        ("z^2", "-1", None),
        ("t*z^2", "2", 0),
        ("t*(t+1)*z^2+t*z", "1", 0),  # hole-free, though R has zero divisors
        ("z^2-2", "2", None),
        ("z^2", "inf", None),
        ("z^2+t", "1/t", None),
        ("(z^2+1)/t", "t", None),
        ("(z^2-t)/z", "t", None),
    ]
    for map_text, point_text, k in cases:
        orbit = Orbit(parse_rational_map(map_text), parse_point(point_text))
        assert orbit.escape_index(DEPTH) == k, (map_text, point_text)
        if k is not None:
            assert orbit.escape_index(k) == k
            assert k == 0 or orbit.escape_index(k - 1) is None


def test_no_iterate_past_the_escape_index(monkeypatch):
    calls = []
    apply_map = ffdyn.heights.apply_map

    def counting(phi, P):
        calls.append(P)
        return apply_map(phi, P)

    monkeypatch.setattr(ffdyn.heights, "apply_map", counting)
    quad = parse_rational_map("z^2+t")
    one = parse_point("1")
    assert Orbit(quad, one).height(12) == 2**11 and len(calls) == 1
    canonical_height(quad, one, 12)
    assert len(calls) == 2
    # the global loop certifies wandering at iterate 4, where h = 8 > B = 5
    assert classify_preperiodic(quad, one) == global_classify_preperiodic(quad, one)
    assert len(calls) == 3
    # the classification and the scan share one Orbit: iterate 1 is built once
    report = count_S_integral(Orbit(quad, one, 1 << 40), parse_places("inf"), 40)
    assert report.hits == tuple(range(1, 41)) and len(calls) == 4
    # z^2 + t^3 at t escapes at iterate 1 (h = 3), not at iterate 0 (h = 1)
    orbit = Orbit(parse_rational_map("z^2+t^3"), parse_point("t"))
    assert orbit.height(8) == GlobalOrbit(orbit.phi, orbit[0], 1 << 14)[8].height
    assert len(calls) == 5
    calls.clear()
    assert orbit.height(9) == 2 * orbit.height(8) and not calls
    # no rule for a rational map or a point outside Q[t]: no iterate is built
    assert Orbit(parse_rational_map("(z^2-t)/z"), parse_point("t")).escape_index(5) is None
    assert Orbit(quad, parse_point("1/t")).escape_index(5) is None
    assert not calls


def test_escaped_heights_keep_the_budget_text():
    quad = parse_rational_map("z^2+t")
    one = parse_point("1")
    orbit = Orbit(quad, one, 100)
    assert orbit.height(8) == 128
    with pytest.raises(OrbitBudgetError, match="^orbit height 128 exceeds budget 100 at iterate 8$"):
        orbit.height(9)
    with pytest.raises(OrbitBudgetError, match="^orbit height 128 exceeds budget 100 at iterate 8$"):
        count_S_integral(Orbit(quad, one, 100), parse_places("inf"), 12)
    assert classify_preperiodic(quad, one, height_budget=100) == Wandering(
        Fraction(1, 8), 3
    )


@pytest.mark.parametrize(
    "map_text, point_text",
    [("z^2", "2"), ("z^2+1", "0"), ("z^2-1", "1/2")],
)
def test_height_zero_wandering_orbits_with_a_small_max_iter(map_text, point_text):
    phi, P = parse_rational_map(map_text), parse_point(point_text)
    expected = f"error: no classification within {MAX_ITER} iterates"
    assert outcome(lambda: classify_preperiodic(phi, P, MAX_ITER)) == expected
    assert outcome(lambda: global_classify_preperiodic(phi, P, MAX_ITER)) == expected


@pytest.mark.parametrize("point_text", ["2", "-1"])
def test_constant_heights_are_no_escape(point_text):
    # the certificate holds at iterate 0 with m = 0 and h = 0, so the
    # heights stay 0; the callers must still look for a repeat
    phi, P = parse_rational_map("z^2"), parse_point(point_text)
    orbit = Orbit(phi, P)
    assert orbit._certified_index(0) == 0 and orbit._increment == 0
    assert orbit.escape_index(DEPTH) is None
    assert [orbit.height(n) for n in range(DEPTH + 1)] == [0] * (DEPTH + 1)
    assert outcome(lambda: orbit.classify(MAX_ITER)) == outcome(
        lambda: global_classify_preperiodic(phi, P, MAX_ITER)
    )


@pytest.mark.parametrize(
    "map_text, e, m",
    [
        ("t*z^2", 0, 1),  # the rule holds at e = 0: m = deg F_d
        ("z^2+t", 1, 0),
        ("z^2+t", 0, None),  # m = 1 at e = 0, then 0 from e = 1 on
        ("z^2+t", -1, None),
        # e = 1, 2, 4, 8, ...: no value repeats, so only the rule decides
        ("(z^3+t)/z", 1, 0),
        # the tops sit at i = 2 in F at e = -1, but e < 0 is not in the rule:
        # m = 3 there and 5 from e = 3 on
        ("t^5*z^2+1", -1, None),
        ("t^5*z^2+1", 3, 5),
        # the top of G sits below its largest index: e goes 1, -2
        ("z^3/(z^2+t^5)", 1, None),
    ],
)
def test_interval_rule_at_infinity(map_text, e, m):
    phi = parse_rational_map(map_text)
    assert _infinity_increment(_term_degrees(phi), phi.d, e) == m


def test_hole_free_orbit_needs_no_finite_part(monkeypatch):
    # G = 1 and x1 = 1 keep every B = G(x) a nonzero constant, so the
    # certificate never reads the finite places and Res = t^2 (t + 1)^2 is
    # never factored
    calls = []
    monkeypatch.setattr(ffdyn.heights, "_reductions", calls.append)
    phi, P = parse_rational_map("t*(t+1)*z^2+t*z"), parse_point("1")
    orbit = Orbit(phi, P, 1 << 40)
    assert orbit.escape_index(0) == 0 and orbit._increment == 2
    expected = [GlobalOrbit(phi, P, 1 << 14)[n].height for n in range(7)]
    assert [orbit.height(n) for n in range(7)] == expected
    report = count_S_integral(Orbit(phi, P, 10**12), parse_places("inf"), 38)
    assert report.hits == tuple(range(1, 39))
    assert calls == []
