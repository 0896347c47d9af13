"""The one-sided displacement bounds and the canonical-height intervals
built on them: maps and points that reach each bound, and, against the
symmetric intervals they replaced (tests/oracles.py), containment at equal
depth, the exact hhat of escaped polynomial orbits, classify verdicts and
depths, and orbit-scan memberships."""

from fractions import Fraction
from random import Random

import pytest

import ffdyn.suites
from ffdyn import (
    Orbit,
    Preperiodic,
    Wandering,
    apply_map,
    canonical_height,
    classify_preperiodic,
    gamma_set,
    parse_places,
    parse_point,
    parse_rational_map,
)
from ffdyn.errors import DomainError, OrbitBudgetError
from ffdyn.heights import _hhat_interval
from ffdyn.randgen import rand_map, rand_point, rand_tpoly
from ffdyn.suites import run_suite

from oracles import (
    fraction_hhat_interval,
    global_classify_preperiodic,
    symmetric_canonical_height,
    symmetric_hhat_interval,
)

MAX_DEPTH = 10
BUDGET = 1000  # keeps the truncated steps of d = 3 orbits cheap
MAX_ITER = 12  # height-0 orbits that wander never stop under the default


def outcome(call):
    """The value of call(), or the text of the OrbitBudgetError it raises."""
    try:
        return call()
    except OrbitBudgetError as exc:
        return f"error: {exc}"


# (map, point, h(phi P) - d h(P)) at the ends of the bounds, with h(phi) = 1
SHARP_DISPLACEMENTS = [
    # lower side -(2d - 1): the common factor of F(P) and G(P) has the degree
    # of the resultant and the top of F(P) meets the bound of (F3)
    ("(z^2+(t+1)*z+t)/(t*z-1)", "t^3", -3),
    ("((z+t)*(z+1)*(z-1))/((t*z-1)*z)", "t^3", -5),
    # upper side +1: nothing cancels and the coefficient of degree h(phi) counts
    ("((t-1)*z+(t-1))/((t-1)*z^2+(2*t+1)*z-t)", "0", 1),
    ("z^2+t", "0", 1),
    ("z^3+t", "0", 1),
]


@pytest.mark.parametrize("map_text, point, delta", SHARP_DISPLACEMENTS)
def test_displacement_bound_is_sharp(map_text, point, delta):
    phi, P = parse_rational_map(map_text), parse_point(point)
    assert phi.coefficient_height() == 1
    assert apply_map(phi, P).height - phi.d * P.height == delta
    assert delta in (-(2 * phi.d - 1), 1)


def test_integer_interval_matches_fraction_oracle_seeded():
    rng = Random(71)
    cases = [(0, 0, 2, 0), (0, 3, 2, 1), (1, 0, 2, 1), (3, 0, 2, 1), (5, 1, 3, 1),
             (2**40, 40, 2, 7)]
    cases += [(rng.randint(0, 3**rng.randint(0, 12)), rng.randint(0, 12), rng.randint(2, 5),
               rng.randint(0, 4)) for _ in range(2000)]
    clipped = 0
    for h, n, d, h_phi in cases:
        expected = fraction_hhat_interval(h, n, d, h_phi)
        got = _hhat_interval(h, n, d, h_phi)
        assert (got.lo, got.hi) == (expected.lo, expected.hi), (h, n, d, h_phi)
        assert type(got.lo) is type(got.hi) is Fraction
        clipped += got.lo == 0 < h
    assert clipped > 100  # the clip at 0 is reached with h > 0


def seeded_pairs(seed, count):
    rng = Random(seed)
    for _ in range(count):
        phi = rand_map(rng, d=rng.choice([2, 3]), coeff_deg=1, cmax=3)
        yield phi, rand_point(rng, max_deg=1, cmax=3)


def intervals(phi, P):
    """(N, new interval, symmetric interval) for N <= MAX_DEPTH, up to the
    first depth past the budget."""
    orbit = Orbit(phi, P, BUDGET)
    for n in range(MAX_DEPTH + 1):
        try:
            new = canonical_height(phi, P, n, BUDGET)
            h = orbit.height(n)
        except OrbitBudgetError:
            return
        yield n, new, symmetric_hhat_interval(phi, h, n)


def test_intervals_lie_inside_the_symmetric_ones_and_nest_seeded():
    # the depth-(n+1) interval lies inside the depth-n one iff the step from n
    # to n + 1 keeps both displacement bounds; the sharp cases reach them
    sharp = [(parse_rational_map(m), parse_point(p)) for m, p, _ in SHARP_DISPLACEMENTS]
    checked = 0
    for phi, P in sharp + list(seeded_pairs(61, 40)):
        previous = None
        for n, new, old in intervals(phi, P):
            assert old.lo <= new.lo and new.hi <= old.hi, (str(phi), str(P), n)
            if previous is not None:
                assert previous.lo <= new.lo and new.hi <= previous.hi
            previous = new
            checked += 1
    assert checked >= 300


def test_interval_width_at_equal_depth():
    # (2d - 1) h(phi) + h(phi) = 2d h(phi) over d^N (d - 1), against the
    # symmetric 2 ((2d + 1) h(phi) + deg Res) over d^N (d - 1)
    quot, t = parse_rational_map("(z^2-t)/z"), parse_point("t")
    # h(phi^n t) = 2^(n - 1); from depth 4 on neither lower end is clipped
    for n in range(4, MAX_DEPTH + 1):
        assert canonical_height(quot, t, n).width == Fraction(4, 2**n)
        assert symmetric_canonical_height(quot, t, n).width == Fraction(12, 2**n)


POLYNOMIAL_MAPS = ["z^2+t", "t*z^2", "t*z^3+z", "z^3+t", "t^2*z^2+t", "z^2+t^3",
                   "z^2/2+t", "z^3-t*z^2+z", "z^2-t*z-t^2"]
POLYNOMIAL_POINTS = ["0", "1", "-1", "1/2", "t", "-t", "t^2", "t+1", "t^2-3"]


def polynomial_cases():
    for text in POLYNOMIAL_MAPS:
        for point in POLYNOMIAL_POINTS:
            yield parse_rational_map(text), parse_point(point)
    rng = Random(62)
    for _ in range(30):
        d = rng.choice([2, 3])
        F = " + ".join(f"({rand_tpoly(rng, 2, 3)})*z^{i}" for i in range(d))
        lead = rand_tpoly(rng, 1, 3, nonzero=True)
        phi = parse_rational_map(f"({lead})*z^{d} + {F}")
        yield phi, parse_point(str(rand_tpoly(rng, 2, 3)))


def test_exact_hhat_of_escaped_orbits_lies_in_every_interval():
    # from the escape index k on, h_(n+1) = d h_n + deg a_d, so hhat(P) =
    # (h_k + deg a_d/(d - 1))/d^k exactly
    escaped = 0
    for phi, P in polynomial_cases():
        d = phi.d
        orbit = Orbit(phi, P, BUDGET)
        k = orbit.escape_index(MAX_DEPTH)
        if k is None:
            continue
        escaped += 1
        exact = (orbit.height(k) + Fraction(phi.F.coeff(d).degree, d - 1)) / d**k
        for n, new, old in intervals(phi, P):
            assert new.contains(exact) and old.contains(exact), (str(phi), str(P), n)
    assert escaped >= 100


# tails and cycles, small and zero heights, and a bad place
CLASSIFY_CASES = [
    ("z^2", "-1"), ("z^2", "2"), ("z^2-1", "0"), ("z^2+t", "0"), ("z^2+t", "1/t"),
    ("t*z^2", "t"), ("(z^2-t)/z", "t"), ("(z^2-t)/z", "1"), ("(z^2+1)/t", "t"),
    ("1/z^2", "t"), ("(z^2+(t+1)*z+t)/(t*z-1)", "t^3"), ("z^3+t", "0"),
]


def classify_cases():
    for text, point in CLASSIFY_CASES:
        yield parse_rational_map(text), parse_point(point)
    yield from seeded_pairs(63, 60)


def test_classify_verdicts_unchanged_at_no_later_depth():
    wandering = earlier = 0
    for phi, P in classify_cases():
        new = outcome(lambda: classify_preperiodic(phi, P, MAX_ITER, BUDGET))
        old = outcome(
            lambda: global_classify_preperiodic(phi, P, MAX_ITER, BUDGET, symmetric=True)
        )
        case = (str(phi), str(P), new, old)
        if isinstance(old, Preperiodic) or isinstance(new, Preperiodic):
            assert new == old, case
        elif isinstance(old, Wandering):
            assert isinstance(new, Wandering) and new.depth <= old.depth, case
            wandering += 1
            earlier += new.depth < old.depth
        else:
            # the symmetric loop ran out; the one-sided one stops no later
            assert isinstance(new, (str, Wandering)), case
    assert wandering >= 60 and earlier >= 40


@pytest.mark.parametrize("point, depth", [("0", 3), ("1", 3), ("t", 2)])
def test_classify_certifies_once_the_lower_end_is_positive(point, depth):
    # z^2 + t: h(phi) = 1, so iterate n certifies once h_n > 3
    phi, P = parse_rational_map("z^2+t"), parse_point(point)
    verdict = classify_preperiodic(phi, P)
    assert verdict.depth == depth
    assert Orbit(phi, P).height(depth) > 3 >= Orbit(phi, P).height(depth - 1)


def scan_cases():
    quot, inf = parse_rational_map("(z^2-t)/z"), parse_point("inf")
    S = parse_places("inf")
    for depth in (2, 4, 6, 10):
        for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            yield quot, S, inf, parse_point("t"), eps, depth
    rng = Random(64)
    for _ in range(25):
        phi = rand_map(rng, d=2, coeff_deg=1, cmax=3)
        A, P = rand_point(rng, max_deg=1, cmax=3), rand_point(rng, max_deg=1, cmax=3)
        S = parse_places(rng.choice(["inf", "t", "t,inf", "t+1,inf"]))
        yield phi, S, A, P, Fraction(1, rng.choice([1, 2, 4])), rng.choice([2, 4, 6])


def test_orbit_scan_memberships_only_get_decided(monkeypatch):
    compared = decided = 0
    for phi, S, A, P, eps, depth in scan_cases():
        scan = lambda: gamma_set(Orbit(phi, P, BUDGET), S, A, eps, 4, depth, True)
        try:
            new = scan()
            with monkeypatch.context() as m:
                m.setattr(Orbit, "hhat", lambda orbit, depth: symmetric_hhat_interval(
                    orbit.phi, orbit.height(depth), depth))
                old = scan()
        except (DomainError, OrbitBudgetError):
            continue
        for a, b in zip(old.records, new.records):
            assert a.hhat.lo <= b.hhat.lo and b.hhat.hi <= a.hhat.hi
            if a.membership != "undecided":
                assert b.membership == a.membership, (str(phi), str(P), a.n)
            elif b.membership != "undecided":
                decided += 1
        compared += 1
    assert compared >= 30 and decided >= 20


@pytest.mark.parametrize("depth", [10, 16, 24])
def test_orbit_scan_tie_stays_undecided(depth):
    # proximity 1 against eps * hhat(phi^2 t) = 2 hhat(t), and hhat(t) = 1/2
    orbit = Orbit(parse_rational_map("(z^2-t)/z"), parse_point("t"), 1 << 24)
    report = gamma_set(
        orbit, parse_places("inf"), parse_point("inf"), Fraction(1, 2), 4, depth
    )
    assert report.undecided_indices == (2,)
    assert report.records[0].hhat.contains(Fraction(1, 2))


def test_displacement_suite_names_the_failed_side(monkeypatch):
    assert run_suite("displacement", 50, 3).passed
    # every image far above d h(P) + h(phi)
    monkeypatch.setattr(ffdyn.suites, "apply_map", lambda phi, P: parse_point("t^40"))
    failures = run_suite("displacement", 50, 3).failures
    assert len(failures) == 50
    assert all(": upper side: h(phi P) - d h(P) = " in f for f in failures)
    # every image of height 0, and no room below d h(P)
    monkeypatch.setattr(ffdyn.suites, "apply_map", lambda phi, P: parse_point("0"))
    monkeypatch.setattr(ffdyn.suites, "displacement_bound", lambda phi: 0)
    failures = run_suite("displacement", 50, 3).failures
    assert failures and all(": lower side: h(phi P) - d h(P) = " in f for f in failures)
