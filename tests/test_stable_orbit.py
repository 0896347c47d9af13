"""Stable certificates of Orbit.height: the heights it reads from h_(n+1) =
d h_n + m against the global iterates of tests/oracles.py (GlobalOrbit), on
seeded (z^2 + a(t))/(b z) maps and on adversarial maps built to defeat each
part of the certificate."""

from random import Random

import pytest

import ffdyn.heights
from ffdyn import Orbit, parse_point, parse_rational_map
from ffdyn.errors import OrbitBudgetError
from ffdyn.exprs import point_text
from ffdyn.heights import (
    _form_gcd,
    _infinity_increment,
    _reduction_holes,
    _ring_trim,
    _stable_increment,
    _term_degrees,
)
from ffdyn.maps import resultant
from ffdyn.polynomials import Poly, poly_gcd

from oracles import GlobalOrbit

MAX_N = 12
# The global oracle builds iterates up to this height: its cost grows about
# ninefold per iterate, to 30 s at height 4096 for some of the seeded maps.
# Past it, the seeded heights up to MAX_N are checked against the truncated
# state of Orbit.height, itself checked against the global iterates in
# test_orbit_height.py.
GLOBAL_BUDGET = 256


def global_heights(phi, P, budget=GLOBAL_BUDGET):
    """h(phi^n P) from GlobalOrbit for n <= MAX_N, as far as the oracle runs
    within the budget."""
    orbit = GlobalOrbit(phi, P, budget)
    heights = []
    for n in range(MAX_N + 1):
        try:
            heights.append(orbit[n].height)
        except OrbitBudgetError:
            break
    return heights


def losses(phi, P, n_max):
    """deg gcd(F(x_n), G(x_n)) for n < n_max, from the global iterates."""
    orbit = GlobalOrbit(phi, P, 1 << 14)
    out = []
    for n in range(n_max):
        x0, x1 = orbit[n].x0, orbit[n].x1
        A, B = (form.homogeneous_eval(x0, x1, phi.d) for form in (phi.F, phi.G))
        out.append(poly_gcd(A, B).degree)
    return out


def recurrence_heights(phi, P, k_max=3):
    """(k, the heights of iterates k..MAX_N read from the recurrence) for a
    fresh Orbit, or (None, []) when no certificate holds up to k_max."""
    orbit = Orbit(phi, P, 1 << 20)
    k = orbit._certified_index(k_max)
    if k is None:
        return None, []
    return k, [orbit._recurrence_height(n) for n in range(k, MAX_N + 1)]


def check_uncertified(phi, P, n_max):
    """No certificate at the iterates up to n_max, and Orbit.height equals the
    global heights there."""
    expected = global_heights(phi, P)[: n_max + 1]
    assert len(expected) == n_max + 1
    terms, orbit = _term_degrees(phi), GlobalOrbit(phi, P, 1 << 14)
    assert all(_stable_increment(phi, terms, orbit[n], False) is None for n in range(n_max + 1))
    assert [Orbit(phi, P).height(n) for n in range(n_max + 1)] == expected


def seeded_cases():
    """(map, point) pairs of the orbit-deep family (z^2 + a(t))/(b z), with
    a of degree 1 or 2 (t^2 + 1 among them: a place of degree 2)."""
    rng = Random(16)
    cases = []
    for i in range(9):
        sign = rng.choice((1, -1))
        if i % 3 == 0:
            a = "t^2+1" if i == 0 else f"{sign}*t^2+{rng.randint(1, 3)}*t-{rng.randint(1, 3)}"
        else:
            a = f"{sign * rng.randint(1, 3)}*t+{rng.choice((1, -1)) * rng.randint(1, 3)}"
        b = rng.choice((1, -1)) * rng.randint(1, 3)
        phi = parse_rational_map(f"(z^2+{a})/({b}*z)")
        for text in (str(rng.randint(1, 3)), f"t-{rng.randint(1, 3)}", "t^2", "1/t",
                     f"(t+{rng.randint(1, 3)})/(t-1)"):
            cases.append((phi, parse_point(text)))
    return cases


def test_recurrence_matches_global_heights_seeded():
    certified = []
    for phi, P in seeded_cases():
        case = (str(phi), point_text(P))
        expected = global_heights(phi, P)
        assert [Orbit(phi, P).height(n) for n in range(len(expected))] == expected, case
        k, heights = recurrence_heights(phi, P)
        if k is None:
            # x0^2 and a x1^2 tie at infinity when deg a = 2 and e = 1
            orbit = GlobalOrbit(phi, P, GLOBAL_BUDGET)
            assert all(
                orbit[n].x0.degree - orbit[n].x1.degree == 1
                and _infinity_increment(_term_degrees(phi), 2, 1) is None
                for n in range(4)
            ), case
            continue
        certified.append(case)
        assert k <= 2, case
        assert heights[: len(expected) - k] == expected[k:], case
        # past the oracle's reach, the truncated state agrees
        orbit = Orbit(phi, P, 1 << 20)
        assert orbit._local_height(len(expected) - 1, MAX_N) == heights[-1], case
    assert len(certified) >= 40
    assert sum(phi_text.startswith("(z^2 + t^2 + 1)") for phi_text, _ in certified) >= 3


def test_quotient_map_is_stable_from_iterate_1():
    phi, P = parse_rational_map("(z^2-t)/z"), parse_point("t")
    expected = global_heights(phi, P, budget=2048)
    assert expected == [1] + [2 ** (n - 1) for n in range(1, MAX_N + 1)]
    assert losses(phi, P, 2) == [1, 0]  # t divides F(t, 1) and G(t, 1)
    k, heights = recurrence_heights(phi, P)
    assert k == 1 and heights == expected[1:]
    assert [Orbit(phi, P).height(n) for n in range(MAX_N, -1, -1)] == expected[::-1]


def test_late_hole_is_not_certified_early():
    # mod t the map is (z - 5)(z + 1)/(z - 5): the hole 5 and the reduced map
    # z + 1, which walks 0, 1, ..., 5 into the hole. The part at infinity
    # holds at every iterate (m = 0); only the finite part stops it, and the
    # step from iterate 5 loses a factor t.
    phi, P = parse_rational_map("(z^2-4*z+t-5)/(z-5)"), parse_point("t")
    orbit = GlobalOrbit(phi, P, 1 << 14)
    t = Poly.t()
    at_hole = [((orbit[n].x0 - orbit[n].x1.scale(5)) % t).is_zero for n in range(8)]
    assert at_hole == [n == 5 for n in range(8)]
    assert losses(phi, P, 8) == [0, 0, 0, 0, 0, 1, 0, 0]
    terms = _term_degrees(phi)
    assert all(
        _infinity_increment(terms, 2, orbit[n].x0.degree - orbit[n].x1.degree) == 0
        for n in range(8)
    )
    assert _reduction_holes(phi) is None  # (c): z + 1 moves the hole
    check_uncertified(phi, P, 8)
    assert global_heights(phi, P)[5:8] == [32, 63, 126]


def test_e_changes_once_before_it_settles():
    # at a constant point e = 0, where the constant term dominates (m = 1),
    # and e = 1 from iterate 1 on (m = 0): E = {0, 1} has two values of m
    phi, P = parse_rational_map("(z^2+2*t-3)/(3*z)"), parse_point("2")
    assert _infinity_increment(_term_degrees(phi), 2, 0) is None
    assert _infinity_increment(_term_degrees(phi), 2, 1) == 0
    expected = global_heights(phi, P)
    assert expected[:4] == [0, 1, 2, 4]
    k, heights = recurrence_heights(phi, P)
    assert k == 1
    assert heights[: len(expected) - 1] == expected[1:]


@pytest.mark.parametrize(
    "map_text, point_text_",
    [
        # the leading coefficient t is a zero divisor mod R = t (t - 1)
        ("(t*z^2+1)/((t-1)*z)", "t+2"),
        # mod t the gcd is z^2, mod t - 1 it is z + 1: no C over Q[t]/R
        ("(z^3+(t+1)*z^2+t*z)/(z^2-t)", "t+2"),
    ],
)
def test_zero_divisor_gives_up(map_text, point_text_):
    phi, P = parse_rational_map(map_text), parse_point(point_text_)
    res = resultant(phi)
    R = res.exact_div(poly_gcd(res, res.derivative()))
    assert R == Poly.of(0, -1, 1)
    F, G = _ring_trim(phi.F.coeffs, R), _ring_trim(phi.G.coeffs, R)
    assert F is None or _form_gcd((phi.d, F), (phi.d, G), R) is None
    assert _reduction_holes(phi) is None
    check_uncertified(phi, P, 5 if phi.d == 3 else 8)


def test_moving_hole_gets_no_certificate():
    # mod t^3 + 12 the reduced map is affine with a multiplier of norm 9/4,
    # so its hole has preimages outside the holes
    phi, P = parse_rational_map("(3*z^2+t)/(t*z-2)"), parse_point("t+2/5")
    assert _reduction_holes(phi) is None
    check_uncertified(phi, P, 7)
    assert Orbit(phi, P, 1 << 20)._certified_index(7) is None


def test_recurrence_keeps_the_budget_text():
    # (z^2 - t)/z at t: heights 1, 1, 2, 4, ..., 512 up to n = 10
    phi, P = parse_rational_map("(z^2-t)/z"), parse_point("t")
    for budget in (0, 1, 2, 3, 7, 8, 9, 255, 256, 257):
        for n in range(11):
            try:
                expected = GlobalOrbit(phi, P, budget)[n].height
            except OrbitBudgetError as exc:
                with pytest.raises(OrbitBudgetError) as info:
                    Orbit(phi, P, budget).height(n)
                assert str(info.value) == str(exc)
            else:
                assert Orbit(phi, P, budget).height(n) == expected
    with pytest.raises(OrbitBudgetError, match="^orbit height 32768 exceeds budget 16384 at iterate 16$"):
        Orbit(phi, P).height(60)


def test_no_certificate_where_the_walk_cannot_switch(monkeypatch):
    # at depth 2 no iterate could take the truncated step, so the walk
    # builds both iterates and never seeks a certificate; at depth 8, with
    # every certificate refused, it seeks one at iterates 0..5 and switches
    # at 5
    calls = []
    monkeypatch.setattr(ffdyn.heights, "_stable_increment", lambda *a: calls.append(a))
    phi, P = parse_rational_map("(z^2-t)/z"), parse_point("t")
    assert Orbit(phi, P).height(2) == 2 and calls == []
    assert Orbit(phi, P).height(8) == 128 and len(calls) == 6
