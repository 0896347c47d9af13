"""Orbit.height: the exact h(phi^n P) from the truncated local state, against
the heights of the global iterates orbit[n] at every switch index."""

from fractions import Fraction
from random import Random

import pytest

import ffdyn.heights
from ffdyn import Orbit, canonical_height, parse_point, parse_rational_map
from ffdyn.errors import DomainError, OrbitBudgetError
from ffdyn.heights import HeightInterval, _local_constants, _switch_condition
from ffdyn.polynomials import poly_gcd
from ffdyn.randgen import rand_map, rand_point


def switch_index(orbit, n):
    """The first j < n at which height(n) may switch to the truncated state,
    or None."""
    consts = _local_constants(orbit.phi)
    return next(
        (j for j in range(n) if _switch_condition(orbit[j].height, n - j, consts)), None
    )


def local_heights_agree(phi, P, n_max):
    """Check height(n), and the local path from every index at or after the
    switch index, against the global iterates for n <= n_max; return the
    orbit and the switch index of n_max."""
    orbit = Orbit(phi, P)
    heights = [orbit[n].height for n in range(n_max + 1)]
    for n in range(n_max + 1):
        assert Orbit(phi, P).height(n) == heights[n], (str(phi), str(P), n)
        first = switch_index(orbit, n)
        if first is not None:
            for j in range(first, n):
                assert orbit._local_height(j, n) == heights[n], (str(phi), str(P), n, j)
    return orbit, switch_index(orbit, n_max)


def step_losses(phi, Q):
    """(D - M, deg gcd(A, B)) for the step from Q, from the global iterate."""
    A = phi.F.homogeneous_eval(Q.x0, Q.x1, phi.d)
    B = phi.G.homogeneous_eval(Q.x0, Q.x1, phi.d)
    D = phi.d * Q.height + phi.coefficient_height()
    return D - max(A.degree, B.degree), poly_gcd(A, B).degree


# n <= 10 for d = 2; for d = 3 the global iterate at n = 10 has height near
# 3^10, past the default budget, so n <= 6.
@pytest.mark.parametrize("d, n_max, count", [(2, 10, 5), (3, 6, 6)])
def test_height_matches_global_iterates_seeded(d, n_max, count):
    rng = Random(1000 + d)
    switched = 0
    for _ in range(count):
        phi = rand_map(rng, d=d, coeff_deg=1, cmax=2)
        P = rand_point(rng, max_deg=rng.choice([0, 1]), cmax=2)
        _, first = local_heights_agree(phi, P, n_max)
        switched += first is not None
    assert switched >= count // 2


# (map, points, n_max, whether some truncated step has D - M > 0 and whether
# one has a loss deg gcd(A, B) > 0)
ADVERSARIAL = [
    # e = 4 at t; a loss of 2 at t and D - M = 2 on every truncated step
    ("z^2/t^2", ["t^3+t^2", "1/t"], 8, (True, True)),
    # e = 4 at t and 2 at t + 1; losses at both places on every step
    ("z^2/(t^2*(t+1))", ["t^2*(t+1)*(t+2)"], 8, (True, True)),
    # e = 6 at t - 1; a loss of 1, with and without D - M > 0
    ("((t-1)*z^2+z)/((t-1)^2)", ["t-1", "1/(t-1)", "t"], 8, (True, True)),
    # e = 5 at t - 1; D - M = 2 without loss
    ("(z^2-(t-1)^3)/((t-1)*z)", ["t-1", "(t-1)^2"], 8, (True, False)),
    # a quartic bad place of order 1
    ("(z^2+(t^2-1)*z)/((t-1)^2*z+1)", ["t-1", "(t-1)^3", "1/(t-1)"], 7, (False, False)),
    # F(P) = 0 exactly: P = t maps to 0, which wanders
    ("(z^2-t^2)/(t*z+1)", ["t"], 8, (True, False)),
    # G(P) = 0 exactly: P = t maps to infinity, which wanders; at n_max = 8
    # the switch comes after the last step with a loss
    ("(z^2+t)/(z^2-t^2)", ["t"], 9, (False, True)),
    # P = infinity wanders
    ("(t*z^2+1)/(z^2+z)", ["inf"], 8, (False, False)),
    # h(phi) = 0: heights are exactly d^n h(P)
    ("(z^2+1)/z", ["t", "(t^2+1)/t"], 10, (False, False)),
    ("z^3-2", ["t-1/2"], 6, (False, False)),
]


@pytest.mark.parametrize(
    "text, points, n_max, reached",
    ADVERSARIAL,
    ids=[case[0] for case in ADVERSARIAL],
)
def test_height_matches_global_iterates_adversarial(text, points, n_max, reached):
    phi = parse_rational_map(text)
    gap = loss = False
    for point in points:
        orbit, first = local_heights_agree(phi, parse_point(point), n_max)
        assert first is not None
        for i in range(first, n_max):
            step_gap, step_loss = step_losses(phi, orbit[i])
            gap |= step_gap > 0
            loss |= step_loss > 0
    assert (gap, loss) == reached


def test_height_before_any_switch(quad_poly_map):
    # infinity is fixed; heights stay below the switch threshold
    orbit = Orbit(quad_poly_map, parse_point("inf"))
    assert switch_index(orbit, 6) is None
    assert orbit.height(6) == 0
    with pytest.raises(DomainError):
        orbit.height(-1)


def test_height_budget_matches_global_iterates(quad_poly_map):
    # z^2 + t at 0: heights 0, 1, 2, 4, ..., 128; height(8) switches at 5,
    # so budgets in 16..63 stop inside the truncated steps
    for budget in range(70):
        for n in range(9):
            try:
                expected = Orbit(quad_poly_map, parse_point("0"), budget)[n].height
            except OrbitBudgetError as exc:
                with pytest.raises(OrbitBudgetError) as info:
                    Orbit(quad_poly_map, parse_point("0"), budget).height(n)
                assert str(info.value) == str(exc)
            else:
                assert Orbit(quad_poly_map, parse_point("0"), budget).height(n) == expected


def test_canonical_height_depth_16_builds_few_iterates(monkeypatch):
    # h(phi^n t) = 2^(n-1) for (z^2 - t)/z; the global iterate at depth 14
    # takes minutes. The stable certificate holds at iterate 1, so only it is
    # built; the truncated state from iterate 6 (the switch index) agrees.
    calls = []
    apply_map = ffdyn.heights.apply_map

    def counting(phi, P):
        calls.append(P)
        return apply_map(phi, P)

    monkeypatch.setattr(ffdyn.heights, "apply_map", counting)
    phi = parse_rational_map("(z^2-t)/z")
    assert canonical_height(phi, parse_point("t"), 16) == HeightInterval(
        Fraction(32765, 65536), Fraction(32769, 65536)
    )
    assert len(calls) == 1
    orbit = Orbit(phi, parse_point("t"))
    assert switch_index(orbit, 16) == 6
    assert orbit._local_height(6, 16) == 1 << 15
    assert len(calls) == 7
