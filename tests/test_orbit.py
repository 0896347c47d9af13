"""The budgeted orbit: agreement with plain iteration, memoization, and the
height-budget rule at every public entry point that takes a budget or an
orbit built with one, for iterates and for Orbit.height."""

import contextlib
import io
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

import ffdyn.heights
from ffdyn import (
    DependenceQuery,
    Orbit,
    Wandering,
    canonical_height,
    classify_preperiodic,
    count_S_integral,
    dependence_search,
    estimate_gamma,
    gamma_set,
    gamma_set_bound_rhs,
    integral_count_bound_rhs,
    parse_places,
    parse_point,
    parse_rational_map,
    parse_split_form,
    split_multilinear_zero_scan,
    unit_hits,
)
from ffdyn.errors import DomainError, OrbitBudgetError
from ffdyn.heights import HeightInterval, Preperiodic
from ffdyn.randgen import rand_map, rand_point

from ffdyn.cli import main as cli_main
from oracles import GlobalOrbit, plain_orbit


def pt(text):
    return parse_point(text)


def test_prefix_matches_plain_orbit_seeded():
    rng = Random(41)
    for _ in range(25):
        phi = rand_map(rng, d=rng.choice([2, 3]), coeff_deg=1, cmax=3)
        P = rand_point(rng, max_deg=1, cmax=3)
        n = rng.randint(0, 4)
        orbit = Orbit(phi, P)
        assert orbit.prefix(n) == plain_orbit(phi, P, n)
        assert orbit[n] == plain_orbit(phi, P, n)[-1]


# (map, point, n, iterates a fresh Orbit's height(n) builds): stable from
# iterate 1 (twice), past the switch index of the truncated state (a tie at
# infinity: no certificate), escaped, and a preperiodic orbit, certified with
# m = 0 at iterate 0
@pytest.mark.parametrize(
    "map_text, point_text, n, fresh",
    [
        ("(z^2-t)/z", "t", 8, 1),
        ("(3*z^2+t)/(t*z-2)", "t+2/5", 6, 1),
        ("(3*z^2+t^2+t)/(t*z-2)", "t+2/5", 6, 4),
        ("z^2+t", "1", 8, 1),  # escaped at iterate 1
        ("z^2+t^3", "t", 6, 1),  # escaped at iterate 1, not 0
        ("z^2", "-1", 4, 0),
    ],
)
def test_height_of_a_built_iterate_builds_nothing(
    map_text, point_text, n, fresh, monkeypatch
):
    phi, P = parse_rational_map(map_text), pt(point_text)
    oracle = GlobalOrbit(phi, P, 1 << 14)
    expected = [oracle[k].height for k in range(n + 1)]
    points = oracle.points
    # prefix(n) builds iterates up to the first that equals its predecessor
    built = next((k for k in range(1, n + 1) if points[k] == points[k - 1]), n)
    calls = []
    apply_map = ffdyn.heights.apply_map

    def counting(phi, P):
        calls.append(P)
        return apply_map(phi, P)

    monkeypatch.setattr(ffdyn.heights, "apply_map", counting)
    assert Orbit(phi, P).height(n) == expected[n] and len(calls) == fresh
    calls.clear()
    orbit = Orbit(phi, P)
    assert orbit.prefix(n) == points[: n + 1]
    assert len(calls) == built
    calls.clear()
    assert [orbit.height(k) for k in range(n, -1, -1)] == expected[::-1]
    assert [orbit.height(k) for k in range(n + 1)] == expected
    assert not calls


WALK_ONCE_COMMANDS = [
    ["orbit-scan", "--map", "(z^2-t)/z", "--point", "t", "--places", "inf",
     "--target", "inf", "--epsilon", "1/2", "--max-n", "4", "--depth", "10"],
    ["orbit-scan", "--map", "z^2+t", "--point", "t", "--places", "t,inf",
     "--target", "0", "--epsilon", "1/2", "--max-n", "3", "--depth", "2"],
    ["integral-count", "--map", "(z^2-t)/z", "--point", "t", "--places", "inf",
     "--max-n", "30"],
    ["integral-count", "--map", "z^2+t", "--point", "1", "--places", "inf",
     "--max-n", "12"],
    ["multdep", "--map", "t*z^2", "--point", "t", "--places", "t,inf",
     "--n-max", "2", "--k-max", "2", "--r-max", "2", "--s-max", "3"],
    ["multdep", "--map", "(z^2-t)/z", "--point", "t", "--places", "t,inf",
     "--n-max", "2", "--k-max", "2", "--r-max", "1", "--s-max", "2"],
    # the base point is 0, whose orbit also decides zero_not_periodic
    ["multdep", "--map", "(z^2+t)/(t*z+1)", "--point", "0", "--places", "t,inf",
     "--n-max", "2", "--k-max", "2", "--r-max", "1", "--s-max", "1"],
]


@pytest.mark.parametrize("argv", WALK_ONCE_COMMANDS, ids=lambda argv: argv[0])
def test_a_command_steps_each_point_once(argv, monkeypatch):
    # classification, the canonical-height interval and the scan share one
    # Orbit per base point, so no iterate is computed twice
    steps = Counter()
    apply_map = ffdyn.heights.apply_map

    def counting(phi, P):
        steps[phi, P] += 1
        return apply_map(phi, P)

    monkeypatch.setattr(ffdyn.heights, "apply_map", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(argv) == 0
    assert steps and max(steps.values()) == 1, argv


# (argv, base points of the orbits it builds, in order): one Orbit for the
# command's base point; multdep adds the orbit of 0 when alpha != 0, and
# --params adds the target's orbit for hhat(A)
ONE_ORBIT_COMMANDS = [
    (WALK_ONCE_COMMANDS[0], ["t"]),
    (WALK_ONCE_COMMANDS[0] + ["--params", "{params}"], ["t", "inf"]),
    (WALK_ONCE_COMMANDS[2], ["t"]),
    (WALK_ONCE_COMMANDS[2] + ["--params", "{params}"], ["t"]),
    (["units-in-orbit", "--map", "t*z^2", "--point", "1", "--places", "t,inf",
      "--max-n", "5"], ["1"]),
    # a polynomial map with solutions: the case labels read the same orbit
    (WALK_ONCE_COMMANDS[4], ["t", "0"]),
    (WALK_ONCE_COMMANDS[6], ["0"]),
    (["split-form-scan", "--map", "z^2+t", "--point", "0", "--form", "T1 - t",
      "--max-n", "4"], ["0"]),
]


@pytest.mark.parametrize(
    "argv, bases", ONE_ORBIT_COMMANDS,
    ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(ONE_ORBIT_COMMANDS)],
)
def test_a_command_builds_one_orbit_per_base_point(argv, bases, tmp_path, monkeypatch):
    params = tmp_path / "params.txt"
    params.write_text("gamma1 = 1\n")
    built = []
    init = Orbit.__init__

    def recording(orbit, phi, P, *args, **kwargs):
        built.append(P)
        init(orbit, phi, P, *args, **kwargs)

    monkeypatch.setattr(Orbit, "__init__", recording)
    argv = [arg.replace("{params}", str(params)) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli_main(argv) == 0
    assert built == [pt(text) for text in bases]
    assert ('"case_label"' in out.getvalue()) == (argv == WALK_ONCE_COMMANDS[4])


def test_a_fixed_iterate_is_stepped_once(tmp_path, monkeypatch):
    # the target inf is fixed by phi: its depth-10 interval for the --params
    # bound builds phi(inf) = inf once, where it built all ten iterates
    params = tmp_path / "params.txt"
    params.write_text("gamma1 = 1\n")
    steps = Counter()
    apply_map = ffdyn.heights.apply_map

    def counting(phi, P):
        steps[P] += 1
        return apply_map(phi, P)

    monkeypatch.setattr(ffdyn.heights, "apply_map", counting)
    argv = WALK_ONCE_COMMANDS[0] + ["--params", str(params)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(argv) == 0
    assert sum(steps.values()) == 5 and steps[pt("inf")] == 1


def test_a_periodic_cycle_is_stepped_once(monkeypatch):
    # 0 -> -1 -> 0 under z^2 - 1: the depth-200 interval applies phi twice,
    # as classify does, and reads every later iterate from the cycle
    phi, P = parse_rational_map("z^2-1"), pt("0")
    calls = []
    apply_map = ffdyn.heights.apply_map

    def counting(phi, Q):
        calls.append(Q)
        return apply_map(phi, Q)

    monkeypatch.setattr(ffdyn.heights, "apply_map", counting)
    orbit = Orbit(phi, P)
    assert orbit.hhat(200) == HeightInterval(Fraction(0), Fraction(0))
    assert calls == [pt("0"), pt("-1")]
    assert [orbit[n] for n in (199, 200, 201)] == [pt("-1"), pt("0"), pt("-1")]
    assert orbit.classify() == Preperiodic(tail=0, cycle=2) and len(calls) == 2


def test_truncated_heights_are_kept(tmp_path, monkeypatch):
    # gamma_set and the --params bound both ask P's Orbit for hhat(12), which
    # the truncated state answers from iterate 5 (a tie at infinity leaves
    # this orbit without a certificate); the second ask reuses it
    params = tmp_path / "params.txt"
    params.write_text("gamma1 = 1\n")
    runs = []
    local_height = Orbit._local_height

    def counting(orbit, j, n):
        runs.append((orbit[0], j, n))
        return local_height(orbit, j, n)

    monkeypatch.setattr(Orbit, "_local_height", counting)
    argv = ["orbit-scan", "--map", "(3*z^2+t^2+t)/(t*z-2)", "--point", "t+2/5",
            "--places", "inf", "--target", "0", "--epsilon", "1/2", "--max-n", "3",
            "--depth", "12", "--budget", "1000000000", "--params", str(params)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(argv) == 0
    assert runs == [(pt("t+2/5"), 5, 12), (pt("0"), 5, 12)]


def test_iterates_are_computed_once(quad_quotient_map, monkeypatch):
    calls = []
    apply_map = ffdyn.heights.apply_map

    def counting(phi, P):
        calls.append(P)
        return apply_map(phi, P)

    monkeypatch.setattr(ffdyn.heights, "apply_map", counting)
    orbit = Orbit(quad_quotient_map, pt("t"))
    top = orbit[5]
    assert len(calls) == 5
    assert [orbit[k] for k in range(6)] == orbit.prefix(5)
    assert orbit[5] == top
    assert len(calls) == 5
    orbit[6]
    assert len(calls) == 6


def test_negative_index(quad_poly_map):
    with pytest.raises(DomainError):
        Orbit(quad_poly_map, pt("0"))[-1]


# z^2 + t at P = 0: iterate heights 0, 1, 2, 4, 8, h(phi) = 1. Intervals reach
# 1/2^n above and 3/2^n below h_n/2^n, so iterate 3 (height 4 > 3) certifies
# wandering.


def test_budget_boundary_classify(quad_poly_map):
    # iterate 3 (height 4) crosses the budget 3 and is still inspected
    assert classify_preperiodic(quad_poly_map, pt("0"), height_budget=3) == Wandering(
        Fraction(1, 8), 3
    )


def test_budget_boundary_canonical_height(quad_poly_map):
    # the last requested iterate may exceed the budget: it is already computed
    assert canonical_height(quad_poly_map, pt("0"), 4, 7) == HeightInterval(
        Fraction(5, 16), Fraction(9, 16)
    )
    # one step further would apply the map to it
    with pytest.raises(OrbitBudgetError, match="exceeds budget 7 at iterate 4"):
        canonical_height(quad_poly_map, pt("0"), 5, 7)


def test_budget_boundary_integral_count(quad_poly_map, S_inf):
    report = count_S_integral(Orbit(quad_poly_map, pt("0"), 7), S_inf, 4)
    assert report.hits == (1, 2, 3, 4) and report.certificate is None
    with pytest.raises(OrbitBudgetError, match="exceeds budget 7 at iterate 4"):
        count_S_integral(Orbit(quad_poly_map, pt("0"), 7), S_inf, 5)


def test_budget_applies_to_the_base_point(quad_poly_map):
    orbit = Orbit(quad_poly_map, pt("t^3"), height_budget=2)
    assert orbit[0] == pt("t^3")
    with pytest.raises(OrbitBudgetError, match="height 3 exceeds budget 2 at iterate 0"):
        orbit[1]


def test_budget_boundaries_of_height(quad_poly_map):
    # the cases above, asked through Orbit.height
    assert Orbit(quad_poly_map, pt("0"), 7).height(4) == 8
    with pytest.raises(OrbitBudgetError, match="height 8 exceeds budget 7 at iterate 4"):
        Orbit(quad_poly_map, pt("0"), 7).height(5)
    orbit = Orbit(quad_poly_map, pt("t^3"), height_budget=2)
    assert orbit.height(0) == 3
    with pytest.raises(OrbitBudgetError, match="height 3 exceeds budget 2 at iterate 0"):
        orbit.height(1)


S_INF = parse_places("inf")
QUAD = parse_rational_map("z^2+t")
QUOT = parse_rational_map("(z^2-t)/z")
GAMMA1 = Fraction(1)

# (entry point, call with the given budget or on an orbit built with it,
# budget, expected message)
BUDGET_CASES = [
    (
        "canonical_height",
        lambda b: canonical_height(QUAD, pt("0"), 5, b),
        7,
        "orbit height 8 exceeds budget 7 at iterate 4",
    ),
    (
        "classify_preperiodic",
        lambda b: classify_preperiodic(QUAD, pt("0"), height_budget=b),
        1,
        "orbit height 2 exceeds budget 1 at iterate 2",
    ),
    (
        "count_S_integral",
        lambda b: count_S_integral(Orbit(QUAD, pt("0"), b), S_INF, 6),
        3,
        "orbit height 4 exceeds budget 3 at iterate 3",
    ),
    (
        "gamma_set",
        lambda b: gamma_set(
            Orbit(QUOT, pt("t"), b), S_INF, pt("inf"), Fraction(1, 2), 6, depth=2,
            wandering_attested=True,
        ),
        4,
        "orbit height 8 exceeds budget 4 at iterate 4",
    ),
    (
        "gamma_set_bound_rhs",
        lambda b: gamma_set_bound_rhs(
            GAMMA1, Orbit(QUOT, pt("t"), b), pt("inf"), depth=8
        ),
        4,
        "orbit height 8 exceeds budget 4 at iterate 4",
    ),
    (
        "integral_count_bound_rhs",
        lambda b: integral_count_bound_rhs(GAMMA1, Orbit(QUOT, pt("t"), b), depth=8),
        4,
        "orbit height 8 exceeds budget 4 at iterate 4",
    ),
    (
        "unit_hits",
        lambda b: unit_hits(Orbit(QUAD, pt("0"), b), S_INF, 6),
        3,
        "orbit height 4 exceeds budget 3 at iterate 3",
    ),
    (
        "dependence_search",
        lambda b: dependence_search(
            Orbit(QUAD, pt("t"), b), DependenceQuery(S_INF, 2, 2, 1, 1),
            wandering_attested=True,
        ),
        3,
        "orbit height 4 exceeds budget 3 at iterate 2",
    ),
    (
        "split_multilinear_zero_scan",
        lambda b: split_multilinear_zero_scan(
            parse_split_form("T1 - t"), Orbit(QUAD, pt("0"), b), 6
        ),
        3,
        "orbit height 4 exceeds budget 3 at iterate 3",
    ),
]


def test_estimate_gamma_excludes_instances_past_the_budget():
    # the scan of P = t fits the budget; the interval of the target t^2 does not
    instances = [(QUOT, pt("t^2"), pt("t")), (QUOT, pt("t"), pt("t"))]
    report = estimate_gamma(instances, S_INF, Fraction(1, 4), 2, depth=4, height_budget=4)
    assert report.warnings == (
        "instance 0 excluded: orbit height 6 exceeds budget 4 at iterate 2",
    )
    assert [rec.excluded for rec in report.records] == [True, False]
    # max in-index 2 less floor log_2((hhat(t).lo + 1)/hhat(t).hi) with the
    # depth-4 interval [5/16, 9/16]: 2 - floor log_2(7/3) = 1
    assert (report.gamma_hat, report.witnesses) == (1, (1,))
    full = estimate_gamma(instances, S_INF, Fraction(1, 4), 2, depth=4)
    assert full.warnings == () and full.records[1] == report.records[1]


def test_estimate_gamma_exclusions_and_tied_witnesses():
    # inf is fixed by (z^2-t)/z; the scan of t towards inf at eps = 1/2 ties
    # at index 2 (proximity 1 = eps * 2 hhat(t)); the orbit of t^3 passes
    # the budget at iterate 1; the last two instances tie with contribution
    # 2 - floor log_2((hhat(t).lo + 1)/hhat(t).hi) = 1
    instances = [(QUOT, pt("t"), pt("inf")), (QUOT, pt("inf"), pt("t")),
                 (QUOT, pt("t"), pt("t^3")), (QUOT, pt("t"), pt("t")),
                 (QUOT, pt("t"), pt("t"))]
    report = estimate_gamma(instances, S_INF, Fraction(1, 2), 2, depth=4, height_budget=4)
    assert report.warnings == (
        "instance 0 excluded: base point is preperiodic; orbit scan requires wandering",
        "instance 1 excluded: undecided indices [2] at depth 4",
        "instance 2 excluded: orbit height 5 exceeds budget 4 at iterate 1",
    )
    assert [rec.excluded for rec in report.records] == [True, True, True, False, False]
    assert (report.gamma_hat, report.witnesses) == (1, (3, 4))


@pytest.mark.parametrize("eps, depth, message", [
    (Fraction(2), 4, "eps must lie in \\(0, 1\\]"),
    (Fraction(0), 4, "eps must lie in \\(0, 1\\]"),
    (Fraction(1, 2), 0, "depth must be positive"),
])
def test_estimate_gamma_rejects_out_of_range_parameters(eps, depth, message):
    with pytest.raises(DomainError, match=message):
        estimate_gamma([(QUOT, pt("t"), pt("t"))], S_INF, eps, 2, depth=depth)


def test_estimate_gamma_excludes_a_base_height_not_certified_positive():
    # the depth-1 interval for hhat(t) under (z^2-t)/z has lower end 0; the
    # warning is the one gamma_set_bound_rhs raises
    report = estimate_gamma([(QUOT, pt("inf"), pt("t"))], S_INF, Fraction(1, 4), 2, depth=1)
    assert report.warnings == (
        "instance 0 excluded: canonical height of the base point not certified "
        "positive; increase depth or the point is preperiodic",
    )
    assert [rec.excluded for rec in report.records] == [True]
    assert report.gamma_hat == 0


def test_bound_rhs_errors_in_order():
    # hhat(A) is computed under the orbit's budget before hhat(P) is
    # required positive: at depth 2 and budget 2 hhat(t) is not certified
    # positive and the orbit of t^2 passes the budget
    orbit = Orbit(QUOT, pt("t"), 2)
    with pytest.raises(OrbitBudgetError, match="orbit height 3 exceeds budget 2"):
        gamma_set_bound_rhs(GAMMA1, orbit, pt("t^2"), depth=2)
    for call in (
        lambda: gamma_set_bound_rhs(GAMMA1, orbit, pt("inf"), depth=2),
        lambda: integral_count_bound_rhs(GAMMA1, orbit, depth=2),
    ):
        with pytest.raises(DomainError, match="not certified positive"):
            call()


def test_negative_budget_and_max_iter_are_rejected():
    with pytest.raises(DomainError, match="height budget must be nonnegative"):
        Orbit(QUAD, pt("0"), -5)
    with pytest.raises(DomainError, match="height budget must be nonnegative"):
        estimate_gamma(
            [(QUOT, pt("inf"), pt("t"))], S_INF, Fraction(1, 4), 2, height_budget=-1
        )
    orbit = Orbit(QUAD, pt("0"), 0)  # a zero budget is a limit, not an error
    with pytest.raises(DomainError, match="max-iter must be nonnegative"):
        orbit.classify(max_iter=-3)
    with pytest.raises(OrbitBudgetError, match="no classification within 0 iterates"):
        orbit.classify(max_iter=0)


@pytest.mark.parametrize(
    "call, budget, message",
    [case[1:] for case in BUDGET_CASES],
    ids=[case[0] for case in BUDGET_CASES],
)
def test_too_small_budget_names_budget_and_iterate(call, budget, message):
    with pytest.raises(OrbitBudgetError) as info:
        call(budget)
    assert str(info.value) == message
    call(1 << 14)  # the default budget is enough
