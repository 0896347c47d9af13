"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v` (or add -s to see the lines
inline). Every criterion is exact; tolerances appear only where an interval
width is itself the quantity under test.
"""

import json
import time
from fractions import Fraction
from math import gcd
from random import Random

from ffdyn import (
    DependenceQuery,
    Orbit,
    Place,
    apply_map,
    canonical_height,
    contact_comparison,
    count_S_integral,
    dependence_search,
    displacement_bound,
    fiber,
    fiber_pullback_defect,
    height_elem,
    height_elem_place_sum,
    is_S_unit,
    iterate_height_check,
    parse_point,
    parse_rational_map,
    power,
    product_formula_defect,
    ramification_index,
    ramification_totals,
)
from ffdyn.cli import main as cli_main
from ffdyn.exprs import field_elem_text, map_text
from ffdyn.maps import ProjectivePoint
from ffdyn.polynomials import Poly
from ffdyn.randgen import (
    rand_field_elem,
    rand_map,
    rand_place,
    rand_point,
    rand_split_fiber_instance,
)

from oracles import plain_orbit

S_INF = frozenset([Place.infinity()])
S_T_INF = frozenset([Place.finite(Poly.t()), Place.infinity()])


def report(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}", flush=True)
    assert ok, name


def test_product_formula_1000():
    rng = Random(0)
    start = time.monotonic()
    ok = all(
        product_formula_defect(rand_field_elem(rng, nonzero=True)) == 0
        for _ in range(1000)
    )
    elapsed = time.monotonic() - start
    report(f"product formula: 1000 seeded elements, defect 0 ({elapsed:.2f}s < 10s)",
           ok and elapsed < 10)


def test_height_consistency_1000():
    rng = Random(1)
    ok = True
    for _ in range(1000):
        x = rand_field_elem(rng)
        ok = ok and height_elem(x) == height_elem_place_sum(x)
        P = ProjectivePoint.from_field(x)
        ok = ok and P.height == max(x.num.degree, x.den.degree, 0)
    report("height consistency: place-sum equals max-degree on 1000 elements/points", ok)


def test_canonical_height():
    phi = parse_rational_map("z^2+t")
    iv = canonical_height(phi, parse_point("0"), 10)
    ok = iv.contains(Fraction(1, 2)) and iv.width <= Fraction(5, 2**9)
    # functional-equation interval consistency on 100 seeded (phi, P)
    rng = Random(2)
    checked = 0
    while checked < 100:
        d = rng.choice([2, 3])
        psi = rand_map(rng, d=d, coeff_deg=1, cmax=3)
        P = rand_point(rng, max_deg=1, cmax=2)
        a = canonical_height(psi, apply_map(psi, P), 3, height_budget=4000)
        b = canonical_height(psi, P, 4, height_budget=4000)
        ok = ok and a.lo <= d * b.hi and d * b.lo <= a.hi
        checked += 1
    # preperiodic inputs give intervals containing 0
    sq = parse_rational_map("z^2")
    for p in ("0", "1", "-1", "inf"):
        ok = ok and canonical_height(sq, parse_point(p), 6).contains(0)
    ok = ok and canonical_height(phi, parse_point("inf"), 6).contains(0)
    report(
        "canonical height: interval at (z^2+t, 0, N=10) contains 1/2 with "
        "width <= 5/2^9; functional equation on 100 seeded pairs; "
        "preperiodic intervals contain 0",
        ok,
    )


def test_displacement_bound_1000():
    rng = Random(3)
    ok = True
    for _ in range(1000):
        d = rng.choice([2, 3])
        phi = rand_map(rng, d=d, coeff_deg=1, cmax=3)
        P = rand_point(rng, max_deg=1, cmax=3)
        delta = apply_map(phi, P).height - d * P.height
        h_phi = phi.coefficient_height()
        ok = ok and -displacement_bound(phi) <= delta <= h_phi
    report("displacement bounds: -(2d-1) h(phi) <= h(phi P) - d h(P) <= h(phi) on "
           "1000 seeded (map, point) pairs, d in {2,3}, zero violations", ok)


def test_iterate_heights_100():
    rng = Random(4)
    ok = True
    for _ in range(100):
        phi = rand_map(rng, d=rng.choice([2, 3]), coeff_deg=1, cmax=3)
        for n in (1, 2, 3):
            ok = ok and iterate_height_check(phi, n).holds_sharp
    report("iterate heights: h(phi^n) <= (d^n-1)/(d-1) * h(phi) on 100 seeded "
           "maps, n <= 3", ok)


def test_contact_chain_1000():
    rng = Random(5)
    ok = True
    applicable = 0
    checked = 0
    while checked < 1000:
        x = rand_field_elem(rng, nonzero=True)
        y = rand_field_elem(rng)
        if x == y:
            continue
        rec = contact_comparison(x, y, rand_place(rng))
        ok = ok and rec.holds
        applicable += rec.applicable
        checked += 1
    report(f"local contact chain: 1000 seeded triples, zero violations "
           f"({applicable} applicable)", ok and applicable > 0)


def test_ramification():
    rng = Random(6)
    ok = True
    # 100 seeded fibers sum to d
    for _ in range(100):
        phi = rand_map(rng, d=rng.choice([2, 3]), coeff_deg=1, cmax=3)
        A = rand_point(rng, max_deg=1, cmax=2)
        ok = ok and fiber(phi, A).degree_sum() == phi.d
    # multiplicativity on 100 seeded samples
    for _ in range(100):
        phi = rand_map(rng, d=2, coeff_deg=1, cmax=2)
        P = rand_point(rng, max_deg=1, cmax=2)
        e1 = ramification_index(phi, P)
        e2 = ramification_index(phi, apply_map(phi, P))
        ok = ok and ramification_index(power(phi, 2), P) == e1 * e2
    # Riemann-Hurwitz totals on 20 seeded maps
    for _ in range(20):
        phi = rand_map(rng, d=rng.choice([2, 3]), coeff_deg=1, cmax=3)
        finite, inf_part, target = ramification_totals(phi)
        ok = ok and finite + inf_part == target == 2 * phi.d - 2
    report("ramification: 100 fiber sums = d; 100 multiplicativity identities; "
           "Riemann-Hurwitz total 2d-2 on 20 maps", ok)


def test_orbit_integrality_desk_scale():
    phi = parse_rational_map("(z^2-t)/z")
    scan = count_S_integral(Orbit(phi, parse_point("t")), S_INF, 30)
    ok = all(not (15 < n <= 30) for n in scan.hits) and scan.certificate is not None
    # polynomial control: z^2 + t has hits at every n <= 10
    control = count_S_integral(
        Orbit(parse_rational_map("z^2+t"), parse_point("0")), S_INF, 10
    )
    ok = ok and control.hits == tuple(range(1, 11))
    ok = ok and any("polynomial" in w for w in control.warnings)
    report("orbit integrality: ((z^2-t)/z, t, {inf}, 30) has no hits in "
           "(15, 30] with a persistence certificate; z^2+t control hits all "
           "n <= 10", ok)


def test_multiplicative_dependence():
    # generic box is empty
    q = DependenceQuery(S_INF, n_max=3, k_max=3, r_max=3, s_max=3)
    empty = dependence_search(Orbit(parse_rational_map("z^2+t"), parse_point("0")), q)
    ok = empty.solutions == ()
    # t z^2 control: at least one solution for every (n, k), re-verified
    phi = parse_rational_map("t*z^2")
    q2 = DependenceQuery(S_T_INF, n_max=3, k_max=3, r_max=2, s_max=3)
    full = dependence_search(Orbit(phi, parse_point("t")), q2)
    covered = {(s.n, s.k) for s in full.solutions}
    ok = ok and covered == {(n, k) for n in (1, 2, 3) for k in (1, 2, 3)}
    orbit = [x.affine() for x in plain_orbit(phi, parse_point("t"), 6)]
    for sol in full.solutions:
        ok = ok and gcd(sol.r, abs(sol.s)) == 1
        u = orbit[sol.n + sol.k] ** sol.r / orbit[sol.k] ** sol.s
        ok = ok and u == sol.u and is_S_unit(u, S_T_INF)
    report("multiplicative dependence: (z^2+t, 0, {inf}) box n,k,r,|s| <= 3 "
           "empty; t*z^2 control covers every (n,k) with independently "
           "re-verified S-unit witnesses", ok)


# Regression baseline for the split-fiber pullback defect, frozen from the
# 50-instance seed-0 run of this exact generator. Later runs must not exceed it.
SPLIT_FIBER_SAMPLES = 50
SPLIT_FIBER_SEED = 0
BASELINE_MAX_NORMALIZED_DEFECT = Fraction(1, 2)


def test_split_fiber_pullback_harness():
    rng = Random(SPLIT_FIBER_SEED)
    ok = True
    max_nd = None
    for _ in range(SPLIT_FIBER_SAMPLES):
        phi, A, P = rand_split_fiber_instance(rng, d=rng.choice([2, 3]))
        S = frozenset({rand_place(rng), rand_place(rng)})
        ok = ok and fiber(phi, A).degree_sum() == phi.d
        rec = fiber_pullback_defect(phi, 1, A, P, S)
        nd = rec.normalized_defect
        max_nd = nd if max_nd is None else max(max_nd, nd)
    ok = ok and max_nd is not None and max_nd <= BASELINE_MAX_NORMALIZED_DEFECT
    report(f"split-fiber pullback harness: {SPLIT_FIBER_SAMPLES} instances, "
           f"fiber degree sums exact, max normalized defect {max_nd} <= "
           f"baseline {BASELINE_MAX_NORMALIZED_DEFECT}", ok)


def test_parser_round_trip_and_golden_stability(capsys, tmp_path):
    from ffdyn.exprs import parse_field_elem, parse_rational_map as pm

    rng = Random(7)
    ok = True
    for _ in range(250):
        x = rand_field_elem(rng)
        ok = ok and parse_field_elem(field_elem_text(x)) == x
    for _ in range(250):
        phi = rand_map(rng, d=rng.choice([1, 2]))
        ok = ok and pm(map_text(phi)) == phi
    # golden-file byte stability: two identical CLI runs, identical bytes
    argv = [
        "orbit-scan", "--map", "(z^2-t)/z", "--point", "t", "--places", "inf",
        "--epsilon", "1/2", "--max-n", "3", "--depth", "8",
    ]
    outputs = []
    for path in (tmp_path / "a.jsonl", tmp_path / "b.jsonl"):
        code = cli_main(["--output", str(path)] + argv)
        ok = ok and code == 0
        outputs.append(path.read_bytes())
    ok = ok and outputs[0] == outputs[1] and outputs[0]
    ok = ok and all(
        json.loads(line)["schema"] == "ffdyn.report/1"
        for line in outputs[0].decode().splitlines()
    )
    capsys.readouterr()
    report("parser and reports: 500 seeded round trips; byte-identical "
           "golden output across two identical runs", bool(ok))
