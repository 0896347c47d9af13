"""Seeded task generators for the three benchmark workloads.

Every workload is a function of its seed alone and returns a list of task
dicts. The program under test only ever sees the generated expression text;
nothing here imports ffdyn. The shapes (map families, degrees, heights,
depths, boxes and command mix) are fixed per workload and the seed draws
signs, small coefficients and orderings, so the inputs change from seed to
seed while the cost of a batch varies little.

Task kinds:
  {"kind": "certify", "map": M, "point": P, "width": "p/q"}
      library call: depth from displacement_bound, then canonical_height.
  {"kind": "cli", "argv": [...]}
      ffdyn.cli.main(argv) in-process. Expression arguments are passed as
      --flag=value so that a leading '-' is not read as an option.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

# Width every orbit-deep certify task must reach. With h(phi) = 1 it puts
# d = 2 at depth 8 (B = 5 or 6) and d = 3 at depth 5 (B = 7).
CERTIFY_WIDTH = Fraction(1, 20)

WORKLOADS = ("orbit-deep", "multdep-box", "fresh-maps")


# ---------------------------------------------------------------------------
# Expression text
# ---------------------------------------------------------------------------


def _nz(rng: Random, hi: int = 3) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, hi)


def _frac(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def tpoly(coeffs) -> str:
    """Text of sum coeffs[k] * t^k (coefficients lowest degree first)."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if c == 0:
            continue
        mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        mag = abs(c)
        if not mono:
            body = _frac(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_frac(mag)}*{mono}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append((" + " if c > 0 else " - ") + body)
    return "".join(terms) or "0"


def _const_point(rng: Random) -> str:
    return _frac(Fraction(_nz(rng), rng.randint(1, 3)))


def _rand_tpoly(rng: Random, deg: int) -> list:
    """Coefficients of a dense polynomial of degree deg, each nonzero in
    -4..4, so that operand sizes vary little between seeds."""
    return [_nz(rng, 4) for _ in range(deg + 1)]


# ---------------------------------------------------------------------------
# orbit-deep
# ---------------------------------------------------------------------------


# Per-slot coefficient magnitudes. The seed draws the signs and the order of
# the points, so the inputs change from seed to seed while the sizes that
# drive coefficient growth, and with them the cost of the batch, do not.
_MAP_MAGNITUDES = {
    "quad": ((2, 3), (1, 2), (3, 1), (1, 1)),
    "rat": ((1, 2, 2), (3, 1, 1), (2, 1, 3), (1, 3, 1)),
    "cub": ((2, 1, 3), (1, 3, 2), (3, 2, 1), (1, 1, 2)),
}
_CONST_POINTS = (Fraction(1, 2), Fraction(2, 3), Fraction(3), Fraction(1, 3),
                 Fraction(2), Fraction(3, 2), Fraction(1))
_LIN_POINTS = ((1, 1), (2, 1), (1, 3), (3, 2), (2, 3), (1, 2), (3, 1))


def _sign(rng: Random, x):
    return x if rng.random() < 0.5 else -x


def _orbit_deep_map(rng: Random, family: str, mags) -> str:
    lin = tpoly([_sign(rng, mags[1]), _sign(rng, mags[0])])
    if family == "quad":
        return f"z^2 + ({lin})"
    if family == "rat":
        return f"(z^2 + ({lin}))/({tpoly([_sign(rng, mags[2])])}*z)"
    return f"z^3 + ({lin})*z + {tpoly([_sign(rng, mags[2])])}"


def orbit_deep(rng: Random) -> list[dict]:
    """Twelve maps of height 1, fourteen wandering base points each (seven
    constants, seven of degree 1), certified to CERTIFY_WIDTH; 32 orbit-scan
    commands over the same maps. 200 tasks put p90 in the heavy tail of the
    rational maps while keeping it steady from seed to seed."""
    pool = []
    for family, mag_list in _MAP_MAGNITUDES.items():
        for mags in mag_list:
            m = _orbit_deep_map(rng, family, mags)
            points = [_frac(_sign(rng, c)) for c in _CONST_POINTS] + [
                tpoly([_sign(rng, b), _sign(rng, a)]) for a, b in _LIN_POINTS]
            rng.shuffle(points)
            pool.append((family, m, points))
    tasks = []
    for _, m, points in pool:
        for p in points:
            tasks.append({"kind": "certify", "map": m, "point": p,
                          "width": str(CERTIFY_WIDTH)})
    place_sets = ("inf", "t", "inf,t", "t + 1")
    for i in range(32):
        family, m, points = pool[i % len(pool)]
        depth = 5 if family == "cub" else 8
        tasks.append({"kind": "cli", "argv": [
            "orbit-scan", f"--map={m}", f"--point={points[i // len(pool)]}",
            f"--places={place_sets[i % 4]}", f"--target={'t' if i % 2 else '0'}",
            "--epsilon=1/2", "--max-n=4", f"--depth={depth}",
        ]})
    return tasks


# ---------------------------------------------------------------------------
# multdep-box
# ---------------------------------------------------------------------------


# One cycle of seven multdep slots: (family, base point, places, box).
# "kc": a multiple of c, so the orbit lives on the place of c and
# dependences exist; "lin": an unrelated point of degree 1. Places: "c" is
# the place of c, "p" the place of the base point. Rational maps cost about
# ten times more than polynomial maps at the same box, so they get small
# boxes. The slots differ in cost. With seven of them, p50 falls inside the
# middle slot and p90 inside the two dearest (both on c*z^2, of about equal
# cost). With an even number, p50 would sit on the edge between two slots
# and jump from seed to seed.
_MULTDEP_SLOTS = (
    ("quad", "kc", ("c", "inf"), (2, 2, 2, 2)),
    ("mono", "kc", ("c", "inf"), (2, 1, 2, 3)),
    ("quad", "lin", ("inf",), (1, 2, 3, 3)),
    ("mono", "lin", ("c", "inf", "p"), (2, 1, 2, 3)),
    ("rat", "kc", ("c", "inf"), (2, 1, 2, 3)),
    ("mono", "lin", ("inf",), (1, 2, 3, 3)),
    ("rat", "lin", ("inf",), (2, 1, 2, 3)),
)
# Coefficient magnitudes (a, b, k). Fifteen triples against seven slots:
# over the 105 tasks of a batch every slot meets every triple once. The seed
# draws the signs.
_MULTDEP_MAGNITUDES = tuple((a, b, k) for a in (1, 2, 3) for b in (1, 2, 3)
                            for k in (1, 2))[:15]


def multdep_box(rng: Random) -> list[dict]:
    """multdep over boxes within n, k <= 2 and r, |s| <= 3 on z^2 + c, c*z^2
    and (z^2 + c)/(e*z) with c of degree 1, base points of height 1, S of
    one to three places."""
    tasks = []
    for i in range(105):
        family, point, places, box = _MULTDEP_SLOTS[i % len(_MULTDEP_SLOTS)]
        ma, mb, mk = _MULTDEP_MAGNITUDES[i % len(_MULTDEP_MAGNITUDES)]
        a, b, k = _sign(rng, ma), _sign(rng, mb), _sign(rng, mk)
        c = tpoly([b, a])
        if family == "quad":
            m = f"z^2 + ({c})"
        elif family == "mono":
            m = f"({c})*z^2"
        else:
            m = f"(z^2 + ({c}))/({tpoly([_sign(rng, mk + 1)])}*z)"
        if point == "kc":
            pa, pb = k * a, k * b
        else:
            pa, pb = _sign(rng, mb), _sign(rng, ma + mk)
        named = {"c": tpoly([Fraction(b, a), 1]), "p": tpoly([Fraction(pb, pa), 1])}
        S = list(dict.fromkeys(named.get(v, v) for v in places))
        tasks.append({"kind": "cli", "argv": [
            "multdep", f"--map={m}", f"--point={tpoly([pb, pa])}",
            f"--places={','.join(S)}",
            *(f"--{key}={v}" for key, v in zip(("n-max", "k-max", "r-max", "s-max"), box)),
        ]})
    return tasks


# ---------------------------------------------------------------------------
# fresh-maps
# ---------------------------------------------------------------------------


def _fresh_map(rng: Random, d: int, cycle: int) -> str:
    """(F0 + F1 z + ... + Fd z^d) / (G1 z + G0) with coefficients of
    t-degree <= 2; the degree pattern is fixed by the cycle, the
    coefficients are drawn."""
    F = [tpoly(_rand_tpoly(rng, (cycle + k) % 3)) for k in range(d + 1)]
    G = [tpoly(_rand_tpoly(rng, (cycle + k + 1) % 3)) for k in range(2)]
    num = " + ".join(f"({c})*z^{k}" for k, c in enumerate(F))
    return f"({num})/(({G[1]})*z + ({G[0]}))"


def fresh_maps(rng: Random) -> list[dict]:
    """One short command per task, each on a map not seen before in the run.
    Cycles of four commands; d alternates between 2 and 3 from cycle to
    cycle, except choose-m, which needs d = 3 to find a level within
    --cap 2 (with d = 2 no level m <= 2 can satisfy e <= eps * d^m / 5)."""
    tasks = []
    for i in range(240):
        kind, cycle = i % 4, i // 4
        d = 3 if kind == 2 or cycle % 2 else 2
        m = _fresh_map(rng, d, cycle)
        p = tpoly(_rand_tpoly(rng, 2))
        if kind == 0:
            argv = ["classify", f"--map={m}", f"--point={p}", "--max-iter=4"]
        elif kind == 1:
            places = ("inf", "t", "inf,t", "t + 1,inf")[cycle % 4]
            argv = ["integral-count", f"--map={m}", f"--point={p}",
                    f"--places={places}", "--max-n=3"]
        elif kind == 2:
            argv = ["choose-m", f"--map={m}", f"--target={_const_point(rng)}",
                    "--epsilon=1", "--cap=2"]
        else:
            argv = ["canheight", f"--map={m}", f"--point={p}", "--depth=3"]
        tasks.append({"kind": "cli", "argv": argv})
    return tasks


_GENERATORS = {
    "orbit-deep": orbit_deep,
    "multdep-box": multdep_box,
    "fresh-maps": fresh_maps,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The task batch of a workload for a seed, with ids 0..n-1."""
    tasks = _GENERATORS[workload](Random(f"{workload}/{seed}"))
    for i, task in enumerate(tasks):
        task["id"] = i
    return tasks
