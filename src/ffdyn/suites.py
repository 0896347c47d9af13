"""Named, seeded property suites shared by the CLI `verify` command and the
test suite. Each suite returns a SuiteResult whose failures list prints the
counterexample verbatim."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable

from .errors import DomainError
from .function_field import (
    height_elem,
    height_elem_place_sum,
    product_formula_defect,
)
from .heights import displacement_bound, iterate_height_check
from .local_geometry import _fiber_pullback_defect, contact_comparison
from .maps import (
    ProjectivePoint,
    apply_map,
    fiber,
    power,
    ramification_index,
    ramification_totals,
)
from .exprs import (
    field_elem_text,
    map_text,
    parse_field_elem,
    parse_rational_map,
    place_text,
)
from .randgen import (
    rand_field_elem,
    rand_map,
    rand_place,
    rand_point,
    rand_split_fiber_instance,
)


@dataclass
class SuiteResult:
    suite: str
    samples: int
    seed: int
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def _suite_product_formula(samples: int, seed: int) -> SuiteResult:
    """Product formula and place-sum/max-degree height agreement."""
    rng = Random(seed)
    res = SuiteResult("product-formula", samples, seed)
    for i in range(samples):
        x = rand_field_elem(rng, nonzero=True)
        res.checked += 1
        defect = product_formula_defect(x)
        if defect != 0:
            res.failures.append(
                f"sample {i}: defect {defect} for x = {field_elem_text(x)}"
            )
        h1 = height_elem(x)
        h2 = height_elem_place_sum(x)
        if h1 != h2:
            res.failures.append(
                f"sample {i}: heights {h1} != {h2} for x = {field_elem_text(x)}"
            )
    return res


def _suite_displacement(samples: int, seed: int) -> SuiteResult:
    """-displacement_bound(phi) <= h(phi(P)) - d*h(P) <= h(phi) on random
    pairs; a failure names the side it breaks."""
    rng = Random(seed)
    res = SuiteResult("displacement", samples, seed)
    for i in range(samples):
        d = rng.choice([2, 3])
        phi = rand_map(rng, d=d)
        P = rand_point(rng)
        res.checked += 1
        lower, upper = -displacement_bound(phi), phi.coefficient_height()
        delta = apply_map(phi, P).height - d * P.height
        if delta < lower:
            side = f"lower side: h(phi P) - d h(P) = {delta} < {lower}"
        elif delta > upper:
            side = f"upper side: h(phi P) - d h(P) = {delta} > {upper}"
        else:
            continue
        res.failures.append(f"sample {i}: {side} for phi = {map_text(phi)}, P = {P}")
    return res


def _suite_prop23(samples: int, seed: int) -> SuiteResult:
    """h(phi^n) against the geometric-series bound, n <= 3."""
    rng = Random(seed)
    res = SuiteResult("prop23", samples, seed)
    worst = Fraction(0)
    for i in range(samples):
        phi = rand_map(rng, d=rng.choice([2, 3]), coeff_deg=1, cmax=3)
        n = rng.randint(1, 3)
        res.checked += 1
        rec = iterate_height_check(phi, n)
        if not rec.holds_sharp:
            res.failures.append(
                f"sample {i}: h(phi^{n}) = {rec.lhs} > {rec.sharp_rhs} for "
                f"phi = {map_text(phi)}"
            )
        if rec.sharp_rhs:
            worst = max(worst, Fraction(rec.lhs, rec.sharp_rhs))
    res.info["max_lhs_over_rhs"] = str(worst)
    return res


def _suite_lemma22(samples: int, seed: int) -> SuiteResult:
    """Contact comparison chain on random applicable (x, y, v) triples."""
    rng = Random(seed)
    res = SuiteResult("lemma22", samples, seed)
    applicable = 0
    for i in range(samples):
        x = rand_field_elem(rng, nonzero=True)
        y = rand_field_elem(rng)
        if x == y:
            continue
        v = rand_place(rng)
        res.checked += 1
        rec = contact_comparison(x, y, v)
        if rec.applicable:
            applicable += 1
        if not rec.holds:
            res.failures.append(
                f"sample {i}: chain {rec.lower} <= {rec.middle} <= {rec.upper} "
                f"fails for x = {field_elem_text(x)}, y = {field_elem_text(y)}, "
                f"v = {place_text(v)}"
            )
    res.info["applicable"] = applicable
    return res


def _suite_lemma26(samples: int, seed: int) -> SuiteResult:
    """Split-fiber pullback comparison: fiber degree sums and the defect
    statistics used as a regression baseline."""
    rng = Random(seed)
    res = SuiteResult("lemma26", samples, seed)
    max_defect = None
    min_defect = None
    for i in range(samples):
        phi, A, P = rand_split_fiber_instance(rng, d=rng.choice([2, 3]))
        S = frozenset({rand_place(rng), rand_place(rng)})
        res.checked += 1
        fd = fiber(phi, A)
        if fd.degree_sum() != phi.d:
            res.failures.append(
                f"sample {i}: fiber degree sum {fd.degree_sum()} != {phi.d} "
                f"for phi = {map_text(phi)}"
            )
        try:  # fiber_pullback_defect at m = 1, on the fiber factored above
            rec = _fiber_pullback_defect(phi, fd, A, P, S)
        except DomainError as exc:
            res.failures.append(f"sample {i}: {exc} for phi = {map_text(phi)}")
            continue
        nd = rec.normalized_defect
        max_defect = nd if max_defect is None else max(max_defect, nd)
        min_defect = nd if min_defect is None else min(min_defect, nd)
    res.info["max_normalized_defect"] = str(max_defect)
    res.info["min_normalized_defect"] = str(min_defect)
    return res


def _suite_rh(samples: int, seed: int) -> SuiteResult:
    """Ramification bookkeeping: Wronskian total vs 2d-2, fiber multiplicity
    sums, and multiplicativity of ramification indices under composition."""
    rng = Random(seed)
    res = SuiteResult("rh", samples, seed)
    for i in range(samples):
        phi = rand_map(rng, d=rng.choice([2, 3]), coeff_deg=1, cmax=3)
        res.checked += 1
        finite_total, e_inf_m1, target = ramification_totals(phi)
        if finite_total + e_inf_m1 != target:
            res.failures.append(
                f"sample {i}: RH total {finite_total} + {e_inf_m1} != {target} "
                f"for phi = {map_text(phi)}"
            )
        A = rand_point(rng, max_deg=1, cmax=2)
        fd = fiber(phi, A)
        if fd.degree_sum() != phi.d:
            res.failures.append(
                f"sample {i}: fiber sum {fd.degree_sum()} != {phi.d} over {A} "
                f"for phi = {map_text(phi)}"
            )
        P = rand_point(rng, max_deg=1, cmax=2)
        e_compose = ramification_index(power(phi, 2), P)
        e_chain = ramification_index(phi, P) * ramification_index(
            phi, apply_map(phi, P)
        )
        if e_compose != e_chain:
            res.failures.append(
                f"sample {i}: e_P(phi^2) = {e_compose} != {e_chain} "
                f"for phi = {map_text(phi)}, P = {P}"
            )
    return res


def _suite_roundtrip(samples: int, seed: int) -> SuiteResult:
    """parse(print(x)) = x on random maps and field elements."""
    rng = Random(seed)
    res = SuiteResult("roundtrip", samples, seed)
    for i in range(samples):
        res.checked += 1
        if i % 2 == 0:
            phi = rand_map(rng, d=rng.choice([2, 3]))
            text = map_text(phi)
            back = parse_rational_map(text)
            if back != phi:
                res.failures.append(f"sample {i}: map round-trip broke on {text!r}")
        else:
            x = rand_field_elem(rng)
            text = field_elem_text(x)
            back = parse_field_elem(text)
            if back != x:
                res.failures.append(
                    f"sample {i}: element round-trip broke on {text!r}"
                )
    return res


_SUITES: dict[str, Callable[[int, int], SuiteResult]] = {
    "product-formula": _suite_product_formula,
    "displacement": _suite_displacement,
    "prop23": _suite_prop23,
    "lemma22": _suite_lemma22,
    "lemma26": _suite_lemma26,
    "rh": _suite_rh,
    "roundtrip": _suite_roundtrip,
}
SUITE_NAMES = tuple(_SUITES)


# descriptive aliases for the short historical suite tokens
SUITE_ALIASES = {
    "iterate-heights": "prop23",
    "contact-chain": "lemma22",
    "fiber-pullback": "lemma26",
    "riemann-hurwitz": "rh",
}


def run_suite(name: str, samples: int, seed: int) -> SuiteResult:
    name = SUITE_ALIASES.get(name, name)
    if name not in _SUITES:
        raise KeyError(name)
    if samples < 0:
        raise DomainError("sample count must be nonnegative")
    return _SUITES[name](samples, seed)
