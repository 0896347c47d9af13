"""Command-line frontend. Every command emits deterministic JSON-lines (or
CSV) records: identical configuration and seed give byte-identical output.

Exit codes: 0 success, 1 domain error (exceptional target, preperiodic point
where a wandering one is required, budget exhaustion, failed verification),
2 parse or configuration error, including a --params file that cannot be
read and an --output file that cannot be written.

Defaults can be overridden with FFDYN_-prefixed environment variables
(FFDYN_SEED, FFDYN_FORMAT, FFDYN_OUTPUT, FFDYN_DEPTH, FFDYN_SAMPLES,
FFDYN_BUDGET). They are read on each call to main(), after parsing, and only
for options of the chosen command; a malformed value exits with code 2. The
parser itself is built once per process."""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

from .errors import ConfigError, DomainError, ParseError
from .exprs import (
    field_elem_text,
    form_text,
    map_text,
    parse_at,
    parse_places,
    parse_point,
    parse_rational_map,
    parse_split_form,
    place_text,
    point_text,
)
from .heights import (
    DEFAULT_HEIGHT_BUDGET,
    Orbit,
    Preperiodic,
    canonical_height,
    classify_preperiodic,
)
from .maps import choose_m
from .mult_dependence import (
    DependenceQuery,
    dependence_search,
    poly_case_split,
    split_multilinear_zero_scan,
    unit_hits,
)
from .orbit_integrality import (
    count_S_integral,
    estimate_gamma,
    gamma_set,
    gamma_set_bound_rhs,
    integral_count_bound_rhs,
)

SCHEMA = "ffdyn.report/1"


class _EnvDefault(NamedTuple):
    """Parser default that FFDYN_<name> overrides. It is resolved after
    parsing (``_resolve_env_defaults``), so one parser serves every call."""

    name: str
    fallback: object
    cast: Callable = str


def _resolve_env_defaults(args: argparse.Namespace) -> None:
    for key, default in vars(args).items():
        if not isinstance(default, _EnvDefault):
            continue
        raw = os.environ.get(f"FFDYN_{default.name}")
        try:
            setattr(args, key, default.fallback if raw is None else default.cast(raw))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad FFDYN_{default.name} value {raw!r}") from exc


_FORMATS = ("json", "csv")


def _report_format(text: str) -> str:
    if text not in _FORMATS:
        raise ValueError(text)
    return text


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}") from exc


def _read_gamma1(path: str) -> Fraction:
    """The constant gamma1 of the bounds, from a --params file of lines
    'gamma1 = p/q' in UTF-8, a leading byte-order mark skipped; '#' starts a
    comment. Every line is parsed before any name or value is checked, and
    gamma1 is the only name a bound reads. A handler reads it before it
    builds the orbit, so a bad file fails before the scan."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise ConfigError(f"cannot read bound-parameter file {path}: {reason}") from exc
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'name = p/q'")
        key, _, val = line.partition("=")
        try:
            pairs.append((key.strip(), Fraction(val.strip())))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad rational {val.strip()!r}") from exc
    gamma1 = None
    for key, value in pairs:
        if key != "gamma1":
            raise ConfigError(f"unknown bound parameter {key!r}")
        if gamma1 is not None:
            raise ConfigError(f"duplicate bound parameter {key!r}")
        if value < 0:
            raise ConfigError(f"bound parameter {key!r} must be nonnegative")
        gamma1 = value
    if gamma1 is None:
        raise ConfigError("bound parameter 'gamma1' not supplied")
    return gamma1


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffdyn",
        description="Exact arithmetic dynamics over Q(t): heights, orbits, "
        "integrality and multiplicative dependence.",
    )
    parser.add_argument(
        "--format",
        choices=_FORMATS,
        default=_EnvDefault("FORMAT", "json", _report_format),
        help="report format (default json-lines)",
    )
    parser.add_argument(
        "--output",
        default=_EnvDefault("OUTPUT", None),
        help="write the report to a file instead of stdout",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_map(p):
        p.add_argument("--map", required=True, help="rational map in z over Q(t)")

    def add_point(p):
        p.add_argument("--point", required=True, help="base point (element or 'inf')")

    def add_places(p):
        p.add_argument(
            "--places",
            required=True,
            help="comma-separated places: monic irreducible polynomials or 'inf'",
        )

    def add_depth(p, default=12):
        p.add_argument(
            "--depth", type=int, default=_EnvDefault("DEPTH", default, int)
        )

    def add_budget(p):
        p.add_argument(
            "--budget",
            type=int,
            default=_EnvDefault("BUDGET", DEFAULT_HEIGHT_BUDGET, int),
            help="orbit height budget: the largest orbit height the map is "
            "applied to",
        )

    p = sub.add_parser("height", help="naive height of a point or field element")
    p.add_argument("expr", help="field element or 'inf'")

    p = sub.add_parser("canheight", help="certified canonical-height interval")
    add_map(p)
    add_point(p)
    add_depth(p, 10)
    add_budget(p)

    p = sub.add_parser(
        "classify", help="preperiodic/wandering classification with certificate"
    )
    add_map(p)
    add_point(p)
    p.add_argument("--max-iter", type=int, default=10_000)
    add_budget(p)

    p = sub.add_parser(
        "orbit-scan", help="quasi-integrality index scan against a target point"
    )
    add_map(p)
    add_point(p)
    add_places(p)
    p.add_argument("--target", default="inf")
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--max-n", type=int, required=True)
    add_depth(p)
    add_budget(p)
    p.add_argument("--wandering-attested", action="store_true")
    p.add_argument("--params", help="bound-parameter file for the index bound")

    p = sub.add_parser(
        "integral-count", help="count S-integral points in an orbit prefix"
    )
    add_map(p)
    add_point(p)
    add_places(p)
    p.add_argument("--max-n", type=int, required=True)
    add_budget(p)
    p.add_argument("--params", help="bound-parameter file for the count bound")
    add_depth(p)

    p = sub.add_parser("units-in-orbit", help="indices whose orbit value is an S-unit")
    add_map(p)
    add_point(p)
    add_places(p)
    p.add_argument("--max-n", type=int, required=True)
    add_budget(p)

    p = sub.add_parser(
        "multdep", help="exhaustive multiplicative-dependence box search"
    )
    add_map(p)
    add_point(p)
    add_places(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--s-max", type=int, required=True)
    p.add_argument("--wandering-attested", action="store_true")
    add_budget(p)

    p = sub.add_parser(
        "split-form-scan", help="zero tuples of a split multilinear form on an orbit"
    )
    add_map(p)
    add_point(p)
    p.add_argument("--form", required=True, help="form in variables T1, T2, ...")
    p.add_argument("--max-n", type=int, required=True)
    add_budget(p)

    p = sub.add_parser(
        "choose-m", help="least fiber level with small enough ramification"
    )
    add_map(p)
    p.add_argument("--target", required=True)
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--cap", type=int, default=6)

    p = sub.add_parser(
        "estimate-gamma", help="empirical index-bound constant over a family"
    )
    p.add_argument(
        "--instance",
        action="append",
        required=True,
        metavar="MAP|TARGET|POINT",
        help="repeatable; three expressions separated by '|'",
    )
    add_places(p)
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--max-n", type=int, required=True)
    add_depth(p, 8)
    add_budget(p)

    p = sub.add_parser("verify", help="run a named seeded property suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--samples", type=int, default=_EnvDefault("SAMPLES", 200, int))
    p.add_argument("--seed", type=int, default=_EnvDefault("SEED", 0, int))

    return parser


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fraction_text(value):
    """The JSON encoders' default: a Fraction as its text; any other object
    json cannot encode is an error."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# One encoder for every JSON record, and one for every CSV cell
_JSON_ENCODER = json.JSONEncoder(sort_keys=True, default=_fraction_text)
_CSV_ENCODER = json.JSONEncoder(default=_fraction_text)


def _csv_cell(value) -> str:
    """A str or Fraction as its text, unquoted; any other value as JSON,
    its dicts in their own order."""
    if isinstance(value, (str, Fraction)):
        return str(value)
    return _CSV_ENCODER.encode(value)


def _emit(args, records: list[dict]) -> None:
    if args.format == "json":
        text = "".join(_JSON_ENCODER.encode(r) + "\n" for r in records)
    else:
        import csv

        keys = sorted({k for r in records for k in r})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        for r in records:
            writer.writerow({k: _csv_cell(v) for k, v in r.items()})
        text = buf.getvalue()
    _write(args, text)


def _write(args, text: str) -> None:
    """Write text to the --output file, or to stdout without one."""
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        reason = exc.strerror
        raise ConfigError(f"cannot write report to {args.output}: {reason}") from exc


# ---------------------------------------------------------------------------
# Command handlers: parsed arguments -> records, which main stamps and writes
# ---------------------------------------------------------------------------


def _run_height(args) -> list[dict]:
    return [{"height": parse_point(args.expr).height}]


def _run_canheight(args) -> list[dict]:
    phi = parse_rational_map(args.map)
    P = parse_point(args.point)
    interval = canonical_height(phi, P, args.depth, args.budget)
    return [
        {
            "map": map_text(phi),
            "point": point_text(P),
            "depth": args.depth,
            "lo": interval.lo,
            "hi": interval.hi,
            "width": interval.width,
        }
    ]


def _run_classify(args) -> list[dict]:
    phi = parse_rational_map(args.map)
    P = parse_point(args.point)
    verdict = classify_preperiodic(phi, P, args.max_iter, args.budget)
    record = {
        "map": map_text(phi),
        "point": point_text(P),
    }
    if isinstance(verdict, Preperiodic):
        record.update(type="preperiodic", tail=verdict.tail, cycle=verdict.cycle)
    else:
        record.update(
            type="wandering",
            canonical_lower=verdict.canonical_lower,
            depth=verdict.depth,
        )
    return [record]


def _run_orbit_scan(args) -> list[dict]:
    phi = parse_rational_map(args.map)
    P = parse_point(args.point)
    A = parse_point(args.target)
    S = parse_places(args.places)
    gamma1 = _read_gamma1(args.params) if args.params else None
    orbit = Orbit(phi, P, args.budget)
    report = gamma_set(
        orbit,
        S,
        A,
        args.epsilon,
        args.max_n,
        depth=args.depth,
        wandering_attested=args.wandering_attested,
    )
    records = [
        {
            "n": rec.n,
            "proximity": "inf" if rec.proximity is None else rec.proximity,
            "hhat_lo": rec.hhat.lo,
            "hhat_hi": rec.hhat.hi,
            "membership": rec.membership,
            "s_integral": rec.s_integral,
        }
        for rec in report.records
    ]
    summary = {
        "summary": True,
        "epsilon": args.epsilon,
        "depth": args.depth,
        "in_indices": report.in_indices,
        "undecided_indices": report.undecided_indices,
        "max_in_index": report.max_in_index,
    }
    if gamma1 is not None:
        summary["bound_rhs_lo"], summary["bound_rhs_hi"] = gamma_set_bound_rhs(
            gamma1, orbit, A, depth=args.depth
        )
    return records + [summary]


def _run_integral_count(args) -> list[dict]:
    phi = parse_rational_map(args.map)
    P = parse_point(args.point)
    S = parse_places(args.places)
    gamma1 = _read_gamma1(args.params) if args.params else None
    orbit = Orbit(phi, P, args.budget)
    report = count_S_integral(orbit, S, args.max_n)
    record = {
        "map": map_text(phi),
        "point": point_text(P),
        "max_n": args.max_n,
        "hits": report.hits,
        "count": report.count,
        "warnings": report.warnings,
    }
    if report.certificate is not None:
        record["certificate"] = {
            "start": report.certificate.start,
            "place": place_text(report.certificate.place),
        }
    if gamma1 is not None:
        record["bound_rhs_lo"], record["bound_rhs_hi"] = integral_count_bound_rhs(
            gamma1, orbit, depth=args.depth
        )
    return [record]


def _run_units_in_orbit(args) -> list[dict]:
    phi = parse_rational_map(args.map)
    P = parse_point(args.point)
    S = parse_places(args.places)
    hits = unit_hits(Orbit(phi, P, args.budget), S, args.max_n)
    return [
        {
            "map": map_text(phi),
            "point": point_text(P),
            "max_n": args.max_n,
            "hits": hits,
            "count": len(hits),
        }
    ]


def _run_multdep(args) -> list[dict]:
    phi = parse_rational_map(args.map)
    alpha = parse_point(args.point)
    S = parse_places(args.places)
    query = DependenceQuery(
        S=S,
        n_max=args.n_max,
        k_max=args.k_max,
        r_max=args.r_max,
        s_max=args.s_max,
    )
    orbit = Orbit(phi, alpha, args.budget)
    report = dependence_search(orbit, query, wandering_attested=args.wandering_attested)
    records = []
    case_split = None
    if phi.is_polynomial and report.solutions:
        case_split = poly_case_split(orbit, S)
    for sol in report.solutions:
        rec = {
            "n": sol.n,
            "k": sol.k,
            "r": sol.r,
            "s": sol.s,
            "u": field_elem_text(sol.u),
            "rho": sol.rho,
        }
        if case_split is not None:
            rec["case_label"] = case_split(sol)
        records.append(rec)
    summary = {
        "summary": True,
        "solutions": len(report.solutions),
        "skipped": report.skipped,
        "zero_not_periodic": report.zero_not_periodic,
        "wandering_certified": report.wandering_certified,
    }
    return records + [summary]


def _run_split_form_scan(args) -> list[dict]:
    phi = parse_rational_map(args.map)
    alpha = parse_point(args.point)
    form = parse_split_form(args.form)
    report = split_multilinear_zero_scan(
        form, Orbit(phi, alpha, args.budget), args.max_n
    )
    return [
        {
            "form": form_text(form),
            "map": map_text(phi),
            "point": point_text(alpha),
            "max_n": args.max_n,
            "zero_tuples": report.zero_tuples,
            "skipped_tuples": report.skipped,
            "scanned": report.scanned,
        }
    ]


def _run_choose_m(args) -> list[dict]:
    phi = parse_rational_map(args.map)
    A = parse_point(args.target)
    return [
        {
            "map": map_text(phi),
            "target": point_text(A),
            "epsilon": args.epsilon,
            "m": choose_m(phi, A, args.epsilon, cap=args.cap),
        }
    ]


def _run_estimate_gamma(args) -> list[dict]:
    instances = []
    for raw in args.instance:
        parts = raw.split("|")
        if len(parts) != 3:
            raise ConfigError(f"instance must be 'MAP|TARGET|POINT': {raw!r}")
        # each part parsed alone, its error positions counted in raw
        offsets = (0, len(parts[0]) + 1, len(parts[0]) + len(parts[1]) + 2)
        parsers = (parse_rational_map, parse_point, parse_point)
        instances.append(tuple(map(parse_at, parsers, parts, offsets)))
    S = parse_places(args.places)
    report = estimate_gamma(
        instances,
        S,
        args.epsilon,
        args.max_n,
        depth=args.depth,
        height_budget=args.budget,
    )
    return [
        {
            "gamma_hat": report.gamma_hat,
            "witnesses": report.witnesses,
            "warnings": report.warnings,
            "instances": len(instances),
        }
    ]


def _run_verify(args) -> list[dict]:
    # only verify needs the suites and the random generators they draw from
    from dataclasses import asdict

    from . import suites

    try:
        result = suites.run_suite(args.suite, args.samples, args.seed)
    except KeyError:
        raise ConfigError(
            f"unknown suite {args.suite!r}; known: {', '.join(suites.SUITE_NAMES)}"
        )
    return [{**asdict(result), "passed": result.passed}]


_HANDLERS = {
    "height": _run_height,
    "canheight": _run_canheight,
    "classify": _run_classify,
    "orbit-scan": _run_orbit_scan,
    "integral-count": _run_integral_count,
    "units-in-orbit": _run_units_in_orbit,
    "multdep": _run_multdep,
    "split-form-scan": _run_split_form_scan,
    "choose-m": _run_choose_m,
    "estimate-gamma": _run_estimate_gamma,
    "verify": _run_verify,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _resolve_env_defaults(args)
        records = _HANDLERS[args.command](args)
        if args.command == "height":  # a bare number, in either format
            _write(args, f"{records[0]['height']}\n")
        else:
            stamp = {"schema": SCHEMA, "command": args.command}
            _emit(args, [{**stamp, **r} for r in records])
    except (ParseError, ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DomainError) else 2
    return 1 if any(r.get("passed") is False for r in records) else 0  # failed verify


if __name__ == "__main__":
    sys.exit(main())
