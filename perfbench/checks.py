"""Result checks. They compare mathematical facts, not bytes, so that they
hold across changes that make the program faster or its bounds sharper.

facts() extracts from one task result what a committed reference stores.
check() returns the list of problems with a result: first the checks that
need no reference (exit code, certified width, S-unit witnesses tested
with sympy directly, internal consistency), then, when a reference fact is
given, agreement with it:
  - canheight intervals must intersect the reference interval;
  - classify verdicts and tail/cycle must match;
  - multdep (n, k, r, s) sets must match;
  - orbit-scan "in"/"out" must not contradict the reference ("undecided"
    may become decided), and the exact proximity and S-integrality agree;
  - integral-count hits and choose-m levels must match.
The float `rho` of multdep is ignored.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd


def _records(result) -> list[dict]:
    return [json.loads(line) for line in result["stdout"].splitlines()]


def _opt(argv, name) -> str:
    prefix = f"--{name}="
    return next(a[len(prefix):] for a in argv if a.startswith(prefix))


def facts(task, result):
    """The reference fact of a successful task result."""
    if task["kind"] == "certify":
        return {"lo": result["lo"], "hi": result["hi"]}
    recs = _records(result)
    cmd = task["argv"][0]
    if cmd == "orbit-scan":
        rows = [r for r in recs if not r.get("summary")]
        return {
            "membership": [r["membership"] for r in rows],
            "proximity": [r["proximity"] for r in rows],
            "s_integral": [r["s_integral"] for r in rows],
        }
    if cmd == "multdep":
        return {"solutions": sorted(
            [r["n"], r["k"], r["r"], r["s"]] for r in recs if not r.get("summary"))}
    rec = recs[0]
    if cmd == "classify":
        if rec["type"] == "preperiodic":
            return {"type": "preperiodic", "tail": rec["tail"], "cycle": rec["cycle"]}
        return {"type": rec["type"]}
    if cmd == "integral-count":
        return {"hits": rec["hits"]}
    if cmd == "choose-m":
        return {"m": rec["m"]}
    if cmd == "canheight":
        return {"lo": rec["lo"], "hi": rec["hi"]}
    raise ValueError(f"no facts for command {cmd!r}")


# ---------------------------------------------------------------------------
# S-unit test with sympy, independent of ffdyn
# ---------------------------------------------------------------------------

_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(\*?t(?:\^(\d+))?)?")


def _poly_coeffs(text: str) -> dict:
    """{exponent: Fraction} of a polynomial in t printed as a sum of terms
    like 3/2*t^5, -t or 7."""
    coeffs = {}
    text = text.replace(" ", "")
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot read polynomial {text!r}")
        sign, num, tpart, exp = m.groups()
        c = Fraction(num) if num else Fraction(1)
        k = (int(exp) if exp else 1) if tpart else 0
        coeffs[k] = coeffs.get(k, 0) + (-c if sign == "-" else c)
        pos = m.end()
    return coeffs


def _sympy_poly(text: str):
    import sympy

    t = sympy.Symbol("t")
    terms = {(k,): sympy.Rational(c.numerator, c.denominator)
             for k, c in _poly_coeffs(text).items() if c}
    return sympy.Poly.from_dict(terms or {(0,): 0}, t, domain="QQ")


def is_S_unit_sympy(u_text: str, places_text: str) -> bool:
    """u != 0 and ord_v(u) = 0 at every place v outside S, tested with sympy
    alone: the squarefree parts of numerator and denominator must divide
    the product of the finite places of S, and when infinity is not in S
    their degrees must agree."""
    text = u_text.replace(" ", "")
    if text.startswith("(") and ")/(" in text:
        num_text, den_text = text[1:-1].split(")/(")
    else:
        num_text, den_text = text, "1"
    num, den = _sympy_poly(num_text), _sympy_poly(den_text)
    if num.is_zero:
        return False
    finite = [part for part in places_text.split(",") if part.strip() != "inf"]
    if len(finite) == len(places_text.split(",")) and num.degree() != den.degree():
        return False
    support = _sympy_poly("1")
    for part in finite:
        support = support * _sympy_poly(part)
    for p in (num, den):
        if p.degree() > 0 and not support.rem(p.sqf_part()).is_zero:
            return False
    return True


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _check_free(task, result) -> list[str]:
    if result.get("code") != 0:
        detail = result.get("error") or result.get("stderr", "").strip()
        return [f"exit {result.get('code')}: {detail[:200]}"]
    if task["kind"] == "certify":
        lo, hi = Fraction(result["lo"]), Fraction(result["hi"])
        if not 0 <= lo <= hi:
            return [f"bad interval [{lo}, {hi}]"]
        if hi - lo > Fraction(task["width"]):
            return [f"width {hi - lo} exceeds {task['width']}"]
        return []
    argv = task["argv"]
    recs = _records(result)
    cmd = argv[0]
    problems = []
    if cmd == "orbit-scan":
        rows, summary = recs[:-1], recs[-1]
        if [r["n"] for r in rows] != list(range(int(_opt(argv, "max-n")) + 1)):
            problems.append("orbit-scan indices incomplete")
        if summary["in_indices"] != [r["n"] for r in rows if r["membership"] == "in"]:
            problems.append("orbit-scan summary disagrees with records")
    elif cmd == "multdep":
        rows, summary = recs[:-1], recs[-1]
        box = [int(_opt(argv, k)) for k in ("n-max", "k-max", "r-max", "s-max")]
        if summary["solutions"] != len(rows):
            problems.append("multdep solution count disagrees with records")
        places = _opt(argv, "places")
        for r in rows:
            if not (1 <= r["n"] <= box[0] and 1 <= r["k"] <= box[1]
                    and 1 <= r["r"] <= box[2] and 1 <= abs(r["s"]) <= box[3]
                    and gcd(r["r"], abs(r["s"])) == 1):
                problems.append(f"multdep tuple outside the box: {r}")
            elif not is_S_unit_sympy(r["u"], places):
                problems.append(f"u is not an S-unit for {(r['n'], r['k'], r['r'], r['s'])}")
    elif cmd == "classify":
        rec = recs[0]
        if rec["type"] == "wandering" and Fraction(rec["canonical_lower"]) <= 0:
            problems.append("wandering verdict without positive lower bound")
    elif cmd == "integral-count":
        rec = recs[0]
        hits = rec["hits"]
        if rec["count"] != len(hits) or hits != sorted(set(hits)) or any(
            not 1 <= n <= rec["max_n"] for n in hits
        ):
            problems.append(f"inconsistent hits {hits}")
    elif cmd == "choose-m":
        if not 1 <= recs[0]["m"] <= int(_opt(argv, "cap")):
            problems.append(f"level {recs[0]['m']} above the cap")
    elif cmd == "canheight":
        rec = recs[0]
        lo, hi = Fraction(rec["lo"]), Fraction(rec["hi"])
        if not 0 <= lo <= hi or Fraction(rec["width"]) != hi - lo:
            problems.append(f"bad interval [{lo}, {hi}]")
    return problems


def _check_ref(task, fact, ref) -> list[str]:
    if "lo" in ref:
        lo, hi = Fraction(fact["lo"]), Fraction(fact["hi"])
        if hi < Fraction(ref["lo"]) or lo > Fraction(ref["hi"]):
            return [f"interval [{lo}, {hi}] misses reference [{ref['lo']}, {ref['hi']}]"]
        return []
    if "membership" in ref:
        problems = []
        if fact["proximity"] != ref["proximity"] or fact["s_integral"] != ref["s_integral"]:
            problems.append("orbit-scan proximity or S-integrality differs from reference")
        for n, (new, old) in enumerate(zip(fact["membership"], ref["membership"])):
            if {new, old} == {"in", "out"}:
                problems.append(f"index {n}: {new} contradicts reference {old}")
        if len(fact["membership"]) != len(ref["membership"]):
            problems.append("orbit-scan length differs from reference")
        return problems
    if fact != ref:
        return [f"{json.dumps(fact)[:200]} differs from reference {json.dumps(ref)[:200]}"]
    return []


def check(task, result, ref=None) -> list[str]:
    """Problems with one task result; empty when it is correct."""
    try:
        problems = _check_free(task, result)
        if not problems and ref is not None:
            problems = _check_ref(task, facts(task, result), ref)
    except (KeyError, ValueError, IndexError, StopIteration, TypeError) as exc:
        problems = [f"malformed output: {type(exc).__name__}: {exc}"]
    return problems
