"""Outside-in tracing of the ffdyn layers, built only from the benchmark's
own files.

Tracer.install() wraps the public functions of each ffdyn module, the
Poly/ZPoly kernels and FieldElement.make. Modules bind each other's names
with `from .x import y`, so a function is replaced in every ffdyn module
that binds it, not only where it is defined. The lru_cache objects stay
reachable through the originals so their cache_info() gives hit ratios.

Every call becomes a span (task id, parent span, name, start, end) kept in
memory in flat arrays; write() stores them when the batch ends. Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, span name). Several attributes may share a span name;
# their spans then add up under that name.
FUNCTIONS = [
    ("polynomials", "poly_gcd", "polynomials.gcd"),
    ("function_field", "is_S_unit", "function_field.is_S_unit"),
    ("function_field", "poly_ord", "function_field.poly_ord"),
    ("sympybridge", "factor_tpoly", "sympybridge.factor_tpoly"),
    ("sympybridge", "is_irreducible_tpoly", "sympybridge.is_irreducible_tpoly"),
    ("sympybridge", "factor_zpoly_over_k", "sympybridge.factor_zpoly_over_k"),
    ("sympybridge", "sqf_zpoly_over_k", "sympybridge.sqf_zpoly_over_k"),
    ("sympybridge", "resultant_z", "sympybridge.resultant_z"),
    ("sympybridge", "zpoly_gcd_over_k", "sympybridge.zpoly_gcd_over_k"),
    ("maps", "apply_map", "maps.apply_map"),
    ("maps", "compose", "maps.compose"),
    ("maps", "normalize_map", "maps.normalize_map"),
    ("maps", "fiber", "maps.fiber"),
    ("maps", "resultant", "maps.resultant"),
    ("maps", "power", "maps.power"),
    ("heights", "canonical_height", "heights.canonical_height"),
    ("heights", "classify_preperiodic", "heights.classify_preperiodic"),
    ("local_geometry", "lambda_sum", "local_geometry.lambda_sum"),
    ("orbit_integrality", "gamma_set", "orbit_integrality.gamma_set"),
    ("mult_dependence", "dependence_search", "mult_dependence.dependence_search"),
    ("cli", "main", "cli.main"),
] + [
    ("exprs", name, "exprs.parse")
    for name in ("parse_field_elem", "parse_rational_map", "parse_point",
                 "parse_place", "parse_places", "parse_split_form")
] + [
    ("exprs", name, "exprs.print")
    for name in ("poly_text", "zpoly_text", "field_elem_text", "map_text",
                 "place_text", "places_text", "point_text", "form_text")
]

# (module, class, method, span name)
METHODS = [
    ("polynomials", "Poly", "__mul__", "polynomials.mul"),
    ("polynomials", "Poly", "divmod", "polynomials.divmod"),
    ("polynomials", "ZPoly", "__mul__", "polynomials.zpoly_mul"),
    ("polynomials", "ZPoly", "homogeneous_eval", "polynomials.homogeneous_eval"),
    ("function_field", "FieldElement", "make", "function_field.make"),
]

# lru_cache'd functions whose hit ratio is reported: (module, attribute, metric)
CACHES = [
    ("maps", "resultant", "maps.resultant.hit_ratio"),
    ("maps", "power", "maps.power.hit_ratio"),
    ("sympybridge", "factor_tpoly", "sympybridge.factor_tpoly.hit_ratio"),
]

# Span names whose call count is reported as <name>.calls.
COUNTED = (
    "polynomials.mul", "polynomials.divmod", "polynomials.gcd",
    "function_field.make", "function_field.is_S_unit",
    "sympybridge.resultant_z", "sympybridge.factor_tpoly",
    "sympybridge.zpoly_gcd_over_k", "maps.apply_map", "local_geometry.lambda_sum",
)

# Span names whose self time is reported as <name>.self_s.
TIMED = (
    "polynomials.mul", "polynomials.divmod", "polynomials.gcd",
    "polynomials.zpoly_mul", "polynomials.homogeneous_eval",
    "function_field.make", "function_field.is_S_unit", "function_field.poly_ord",
    "sympybridge.resultant_z", "sympybridge.factor_tpoly",
    "sympybridge.factor_zpoly_over_k", "sympybridge.sqf_zpoly_over_k",
    "sympybridge.zpoly_gcd_over_k", "maps.apply_map", "maps.compose",
    "maps.normalize_map", "maps.fiber", "heights.canonical_height",
    "heights.classify_preperiodic", "local_geometry.lambda_sum",
    "orbit_integrality.gamma_set", "mult_dependence.dependence_search",
    "exprs.parse", "exprs.print", "cli.main",
)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(("max_degree", "max_out_height")):
        return "degree"
    if metric.endswith("_bits"):
        return "bits"
    if metric.endswith("depth_mean"):
        return "iterates"
    return "count"


def _coeff_bits(p) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.coeffs),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.task = array("l")
        self.parent = array("l")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._task_id = -1
        self._originals: dict[tuple[str, str], object] = {}
        self.stats = defaultdict(int)

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        span = len(self.start)
        self.task.append(self._task_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        # unwinds spans left open by an exception raised through a wrapper
        while self._stack and self._stack.pop() != span:
            pass

    def begin_task(self, task_id: int) -> None:
        self._task_id = task_id
        self._task_span = self._open(self._name_id("task"))

    def end_task(self) -> None:
        self._close(self._task_span)
        self._stack.clear()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, span_name: str):
        name_id = self._name_id(span_name)
        observe = getattr(self, "_observe_" + span_name.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        return wrapper

    def install(self) -> None:
        """Wrap every traced name; ffdyn and ffdyn.cli must be imported."""
        modules = [m for n, m in sys.modules.items()
                   if n == "ffdyn" or n.startswith("ffdyn.")]
        for mod_name, attr, span_name in FUNCTIONS:
            orig = getattr(sys.modules[f"ffdyn.{mod_name}"], attr)
            self._originals[(mod_name, attr)] = orig
            wrapped = self._wrap(orig, span_name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        for mod_name, cls_name, meth, span_name in METHODS:
            cls = getattr(sys.modules[f"ffdyn.{mod_name}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(self._wrap(raw.__func__, span_name)))
            else:
                setattr(cls, meth, self._wrap(raw, span_name))

    # -- per-call observations ------------------------------------------------

    def _observe_polynomials_mul(self, args, kwargs, result) -> None:
        s = self.stats
        if result.degree > s["mul_max_degree"]:
            s["mul_max_degree"] = result.degree
        bits = _coeff_bits(result)
        if bits > s["mul_max_bits"]:
            s["mul_max_bits"] = bits

    def _observe_polynomials_divmod(self, args, kwargs, result) -> None:
        # the span just closed; its parent is now the top of the stack
        if self._stack and self.names[self.name[self._stack[-1]]] == "maps.apply_map":
            self.stats["trial_div_attempts"] += 1
            self.stats["trial_div_hits"] += result[1].is_zero

    def _observe_polynomials_gcd(self, args, kwargs, result) -> None:
        self.stats["gcd_nontrivial"] += result.degree > 0

    def _observe_function_field_is_S_unit(self, args, kwargs, result) -> None:
        if self._stack and self.names[self.name[self._stack[-1]]] == (
            "mult_dependence.dependence_search"
        ):
            self.stats["pairs_tested"] += 1
            self.stats["pairs_hit"] += bool(result)

    def _observe_maps_apply_map(self, args, kwargs, result) -> None:
        if result.height > self.stats["apply_map_max_height"]:
            self.stats["apply_map_max_height"] = result.height

    def _observe_heights_canonical_height(self, args, kwargs, result) -> None:
        depth = args[2] if len(args) > 2 else kwargs["depth"]
        self.stats["certify_calls"] += 1
        self.stats["certify_depth_sum"] += depth

    def _observe_orbit_integrality_gamma_set(self, args, kwargs, result) -> None:
        self.stats["gamma_indices"] += len(result.records)
        self.stats["gamma_undecided"] += len(result.undecided_indices)

    # -- results -------------------------------------------------------------

    def aggregate(self) -> tuple[dict, dict]:
        """(calls, self seconds) per span name."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        names, name, parent = self.names, self.name, self.parent
        # A task timeout can interrupt _open between its appends. Such a run
        # fails anyway; only the common prefix of the columns is read.
        n = min(len(self.task), len(self.parent), len(self.name), len(self.start))
        for i in range(n):
            dur = self.end[i] - self.start[i]
            nm = names[name[i]]
            calls[nm] += 1
            self_s[nm] += dur
            p = parent[i]
            if 0 <= p < n:
                self_s[names[name[p]]] -= dur
        return calls, self_s

    def metrics(self) -> dict:
        calls, self_s = self.aggregate()
        s = self.stats

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for nm in COUNTED:
            out[f"{nm}.calls"] = calls[nm]
        for nm in TIMED:
            out[f"{nm}.self_s"] = self_s[nm]
        out["sympybridge.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith("sympybridge.")
        )
        out["polynomials.mul.max_degree"] = s["mul_max_degree"]
        out["polynomials.mul.max_coeff_bits"] = s["mul_max_bits"]
        out["polynomials.gcd.nontrivial_ratio"] = ratio(
            s["gcd_nontrivial"], calls["polynomials.gcd"])
        out["maps.apply_map.max_out_height"] = s["apply_map_max_height"]
        out["maps.apply_map.trial_div_hit_ratio"] = ratio(
            s["trial_div_hits"], s["trial_div_attempts"])
        out["heights.certify_depth_mean"] = ratio(
            s["certify_depth_sum"], s["certify_calls"])
        out["orbit_integrality.undecided_ratio"] = ratio(
            s["gamma_undecided"], s["gamma_indices"])
        out["mult_dependence.pairs_tested"] = s["pairs_tested"]
        out["mult_dependence.hit_ratio"] = ratio(s["pairs_hit"], s["pairs_tested"])
        for mod_name, attr, metric in CACHES:
            info = self._originals[(mod_name, attr)].cache_info()
            out[metric] = ratio(info.hits, info.hits + info.misses)
        return out

    def write(self, path: str) -> None:
        """One JSON header line (span names, span count, column names and
        array type codes), then each column as a raw array in that order;
        array.fromfile reads them back."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [["task", "l"], ["parent", "l"], ["name", "H"],
                        ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.task, self.parent, self.name, self.start, self.end):
                col.tofile(fh)

