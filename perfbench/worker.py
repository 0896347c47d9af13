"""Runs one task batch in a fresh interpreter and streams one JSON line per
task to stdout (result, seconds, and the calibration kernel's seconds just
before the task), then a closing line with ru_maxrss and, when traced, the
per-layer aggregates.

    python3 perfbench/worker.py SRC_DIR [SPANS_PATH] < batch.json

SRC_DIR is the directory holding the ffdyn package to measure. With
SPANS_PATH the functions of every ffdyn layer are wrapped (see tracing.py)
and the spans are written to that path at the end. batch.json holds
{"tasks": [...], "task_timeout_s": float}. One task runs at a time; there
are no threads.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

import calibrate


class TaskTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise TaskTimeout()


def _certify(ffdyn, task) -> dict:
    """Certify hhat(P) to the task's width: the depth is the least N with
    2B / (d^N (d - 1)) <= W for the program's own displacement bound B."""
    phi = ffdyn.parse_rational_map(task["map"])
    P = ffdyn.parse_point(task["point"])
    width = Fraction(task["width"])
    B = ffdyn.displacement_bound(phi)
    d = phi.d
    depth = 0
    while Fraction(2 * B, d**depth * (d - 1)) > width:
        depth += 1
    interval = ffdyn.canonical_height(phi, P, depth)
    return {"code": 0, "depth": depth, "lo": str(interval.lo), "hi": str(interval.hi)}


def _cli(ffdyn, task) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ffdyn.cli.main(task["argv"])
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _sympy_env() -> dict:
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {"sympy": sympy.__version__, "sympy_ground_types": GROUND_TYPES}


def main() -> int:
    src = os.path.abspath(sys.argv[1])
    spans_path = sys.argv[2] if len(sys.argv) > 2 else None
    batch = json.load(sys.stdin)
    sys.path.insert(0, src)
    import ffdyn
    import ffdyn.cli

    if not os.path.abspath(ffdyn.__file__).startswith(src + os.sep):
        print(f"ffdyn imported from {ffdyn.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    proto = sys.stdout
    signal.signal(signal.SIGALRM, _on_alarm)
    timeout = float(batch["task_timeout_s"])
    run = {"certify": _certify, "cli": _cli}
    for task in batch["tasks"]:
        kernel_s = calibrate.timed()
        if tracer:
            tracer.begin_task(task["id"])
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            result = run[task["kind"]](ffdyn, task)
        except TaskTimeout:
            result = {"code": "timeout"}
        except Exception as exc:  # a crash fails the task, not the batch
            result = {"code": "exception", "error": f"{type(exc).__name__}: {exc}"}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_task()
        result.update(id=task["id"], s=dt, kernel_s=kernel_s)
        proto.write(json.dumps(result) + "\n")
        proto.flush()
    end = {
        "end": True,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": _sympy_env(),
    }
    if tracer:
        end["trace"] = tracer.metrics()
        end["spans"] = len(tracer.start)
        tracer.write(spans_path)
    proto.write(json.dumps(end) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
