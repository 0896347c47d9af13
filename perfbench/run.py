"""ffdyn benchmark: one command that runs a named workload, prints every
metric with its unit, and checks every task's result.

    python3 perfbench/run.py --workload orbit-deep --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it measures the package in ./src.

A run is a closed loop with one client: a fresh interpreter (worker.py)
runs the seeded task batch one task at a time, and passes are repeated in
new interpreters while --seconds allows, so every pass starts cold like a
CLI user. End-to-end metrics (--trace 0):
  setup_s      spawn of an interpreter until `import ffdyn.cli` returns,
               median of several launches after one warm-up launch
  wall_s       the whole batch, median over passes
  task_p50_ms  per-task latency (each task's median over passes), median
  task_p90_ms  the same, 90th percentile (batches hold >= 100 tasks)
  peak_rss_mb  ru_maxrss of the worker, median over passes
Times are scaled to a fixed machine speed with the calibration kernel of
calibrate.py, which runs next to every task and launch; raw times are
printed as info lines and kept in the run record.
With --trace 1 the run makes one untraced and one traced pass and reports
the per-layer metrics of tracing.py, set-up import times from
`python -X importtime`, and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A task fails on a wrong result (checks.py),
an unexpected exit code, an exception or a timeout; failures are reported
as attempted/failed. Run artifacts (environment record, raw task times,
spans) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import re
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TASK_TIMEOUT_S = 30.0  # one task; the slowest shipped task takes about 2 s
RUN_LIMIT_S = 165.0  # the whole run, set-up and checks included
SETUP_LAUNCHES = 9
IMPORTTIME_LAUNCHES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class Run:
    """Paths and the hard deadline of one benchmark invocation."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.out_dir = os.path.join(HERE, "out")
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def env(self) -> dict:
        return dict(os.environ, PYTHONPATH=self.src)


# ---------------------------------------------------------------------------
# Worker passes
# ---------------------------------------------------------------------------


def run_pass(run: Run, tasks: list, spans_path: str | None = None) -> dict:
    """One batch in a fresh interpreter. Returns {"results": {id: result},
    "end": closing record or None, "elapsed_s": float}. Tasks that never
    report (worker killed at the deadline or crashed) are absent."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), run.src]
    if spans_path:
        cmd.append(spans_path)
    batch = json.dumps({"tasks": tasks, "task_timeout_s": TASK_TIMEOUT_S}).encode()
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=run.root, env=run.env())
    results, end, buf, err = {}, None, b"", b""
    try:
        proc.stdin.write(batch)
        proc.stdin.close()
        streams = [proc.stdout, proc.stderr]
        while streams:
            left = run.deadline - time.monotonic()
            if left <= 0:
                break
            ready, _, _ = select.select(streams, [], [], left)
            for stream in ready:
                chunk = os.read(stream.fileno(), 1 << 16)
                if not chunk:
                    streams.remove(stream)
                elif stream is proc.stderr:
                    err = (err + chunk)[-4000:]
                else:
                    buf += chunk
                    *lines, buf = buf.split(b"\n")
                    for line in lines:
                        rec = json.loads(line)
                        if rec.get("end"):
                            end = rec
                        else:
                            results[rec["id"]] = rec
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if end is None and err:
        sys.stderr.write(err.decode(errors="replace"))
    return {"results": results, "end": end, "elapsed_s": time.monotonic() - t0}


def _comparable(result: dict) -> dict:
    return {k: v for k, v in result.items() if k not in ("id", "s", "kernel_s")}


def scaled_times(tasks: list, p: dict) -> dict:
    """{task id: seconds scaled to the reference machine speed} of a pass."""
    done = [t["id"] for t in tasks if t["id"] in p["results"]]
    res = p["results"]
    scaled = calibrate.scale([res[i]["s"] for i in done], [res[i]["kernel_s"] for i in done])
    return dict(zip(done, scaled))


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def _launch(run: Run, args: list) -> subprocess.CompletedProcess:
    left = run.deadline - time.monotonic()
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=run.root, env=run.env(), timeout=max(left, 1.0),
                          check=True)


def measure_setup(run: Run) -> tuple[list, list]:
    """Seconds from spawning an interpreter until `import ffdyn.cli` returns,
    raw and scaled by the calibration kernel run between launches. The
    launches are pinned to the CPU the kernel runs on. A first launch, which
    may compile bytecode, is not counted."""
    code = "import ffdyn.cli, time; print(time.perf_counter())"
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # children inherit the mask
    try:
        _launch(run, ["-c", code])
        raw, kernel_s = [], [calibrate.timed()]
        for _ in range(SETUP_LAUNCHES):
            t0 = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
            done = float(_launch(run, ["-c", code]).stdout)
            raw.append(done - t0)
            kernel_s.append(calibrate.timed())
    finally:
        os.sched_setaffinity(0, cpus)
    return raw, calibrate.scale(raw, kernel_s)


def measure_importtime(run: Run) -> dict:
    """Median cumulative import time of sympy and of ffdyn.cli."""
    sympy_s, ffdyn_s = [], []
    for _ in range(IMPORTTIME_LAUNCHES):
        err = _launch(run, ["-X", "importtime", "-c", "import ffdyn.cli"]).stderr
        cum = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if m:
                cum[m.group(3)] = int(m.group(1)) / 1e6
        sympy_s.append(cum.get("sympy", 0.0))
        ffdyn_s.append(cum["ffdyn.cli"])
    return {"setup.import_sympy_s": statistics.median(sympy_s),
            "setup.import_ffdyn_s": statistics.median(ffdyn_s)}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def environment(root: str, worker_env: dict) -> dict:
    """What the numbers depend on besides the code: interpreter, sympy and
    its ground types (as the worker saw them), optional accelerators of
    sympy, CPU and the commit when the checkout has git metadata."""
    env = {
        "python": platform.python_version(),
        **worker_env,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "python_flint": importlib.util.find_spec("flint") is not None,
        "nproc": os.cpu_count(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), None)
    except OSError:
        env["cpu"] = platform.processor() or None
    env["git_sha"] = _git_sha(root)
    return env


def _git_sha(root: str):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None  # a checkout without git metadata


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def load_reference(workload: str, seed: int):
    path = os.path.join(HERE, "reference", f"{workload}.json")
    with open(path) as fh:
        return json.load(fh)["seeds"].get(str(seed))


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile: 100 values give the 90th as the 90th value,
    with ten samples above it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def judge(tasks, passes, ref) -> tuple[int, int, list]:
    """(attempted, failed, problems) over every task of every pass. A result
    that differs between passes also fails: outputs are byte-identical."""
    attempted = failed = 0
    problems = []
    first = passes[0]["results"]
    verdicts = {}
    for p in passes:
        for task in tasks:
            attempted += 1
            result = p["results"].get(task["id"], {"code": "timeout"})
            same = task["id"] in first and (
                _comparable(result) == _comparable(first[task["id"]]))
            if not same and task["id"] in first:
                errs = ["output differs between passes"]
            elif task["id"] in verdicts:
                errs = verdicts[task["id"]]
            else:
                errs = checks.check(task, result, ref.get(str(task["id"])) if ref else None)
                verdicts[task["id"]] = errs
            if errs:
                failed += 1
                problems.append((task["id"], errs))
    return attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ffdyn", "cli.py")):
        print(f"error: no ffdyn sources under {root}/src", file=sys.stderr)
        return 2
    run = Run(root)
    os.makedirs(run.out_dir, exist_ok=True)
    tasks = workloads.generate(args.workload, args.seed)
    ref = load_reference(args.workload, args.seed)
    stem = os.path.join(run.out_dir, f"{args.workload}-seed{args.seed}")

    metrics, info = {}, {}
    if args.trace:
        metrics.update(measure_importtime(run))
        plain = run_pass(run, tasks)
        traced = run_pass(run, tasks, spans_path=stem + ".spans")
        passes = [plain, traced]
        if plain["end"] and traced["end"]:
            metrics.update(traced["end"]["trace"])
            metrics["trace.overhead_ratio"] = (
                sum(scaled_times(tasks, traced).values())
                / sum(scaled_times(tasks, plain).values()))
            info["spans"] = traced["end"]["spans"]
    else:
        setup_raw, setup = measure_setup(run)
        passes = []
        start = time.monotonic()
        while True:
            passes.append(run_pass(run, tasks))
            spent = time.monotonic() - start
            typical = statistics.median(p["elapsed_s"] for p in passes)
            if (spent + typical > args.seconds or passes[-1]["end"] is None
                    or run.deadline - time.monotonic() < 2 * typical):
                break
        done = [p for p in passes if p["end"]]
        times = [scaled_times(tasks, p) for p in done]
        lat = [statistics.median(tt[t["id"]] for tt in times) * 1000
               for t in tasks if all(t["id"] in tt for tt in times)]
        if done and len(lat) == len(tasks):
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(sum(tt.values()) for tt in times),
                "task_p50_ms": statistics.median(lat),
                "task_p90_ms": percentile(lat, 90),
                "peak_rss_mb": statistics.median(
                    p["end"]["maxrss_kb"] / 1024 for p in done),
            }
        info = {
            "setup launches": len(setup),
            "passes": len(done),
            "tasks per pass": len(tasks),
            "raw setup_s": statistics.median(setup_raw),
            "raw wall_s per pass": [round(sum(r["s"] for r in p["results"].values()), 4)
                                    for p in done],
            "kernel_s median": statistics.median(
                r["kernel_s"] for p in done for r in p["results"].values()),
        }

    attempted, failed, problems = judge(tasks, passes, ref)
    for task_id, errs in problems[:20]:
        print(f"FAIL task {task_id}: {'; '.join(errs)}")
    env = environment(root, next((p["end"]["env"] for p in passes if p["end"]), {}))
    units = {name: END_TO_END_UNITS.get(name) or tracing.unit(name) for name in metrics}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"reference {'yes' if ref else 'no'}")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, value in info.items():
        print(f"info {key}: {value}")
    print(f"fail_ratio {failed / max(attempted, 1):.4f} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    with open(stem + f"-trace{args.trace}.json", "w") as fh:
        json.dump({"environment": env, "metrics": metrics, "info": info,
                   "failed": failed, "attempted": attempted,
                   "raw_s_and_kernel_s": {
                       str(t["id"]): [[p["results"][t["id"]]["s"], p["results"][t["id"]]["kernel_s"]]
                                      for p in passes if t["id"] in p["results"]]
                       for t in tasks}}, fh)
    complete = all(p["end"] for p in passes) and bool(metrics)
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
