"""Byte-exact CLI goldens: stdout, stderr, exit code and --output file of
every command on the README examples, in JSON and CSV, and on errors.

The goldens live in cli_golden.json next to this file. When an output change
is intended, rewrite them with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ffdyn import cli, suites
from ffdyn.suites import SuiteResult

GOLDEN = Path(__file__).with_name("cli_golden.json")
OUT = "{out}"  # stands for the --output file in an argv
PARAMS = "{params}"  # stands for a bound-parameter file with the case's PARAMS_TEXT
MISSING = "{missing}"  # stands for a path where no file exists

ORBIT_SCAN = ["orbit-scan", "--map", "(z^2-t)/z", "--point", "t", "--places", "inf",
              "--target", "inf", "--epsilon", "1/2", "--max-n", "4", "--depth", "10"]
INTEGRAL_COUNT = ["integral-count", "--map", "(z^2-t)/z", "--point", "t",
                  "--places", "inf", "--max-n", "30"]
MULTDEP = ["multdep", "--map", "t*z^2", "--point", "t", "--places", "t,inf",
           "--n-max", "2", "--k-max", "2", "--r-max", "2", "--s-max", "3"]
CHOOSE_M = ["choose-m", "--map", "(z^2-t)/z", "--target", "0", "--epsilon", "1/2"]
CANHEIGHT_STABLE = ["canheight", "--map", "(z^2-t)/z", "--point", "t", "--depth", "60",
                    "--budget", "1000000000000000000000"]
DOMAIN_ERROR = ["orbit-scan", "--map", "z^2+t", "--point", "0", "--places", "inf",
                "--target", "inf", "--epsilon", "1/2", "--max-n", "2"]
ESCAPE_COUNT = ["integral-count", "--map", "z^2+t", "--point", "1", "--places", "inf",
                "--max-n", "12"]

CASES = {
    "height": ["height", "(t^2+1)/t"],
    "canheight": ["canheight", "--map", "z^2+t", "--point", "0", "--depth", "10"],
    "classify": ["classify", "--map", "z^2", "--point", "-1"],
    "orbit-scan": ORBIT_SCAN,
    "integral-count": INTEGRAL_COUNT,
    "units-in-orbit": ["units-in-orbit", "--map", "t*z^2", "--point", "1",
                       "--places", "t,inf", "--max-n", "5"],
    "multdep": MULTDEP,
    "split-form-scan": ["split-form-scan", "--map", "z^2+t", "--point", "0",
                        "--form", "T1 - t", "--max-n", "4"],
    "choose-m": CHOOSE_M,
    "estimate-gamma": ["estimate-gamma", "--instance", "(z^2-t)/z|inf|t",
                       "--places", "inf", "--epsilon", "1/4", "--max-n", "2",
                       "--depth", "10"],
    "verify": ["verify", "--suite", "product-formula", "--samples", "1000",
               "--seed", "0"],
    "csv-orbit-scan": ["--format", "csv", *ORBIT_SCAN],
    "csv-multdep": ["--format", "csv", *MULTDEP],
    "csv-integral-count": ["--format", "csv", *INTEGRAL_COUNT],
    "csv-choose-m": ["--format", "csv", *CHOOSE_M],
    "parse-error": ["height", "t/(t"],
    "domain-error": DOMAIN_ERROR,
    # a negative scan bound is rejected before the orbit is walked
    "orbit-scan-negative-max-n": [*ORBIT_SCAN[:12], "-1", *ORBIT_SCAN[13:]],
    "estimate-gamma-negative-max-n": ["estimate-gamma", "--instance", "(z^2-t)/z|inf|t",
                                      "--places", "inf", "--epsilon", "1/4",
                                      "--max-n", "-3"],
    # eps and depth out of range are rejected once, as orbit-scan rejects them
    "estimate-gamma-epsilon-out-of-range": ["estimate-gamma", "--instance",
                                            "(z^2-t)/z|inf|t", "--places", "inf",
                                            "--epsilon", "2", "--max-n", "2"],
    "estimate-gamma-depth-zero": ["estimate-gamma", "--instance", "(z^2-t)/z|inf|t",
                                  "--places", "inf", "--epsilon", "1/4", "--max-n", "2",
                                  "--depth", "0"],
    "verify-negative-samples": ["verify", "--suite", "product-formula", "--samples", "-3",
                                "--seed", "0"],
    # negative limits are rejected, not reported as exhausted
    "canheight-negative-budget": ["canheight", "--map", "z^2+t", "--point", "0",
                                  "--budget", "-5"],
    "classify-negative-max-iter": ["classify", "--map", "z^2+t", "--point", "0",
                                   "--max-iter", "-3"],
    "estimate-gamma-negative-budget": ["estimate-gamma", "--instance", "(z^2-t)/z|inf|t",
                                       "--places", "inf", "--epsilon", "1/4",
                                       "--max-n", "2", "--depth", "4", "--budget", "-1"],
    "canheight-negative-budget-env": ["canheight", "--map", "z^2+t", "--point", "0"],
    # the depth-1 interval for hhat(t) has lower end 0
    "estimate-gamma-hhat-not-positive": ["estimate-gamma", "--instance", "(z^2-t)/z|inf|t",
                                         "--places", "inf", "--epsilon", "1/4",
                                         "--max-n", "2", "--depth", "1"],
    # a zero numerator makes a constant map, whatever the denominator
    "classify-zero-numerator": ["classify", "--map", "0*z/(z^2+t)", "--point", "1"],
    "canheight-zero-numerator": ["canheight", "--map", "(z-z)/(z^2+1)", "--point", "1"],
    "output-json": ["--output", OUT, *ORBIT_SCAN],
    "output-csv": ["--format", "csv", "--output", OUT, *MULTDEP],
    # t/z^2 is not a polynomial, but its second iterate z^4/t is
    "polynomial-iterate-warning": ["integral-count", "--map", "t/z^2", "--point",
                                   "t+1", "--places", "inf", "--max-n", "3"],
    # 0 and inf form an exceptional 2-cycle of 1/z^2
    "exceptional-target": ["choose-m", "--map", "1/z^2", "--target", "0",
                           "--epsilon", "1/2"],
    "canheight-rational-coefficients": ["canheight", "--map", "(z^3+t*z)/(z^2-1/3*t*z)",
                                        "--point=-(t-1/2)^2/4"],
    # escape certificates: z^2+t at 1 escapes at iterate 1, so every iterate
    # from there on is a nonconstant polynomial
    "integral-count-escape": ESCAPE_COUNT,
    "integral-count-escape-finite-places": [*ESCAPE_COUNT[:6], "t", *ESCAPE_COUNT[7:]],
    "integral-count-escape-budget": [*ESCAPE_COUNT, "--budget", "100"],
    # the leading coefficient t adds deg a_d = 1 to every escaped step
    "classify-escape-leading-t": ["classify", "--map", "t*z^2", "--point", "t"],
    # deg P = 1 is at most R = 3/2, so the orbit escapes only at iterate 1
    "canheight-late-escape": ["canheight", "--map", "z^2+t^3", "--point", "t",
                              "--depth", "10"],
    # a denominator of positive t-degree keeps the global path
    "canheight-t-denominator": ["canheight", "--map", "(z^2+1)/t", "--point", "t",
                                "--depth", "8"],
    # stable certificates: (z^2-t)/z at t from iterate 1, within the budget
    # and past it at iterate 16 (height 2^15)
    "canheight-stable": CANHEIGHT_STABLE,
    "canheight-stable-budget": CANHEIGHT_STABLE[:-2],
    # e = deg x0 - deg x1 is 0 at the base point and 1 from iterate 1 on
    "canheight-stable-e-settles": ["canheight", "--map", "(z^2+2*t-3)/(3*z)",
                                   "--point", "2", "--depth", "12"],
    # once without a certificate (the reduced map moves its hole mod t^3 +
    # 12); the reduction mod (3, t) certifies it at iterate 1, same output
    "canheight-no-certificate": ["canheight", "--map", "(3*z^2+t)/(t*z-2)",
                                 "--point", "t+2/5", "--depth", "12",
                                 "--budget", "1000000000"],
    # a bound-parameter file sets gamma1, the one name a bound reads
    "integral-count-params": [*INTEGRAL_COUNT, "--params", PARAMS],
    # a file is read before the scan, and each way it is rejected exits 2
    "orbit-scan-params-unknown-key": [*ORBIT_SCAN, "--params", PARAMS],
    "integral-count-params-no-gamma1": [*INTEGRAL_COUNT, "--params", PARAMS],
    "integral-count-params-duplicate": [*INTEGRAL_COUNT, "--params", PARAMS],
    "orbit-scan-params-negative": [*ORBIT_SCAN, "--params", PARAMS],
    "integral-count-params-bad-rational": [*INTEGRAL_COUNT, "--params", PARAMS],
    "integral-count-params-missing-file": [*INTEGRAL_COUNT, "--params", MISSING],
    # so a bad file wins over the scan's domain error (the exceptional target)
    "domain-error-params-missing-file": [*DOMAIN_ERROR, "--params", MISSING],
    # a UTF-8 byte-order mark before the first name is skipped
    "integral-count-params-bom": [*INTEGRAL_COUNT, "--params", PARAMS],
}

# FFDYN_ variables set for a case
ENV = {"canheight-negative-budget-env": {"FFDYN_BUDGET": "-5"}}
# the text of the file PARAMS stands for, per case
PARAMS_TEXT = {
    "orbit-scan-params-unknown-key": "gamma1 = 3\nkappa2 = 1/2\n",
    "integral-count-params": "gamma1 = 3/2  # comment\n",
    "integral-count-params-no-gamma1": "# gamma1 left out\n",
    "integral-count-params-duplicate": "gamma1 = 1\ngamma1 = 2\n",
    "orbit-scan-params-negative": "gamma1 = -1/2\n",
    "integral-count-params-bad-rational": "gamma1 = 1/x\n",
    "integral-count-params-bom": "\ufeffgamma1 = 1\n",
}


def run_case(argv, out_path=None, params_text="") -> dict:
    """Run main in-process on argv, with OUT standing for out_path, PARAMS
    for a file beside it that holds params_text and MISSING for a path
    beside it where no file is; return its exit code, stdout, stderr and,
    for an --output run, the file's text. A path in stdout or stderr is
    written as its placeholder."""
    files = {}
    if out_path is not None:
        params = Path(out_path).with_name("params")
        params.write_text(params_text, encoding="utf-8")
        missing = Path(out_path).with_name("missing")
        files = {OUT: str(out_path), PARAMS: str(params), MISSING: str(missing)}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([files.get(a, a) for a in argv])
    result = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    for placeholder, path in files.items():
        for key in ("stdout", "stderr"):
            result[key] = result[key].replace(path, placeholder)
    if OUT in argv:
        result["file"] = Path(out_path).read_text()
    return result


@pytest.fixture
def clean_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("FFDYN_"):
            monkeypatch.delenv(name)


@pytest.mark.parametrize("name", list(CASES))
def test_cli_golden(name, tmp_path, clean_env, monkeypatch):
    for key, value in ENV.get(name, {}).items():
        monkeypatch.setenv(key, value)
    expected = json.loads(GOLDEN.read_text())[name]
    result = run_case(CASES[name], tmp_path / "report", PARAMS_TEXT.get(name, ""))
    assert result == expected


# integral-count whose persistence certificate factors a degree-7 denominator,
# (t + 1)^2 times the quintic place below; the expected record is the one
# the earlier sympy factorization printed
DEGREE_7_CERTIFICATE = (
    ["integral-count", "--map", "(z^3+t)/(z+t)", "--point", "t", "--places", "inf",
     "--max-n", "3"],
    '{"certificate": {"place": "t^5 - t^4 + 4*t^3 + 11*t + 1", "start": 3}, '
    '"command": "integral-count", "count": 1, "hits": [1], "map": "(z^3 + t)/(z + t)", '
    '"max_n": 3, "point": "t", "schema": "ffdyn.report/1", "warnings": []}\n',
)

# Blocks sympy, imports ffdyn.cli, runs main on each argv read from stdin and
# prints the results as one JSON list.
_NO_SYMPY_RUNNER = """
import contextlib, io, json, sys
sys.modules["sympy"] = None
import ffdyn.cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ffdyn.cli.main(argv)
    results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
print(json.dumps(results))
"""


def test_commands_run_without_sympy(clean_env):
    # one command of each kind the benchmark runs; multdep on t*z^2 reaches
    # bad_reduction_places
    names = ["height", "canheight", "classify", "orbit-scan", "multdep", "choose-m"]
    argv, stdout = DEGREE_7_CERTIFICATE
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SYMPY_RUNNER],
        input=json.dumps([CASES[name] for name in names] + [argv]),
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    goldens = json.loads(GOLDEN.read_text())
    assert results[:-1] == [goldens[name] for name in names]
    assert results[-1] == {"code": 0, "stdout": stdout, "stderr": ""}


def test_failed_verify_prints_its_record_and_exits_1(monkeypatch, clean_env):
    failed = SuiteResult("rh", 3, 7, checked=3, failures=["sample 2: off by one"])
    monkeypatch.setattr(suites, "run_suite", lambda suite, samples, seed: failed)
    result = run_case(["verify", "--suite", "rh", "--samples", "3", "--seed", "7"])
    assert result == {
        "code": 1,
        "stdout": '{"checked": 3, "command": "verify", "failures": '
        '["sample 2: off by one"], "info": {}, "passed": false, "samples": 3, '
        '"schema": "ffdyn.report/1", "seed": 7, "suite": "rh"}\n',
        "stderr": "",
    }


if __name__ == "__main__":
    import tempfile

    for name in list(os.environ):
        if name.startswith("FFDYN_"):
            del os.environ[name]
    goldens = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            os.environ.update(ENV.get(name, {}))
            params_text = PARAMS_TEXT.get(name, "")
            goldens[name] = run_case(argv, Path(tmp) / "report", params_text)
            for key in ENV.get(name, {}):
                del os.environ[key]
    GOLDEN.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
