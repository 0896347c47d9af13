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
from pathlib import Path

import pytest

from ffdyn import cli
from ffdyn.suites import SuiteResult

GOLDEN = Path(__file__).with_name("cli_golden.json")
OUT = "{out}"  # stands for the --output file in an argv

ORBIT_SCAN = ["orbit-scan", "--map", "(z^2-t)/z", "--point", "t", "--places", "inf",
              "--target", "inf", "--epsilon", "1/2", "--max-n", "4", "--depth", "10"]
INTEGRAL_COUNT = ["integral-count", "--map", "(z^2-t)/z", "--point", "t",
                  "--places", "inf", "--max-n", "30"]
MULTDEP = ["multdep", "--map", "t*z^2", "--point", "t", "--places", "t,inf",
           "--n-max", "2", "--k-max", "2", "--r-max", "2", "--s-max", "3"]
CHOOSE_M = ["choose-m", "--map", "(z^2-t)/z", "--target", "0", "--epsilon", "1/2"]

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
    "domain-error": ["orbit-scan", "--map", "z^2+t", "--point", "0", "--places",
                     "inf", "--target", "inf", "--epsilon", "1/2", "--max-n", "2"],
    "output-json": ["--output", OUT, *ORBIT_SCAN],
    "output-csv": ["--format", "csv", "--output", OUT, *MULTDEP],
}


def run_case(argv, out_path=None) -> dict:
    """Run main in-process on argv, with OUT standing for out_path; return
    its exit code, stdout, stderr and, for an --output run, the file's text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(out_path) if a == OUT else a for a in argv])
    result = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if OUT in argv:
        result["file"] = Path(out_path).read_text()
    return result


@pytest.fixture
def clean_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("FFDYN_"):
            monkeypatch.delenv(name)


@pytest.mark.parametrize("name", list(CASES))
def test_cli_golden(name, tmp_path, clean_env):
    expected = json.loads(GOLDEN.read_text())[name]
    assert run_case(CASES[name], tmp_path / "report") == expected


def test_failed_verify_prints_its_record_and_exits_1(monkeypatch, clean_env):
    failed = SuiteResult("rh", 3, 7, checked=3, failures=["sample 2: off by one"])
    monkeypatch.setattr(cli, "run_suite", lambda suite, samples, seed: failed)
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
    with tempfile.TemporaryDirectory() as tmp:
        goldens = {name: run_case(argv, Path(tmp) / "report")
                   for name, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
