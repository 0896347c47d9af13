"""End-to-end CLI tests: golden outputs, exit codes, formats, determinism."""

import argparse
import csv
import io
import json
from fractions import Fraction

import pytest

from ffdyn import Place, parse_field_elem
from ffdyn.cli import _emit, main
from ffdyn.suites import SUITE_NAMES, run_suite

from oracles import plain_csv, plain_json_lines


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jlines(out):
    return [json.loads(line) for line in out.splitlines()]


# ---------------------------------------------------------------------------
# height / canheight / classify
# ---------------------------------------------------------------------------


def test_height_prints_bare_number(capsys):
    code, out, err = run(capsys, "height", "(t^2+1)/t")
    assert code == 0
    assert out == "2\n"
    assert err == ""
    assert run(capsys, "height", "inf")[1] == "0\n"
    assert run(capsys, "height", "5")[1] == "0\n"


def test_canheight_golden(capsys):
    code, out, _ = run(
        capsys, "canheight", "--map", "z^2+t", "--point", "0", "--depth", "10"
    )
    assert code == 0
    (rec,) = jlines(out)
    assert rec["schema"] == "ffdyn.report/1"
    assert rec["lo"] == "509/1024"
    assert rec["hi"] == "513/1024"
    assert rec["width"] == "1/256"
    assert rec["map"] == "z^2 + t"


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--map", "z^2", "--point", "-1")
    (rec,) = jlines(out)
    assert code == 0
    assert rec["type"] == "preperiodic"
    assert (rec["tail"], rec["cycle"]) == (1, 1)
    code, out, _ = run(capsys, "classify", "--map", "z^2+t", "--point", "0")
    (rec,) = jlines(out)
    assert rec["type"] == "wandering"


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_orbit_scan_golden(capsys):
    code, out, _ = run(
        capsys,
        "orbit-scan",
        "--map",
        "(z^2-t)/z",
        "--point",
        "t",
        "--places",
        "inf",
        "--epsilon",
        "1/2",
        "--max-n",
        "4",
        "--depth",
        "10",
    )
    assert code == 0
    records = jlines(out)
    summary = records[-1]
    assert summary["summary"] is True
    assert summary["in_indices"] == [0, 1]
    assert summary["undecided_indices"] == [2]
    assert summary["max_in_index"] == 1
    assert [r["membership"] for r in records[:-1]] == [
        "in",
        "in",
        "undecided",
        "out",
        "out",
    ]


def test_integral_count_long_range_with_certificate(capsys):
    code, out, _ = run(
        capsys,
        "integral-count",
        "--map",
        "(z^2-t)/z",
        "--point",
        "t",
        "--places",
        "inf",
        "--max-n",
        "30",
    )
    assert code == 0
    (rec,) = jlines(out)
    assert rec["hits"] == [1]
    assert rec["count"] == 1
    assert rec["certificate"] == {"start": 2, "place": "t - 1"}


def test_units_in_orbit(capsys):
    code, out, _ = run(
        capsys,
        "units-in-orbit",
        "--map",
        "t*z^2",
        "--point",
        "1",
        "--places",
        "t,inf",
        "--max-n",
        "5",
    )
    (rec,) = jlines(out)
    assert code == 0
    assert rec["hits"] == [1, 2, 3, 4, 5]


def test_multdep(capsys):
    code, out, _ = run(
        capsys,
        "multdep",
        "--map",
        "t*z^2",
        "--point",
        "t",
        "--places",
        "t,inf",
        "--n-max",
        "2",
        "--k-max",
        "2",
        "--r-max",
        "2",
        "--s-max",
        "3",
    )
    assert code == 0
    records = jlines(out)
    summary = records[-1]
    assert summary["solutions"] == len(records) - 1 > 0
    assert summary["zero_not_periodic"] is False  # t z^2 fixes 0
    for rec in records[:-1]:
        assert rec["case_label"] in {"A.1", "A.2", "A.3", "A.4", "B"}
    # empty box for a generic polynomial map
    code, out, _ = run(
        capsys,
        "multdep",
        "--map",
        "z^2+t",
        "--point",
        "0",
        "--places",
        "inf",
        "--n-max",
        "3",
        "--k-max",
        "3",
        "--r-max",
        "3",
        "--s-max",
        "3",
    )
    records = jlines(out)
    assert records[-1]["solutions"] == 0


def test_multdep_case_B_with_pole_at_infinity(capsys):
    code, out, err = run(
        capsys,
        "multdep",
        "--map",
        "z^2",
        "--point",
        "t",
        "--places",
        "t",
        "--n-max",
        "1",
        "--k-max",
        "1",
        "--r-max",
        "1",
        "--s-max",
        "2",
    )
    assert (code, err) == (0, "")
    records = jlines(out)
    assert [rec.get("case_label") for rec in records] == ["B", None]
    assert (records[0]["r"], records[0]["s"], records[0]["u"]) == (1, 2, "1")


def test_split_form_scan(capsys):
    code, out, _ = run(
        capsys,
        "split-form-scan",
        "--map",
        "z^2+t",
        "--point",
        "0",
        "--form",
        "T1 - t",
        "--max-n",
        "4",
    )
    (rec,) = jlines(out)
    assert code == 0
    assert rec["zero_tuples"] == [[1]]


def test_choose_m(capsys):
    code, out, _ = run(
        capsys,
        "choose-m",
        "--map",
        "(z^2-t)/z",
        "--target",
        "0",
        "--epsilon",
        "1/2",
    )
    (rec,) = jlines(out)
    assert code == 0
    assert rec["m"] == 4


def test_estimate_gamma(capsys):
    code, out, _ = run(
        capsys,
        "estimate-gamma",
        "--instance",
        "(z^2-t)/z|inf|t",
        "--places",
        "inf",
        "--epsilon",
        "1/4",
        "--max-n",
        "2",
        "--depth",
        "10",
    )
    (rec,) = jlines(out)
    assert code == 0
    assert rec["instances"] == 1
    assert rec["gamma_hat"] >= 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "product-formula", "--samples", "50", "--seed", "1"
    )
    (rec,) = jlines(out)
    assert code == 0
    assert rec["passed"] is True
    assert rec["checked"] == 50
    # descriptive alias resolves to the same suite
    code2, out2, _ = run(
        capsys, "verify", "--suite", "riemann-hurwitz", "--samples", "5", "--seed", "1"
    )
    assert code2 == 0
    assert jlines(out2)[0]["suite"] == "rh"


def test_verify_unknown_suite_is_config_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_verify_negative_samples_from_env_is_domain_error(capsys, monkeypatch):
    # FFDYN_SAMPLES goes through the check of --samples
    monkeypatch.setenv("FFDYN_SAMPLES", "-3")
    code, out, err = run(capsys, "verify", "--suite", "product-formula")
    assert (code, out, err) == (1, "", "error: sample count must be nonnegative\n")
    monkeypatch.setenv("FFDYN_SAMPLES", "0")
    code, out, _ = run(capsys, "verify", "--suite", "product-formula")
    assert code == 0 and jlines(out)[0]["checked"] == 0


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_passes_on_a_few_samples(suite):
    result = run_suite(suite, 6, 0)
    assert result.passed, result.failures
    assert result.checked > 0


# ---------------------------------------------------------------------------
# exit codes, env overrides, formats, determinism
# ---------------------------------------------------------------------------


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "height", "t/(t")
    assert code == 2
    assert "position 4" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["integral-count", "--map", "z^2+t", "--point", "1", "--places", "t + 1,inf, 2*x",
          "--max-n", "3"], "unexpected character 'x' at position 13"),
        (["estimate-gamma", "--instance", "z^2+t|inf|1 + y", "--places", "inf",
          "--epsilon", "1/2", "--max-n", "3"], "unexpected character 'y' at position 14"),
        (["estimate-gamma", "--instance", "z^2+t|t/(|1", "--places", "inf",
          "--epsilon", "1/2", "--max-n", "3"], "unexpected end of input at position 9"),
        (["estimate-gamma", "--instance", "z^^2|inf|1", "--places", "inf",
          "--epsilon", "1/2", "--max-n", "3"],
         "nonnegative integer exponent expected at position 2"),
    ],
)
def test_parse_error_position_in_the_whole_argument(capsys, argv, message):
    # --places and --instance parse each part alone; the position counts
    # from the start of the argument
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_domain_error_exit_1(capsys):
    # exceptional target for the orbit scan
    code, _, err = run(
        capsys,
        "orbit-scan",
        "--map",
        "z^2+t",
        "--point",
        "0",
        "--places",
        "inf",
        "--target",
        "inf",
        "--epsilon",
        "1/2",
        "--max-n",
        "2",
    )
    assert code == 1
    assert "exceptional" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["orbit-scan", "--places", "inf", "--target", "t^2", "--epsilon",
             "1/4", "--max-n", "2", "--depth", "4"],
            "orbit height 6 exceeds budget 4 at iterate 2",
        ),
        (
            ["integral-count", "--places", "inf", "--max-n", "2", "--depth", "5"],
            "orbit height 8 exceeds budget 4 at iterate 4",
        ),
    ],
    ids=["orbit-scan", "integral-count"],
)
def test_budget_reaches_the_bound_evaluation(capsys, tmp_path, argv, message):
    # the scans fit the budget; only the --params bound needs deeper heights
    params = tmp_path / "params.txt"
    params.write_text("gamma1 = 1\n")
    argv = argv + ["--map", "(z^2-t)/z", "--point", "t", "--params", str(params)]
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--budget", "4") == (1, "", f"error: {message}\n")


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("FFDYN_DEPTH", "6")
    code, out, _ = run(capsys, "canheight", "--map", "z^2+t", "--point", "0")
    (rec,) = jlines(out)
    assert rec["depth"] == 6
    assert rec["lo"] == "29/64" and rec["hi"] == "33/64"
    monkeypatch.setenv("FFDYN_FORMAT", "csv")
    code, out, _ = run(capsys, "canheight", "--map", "z^2+t", "--point", "0")
    assert out.splitlines()[0].startswith("command,")


def test_bad_env_value_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("FFDYN_DEPTH", "abc")
    code, out, err = run(capsys, "canheight", "--map", "z^2+t", "--point", "0")
    assert code == 2
    assert out == ""
    assert err == "error: bad FFDYN_DEPTH value 'abc'\n"
    monkeypatch.setenv("FFDYN_FORMAT", "xml")
    code, _, err = run(capsys, "height", "t")
    assert (code, err) == (2, "error: bad FFDYN_FORMAT value 'xml'\n")
    monkeypatch.delenv("FFDYN_FORMAT")
    # commands without a --depth option never read FFDYN_DEPTH
    assert run(capsys, "height", "t") == (0, "1\n", "")
    # an explicit option wins without reading the variable
    code, _, _ = run(
        capsys, "canheight", "--map", "z^2+t", "--point", "0", "--depth", "3"
    )
    assert code == 0


def test_env_read_on_each_call(capsys, monkeypatch):
    # the parser is built once per process; each call still sees its own
    # environment
    argv = ("canheight", "--map", "z^2+t", "--point", "0")
    monkeypatch.setenv("FFDYN_DEPTH", "6")
    monkeypatch.setenv("FFDYN_FORMAT", "json")
    code, out, _ = run(capsys, *argv)
    (rec,) = jlines(out)
    assert code == 0 and rec["depth"] == 6
    monkeypatch.setenv("FFDYN_DEPTH", "4")
    monkeypatch.setenv("FFDYN_FORMAT", "csv")
    code, out, _ = run(capsys, *argv)
    (rec,) = csv.DictReader(io.StringIO(out))
    assert code == 0 and rec["command"] == "canheight" and rec["depth"] == "4"
    monkeypatch.delenv("FFDYN_DEPTH")
    monkeypatch.delenv("FFDYN_FORMAT")
    (rec,) = jlines(run(capsys, *argv)[1])
    assert rec["depth"] == 10


def test_csv_format(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "height", "t"
    )
    # height prints a bare number regardless of format
    assert out == "1\n"
    code, out, _ = run(
        capsys,
        "--format",
        "csv",
        "choose-m",
        "--map",
        "(z^2-t)/z",
        "--target",
        "0",
        "--epsilon",
        "1/2",
    )
    lines = out.splitlines()
    assert lines[0] == "command,epsilon,m,map,schema,target"
    assert lines[1].split(",")[:3] == ["choose-m", "1/2", "4"]


@pytest.mark.parametrize(
    "argv",
    [
        ("choose-m", "--map", "(z^2-t)/z", "--target", "0", "--epsilon", "1/2"),
        (
            "integral-count", "--map", "(z^2-t)/z", "--point", "t",
            "--places", "inf", "--max-n", "30",
        ),
    ],
    ids=["choose-m", "integral-count"],
)
def test_csv_round_trip(capsys, argv):
    # string cells are written as they are, every other cell as JSON
    (expected,) = jlines(run(capsys, *argv)[1])
    (rec,) = csv.DictReader(io.StringIO(run(capsys, "--format", "csv", *argv)[1]))
    assert rec.keys() == expected.keys()
    for key, value in expected.items():
        if isinstance(value, str):
            assert rec[key] == value
        else:
            assert json.loads(rec[key]) == value
    if "certificate" in expected:
        assert isinstance(json.loads(rec["certificate"]), dict)


PLAIN_WALK_RECORDS = [
    {"schema": "x", "lo": Fraction(3, 2), "hi": Fraction(4), "rho": 2.584962500721156},
    {"nested": (Fraction(-1, 3), [Fraction(5), None, True], {"b": Fraction(7, 9),
                                                              "a": (1, 2.5, False)})},
    {"z": None, "y": True, "x": False, "w": [], "v": {}, "u": "1/2", "t": -0.0},
    {"certificate": {"index": 3, "bound": Fraction(-10, 4), "places": ("t", "inf")}},
]


def test_json_lines_match_the_plain_walk(capsys):
    # one encoder that writes a Fraction as its text writes the bytes that
    # json.dumps wrote for each record after the oracle's walk had replaced them
    _emit(argparse.Namespace(format="json", output=None), PLAIN_WALK_RECORDS)
    assert capsys.readouterr().out == plain_json_lines(PLAIN_WALK_RECORDS)


def test_csv_cells_match_the_plain_walk(capsys):
    # the same for CSV cells, whose encoder keeps the order of a dict's keys;
    # a top-level Fraction is written as its text, unquoted
    _emit(argparse.Namespace(format="csv", output=None), PLAIN_WALK_RECORDS)
    assert capsys.readouterr().out == plain_csv(PLAIN_WALK_RECORDS)


@pytest.mark.parametrize("value", [Place.infinity(), parse_field_elem("t"), {1, 2}, b"t"])
def test_json_records_with_non_json_objects_raise(capsys, value):
    # only a Fraction is written as its text; any other object json cannot
    # encode is a bug in the record, as it was under json.dumps
    args = argparse.Namespace(format="json", output=None)
    with pytest.raises(TypeError, match="not JSON serializable"):
        _emit(args, [{"ok": Fraction(1, 2), "nested": [{"bad": value}]}])
    assert capsys.readouterr().out == ""


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.jsonl"
    code, out, _ = run(
        capsys,
        "--output",
        str(target),
        "choose-m",
        "--map",
        "(z^2-t)/z",
        "--target",
        "0",
        "--epsilon",
        "1/2",
    )
    assert code == 0 and out == ""
    rec = json.loads(target.read_text())
    assert rec["m"] == 4


def test_height_output_file(capsys, tmp_path):
    target = tmp_path / "height.txt"
    code, out, err = run(capsys, "--output", str(target), "height", "(t^2+1)/t")
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == "2\n"


@pytest.mark.parametrize(
    "command",
    [
        ["height", "t"],
        ["choose-m", "--map", "(z^2-t)/z", "--target", "0", "--epsilon", "1/2"],
    ],
    ids=["height", "choose-m"],
)
def test_unwritable_output_exits_2(capsys, monkeypatch, tmp_path, command):
    # a path in a missing directory and a directory, from the option and
    # from FFDYN_OUTPUT: one error line naming the path, nothing on stdout
    for target, reason in [
        (tmp_path / "missing" / "out", "No such file or directory"),
        (tmp_path, "Is a directory"),
    ]:
        expected = (2, "", f"error: cannot write report to {target}: {reason}\n")
        assert run(capsys, "--output", str(target), *command) == expected
        monkeypatch.setenv("FFDYN_OUTPUT", str(target))
        assert run(capsys, *command) == expected
        monkeypatch.delenv("FFDYN_OUTPUT")


def test_unreadable_params_file_exits_2(capsys, tmp_path):
    # a missing path, a directory and bytes that are not UTF-8
    binary = tmp_path / "binary"
    binary.write_bytes(b"gamma1 = 1  # \xff\n")
    argv = ["integral-count", "--map", "(z^2-t)/z", "--point", "t", "--places", "inf",
            "--max-n", "3", "--params"]
    for path, reason in [
        (tmp_path / "missing", "No such file or directory"),
        (tmp_path, "Is a directory"),
        (binary, "not UTF-8 text"),
    ]:
        expected = (2, "", f"error: cannot read bound-parameter file {path}: {reason}\n")
        assert run(capsys, *argv, str(path)) == expected


@pytest.mark.parametrize("command", ["orbit-scan", "integral-count"])
def test_missing_params_file_builds_no_iterate(capsys, count_calls, tmp_path, command):
    # the file is read before the orbit is built, so the scan never starts
    calls = count_calls("apply_map")
    argv = [command, "--map", "(z^2-t)/z", "--point", "t", "--places", "inf",
            "--max-n", "13", "--params", str(tmp_path / "missing")]
    if command == "orbit-scan":
        argv += ["--target", "inf", "--epsilon", "1/2"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read bound-parameter file")
    assert calls == []


def test_byte_identical_reruns(capsys):
    argv = [
        "orbit-scan",
        "--map",
        "(z^2-t)/z",
        "--point",
        "t",
        "--places",
        "inf",
        "--epsilon",
        "1/2",
        "--max-n",
        "3",
        "--depth",
        "8",
    ]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second and first
