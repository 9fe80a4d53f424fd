import argparse
import csv
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import maassqv
from maassqv import cli, experiments
from maassqv.cli import (
    _build_parser,
    cmd_field_info,
    cmd_lambda_table,
    cmd_verify_appendixb,
    main,
)
from hecke_oracle import write_table
from maassqv.hecke import make_source
from maassqv.ideals import lambda_k
from maassqv.quadfield import make_field


def test_lambda_table_csv_has_plain_floats(tmp_path):
    path = tmp_path / "lam.csv"
    args = argparse.Namespace(D=21, kmax=4, nmax=60, table_out=str(path))
    (rep,) = cmd_lambda_table(args)
    assert rep.passed
    F = make_field(21)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 60
    for row in rows:
        k, n = int(row["k"]), int(row["n"])
        value = float(row["lambda_k_n"])  # a plain float repr, not np.float64(...)
        assert value == pytest.approx(lambda_k(F, k, n), abs=1e-12)


def test_lambda_table_out_not_overwritten_by_report(tmp_path):
    table, report = tmp_path / "lt.csv", tmp_path / "rep.csv"
    argv = ["lambda-table", "--D", "21", "--kmax", "2", "--nmax", "10", "--out", str(table)]
    assert main(argv) == 0
    assert table.read_text().startswith("k,n,lambda_k_n")
    assert main(["--out", str(report)] + argv) == 0
    assert table.read_text().startswith("k,n,lambda_k_n")
    assert report.read_text().startswith("name,")


def test_lambda_table_holds_one_table_at_a_time():
    # each table is built, written, checked and dropped before the next, so
    # the command's peak is one table (30.5 MiB here) and the chunk
    # temporaries of its build: measured 1.22 tables, where holding all
    # three tables at once peaked at 3.2
    nmax = 4_000_000
    cmd_lambda_table(argparse.Namespace(D=21, kmax=0, nmax=100, table_out=None))
    tracemalloc.start()
    try:
        (rep,) = cmd_lambda_table(argparse.Namespace(D=21, kmax=4, nmax=nmax, table_out=None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.parameters["checks"] == 3 * 40
    assert peak < 1.5 * 8 * (nmax + 1)


def test_table_that_is_not_text_is_a_malformed_table(tmp_path, capsys):
    path = tmp_path / "noise.bin"
    path.write_bytes(random.Random(24).randbytes(2000))
    assert main(["first-moment", "--D", "21", "--K", "30", "--table", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("maassqv: MalformedTable: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "line, text, token",
    [
        (1, "# D=abc t_psi=1.0 eta=+1 parity=even", "D=abc"),
        (1, "# D=21 t_psi=nan eta=+1 parity=even", "t_psi=nan"),
        (4, "5 nan", "'nan'"),
        (1, "# D=21 t_psi=1.0 eta=+1 parity=weird", "parity=weird"),
        (1, "# D=21 t_psi=1.0 eta=0 parity=even", "eta=0"),
    ],
    ids=["D", "t_psi", "row", "parity", "eta"],
)
def test_table_value_out_of_range_is_a_malformed_table(tmp_path, capsys, line, text, token):
    # each value is checked where it is read: D an integer, t_psi and every
    # lambda(p) finite, eta +-1 and parity even or odd
    path = tmp_path / "psi.tbl"
    write_table(make_source(synthetic=42, D=21), str(path), 2000)
    rows = path.read_text().split("\n")
    rows[line - 1] = text
    path.write_text("\n".join(rows))
    assert main(["first-moment", "--D", "21", "--K", "8", "--table", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"maassqv: MalformedTable: {path}:{line}: ") and err.count("\n") == 1
    assert token in err


def test_threads_flag_removed():
    with pytest.raises(SystemExit):
        _build_parser().parse_args(["--threads", "2", "field-info", "--D", "21"])


def test_config_flag_removed(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text('{"D": 21}')
    with pytest.raises(SystemExit):
        _build_parser().parse_args(["--config", str(config), "field-info"])


def test_required_flag_missing_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["field-info"])
    assert exc.value.code == 2
    assert "--D" in capsys.readouterr().err


def test_field_info_times_its_computation(monkeypatch):
    real = cli.dirichlet_l_one

    def slow(F):
        time.sleep(0.05)
        return real(F)

    monkeypatch.setattr(cli, "dirichlet_l_one", slow)
    (rep,) = cmd_field_info(argparse.Namespace(D=21))
    assert rep.passed
    assert rep.runtime_seconds >= 0.05


def test_verify_appendixb_residue_check_can_fail(monkeypatch):
    args = argparse.Namespace(M=84)
    assert all(r.passed for r in cmd_verify_appendixb(args))
    real = cli.c_closed
    monkeypatch.setattr(cli, "c_closed", lambda *a: 2 * real(*a))
    reports = {r.name: r for r in cmd_verify_appendixb(args)}
    assert reports["residue_series_vs_direct"].passed
    assert not reports["eisenstein_residue_closed_form"].passed


def test_nonsplit_ymax_below_ladder_floor_rejected(capsys):
    # the Y ladder starts at 1e4, so --Ymax 5000 leaves no Y to check
    assert main(["nonsplit", "--Ymax", "5000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("maassqv: TruncationInsufficient: ")
    assert "1e4" in err and err.count("\n") == 1


def test_nonsplit_zero_leading_coefficient_rejected(capsys):
    assert main(["nonsplit", "--a", "0"]) == 2
    err = capsys.readouterr().err
    assert err == "maassqv: HypothesisViolated: need a > 0 (negate the polynomial if needed)\n"


def test_untyped_errors_keep_their_traceback(monkeypatch):
    # only MaassqvError becomes a one-line message; a bug still raises
    def broken(args):
        raise ZeroDivisionError("not a package error")

    monkeypatch.setitem(cli._COMMANDS, "field-info", broken)
    with pytest.raises(ZeroDivisionError):
        main(["field-info", "--D", "21"])


@pytest.mark.parametrize(
    "D, error", [("22", "NotOneMod4"), ("0", "NotTwoPrimeProduct"), ("-5", "NotTwoPrimeProduct")]
)
def test_nonsplit_rejects_a_bad_field(capsys, D, error):
    # psi's level is --D, so --D must name an admitted field
    assert main(["nonsplit", "--D", D, "--Ymax", "4e4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"maassqv: {error}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["first-moment", "variance", "nonsplit"])
def test_table_of_another_level_rejected_before_any_sum(tmp_path, monkeypatch, capsys, command):
    def refuse(*args, **kwargs):
        raise AssertionError("a sum ran before the level was checked")

    for name in ("first_moment", "variance_table", "nonsplit_decay_scan"):
        monkeypatch.setattr(cli.experiments, name, refuse)
    path = tmp_path / "psi33.tbl"
    write_table(make_source(synthetic=1, D=33), str(path), 100)
    assert main([command, "--D", "21", "--table", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"maassqv: HypothesisViolated: --table {path} has level 33, not --D 21\n"


def test_nonsplit_single_y_ladder_rejected_before_any_sum(monkeypatch, capsys):
    # --Ymax in [1e4, 4e4) leaves one Y: the decay scan would compare nothing
    def refuse(*args, **kwargs):
        raise AssertionError("a sum ran before the ladder was checked")

    monkeypatch.setattr(experiments, "nonsplit_sum", refuse)
    assert main(["nonsplit", "--Ymax", "3e4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("maassqv: TruncationInsufficient: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, error",
    [
        (["nonsplit", "--Ymax", "inf"], "HypothesisViolated"),
        (["nonsplit", "--Ymax", "1e11"], "HypothesisViolated"),
        (["first-moment", "--D", "21", "--K", "nan"], "HypothesisViolated"),
        (["variance", "--D", "21", "--K", "nan"], "HypothesisViolated"),
        (["variance", "--D", "21", "--K", "inf"], "HypothesisViolated"),
        (["poisson", "--D", "21", "--K", "nan"], "HypothesisViolated"),
        (["poisson", "--D", "21", "--K", "inf"], "HypothesisViolated"),
        (["poisson", "--D", "21", "--beta", "1"], "HypothesisViolated"),
        (["poisson", "--D", "21", "--beta", "x,1"], "HypothesisViolated"),
        (["lambda-table", "--D", "21", "--nmax", "0"], "TruncationInsufficient"),
        (["lambda-table", "--D", "21", "--nmax", "-3"], "TruncationInsufficient"),
        (["lambda-table", "--D", "21", "--kmax", "-2"], "TruncationInsufficient"),
        (["verify-gauss", "--M", "84", "--nmax", "0"], "TruncationInsufficient"),
        (["verify-lattice", "--D", "21", "--norm-bound", "-1"], "TruncationInsufficient"),
        (["verify-lattice", "--D", "21", "--norm-bound", "100000000"], "HypothesisViolated"),
        (["verify-gauss", "--M", "4", "--nmax", "8192"], "HypothesisViolated"),
        (["verify-gauss", "--M", "84", "--nmax", "300"], "HypothesisViolated"),
        (["first-moment", "--D", "21", "--K", "30", "--table", "/nonexistent"], "MalformedTable"),
        (["dirichlet-poly", "--D", "21", "--k", "2001"], "HypothesisViolated"),
        (["dirichlet-poly", "--D", "21", "--x", "200000000"], "TableBoundExceeded"),
        (
            ["lambda-table", "--D", "21", "--kmax", "100000000", "--nmax", "10"],
            "HypothesisViolated",
        ),
        (
            ["lambda-table", "--D", "21", "--kmax", "1000", "--nmax", "3000000000"],
            "TableBoundExceeded",
        ),
        (["diagonal", "--D", "21", "--K", "nan"], "HypothesisViolated"),
        (["diagonal", "--D", "21", "--K", "inf"], "HypothesisViolated"),
        (["diagonal", "--D", "21", "--K", "2001"], "HypothesisViolated"),
        (["diagonal", "--D", "21", "--table", "psi33.tbl"], "HypothesisViolated"),
        (["moment-bound", "--D", "21", "--K", "nan"], "HypothesisViolated"),
        (["moment-bound", "--D", "21", "--K", "inf"], "HypothesisViolated"),
        (["moment-bound", "--D", "21", "--K", "2001"], "HypothesisViolated"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_out_of_range_input_is_a_typed_reject_before_any_sum(
    tmp_path, monkeypatch, capsys, argv, error
):
    # each of these once crashed with an untyped error (exit 1, as a FAIL),
    # or, for --Ymax inf, grew the Y ladder without end, or, past the desk
    # bounds of verify-lattice and verify-gauss, ran for hours; dirichlet-poly
    # took 76 s at k = 1600, and about 9.6 GB at x = 2e8, before its bounds;
    # lambda-table at kmax = 1e8 would build 5e7 tables, about 5 h; the
    # diagonal and moment-bound checks had no bound on K
    def refuse(*args, **kwargs):
        raise AssertionError("a sum ran before the input was checked")

    monkeypatch.chdir(tmp_path)  # psi33.tbl: a table of level 33
    write_table(make_source(synthetic=1, D=33), "psi33.tbl", 100)

    for module, name in (
        (experiments, "central_values_bulk"),
        (experiments, "nonsplit_sum"),
        (experiments, "angle"),
        (experiments, "l_one_phi"),
        (experiments, "mu_2k_table"),
        (experiments, "lambda_k_table"),
        (experiments, "_fhat_zero_profile"),
        (experiments, "primes_upto"),
        (cli, "lambda_k_table"),
        (cli, "n_beta"),
        (cli, "c_series"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"maassqv: {error}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--out", "/nonexistent/dir/r.csv", "field-info", "--D", "21"],
        ["lambda-table", "--D", "21", "--out", "/nonexistent/t.csv"],
        ["--out", "/nonexistent/dir/r.json", "--format", "json", "lambda-table", "--D", "21"],
    ],
    ids=lambda v: " ".join(v),
)
def test_unwritable_out_is_refused_before_any_sum(monkeypatch, capsys, argv):
    # an --out in a missing directory once ran the command, printed PASS and
    # then died with a FileNotFoundError traceback and exit 1, a FAIL's code
    def refuse(*args, **kwargs):
        raise AssertionError("a sum ran before --out was checked")

    monkeypatch.setattr(cli, "dirichlet_l_one", refuse)
    monkeypatch.setattr(cli, "lambda_k_table", refuse)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("maassqv: FileNotFoundError: cannot write /nonexistent/")
    assert err.count("\n") == 1


def test_out_check_leaves_no_file_when_the_command_is_refused(tmp_path):
    path = tmp_path / "r.csv"
    assert main(["--out", str(path), "lambda-table", "--D", "21", "--nmax", "0"]) == 2
    assert not path.exists()


def test_short_prime_table_is_a_missing_prime(tmp_path, capsys):
    path = tmp_path / "short.tbl"
    path.write_text("# D=21 t_psi=1.0 eta=+1 parity=even\n2 0.5\n3 0.2\n5 -1.0\n")
    assert main(["variance", "--D", "21", "--K", "10", "--table", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("maassqv: MissingPrime: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["first-moment", "variance", "poisson"])
def test_k_past_the_desk_bound_is_refused_before_any_sum(command):
    # poisson once summed over about 1.5 K values of k with no bound on K,
    # so the run goes to a fresh interpreter with a timeout: a hang fails
    env = {**os.environ, "PYTHONPATH": str(Path(maassqv.__file__).parents[1])}
    argv = [sys.executable, "-m", "maassqv.cli", command, "--D", "21", "--K", "1e9"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stderr == "maassqv: HypothesisViolated: desk bound K <= 2000, got K = 1e+09\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["lambda-table", "--D", "21", "--kmax", "0", "--nmax", "3000000000"],
        ["dirichlet-poly", "--D", "21", "--x", "3000000000"],
    ],
    ids=lambda v: v[0],
)
def test_table_past_the_allocation_limit_is_refused_before_allocating(argv):
    # 3e9 float64 entries are 22.4 GiB: under a 1 GiB address-space limit an
    # allocation would fail with an untyped MemoryError traceback (exit 1)
    code = (
        "import resource, runpy, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "sys.argv[0] = 'maassqv'; "
        "runpy.run_module('maassqv.cli', run_name='__main__')"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(maassqv.__file__).parents[1])}
    cmd = [sys.executable, "-c", code, *argv]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("maassqv: TableBoundExceeded: ")
    assert out.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["field-info", "--D", "21"],
        ["lambda-table", "--D", "21"],
        ["verify-gauss", "--M", "84"],
        ["verify-lattice", "--D", "21"],
        ["poisson", "--D", "21"],
    ],
    ids=lambda v: v[0],
)
def test_report_csv_numbers_are_plain_floats(tmp_path, argv):
    # a numpy scalar in a report once reached the CSV as np.float64(...)
    path = tmp_path / "reports.csv"
    assert main(["--out", str(path)] + argv) == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        for col in ("computed", "reference", "tolerance", "runtime_seconds"):
            assert "np." not in row[col]
            float(row[col])


@pytest.mark.parametrize(
    "argv, tolerances",
    [
        (["field-info", "--D", "21"], [1e-6]),
        (["lambda-table", "--D", "21"], [1e-9]),
        (["verify-gauss", "--M", "84", "--nmax", "3"], [1e-10]),
        (["verify-appendixB", "--M", "84"], [1e-4, 1e-12]),
        (["poisson", "--D", "21"], [1e-6]),
        (["dirichlet-poly", "--D", "21", "--k", "20", "--x", "1000"], [1e-3]),
        (["diagonal", "--D", "21"], [0.05] * 5),
        (["moment-bound", "--D", "21"], [0.1, 0.1]),
    ],
    ids=[
        "field-info",
        "lambda-table",
        "verify-gauss",
        "verify-appendixB",
        "poisson",
        "dirichlet-poly",
        "diagonal",
        "moment-bound",
    ],
)
def test_each_report_has_its_fixed_tolerance(tmp_path, argv, tolerances):
    # no flag sets a tolerance: each check owns its own
    with pytest.raises(SystemExit) as exc:
        main(["--tol", "1"] + argv)
    assert exc.value.code == 2
    path = tmp_path / "reports.json"
    assert main(["--out", str(path), "--format", "json"] + argv) != 2
    with open(path) as fh:
        assert [json.loads(line)["tolerance"] for line in fh] == tolerances


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_holds_the_last_run_in_either_format(tmp_path, fmt):
    path = tmp_path / f"reports.{fmt}"
    argv = ["--out", str(path), "--format", fmt, "field-info", "--D", "21"]
    assert main(argv) == 0
    assert main(argv) == 0
    with open(path, newline="") as fh:
        if fmt == "csv":
            names = [row["name"] for row in csv.DictReader(fh)]
        else:
            names = [json.loads(line)["name"] for line in fh]
    assert names == ["field_info_class_number"]


@pytest.mark.parametrize("command", ["diagonal", "moment-bound"])
def test_criteria_06_and_11_run_as_commands(tmp_path, command):
    # each report's computed and reference are, to the bit, those of the
    # calls of criteria 06 and 11 in tests/test_acceptance.py
    F = make_field(21)
    if command == "diagonal":
        src = make_source(synthetic=42, D=21)
        want = [experiments.diagonal_check(F, src, 500.0, a=a) for a in (1, 2, 3, 5, 11)]
        argv = ["diagonal", "--D", "21", "--K", "500", "--seed", "42"]
    else:
        want = [experiments.moment_bound_check(F, 500, r, 40.0) for r in (1, 2)]
        argv = ["moment-bound", "--D", "21", "--K", "500"]
    path = tmp_path / "reports.json"
    assert main(["--out", str(path), "--format", "json"] + argv) == 0
    with open(path) as fh:
        got = [json.loads(line) for line in fh]
    assert [(r["name"], r["computed"], r["reference"]) for r in got] == [
        (r.name, r.computed, r.reference) for r in want
    ]


# the flags that set how much each command computes; field-info and
# verify-appendixB have none, so their --D and --M stand in
_SIZE_FLAGS = {
    "field-info": ["--D"],
    "lambda-table": ["--kmax", "--nmax"],
    "verify-lattice": ["--norm-bound"],
    "verify-gauss": ["--M", "--nmax"],
    "verify-appendixB": ["--M"],
    "poisson": ["--K"],
    "first-moment": ["--K"],
    "variance": ["--K"],
    "diagonal": ["--K"],
    "moment-bound": ["--K"],
    "dirichlet-poly": ["--k", "--x"],
    "nonsplit": ["--Ymax"],
}
_HOSTILE = ("nan", "inf", "-inf", "-1", "0", "1e11", "100000000000")

# runs cli.main on each argv of the JSON list argv[1], and prints, as JSON,
# each run's exit code, stdout and stderr, an escaped exception's traceback
# in its stderr
_RUN_EACH = """
import contextlib, io, json, sys, traceback
from maassqv.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except BaseException:
            code = None
            traceback.print_exc()
    runs.append([argv, code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


@pytest.mark.parametrize("command", list(_SIZE_FLAGS))
def test_hostile_size_flags_exit_cleanly(command):
    # nan, +-inf, a negative value, 0 and 1e11 (also as an integer) on each
    # size flag, plain and under python -O: reports with exit 0 or 1, or
    # exit 2 with one stderr line; --Ymax 1e11 once ran for hours, and an
    # int flag's bad value once printed argparse's usage line as well
    required = {"verify-gauss": ["--M", "84"], "verify-appendixB": ["--M", "84"], "nonsplit": []}
    base = required.get(command, ["--D", "21"])
    argvs = []
    for flag in _SIZE_FLAGS[command]:
        rest = base[2:] if base[:1] == [flag] else base
        argvs += [[command, *rest, f"{flag}={value}"] for value in _HOSTILE]
    env = {**os.environ, "PYTHONPATH": str(Path(maassqv.__file__).parents[1])}
    for opt in ([], ["-O"]):
        cmd = [sys.executable, *opt, "-c", _RUN_EACH, json.dumps(argvs)]
        child = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        for argv, code, out, err in json.loads(child.stdout):
            where = (opt, argv, code, err)
            assert "Traceback" not in err, where
            if code == 2:
                assert err.count("\n") == 1 and err.startswith("maassqv"), where
            else:
                assert code in (0, 1) and err == "", where
                assert out.splitlines()[-1].startswith(("PASS ", "FAIL ")), where
