import argparse
import csv
import json
import os
import subprocess
import sys
import time
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
from maassqv.hecke import make_source, write_table
from maassqv.ideals import lambda_k
from maassqv.quadfield import make_field


def test_lambda_table_csv_has_plain_floats(tmp_path):
    path = tmp_path / "lam.csv"
    args = argparse.Namespace(D=21, kmax=4, nmax=60, table_out=str(path), tol=None)
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
    (rep,) = cmd_field_info(argparse.Namespace(D=21, tol=None))
    assert rep.passed
    assert rep.runtime_seconds >= 0.05


def test_verify_appendixb_residue_check_can_fail(monkeypatch):
    args = argparse.Namespace(M=84, tol=None)
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
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_out_of_range_input_is_a_typed_reject_before_any_sum(monkeypatch, capsys, argv, error):
    # each of these once crashed with an untyped error (exit 1, as a FAIL)
    # or, for --Ymax inf, grew the Y ladder without end
    def refuse(*args, **kwargs):
        raise AssertionError("a sum ran before the input was checked")

    for module, name in (
        (experiments, "central_values_bulk"),
        (experiments, "nonsplit_sum"),
        (experiments, "angle"),
        (cli, "lambda_k_table"),
        (cli, "n_beta"),
        (cli, "c_series"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"maassqv: {error}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["first-moment", "variance", "poisson"])
def test_k_past_the_desk_bound_is_refused_before_any_sum(command):
    # poisson once summed over about 1.5 K values of k with no bound on K,
    # so the run goes to a fresh interpreter with a timeout: a hang fails
    env = {**os.environ, "PYTHONPATH": str(Path(maassqv.__file__).parents[1])}
    argv = [sys.executable, "-m", "maassqv.cli", command, "--D", "21", "--K", "1e9"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stderr == "maassqv: HypothesisViolated: desk bound K <= 2000, got K = 1e+09\n"


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
