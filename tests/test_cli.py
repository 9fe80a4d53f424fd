import argparse
import csv

import pytest

from maassqv.cli import _build_parser, cmd_lambda_table, main
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
        assert value == pytest.approx(lambda_k(F, k, n, nmax_hint=60), abs=1e-12)


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
