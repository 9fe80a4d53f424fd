"""The seed-42 report values of the three bench workloads, run in process,
against those stored in bench/reference.json under the bench's own rule:
`computed` and `reference` finite and within 1e-10 relative.  A value that
drifts past it fails here before the bench refuses the run."""

import json
import math
import pathlib

import pytest

from maassqv import cli

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())["workloads"]
REFERENCE = json.loads((BENCH / "reference.json").read_text())
SEED = 42
REL_TOL = 1e-10


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_42_reports_match_bench_reference(workload, tmp_path):
    argv = [a.replace("{seed}", str(SEED)) for a in WORKLOADS[workload]["argv"]]
    out = tmp_path / "reports.jsonl"
    cli.main(["--out", str(out), "--format", "json"] + argv)
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    expected = REFERENCE[workload][str(SEED)]
    assert [r["name"] for r in reports] == [e["name"] for e in expected]
    for r, e in zip(reports, expected):
        for key in ("computed", "reference"):
            got, want = r[key], e[key]
            assert math.isfinite(got), (r["name"], key, got)
            bound = REL_TOL * max(abs(got), abs(want))
            assert abs(got - want) <= bound, (r["name"], key, got, want)
