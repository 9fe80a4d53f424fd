"""The traced bench children end to end: a traced `first-moment`,
`variance` or `nonsplit` run must find every per-layer function
BENCHMARK.json names, leave its sample as one line of strict JSON, and give
finite metrics, or the bench's last line carries no result.  The scan the
central values record is their half-window scan; `nonsplit` runs no scan.
"""

import json
import math
import os
import subprocess
import sys
import time

from ideal_oracle import half_window, rectangle_scan
from maassqv.quadfield import make_field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def _strict(token):
    raise ValueError(f"{token} is not strict JSON")


def _run_traced(tmp_path, argv: list[str]) -> dict:
    """Run one traced child; its per-layer metrics."""
    result = tmp_path / "result.json"
    # no bytecode caches are written under bench/
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), str(result), repr(time.monotonic()), "traced"]
    subprocess.run(cmd + argv, env=env, cwd=tmp_path, check=True, timeout=300)
    text = result.read_text()
    assert len(text.splitlines()) == 1
    out = json.loads(text, parse_constant=_strict)
    assert out["error"] is None and out["exit_code"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    prefixes = {n.rsplit(".", 1)[0] for n in names if not n.startswith("process.")}
    missing = sorted(prefixes - set(out["trace"]["locations"]))
    assert not missing, missing
    sys.path.insert(0, BENCH)
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        import tracer
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = saved
    metrics = tracer.summarize(out["trace"])
    assert all(math.isfinite(v) for v in metrics.values())
    json.dumps(metrics, allow_nan=False)
    return metrics


def _half_window_size(k_hi: int) -> int:
    """The size of the central values' scan to 4 k_hi^2 D^1.5, which holds
    the half window only."""
    F = make_field(21)
    folded, _, _ = half_window(F, *rectangle_scan(F, int(4.0 * k_hi * k_hi * F.D**1.5)))
    return folded.size


def test_traced_child_resolves_every_layer(tmp_path):
    metrics = _run_traced(tmp_path, ["first-moment", "--D", "21", "--K", "8", "--seed", "42"])
    assert metrics["lfun.ideal_scan.ideals"] == _half_window_size(16)


def test_traced_variance_child_resolves_every_layer(tmp_path):
    # the bench's variance input: _l_one_phi_bulk and constants() run too
    argv = ["variance", "--D", "21", "--K", "10", "--seed", "42"]
    metrics = _run_traced(tmp_path, argv)
    assert metrics["lfun.ideal_scan.ideals"] == _half_window_size(20) == 53_077


def test_traced_nonsplit_child_resolves_every_layer(tmp_path):
    # the bench's own nonsplit argv, where hecke.lambda_psi takes arrays
    with open(os.path.join(BENCH, "workloads.json")) as fh:
        argv = json.load(fh)["workloads"]["nonsplit"]["argv"]
    metrics = _run_traced(tmp_path, [a.replace("{seed}", "42") for a in argv])
    assert metrics["hecke.lambda_psi.calls"] > 0
