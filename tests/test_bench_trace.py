"""The traced bench child end to end: a traced `first-moment` run must
find every per-layer function BENCHMARK.json names, and its metrics must be
finite and strict JSON, or the bench's last line carries no result."""

import json
import math
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def test_traced_child_resolves_every_layer(tmp_path):
    result = tmp_path / "result.json"
    # no bytecode caches are written under bench/
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = ["first-moment", "--D", "21", "--K", "8", "--seed", "42"]
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), str(result), repr(time.monotonic()), "traced"]
    subprocess.run(cmd + argv, env=env, cwd=tmp_path, check=True, timeout=300)
    out = json.loads(result.read_text())
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
