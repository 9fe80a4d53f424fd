"""maassqv benchmark: fixed CLI workloads at D = 21, timed end to end.

    python3 bench/run.py --workload first_moment --seed 42 --seconds 10 --trace 0

Run from the root of a checkout.  Each sample is a fresh child process
(``bench/child.py``) that imports ``maassqv.cli`` from ``src`` and runs
``maassqv.cli.main(argv)`` once, so caches start cold as they do for a CLI
user.  Children run one at a time from this process, each on one core.
A run starts two import-only children for the set-up time, then takes
samples until the next one would end after ``--seconds`` (at least one).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, medians
over the samples: ``wall_per_cal`` (wall time of the ``main`` call over
the time of the calibration slices taken during it, see ``child.py``),
``peak_rss_mb`` (child ``ru_maxrss``) and ``setup_s`` (child start to
``import maassqv.cli`` done, probes included); and ``ok_frac``, the share
of samples that neither raised nor left the expected report values.  It
also prints the raw median ``wall_s`` and ``fail_frac``.  ``--trace 1``
first runs one traced child (see ``tracer.py``), then untraced ones, and
prints the per-layer metrics.

Every report's ``computed`` and ``reference`` must match within 1e-10
relative the values stored for the seed in ``reference.json`` or, for a
seed with none stored, those of the run's first sample.  The values are
written to ``.bench_out/results/<workload>-seed<seed>.json`` so two
commits can be compared.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
TIME_LIMIT_S = 170.0  # a run must exit within 180 s
SETUP_PROBES = 2
REL_TOL = 1e-10  # the ROADMAP fidelity rule for report values


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _child(mode: str, cli_args: list[str], tag: str, deadline: float) -> dict:
    """Run one child; its sample, or {"error": ...} if it left none."""
    path = os.path.join(OUT, "tmp", f"{tag}.json")
    if os.path.exists(path):
        os.remove(path)
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(ROOT, "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), path, repr(spawned), mode]
    try:
        proc = subprocess.run(
            cmd + cli_args, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return {"error": "timeout", "elapsed_s": time.monotonic() - spawned}
    elapsed = time.monotonic() - spawned
    if proc.returncode != 0 or not os.path.exists(path):
        tail = (proc.stderr or "").strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail), "elapsed_s": elapsed}
    sample = _load(path)
    os.remove(path)
    sample["elapsed_s"] = elapsed
    return sample


def _mismatch(reports: list[dict], expected: list[dict]) -> str | None:
    got = [r["name"] for r in reports]
    want = [r["name"] for r in expected]
    if got != want:
        return f"reports {got} != {want}"
    for r, e in zip(reports, expected):
        for key in ("computed", "reference"):
            a, b = r[key], e[key]
            if not math.isfinite(a) or abs(a - b) > REL_TOL * max(abs(a), abs(b)):
                return f"{r['name']}.{key} = {a!r}, expected {b!r}"
    return None


def main() -> int:
    spec = _load(os.path.join(BENCH, "workloads.json"))["workloads"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(spec))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "maassqv", "cli.py")):
        print(f"no maassqv package under {ROOT}/src", file=sys.stderr)
        return 2
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    cli_args = [a.replace("{seed}", str(args.seed)) for a in spec[args.workload]["argv"]]
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"

    probes = [_child("probe", [], f"{tag}-probe{i}", deadline) for i in range(SETUP_PROBES)]
    for probe in probes:
        if "error" in probe:
            print(f"set-up failed: {probe['error']}", file=sys.stderr)
            return 2

    traced = _child("traced", cli_args, f"{tag}-traced", deadline) if args.trace else None
    # untraced samples until the next would end after --seconds (at least
    # one), or, after a traced sample, until one would end after the deadline
    samples: list[dict] = []
    typical = traced["elapsed_s"] if traced else 0.0
    t0 = time.monotonic()
    while time.monotonic() + typical <= deadline and (
            not samples or time.monotonic() - t0 + typical <= seconds):
        samples.append(_child("plain", cli_args, f"{tag}-{len(samples)}", deadline))
        typical = statistics.median(s["elapsed_s"] for s in samples)

    stored = _load(os.path.join(BENCH, "reference.json")).get(args.workload, {})
    expected = stored.get(str(args.seed))
    source = "bench/reference.json" if expected is not None else "first sample"
    checked = samples + ([traced] if traced is not None else [])
    failures = []
    for s in checked:
        problem = s.get("error")  # the CLI call raised, or the child died
        if problem is None:
            if expected is None:
                expected = s["reports"]
            problem = _mismatch(s["reports"], expected)
        if problem is not None:
            failures.append(problem)
    attempted = len(checked)
    ran = [s for s in samples if "wall_s" in s]
    if not ran and not args.trace:
        print(f"no sample ran to the end: {failures}", file=sys.stderr)
        return 1

    with open(os.path.join(OUT, "results", f"{tag}.json"), "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "argv": cli_args,
            "checked_against": source, "reports": expected, "failures": failures,
            "samples": [{k: v for k, v in s.items() if k not in ("reports", "trace")}
                        for s in probes + checked],
        }, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: maassqv {' '.join(cli_args)}")
    for r in expected or []:
        print(f"  report {r['name']}: computed={r['computed']!r} "
              f"reference={r['reference']!r} passed={r['passed']}")
    print(f"  values checked against {source}; {len(failures)} of {attempted} samples failed")
    for f in failures:
        print(f"  FAILED: {f}")

    wall = statistics.median(s["wall_s"] for s in ran) if ran else None
    if not args.trace:
        print(f"  wall_s = {wall!r} s (median of {len(ran)})")
        values = {
            "wall_per_cal": statistics.median(s["wall_s"] / s["calibration_s"] for s in ran),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ran),
            "setup_s": statistics.median(s["setup_s"] for s in probes + samples if "setup_s" in s),
            "ok_frac": (attempted - len(failures)) / attempted,
        }
        print(f"  fail_frac = {len(failures) / attempted!r} ratio ({len(failures)} of {attempted})")
        wanted = bench["end_to_end"]
    else:
        values = {"process.import_s": statistics.median(
            s["import_s"] for s in probes + samples if "import_s" in s)}
        if ran:  # none when the traced sample left no time for another
            values["process.cpu_s"] = statistics.median(s["cpu_s"] for s in ran)
            values["process.wall_s"] = wall
            values["process.calibration_s"] = statistics.median(s["calibration_s"] for s in ran)
        if "trace" in traced:
            values.update(tracer.summarize(traced["trace"]))
            if ran:
                values["process.trace_overhead_frac"] = traced["wall_s"] / wall - 1.0
            for prefix, where in sorted(traced["trace"]["locations"].items()):
                print(f"  layer {prefix} -> {where}")
        wanted = bench["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    for name, m in metrics.items():
        note = f" (median of {len(ran)})" if name in ("wall_per_cal", "peak_rss_mb") else ""
        print(f"  {name} = {m['value']!r} {m['unit']}{note}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
