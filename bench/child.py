"""One benchmark sample: a fresh process that imports ``maassqv.cli`` and
runs ``maassqv.cli.main(argv)`` once, so every cache starts cold, as it
does for a user of the CLI.

    python3 bench/child.py RESULT.json SPAWNED MODE [CLI ARGS...]

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process; MODE is ``probe`` (import only), ``plain`` or ``traced``.  The
parent sets ``PYTHONPATH`` to the checkout's ``src``.  The sample is
written to RESULT.json; the CLI's own report lines go to stdout.

While the call runs, a timer interrupts it every 0.25 s to time a fixed
slice of interpreted work on the same CPU.  The machine this was written
on (a shared 2-vCPU VM) changes speed by 20-40% within seconds, so the
parent divides each sample's wall time by the mean slice time, a ratio
that such drift moves much less.  The slices are left out of the wall time.
"""

import json
import os
import resource
import signal
import sys
import time

T_START = time.monotonic()
import maassqv.cli  # noqa: E402

T_IMPORTED = time.monotonic()

BENCH = os.path.dirname(os.path.abspath(__file__))


SLICE_PERIOD_S = 0.25


def _slice(slices: list[float]) -> None:
    """Time a fixed ~10 ms loop; no allocation, so no effect on peak RSS."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    slices.append(time.perf_counter() - t0)


def _per_layer_names() -> list[str]:
    with open(os.path.join(BENCH, "..", "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def main() -> int:
    result_path, spawned, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    cli_args = sys.argv[4:]
    out = {"setup_s": T_IMPORTED - spawned, "import_s": T_IMPORTED - T_START}
    if mode != "probe":
        recorder = None
        if mode == "traced":
            import tracer

            recorder = tracer.install(_per_layer_names())
        reports_path = result_path + ".reports.jsonl"  # the CLI appends to it
        if os.path.exists(reports_path):
            os.remove(reports_path)
        error = None
        slices: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: _slice(slices))
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SLICE_PERIOD_S, SLICE_PERIOD_S)
        try:
            exit_code = maassqv.cli.main(
                ["--out", reports_path, "--format", "json"] + cli_args
            )
        except Exception as exc:  # a failed operation is a measured outcome
            exit_code, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        elapsed = time.perf_counter() - t0
        usage = resource.getrusage(resource.RUSAGE_SELF)
        sliced = sum(slices)
        if not slices:  # a call shorter than one period
            _slice(slices)
        reports = []
        if error is None:
            with open(reports_path) as fh:
                for line in fh:
                    r = json.loads(line)
                    reports.append({k: r[k] for k in ("name", "computed", "reference", "passed")})
        if os.path.exists(reports_path):
            os.remove(reports_path)
        out.update(
            wall_s=elapsed - sliced,
            calibration_s=sum(slices) / len(slices),
            cpu_s=usage.ru_utime + usage.ru_stime - before.ru_utime - before.ru_stime - sliced,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=exit_code,
            error=error,
            reports=reports,
        )
        if recorder is not None:
            out["trace"] = recorder.dump()
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
