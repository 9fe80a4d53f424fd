"""Structured numeric experiment results with CSV/JSON serialization."""

from __future__ import annotations

import csv
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    computed: float
    reference: float
    tolerance: float
    passed: bool
    runtime_seconds: float
    mode: str = "abs"  # "abs" | "rel" | "ratio" (tolerance interpretation)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        # numpy scalars would be written as np.float64(...) by write_csv
        self.computed = float(self.computed)
        self.reference = float(self.reference)
        self.tolerance = float(self.tolerance)

    @staticmethod
    def build(
        name: str,
        parameters: dict,
        computed: float,
        reference: float,
        tolerance: float,
        runtime_seconds: float,
        mode: str = "abs",
        **extra,
    ) -> "ExperimentReport":
        if mode == "abs":
            ok = abs(computed - reference) <= tolerance
        elif mode in ("rel", "ratio"):
            # tolerance is the allowed |computed/reference - 1|
            scale = max(abs(reference), 1e-300)
            ok = abs(computed - reference) <= tolerance * scale
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return ExperimentReport(
            name=name,
            parameters=parameters,
            computed=computed,
            reference=reference,
            tolerance=tolerance,
            passed=bool(ok),
            runtime_seconds=runtime_seconds,
            mode=mode,
            extra=extra,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@contextmanager
def timed():
    """Context manager yielding a zero-arg callable for elapsed seconds."""
    t0 = time.perf_counter()
    yield lambda: time.perf_counter() - t0


def write_jsonl(reports: list[ExperimentReport], path: str) -> None:
    with open(path, "w") as fh:
        for r in reports:
            fh.write(r.to_json() + "\n")


def write_csv(reports: list[ExperimentReport], path: str) -> None:
    cols = ["name", "computed", "reference", "tolerance", "mode", "passed",
            "runtime_seconds", "parameters"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for r in reports:
            w.writerow([
                r.name, repr(r.computed), repr(r.reference), repr(r.tolerance),
                r.mode, int(r.passed), f"{r.runtime_seconds:.3f}",
                json.dumps(r.parameters, sort_keys=True),
            ])
