"""Per-layer tracing of maassqv, applied from outside the package.

A metric name ``<module>.<attr path>.<quantity>`` names a function of
``maassqv.<module>`` (``lfun.ideal_scan``) or a method
(``hecke.HeckeSource.lambda_pp``).  `install` finds each function and
rebinds every module attribute or class attribute that holds it to a
wrapper, so calls through any namespace that imported it (``experiments``
binds ``ideal_scan`` from ``lfun``) are seen.  The metric name stays fixed
when the function moves: a function missing from its home module is
searched for in every loaded ``maassqv`` module, and the place it was
found is recorded.  A function found nowhere yields no metric.

Quantities: ``s`` inclusive seconds, ``self_s`` seconds minus child spans,
``calls`` a count, ``rss_delta_mb`` the rise of ``ru_maxrss`` across the
call, ``ideals`` the largest result length (``ideal_scan`` only).  A
function asked only for ``calls`` gets a bare counter, not a span, because
such functions are called millions of times.

Spans (id, layer, parent id, start, end) are kept in memory and written
once, by `Recorder.dump`; `summarize` rebuilds the metrics from the dump.
"""

from __future__ import annotations

import importlib
import itertools
import resource
import sys
import threading
import time

SPAN_QUANTITIES = ("s", "self_s", "rss_delta_mb", "ideals")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _lookup(obj, path: list[str]):
    for part in path:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _resolve(prefix: str):
    """(owner, attr, function) for a layer prefix, or None if it is gone."""
    module, *path = prefix.split(".")
    home = f"maassqv.{module}"
    try:
        importlib.import_module(home)
    except ImportError:
        pass
    names = [home] + sorted(
        n for n in sys.modules if n.startswith("maassqv.") and n != home
    )
    for name in names:
        mod = sys.modules.get(name)
        owner = _lookup(mod, path[:-1]) if mod is not None else None
        fn = getattr(owner, path[-1], None) if owner is not None else None
        if callable(fn):
            return owner, path[-1], fn
    return None


class Recorder:
    """In-memory spans and counters for the wrapped functions."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.locations: dict[str, str] = {}
        self.counts: dict[str, int] = {}
        self.rss_mb: dict[str, float] = {}
        self.largest: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, float, float]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [-1]
        return stack

    def counter(self, prefix: str, fn):
        counts = self.counts
        counts[prefix] = 0

        def counted(*args, **kwargs):
            counts[prefix] += 1
            return fn(*args, **kwargs)

        return counted

    def span(self, prefix: str, fn, rss: bool, largest: bool):
        layer = len(self.layers)
        self.layers.append(prefix)
        spans, ids, stack_of = self.spans, self._ids, self._stack
        if rss:
            self.rss_mb[prefix] = 0.0
        if largest:
            self.largest[prefix] = 0

        def spanned(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            rss0 = _maxrss_mb() if rss else 0.0
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, layer, parent, t0, t1))
                if rss:
                    self.rss_mb[prefix] += _maxrss_mb() - rss0
            if largest:
                try:
                    n = len(out[0])
                except (TypeError, IndexError, KeyError):
                    n = 0  # result shape changed: the count is lost, not the run
                self.largest[prefix] = max(self.largest[prefix], n)
            return out

        return spanned

    def dump(self) -> dict:
        return {
            "layers": self.layers,
            "locations": self.locations,
            "counts": self.counts,
            "rss_delta_mb": self.rss_mb,
            "largest": self.largest,
            "spans": self.spans,
        }


def install(metric_names: list[str]) -> Recorder:
    """Wrap every function the per-layer metric names refer to."""
    wanted: dict[str, set[str]] = {}
    for name in metric_names:
        prefix, quantity = name.rsplit(".", 1)
        if not prefix.startswith("process"):
            wanted.setdefault(prefix, set()).add(quantity)
    rec = Recorder()
    for prefix, quantities in sorted(wanted.items()):
        found = _resolve(prefix)
        if found is None:
            continue
        owner, attr, fn = found
        rec.locations[prefix] = f"{fn.__module__}.{fn.__qualname__}"
        if quantities & set(SPAN_QUANTITIES):
            wrapper = rec.span(
                prefix, fn, "rss_delta_mb" in quantities, "ideals" in quantities
            )
        else:
            wrapper = rec.counter(prefix, fn)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for modname, mod in list(sys.modules.items()):
            if modname == "maassqv" or modname.startswith("maassqv."):
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
    return rec


def summarize(dump: dict) -> dict[str, float]:
    """Per-layer metrics from a `Recorder.dump`: self time is a span's
    duration minus the durations of its direct children (spans of one
    thread nest, so children never overlap)."""
    layers = dump["layers"]
    child_time: dict[int, float] = {}
    for _sid, _layer, parent, t0, t1 in dump["spans"]:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    incl = [0.0] * len(layers)
    own = [0.0] * len(layers)
    calls = [0] * len(layers)
    for sid, layer, _parent, t0, t1 in dump["spans"]:
        incl[layer] += t1 - t0
        own[layer] += t1 - t0 - child_time.get(sid, 0.0)
        calls[layer] += 1
    out: dict[str, float] = {}
    for i, prefix in enumerate(layers):
        out[f"{prefix}.s"] = incl[i]
        out[f"{prefix}.self_s"] = own[i]
        out[f"{prefix}.calls"] = calls[i]
    for prefix, n in dump["counts"].items():
        out[f"{prefix}.calls"] = n
    for prefix, mb in dump["rss_delta_mb"].items():
        out[f"{prefix}.rss_delta_mb"] = mb
    for prefix, n in dump["largest"].items():
        out[f"{prefix}.ideals"] = n
    return out
