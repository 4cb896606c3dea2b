"""In-memory span tracer for strataux's layer boundaries.

The tracer wraps public strataux functions from outside the package: every
module attribute that refers to one of LAYER_FUNCTIONS is replaced by a
timing wrapper while the tracer is installed, and put back afterwards.
Patching every referring attribute (not just the defining module) matters
because the modules import each other's functions by name, e.g.
``strataux.monte_carlo.summarize`` is the binding ``run_simulation`` calls.

A span is (id, name, start, end, parent id, operation id, count). Spans of
one benchmark operation share the operation id; the root span of an
operation is named ``op``. ``count`` carries work done at that boundary
(rows ingested), or None.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

# (module, function) pairs wrapped in a traced run. The span name is
# "<module>.<function>". The per-estimator helpers (mse_classic,
# variance_mean, classic_breakdown) are left out: they take microseconds,
# are called about twenty times per design, and no metric needs them.
LAYER_FUNCTIONS = (
    ("data_model", "parse_microdata"),
    ("data_model", "parse_summary"),
    ("data_model", "reconcile_covariances"),
    ("data_model", "summarize"),
    ("moments", "moment_set"),
    ("mse_theory", "mse_tp"),
    ("mse_theory", "optimal_m"),
    ("mse_theory", "min_mse_tp"),
    ("mse_theory", "tp_diagnostics"),
    ("efficiency", "pre_table"),
    ("efficiency", "dominance_report"),
    ("efficiency", "reproduce_kk2009"),
    ("monte_carlo", "parse_generator_config"),
    ("monte_carlo", "generate_population"),
    ("monte_carlo", "draw_sample"),
    ("monte_carlo", "population_fingerprint"),
    ("monte_carlo", "run_simulation"),
    ("cli", "main"),
)

# Work counted at a boundary: records passing through ingest.
COUNTERS: dict[str, Callable] = {
    "data_model.parse_microdata": lambda args, kwargs, result: result.n_records,
    "data_model.summarize": lambda args, kwargs, result: args[0].n_records,
}

ID, NAME, START, END, PARENT, OP, COUNT = range(7)


class Tracer:
    """Collects spans in memory; installed() wraps, leaving it restores."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()

    def current(self) -> Optional[int]:
        """Id of the innermost open span in this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the with-block; yields the span id."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op, None))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                self.spans.append((sid, name, start, time.perf_counter(), parent, self.op, None))
                raise
            end = time.perf_counter()
            stack.pop()
            count = counter(args, kwargs, result) if counter else None
            self.spans.append((sid, name, start, end, parent, self.op, count))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every strataux attribute bound to a layer function."""
        patches = []
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "strataux" or name.startswith("strataux.")
        ]
        for mod_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"strataux.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        patches.append((m, attr, original))
                        setattr(m, attr, wrapper)
        try:
            yield self
        finally:
            for m, attr, original in reversed(patches):
                setattr(m, attr, original)

    def merge(self, spans: list, parent: int) -> None:
        """Adopt spans recorded by a child process under span ``parent``.

        perf_counter reads CLOCK_MONOTONIC on Linux, which is shared by all
        processes, so child timestamps need no shifting.
        """
        remap = {s[ID]: next(self._ids) for s in spans}
        for s in spans:
            p = remap[s[PARENT]] if s[PARENT] is not None else parent
            self.spans.append((remap[s[ID]], s[NAME], s[START], s[END], p, self.op, s[COUNT]))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "name", "start", "end", "parent", "op", "count"],
                 "spans": self.spans},
                fh, separators=(",", ":"),
            )


def totals(spans: list, op_ids) -> dict[str, dict[str, float]]:
    """Per span name: summed duration, self time, calls and count over ops.

    Self time is a span's duration minus the durations of its direct
    children; children of one span run in one thread and do not overlap.
    """
    ops = set(op_ids)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0}
    )
    for s in spans:
        if s[OP] not in ops:
            continue
        dur = s[END] - s[START]
        agg = out[s[NAME]]
        agg["s"] += dur
        agg["self_s"] += dur - child_time[s[ID]]
        agg["calls"] += 1
        agg["count"] += s[COUNT] or 0
    return out
