"""Spans around the calls into each framescale module, from outside it.

Each traced function is replaced at the name its caller binds (the call
``report.analyze_frame`` makes to ``build_graph`` goes through
``framescale.report.build_graph``), so the package itself is unchanged.  A
binding that a later version removes is skipped and reports 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# (span name, module that binds the callee, attribute) -- one row per call
# path on the measured commands.
TARGETS = (
    ("cli.main", "framescale.cli", "main"),
    ("cli.parse", "framescale.cli", "load_frame_file"),
    ("cli.parse", "framescale.cli", "resolve_graph"),
    ("report.analyze", "framescale.cli", "analyze_frame"),
    ("report.analyze", "framescale.cli", "analyze_graph"),
    ("report.stable_dumps", "framescale.cli", "stable_dumps"),
    ("frames.is_frame", "framescale.report", "is_frame"),
    ("frames.classify_tightness", "framescale.report", "classify_tightness"),
    ("linalg.jacobi_eigensystem", "framescale.frames", "jacobi_eigensystem"),
    ("graphs.build_graph", "framescale.report", "build_graph"),
    ("graphs.compute_stats", "framescale.report", "compute_stats"),
    ("filters.run_all_filters", "framescale.report", "run_all_filters"),
    ("scaler.build_lp", "framescale.report", "build_lp"),
    ("scaler.solve_scalable", "framescale.report", "solve_scalable"),
    ("scaler.solve_strict", "framescale.report", "solve_strict"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


class Tracer:
    """In-memory spans ``[name, start, end, parent index, analysis id]``."""

    def __init__(self):
        self.spans = []
        self.analysis = -1
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None,
                          stack[-1] if stack else -1, self.analysis])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def install(self) -> None:
        for name, module, attr in TARGETS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if callable(fn):
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def self_times(self, factors) -> dict:
        """name -> [calls, total self seconds at reference speed], where
        ``factors[analysis]`` converts that analysis's wall seconds.  Self
        time is a span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for (name, start, end, _, k), inner in zip(self.spans, child):
            out[name][0] += 1
            out[name][1] += (end - start - inner) * factors[k]
        return out

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "analysis")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
