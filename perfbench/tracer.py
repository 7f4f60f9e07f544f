"""Span tracing of the program's public functions, installed from outside.

The tracer replaces module attributes with thin wrappers, so calls that the
program makes through those names (``steady_state.solve_inversion`` inside
``find_thresholds``, ``dynamics.solve_ivp`` inside ``integrate``) are seen
without changing a source file.  Each span records name, start, end, parent
span and operation id; spans stay in memory until the run ends.  Functions
called tens of thousands of times per operation with no work of their own
worth timing are only counted.

Times come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), which is
shared between processes, so spans recorded in a CLI child process merge
into the parent's operation span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

now = time.monotonic

# (module, attribute, span name, kind).  kind "span" times the call, "count"
# only counts it.  validate_mechanism is bound by name into several modules
# by ``from .core import``; every binding is wrapped under one name.
TARGETS = [
    ("steady_state", "find_thresholds", "steady_state.find_thresholds", "span"),
    ("steady_state", "scan_hysteresis", "steady_state.scan_hysteresis", "span"),
    ("steady_state", "solutions_at", "steady_state.solutions_at", "span"),
    ("steady_state", "solve_inversion", "steady_state.solve_inversion", "span"),
    ("steady_state", "branch_solution", "steady_state.branch_solution", "span"),
    ("steady_state", "stationary_state", "steady_state.stationary_state", "span"),
    ("steady_state", "effective_params", "steady_state.effective_params", "count"),
    ("steady_state", "coherence", "steady_state.coherence", "count"),
    ("core", "validate_mechanism", "core.validate_mechanism", "count"),
    ("steady_state", "validate_mechanism", "core.validate_mechanism", "count"),
    ("dynamics", "validate_mechanism", "core.validate_mechanism", "count"),
    ("cli", "validate_mechanism", "core.validate_mechanism", "count"),
    ("spectrum", "spectrum_for_solution", "spectrum.spectrum_for_solution", "span"),
    ("spectrum", "incoherent_spectrum", "spectrum.incoherent_spectrum", "span"),
    ("spectrum", "oracle_spectrum", "spectrum.oracle_spectrum", "span"),
    ("spectrum", "sum_rule_ratio", "spectrum.sum_rule_ratio", "span"),
    ("dynamics", "sweep_adiabatic", "dynamics.sweep_adiabatic", "span"),
    ("dynamics", "integrate", "dynamics.integrate", "span"),
    ("dynamics", "solve_ivp", "dynamics.solve_ivp", "span"),
    ("cli", "write_csv", "cli.write_csv", "span"),
    ("cli", "write_json", "cli.write_json", "span"),
]

# Counts recorded from arguments or results, reported as 0 when never called.
EXTRAS = {
    "steady_state.solve_inversion": ("three_root",),
    "steady_state.scan_hysteresis": ("points",),
    "dynamics.solve_ivp": ("nfev", "njev", "nlu", "failed"),
    "spectrum.oracle_spectrum": ("points",),
    "spectrum.incoherent_spectrum": ("points",),
}

# Spans the benchmark opens itself rather than by wrapping an attribute.
OP = "op"
CLI_IMPORT = "cli.import"
CLI_MAIN = "cli.main"


def _record_result(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    counts = tracer.counts
    if name == "steady_state.solve_inversion":
        counts[name, "three_root"] += len(result) == 3
    elif name == "dynamics.solve_ivp":
        counts[name, "nfev"] += result.nfev
        counts[name, "njev"] += result.njev
        counts[name, "nlu"] += result.nlu
        counts[name, "failed"] += not result.success
    elif name in ("spectrum.oracle_spectrum", "spectrum.incoherent_spectrum"):
        counts[name, "points"] += np.size(args[0])
    elif name == "steady_state.scan_hysteresis":
        counts[name, "points"] += np.size(args[2] if len(args) > 2 else kwargs["omega_grid"])


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # [name id, start, end, parent index, op id]
        self.spans: list[list] = []
        self.counts: defaultdict = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._id(name), now(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = now()
        self._stack.pop()

    def add_span(self, name: str, start: float, end: float, parent: int) -> int:
        self.spans.append([self._id(name), start, end, parent, self.op])
        return len(self.spans) - 1

    def install(self, modules: dict) -> None:
        """Wrap every target whose module is in ``modules`` (name -> module)."""
        for mod_name, attr, name, kind in TARGETS:
            module = modules.get(mod_name)
            if module is None:
                continue
            original = getattr(module, attr)
            setattr(module, attr, self._wrapper(original, name, kind))
            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrapper(self, original, name: str, kind: str):
        counts = self.counts
        if kind == "count":
            key = (name, "calls")

            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            return counted

        def spanned(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(idx)
            _record_result(self, name, args, kwargs, result)
            return result

        return spanned

    # ---------------------------------------------------------------- export

    def merge(self, dump: dict, parent: int) -> None:
        """Attach spans recorded by a child process under span ``parent``."""
        offset = len(self.spans)
        for nid, start, end, par, _ in dump["spans"]:
            self.add_span(dump["names"][nid], start, end, parent if par < 0 else par + offset)
        for key, value in dump["counts"]:
            self.counts[tuple(key)] += value

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": [[list(k), v] for k, v in self.counts.items()],
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)

    def summary(self, n_ops: int) -> dict:
        """Per-operation totals: calls, total_ms and self_ms for every name.

        Self time is a span's duration minus the durations of its direct
        children; spans in one thread nest, so children never overlap.
        """
        n = len(self.spans)
        child = [0.0] * n
        under_ft = [False] * n
        ft = self._id("steady_state.find_thresholds")
        for i, (nid, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                under_ft[i] = under_ft[parent] or self.spans[parent][0] == ft
        per = {name: {"calls": 0.0, "total_ms": 0.0, "self_ms": 0.0}
               for name in [t[2] for t in TARGETS] + self.names}
        for name, keys in EXTRAS.items():
            per[name].update(dict.fromkeys(keys, 0.0))
        solves_under_ft = 0
        si = self._id("steady_state.solve_inversion")
        for i, (nid, start, end, parent, _) in enumerate(self.spans):
            entry = per[self.names[nid]]
            entry["calls"] += 1
            entry["total_ms"] += (end - start) * 1e3
            entry["self_ms"] += (end - start - child[i]) * 1e3
            solves_under_ft += nid == si and under_ft[i]
        for (name, key), value in self.counts.items():
            per[name][key] += value
        ft_calls = per["steady_state.find_thresholds"]["calls"]
        per["steady_state.find_thresholds"]["solves_per_call"] = (
            solves_under_ft / ft_calls if ft_calls else 0.0
        )
        si_calls = per["steady_state.solve_inversion"]["calls"]
        per["steady_state.solve_inversion"]["three_root_frac"] = (
            per["steady_state.solve_inversion"].pop("three_root", 0.0) / si_calls
            if si_calls else 0.0
        )
        scan = per["steady_state.scan_hysteresis"]
        scan["us_per_point"] = scan["total_ms"] * 1e3 / scan["points"] if scan["points"] else 0.0
        for name, entry in per.items():
            for key, value in entry.items():
                if key not in ("solves_per_call", "three_root_frac", "us_per_point"):
                    entry[key] = value / n_ops
        return per
