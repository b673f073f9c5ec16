"""Spans around the calls into each vacgas layer, recorded from outside.

A span wraps one public function or method. It is installed by replacing the
attribute in every vacgas module that holds it (so ``eval_f`` as
``montecarlo`` imports it is wrapped too) and removed again afterwards, so
untimed and timed calls run the unmodified program. Spans are kept in memory
and written out when the benchmark ends. A name that no longer exists in the
program is skipped, and its metrics then read zero calls.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute path, work counters read from the result)
TARGETS = (
    ("reduction.big_f", "vacgas.reduction", "ReducedIntegrand.big_f", None),
    ("quadrature.integrate", "vacgas.quadrature", "integrate", "quadrature"),
    ("summation.direct", "vacgas.summation", "bracket_direct", "bracket"),
    ("summation.em", "vacgas.summation", "bracket_euler_maclaurin", "bracket"),
    ("distributions.compliance", "vacgas.distributions", "check_cutoff_compliance", None),
    ("distributions.eval_f", "vacgas.distributions", "eval_f", None),
    ("pressure.sweep", "vacgas.pressure", "lamoreaux_sweep", "sweep"),
    ("pressure.difference", "vacgas.pressure", "pressure_difference", None),
    ("montecarlo.estimate", "vacgas.montecarlo", "estimate_p_in", None),
    ("temperature.from_affinity", "vacgas.temperature", "temperature_from_affinity", None),
    ("cli.run", "vacgas.cli", "run", None),
)


def _count_work(kind: str, result, counters: dict) -> None:
    if kind == "quadrature":
        counters["quadrature.evaluations"] += getattr(result, "evaluations", 0)
    elif kind == "bracket":
        diag = getattr(result, "diagnostics", {})
        counters["reduction.distribution_evaluations"] += diag.get("distribution_evaluations", 0)
        if "panels" in diag:
            counters["summation.panels"] += diag["panels"]
            counters["summation.n_max"] += diag.get("n_max", 0)
    elif kind == "sweep":
        counters["pressure.sweep_points"] += len(result)


class Tracer:
    """Records (op, span id, parent id, name, start, end) for every wrapped call.

    Parents are tracked per thread, so a span opened in a Monte Carlo worker
    thread has no parent; it still carries the operation id.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, kind: str | None):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((tracer.op, sid, parent, name, start, end))
            if kind is not None:
                with tracer._lock:
                    _count_work(kind, result, tracer.counters)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for name, module_name, attr, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, kind)
            holders = [owner] if owner_name else [
                m for key, m in list(sys.modules.items())
                if m is not None and (key == "vacgas" or key.startswith("vacgas."))
                and getattr(m, leaf, None) is original
            ]
            for holder in holders:
                setattr(holder, leaf, wrapper)
                self._installed.append((holder, leaf, original))
        return self

    def __exit__(self, *exc):
        for holder, leaf, original in reversed(self._installed):
            setattr(holder, leaf, original)
        self._installed.clear()
        return False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms (minus child spans)."""
        child_s: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for _, sid, _, name, start, end in self.spans:
            row = out[name]
            row["calls"] += 1
            row["ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_s[sid]) * 1e3
        return out

    def op_totals(self, name: str) -> dict[int, float]:
        """Inclusive seconds of one span name, per operation id."""
        totals: dict[int, float] = defaultdict(float)
        for op, _, _, span_name, start, end in self.spans:
            if span_name == name:
                totals[op] += end - start
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("op,span,parent,name,start_s,end_s\n")
            for op, sid, parent, name, start, end in self.spans:
                out.write(f"{op},{sid},{parent},{name},{start:.9f},{end:.9f}\n")
