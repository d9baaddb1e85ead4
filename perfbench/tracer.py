"""Span recorder that traces hexfock from outside the program.

Spans are recorded by replacing module attributes with timing wrappers at
the place where the caller looks the name up (for example
``hexfock.exchange_symmetry.eri_cross``, which the driver calls by its own
module-global name). Nothing under ``src/`` knows about tracing; every
wrapped name is restored by ``uninstall``.

Each span keeps its name, start, end, parent span and run id, plus one count
measured at the same boundary (quartets for an ERI call, points for a Boys
call, and so on). Spans live in flat arrays in memory and are written out
once, at the end, by ``write``.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """In-memory span store; ``span``/``wrap`` record, ``aggregate`` reads."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.runs: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.run_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, count: float = 0.0) -> int:
        parent = self._stack[-1] if self._stack else -1
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.run_id.append(len(self.runs) - 1 if parent < 0
                           else self.run_id[parent])
        self.count.append(count)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_run(self, run: str) -> None:
        """Start a new run id; top-level spans opened after this carry it."""
        self.runs.append(run)

    @contextmanager
    def span(self, name: str, count: float = 0.0):
        """Record one span around the benchmark's own call."""
        idx = self.open(name, count)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a wrapper recording span ``name``.

        ``count(*args, **kwargs)`` is evaluated before the call and stored as
        the span's count.
        """
        original = getattr(module, attr)
        rec = self

        def traced(*args, **kwargs):
            idx = rec.open(name, count(*args, **kwargs) if count else 0.0)
            try:
                return original(*args, **kwargs)
            finally:
                rec.close(idx)

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        """Put back every wrapped name, last wrapped first."""
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- reading -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its child spans."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[i] - self.start[i]
        return out

    def aggregate(self) -> dict:
        """Totals per (run kind, span name): s, self_s, calls, count.

        The run kind is the part of the run id before the first ``/``, so
        the same layer is summed separately under setup and under builds.
        """
        selfs = self.self_times()
        out: dict = defaultdict(lambda: {"s": 0.0, "self_s": 0.0,
                                         "calls": 0, "count": 0.0})
        for i in range(len(self.start)):
            rid = self.run_id[i]
            kind = self.runs[rid].split("/", 1)[0] if rid >= 0 else ""
            agg = out[(kind, self.names[self.name_id[i]])]
            agg["s"] += self.end[i] - self.start[i]
            agg["self_s"] += selfs[i]
            agg["calls"] += 1
            agg["count"] += self.count[i]
        return out

    def write(self, path) -> None:
        """Write every span as columnar gzip-compressed JSON."""
        doc = {
            "names": self.names,
            "runs": self.runs,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "run_id": self.run_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "count": self.count.tolist(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
