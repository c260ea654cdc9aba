"""Spans around the calls into each wasserlim layer.

``Tracer.installed()`` replaces every public function of the package
modules, under each name its callers look it up by (so
``wasserlim.curvature.wasserstein_p`` and
``wasserlim.transport.wasserstein_p`` share one wrapper), with a wrapper
that records a span: name, start, end, parent span and operation id.
Constructors, ``FiniteMetricSpace.shortest_path`` and the CLI command
callbacks are wrapped the same way. Private ``_`` functions are left
alone, as are ``canonical_json``, which recurses, and ``format_float``,
which it calls once per number.

Spans are kept in flat arrays while the run lasts and written out at
its end. A span's self time is its duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("spaces", "measures", "transport", "geodesics", "curvature",
          "limits", "serialization", "cli", "_util")
SKIP = {"canonical_json", "format_float"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches = self._plan()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, span: str, after=None):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        start, end, name, parent, op, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack)
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def _plan(self):
        """(owner, attribute, original, wrapper) for every patch site."""
        import wasserlim
        from wasserlim import cli, measures, spaces

        owners = [wasserlim] + [importlib.import_module(f"wasserlim.{m}") for m in LAYERS]
        wrappers: dict[int, object] = {}
        patches = []
        for owner in owners:
            for attr, fn in list(vars(owner).items()):
                if (attr.startswith("_") or attr in SKIP or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("wasserlim.")):
                    continue
                if id(fn) not in wrappers:
                    layer = fn.__module__.rsplit(".", 1)[1].lstrip("_")
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{fn.__name__}",
                                                  AFTER.get(fn.__name__))
                patches.append((owner, attr, fn, wrappers[id(fn)]))
        methods = [
            (spaces.FiniteMetricSpace, "__init__", "spaces.FiniteMetricSpace"),
            (spaces.FiniteMetricSpace, "shortest_path", "spaces.shortest_path"),
            (spaces.FiniteMetricSpace, "shortest_path_tree", "spaces.shortest_path_tree"),
            (measures.DiscreteMeasure, "__init__", "measures.DiscreteMeasure"),
        ]
        methods += [(cmd, "callback", f"cli.{name}") for name, cmd in cli.main.commands.items()]
        for owner, attr, span in methods:
            fn = getattr(owner, attr)
            patches.append((owner, attr, fn, self._wrap(fn, span)))
        return patches

    @contextlib.contextmanager
    def installed(self, op_id: int):
        """Wrappers in place for one operation, recording under ``op_id``."""
        self.op_id = op_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, fn, _ in self._patches:
                setattr(owner, attr, fn)

    # -- results ------------------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur, dur - child, name, parent, op

    def totals(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self seconds, call count)."""
        _, self_s, name, _, _ = self.arrays()
        secs = np.bincount(name, weights=self_s, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return {n: (float(secs[k]), int(calls[k])) for k, n in enumerate(self.names)}

    def root_durations(self, span: str, ops) -> list[float]:
        """Durations of top-level ``span`` spans recorded under ``ops``."""
        if span not in self._ids:
            return []
        dur, _, name, parent, op = self.arrays()
        pick = (name == self._ids[span]) & (parent < 0) & np.isin(op, list(ops))
        return dur[pick].tolist()

    def write(self, path: Path) -> None:
        dur, self_s, name, parent, op = self.arrays()
        np.savez_compressed(path, names=np.array(self.names),
                            start=np.frombuffer(self.start, dtype=np.float64),
                            duration=dur, self_time=self_s, name=name,
                            parent=parent, op=op)


def _count_cells(counts, args, result):
    mu, nu = args[0], args[1]
    counts["transport.cells"] += len(mu.support) * len(nu.support)
    counts["transport.coupled_cells"] += int(np.count_nonzero(result[1].matrix))


def _count_skipped(counts, args, result):
    counts["curvature.pairs_skipped"] += result.skipped


def _count_bytes(counts, args, result):
    counts["serialization.bytes_written"] += os.path.getsize(args[0])


COUNTERS = ("transport.cells", "transport.coupled_cells", "curvature.pairs_skipped",
            "serialization.bytes_written")

#: Counters read off a call's arguments and result after its span ends.
AFTER = {
    "wasserstein_p": _count_cells,
    "estimate_k": _count_skipped,
    "write_json": _count_bytes,
    "write_csv": _count_bytes,
}
