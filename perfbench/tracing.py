"""Outside-in span recording for the benchmark's traced runs.

The program is not instrumented: :func:`install` replaces public
functions and methods of the ``repro`` layers with wrappers that record
one ``(name, start, end)`` span per call, and :func:`uninstall` puts the
originals back.  The hot path only appends a tuple; each span's parent
(the innermost span enclosing it) and unit (the enclosing ``unit`` span
the benchmark records around every timed unit) are worked out when the
run ends, since calls on one thread nest properly.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

import numpy as np

UNIT = "unit"


class SpanRecorder:
    """In-memory span store."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float]] = []
        self.refused: dict[str, int] = {}

    def intern(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def span(self, name: str):
        """Context manager recording one span (for the benchmark's own spans)."""
        return _Span(self, self.intern(name))

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans sorted by start, with parent index and unit number (-1: none)."""
        raw = np.array(self.spans, dtype=np.float64).reshape(-1, 3)
        order = np.lexsort((-raw[:, 2], raw[:, 1]))  # by start, enclosing span first
        name_id = raw[order, 0].astype(np.int32)
        start = raw[order, 1]
        end = raw[order, 2]
        parent = np.full(len(order), -1, dtype=np.int32)
        unit = np.full(len(order), -1, dtype=np.int32)
        unit_sid = self._ids.get(UNIT, -1)
        stack: list[int] = []
        units_seen = -1
        for i in range(len(order)):
            s = start[i]
            while stack and end[stack[-1]] < s:
                stack.pop()
            if stack:
                parent[i] = stack[-1]
                unit[i] = unit[stack[-1]]
            if name_id[i] == unit_sid:
                units_seen += 1
                unit[i] = units_seen
            stack.append(i)
        return {"name_id": name_id, "start": start, "end": end, "parent": parent, "unit": unit}

    def layer_times(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds inside units, and
        total seconds outside any unit (set-up, output checks).

        A span's self time is its duration minus its direct children's
        durations: the part of its interval no child covers.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        inside = a["unit"] >= 0
        ids = a["name_id"]
        n = len(self.names)

        def by_name(mask, values=None):
            return np.bincount(ids[mask], weights=None if values is None else values[mask],
                               minlength=n)

        calls, total, self_s = by_name(inside), by_name(inside, dur), by_name(inside, own)
        outside = by_name(~inside, dur)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(self_s[i]), "outside_s": float(outside[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class _Span:
    __slots__ = ("_rec", "_sid", "_t0")

    def __init__(self, rec: SpanRecorder, sid: int) -> None:
        self._rec = rec
        self._sid = sid

    def __enter__(self):
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._rec.spans.append((self._sid, self._t0, perf_counter()))


def _wrap(rec: SpanRecorder, fn, name: str, count_refused: bool):
    sid = rec.intern(name)
    append = rec.spans.append

    if count_refused:
        refused = rec.refused
        refused.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            append((sid, t0, perf_counter()))
            if result is False:
                refused[name] += 1
            return result
    else:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            append((sid, t0, perf_counter()))
            return result

    return traced


#: (module, attribute path, span name, count False returns as refused).
#: Functions are patched where the calling module looks them up, so the
#: simulator's ``from .report import build_report`` is replaced in
#: ``repro.serving.simulator``; methods are patched on their class.
SERVING_TARGETS = (
    ("repro.serving.simulator", "ServingSimulator.run", "serving.simulator", False),
    ("repro.serving.calqueue", "CalendarQueue.push", "serving.calqueue", False),
    ("repro.serving.calqueue", "CalendarQueue.pop", "serving.calqueue", False),
    ("repro.serving.costmodel", "StepCostModel.decode_step_time", "serving.costmodel.decode", False),
    ("repro.serving.costmodel", "StepCostModel.prefill_time", "serving.costmodel.prefill", False),
    ("repro.serving.kvpool", "PagedKVPool.allocate", "serving.kvpool", True),
    ("repro.serving.kvpool", "PagedKVPool.extend", "serving.kvpool", True),
    ("repro.serving.kvpool", "PagedKVPool.free", "serving.kvpool", False),
    ("repro.serving.simulator", "form_prefill_batch", "serving.scheduler", False),
    ("repro.serving.simulator", "generate_request_columns", "serving.workload", False),
    ("repro.serving.simulator", "build_report", "serving.report", False),
    ("repro.serving.simulator", "build_streaming_report", "serving.report", False),
    ("repro.serving.simulator", "build_degradation", "faults.report", False),
)

FABRIC_TARGETS = (
    ("repro.network", "build_mpft_cluster", "network.topology", False),
    ("repro.comm.ep", "EPDeployment.route_tokens", "comm.ep.route", False),
    ("repro.comm.ep", "EPDeployment.dispatch_traffic", "comm.ep.traffic", False),
    ("repro.comm.ep", "EPDeployment.combine_traffic", "comm.ep.traffic", False),
    ("repro.comm.ep", "EPDeployment.traffic_to_flows", "comm.ep.flows", False),
    ("repro.network.flowsim", "FlowSimulator.simulate", "network.flowsim", False),
)


def install(rec: SpanRecorder, targets) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the undo list for :func:`uninstall`."""
    undo = []
    for module_name, path, span_name, count_refused in targets:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, _wrap(rec, original, span_name, count_refused))
        undo.append((owner, attr, original))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
