"""Degradation accounting for faulty serving runs.

A faulty run is judged by three numbers per fault window — goodput and
SLO attainment *before*, *during*, and *after* the outage — plus a
strict conservation identity over requests: everything admitted is
either finished, dropped, or still in flight when the clock stops.

Every phase boundary except the run horizon is known from the schedule
before the run starts, so :class:`FaultPhases` folds each finish into a
``(finished, slo_met)`` count per segment between boundaries as it
happens, and :func:`build_degradation` sums segments per phase.  The
report is a pure function of the simulation outcome, and no per-request
record is kept for it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .schedule import FaultEvent

#: Sentinel for "never repaired within the run" in the frozen report
#: (kept JSON-representable, unlike ``inf``).
NEVER = -1.0


@dataclass(frozen=True)
class FaultWindow:
    """One fault's observed impact on the serving pipeline.

    Goodput is finished requests per second whose finish fell in the
    phase; SLO attainment is the fraction of those that met the SLO.
    ``end == NEVER`` marks a permanent failure; its *after* phase is
    empty by construction.
    """

    kind: str
    target: str
    start: float
    end: float
    gpus_lost: int
    goodput_before: float
    goodput_during: float
    goodput_after: float
    slo_before: float
    slo_during: float
    slo_after: float


@dataclass(frozen=True)
class DegradationReport:
    """Fault-window impacts plus run-level recovery totals.

    Attributes:
        windows: One :class:`FaultWindow` per injected serving fault.
        admitted: Requests that arrived during the run (the workload
            size — shed arrivals count here and in ``dropped``).
        finished: Requests that completed all output tokens.
        dropped: Requests dropped for any reason (oversized, shed,
            retry budget exhausted).
        shed: Subset of ``dropped`` rejected at admission while a fault
            window was open (degraded admission control).
        retry_dropped: Subset of ``dropped`` that exhausted the retry
            budget after repeated fault evictions.
        unserved: Requests stranded in queues when the run ended
            (capacity never recovered enough to serve them).
        retries: Total fault-eviction requeues across all requests.
        evicted: In-flight requests knocked out by capacity loss
            (each eviction either retries or drops).
        steps_aborted: Pool steps cancelled mid-flight by a fault.
        lost_tokens: Generated-token work discarded by evictions and
            aborted steps (re-prefilled on retry).
    """

    windows: tuple[FaultWindow, ...]
    admitted: int
    finished: int
    dropped: int
    shed: int
    retry_dropped: int
    unserved: int
    retries: int
    evicted: int
    steps_aborted: int
    lost_tokens: int

    @property
    def accounted(self) -> bool:
        """The conservation identity: admitted = finished + dropped + unserved."""
        return self.admitted == self.finished + self.dropped + self.unserved


def annotate_alerts(
    alerts: list[dict], windows: "tuple[FaultWindow, ...]"
) -> list[dict]:
    """Tag SLO alert dicts with the fault window active at their time.

    The telemetry pipeline evaluates SLO rules blind to the fault
    schedule; this joins the two timelines so an alert reads as a
    diagnosis (``during_fault`` + ``fault_target``) rather than a bare
    transition.  Mutates and returns ``alerts``.
    """
    for alert in alerts:
        t = alert["time"]
        for window in windows:
            end = math.inf if window.end == NEVER else window.end
            if window.start <= t <= end:
                alert["during_fault"] = True
                alert["fault_target"] = window.target or "decode"
                break
        else:
            alert["during_fault"] = False
    return alerts


class FaultPhases:
    """Finished and SLO-met counts per segment between phase boundaries.

    The boundaries are 0, every fault time and every finite repair
    time; segment ``k`` counts the finishes ``t`` with
    ``bisect_right(bounds, t) == k``.  ``last`` holds the latest finish
    time and its counts: phases are half-open, and the last one ends at
    the final clock, which a finish can hit exactly.
    """

    __slots__ = ("bounds", "done", "met", "last")

    def __init__(self, events: tuple[FaultEvent, ...]) -> None:
        repairs = (e.time + e.mttr for e in events if math.isfinite(e.mttr))
        self.bounds = sorted({0.0, *(e.time for e in events), *repairs})
        self.done = [0] * (len(self.bounds) + 1)
        self.met = [0] * (len(self.bounds) + 1)
        self.last = [-1.0, 0, 0]

    def finish(self, time: float, met: bool) -> None:
        """Count one finish (finish times arrive in clock order)."""
        k = bisect_right(self.bounds, time)
        self.done[k] += 1
        self.met[k] += met
        last = self.last
        if time != last[0]:
            last[:] = time, 0, 0
        last[1] += 1
        last[2] += met


def build_degradation(
    phases: FaultPhases,
    events: tuple[FaultEvent, ...],
    *,
    horizon: float,
    admitted: int,
    finished: int,
    dropped: int,
    shed: int,
    retry_dropped: int,
    retries: int,
    evicted: int,
    steps_aborted: int,
    lost_tokens: int,
) -> DegradationReport:
    """Assemble the degradation section from the per-segment counts.

    Each fault window's *before* phase spans from the previous window's
    end (or 0) to the fault; *during* spans the outage itself; *after*
    runs to the next fault (or the run horizon).  Permanent faults have
    an empty *after* phase.  Every phase edge is a boundary of
    ``phases`` or the horizon, so a phase is a run of whole segments.
    """
    bounds, done, met = phases.bounds, phases.done, phases.met
    if horizon > bounds[-1]:
        # Every fault and repair is an event of the run, so the final
        # clock is at or past every boundary: split the open-ended last
        # segment there, moving finishes at exactly the horizon past it.
        _, at_done, at_met = phases.last if phases.last[0] == horizon else (0, 0, 0)
        bounds = bounds + [horizon]
        done = done[:-1] + [done[-1] - at_done, at_done]
        met = met[:-1] + [met[-1] - at_met, at_met]

    def phase_stats(start: float, end: float) -> tuple[float, float]:
        """(goodput req/s, SLO attainment) over finishes in [start, end)."""
        span = end - start
        if span <= 0:
            return 0.0, 0.0
        lo, hi = bisect_right(bounds, start), bisect_right(bounds, end)
        finished_in = sum(done[lo:hi])
        if not finished_in:
            return 0.0, 0.0
        return finished_in / span, sum(met[lo:hi]) / finished_in

    windows = []
    prev_end = 0.0
    for i, event in enumerate(events):
        repaired = math.isfinite(event.mttr)
        end = event.time + event.mttr if repaired else horizon
        next_start = events[i + 1].time if i + 1 < len(events) else horizon
        goodput_before, slo_before = phase_stats(prev_end, event.time)
        goodput_during, slo_during = phase_stats(event.time, min(end, next_start))
        goodput_after, slo_after = (
            phase_stats(end, next_start) if repaired else (0.0, 0.0)
        )
        windows.append(
            FaultWindow(
                kind=event.kind,
                target=event.target,
                start=event.time,
                end=(event.time + event.mttr) if repaired else NEVER,
                gpus_lost=event.gpus_lost,
                goodput_before=goodput_before,
                goodput_during=goodput_during,
                goodput_after=goodput_after,
                slo_before=slo_before,
                slo_during=slo_during,
                slo_after=slo_after,
            )
        )
        prev_end = min(end, next_start) if repaired else next_start
    return DegradationReport(
        windows=tuple(windows),
        admitted=admitted,
        finished=finished,
        dropped=dropped,
        shed=shed,
        retry_dropped=retry_dropped,
        unserved=admitted - finished - dropped,
        retries=retries,
        evicted=evicted,
        steps_aborted=steps_aborted,
        lost_tokens=lost_tokens,
    )
