"""Fault-phase accounting pinned against a per-request reference.

The degradation report's *before* / *during* / *after* figures are
folded into per-segment counters as requests finish.  These tests
rebuild the same figures the slow way — from every ``(finish_time,
slo_met)`` pair, filtered phase by phase — over random fault schedules
(overlapping windows, permanent faults, faults after the last arrival,
finishes on the run horizon), and check that a default-mode fault run
keeps no :class:`Request` alive once it is done.
"""

from __future__ import annotations

import gc
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import NEVER, FaultEvent, FaultSchedule, FaultWindow, RecoveryPolicy
from repro.serving import ServingSimulator, SimConfig, WorkloadSpec
from repro.serving.workload import Request


def _phase_stats(
    finishes: list[tuple[float, bool]], start: float, end: float
) -> tuple[float, float]:
    """(goodput req/s, SLO attainment) over finishes in [start, end)."""
    span = end - start
    if span <= 0:
        return 0.0, 0.0
    done = [met for t, met in finishes if start <= t < end]
    if not done:
        return 0.0, 0.0
    return len(done) / span, sum(done) / len(done)


def _reference_windows(
    finishes: list[tuple[float, bool]], events: tuple[FaultEvent, ...], horizon: float
) -> tuple[FaultWindow, ...]:
    """Fault windows computed by filtering every finish per phase."""
    windows = []
    prev_end = 0.0
    for i, event in enumerate(events):
        repaired = math.isfinite(event.mttr)
        end = event.time + event.mttr if repaired else horizon
        next_start = events[i + 1].time if i + 1 < len(events) else horizon
        before = _phase_stats(finishes, prev_end, event.time)
        during = _phase_stats(finishes, event.time, min(end, next_start))
        after = _phase_stats(finishes, end, next_start) if repaired else (0.0, 0.0)
        windows.append(
            FaultWindow(
                kind=event.kind,
                target=event.target,
                start=event.time,
                end=(event.time + event.mttr) if repaired else NEVER,
                gpus_lost=event.gpus_lost,
                goodput_before=before[0],
                goodput_during=during[0],
                goodput_after=after[0],
                slo_before=before[1],
                slo_during=during[1],
                slo_after=after[1],
            )
        )
        prev_end = min(end, next_start) if repaired else next_start
    return tuple(windows)


def _run_capturing_finishes(config: SimConfig):
    """Run ``config``; return the report and every (finish_time, met) pair."""
    finishes: list[tuple[float, bool]] = []
    original = ServingSimulator._finish_request

    def capture(self, request, now, *args, **kwargs):
        original(self, request, now, *args, **kwargs)
        finishes.append((request.finish_time, self.config.slo.met_by(request)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ServingSimulator, "_finish_request", capture)
        report = ServingSimulator(config).run()
    return report, finishes


_events = st.lists(
    st.builds(
        FaultEvent,
        time=st.floats(0.0, 30.0, allow_nan=False),
        kind=st.sampled_from(("gpu", "node")),
        target=st.sampled_from(("", "prefill", "decode", "pool")),
        count=st.integers(1, 3),
        mttr=st.one_of(st.just(math.inf), st.floats(0.05, 12.0)),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(
    events=_events,
    mode=st.sampled_from(("colocated", "disaggregated")),
    num_requests=st.integers(1, 200),
    rate=st.floats(4.0, 24.0),
    seed=st.integers(0, 2**16),
    record=st.booleans(),
)
def test_degradation_matches_per_request_reference(
    events, mode, num_requests, rate, seed, record
):
    config = SimConfig(
        workload=WorkloadSpec(
            request_rate=rate,
            num_requests=num_requests,
            prompt_mean=256,
            output_mean=32,
            arrival="bursty",
        ),
        mode=mode,
        prefill_gpus=2,
        decode_gpus=6,
        seed=seed,
        faults=FaultSchedule(events=tuple(events)),
        recovery=RecoveryPolicy(retry_budget=2, degraded_queue_limit=24),
        record_requests=record,
    )
    report, finishes = _run_capturing_finishes(config)
    degradation = report.degradation
    schedule = config.faults.for_kinds(("gpu", "node"))
    assert degradation.windows == _reference_windows(finishes, schedule, report.duration)
    assert degradation.finished == len(finishes) == report.completed
    assert degradation.accounted


def test_reference_covers_a_finish_on_the_horizon():
    """The half-open last phase must exclude a finish at the final clock."""
    config = SimConfig(
        workload=WorkloadSpec(request_rate=8.0, num_requests=60, arrival="bursty"),
        mode="disaggregated",
        seed=3,
        faults=FaultSchedule(events=(FaultEvent(time=2.0, kind="gpu", target="decode"),)),
    )
    report, finishes = _run_capturing_finishes(config)
    assert max(t for t, _ in finishes) == report.duration
    schedule = config.faults.events
    assert report.degradation.windows == _reference_windows(
        finishes, schedule, report.duration
    )


def test_fault_run_retains_no_requests():
    """Faults no longer force per-request records: once a default-mode
    fault run returns, no Request object is left alive."""
    config = SimConfig(
        workload=WorkloadSpec(request_rate=12.0, num_requests=3000, arrival="bursty"),
        mode="disaggregated",
        seed=1,
        faults=FaultSchedule.sampled(40.0, 250.0, seed=1, mttr=20.0, targets=("decode",)),
    )
    simulator = ServingSimulator(config)
    report = simulator.run()
    assert report.degradation is not None and report.completed > 0
    gc.collect()
    alive = sum(1 for obj in gc.get_objects() if isinstance(obj, Request))
    assert alive == 0
