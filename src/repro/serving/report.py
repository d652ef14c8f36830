"""Simulation output: latency distributions, traces, goodput.

This is the payoff of request-level simulation over the closed forms in
:mod:`repro.inference`: not one steady-state TPOT but the full TTFT /
TPOT / end-to-end *distributions*, queue-depth and KV-occupancy traces,
and goodput under explicit SLOs — the quantities §2.3.1's
disaggregation argument is actually about (tail latency under bursts).

Reports are frozen dataclasses of plain floats/tuples, so two runs of a
seeded simulator can be compared with ``==`` to assert determinism.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..obs.metrics import Histogram, TimeSeries
from .workload import Request

if TYPE_CHECKING:  # circular at runtime: repro.faults builds on this module
    from ..faults.report import DegradationReport


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of one latency metric (seconds)."""

    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @staticmethod
    def from_samples(samples: "list[float] | np.ndarray") -> "LatencyStats":
        """Compute the summary (zeros for an empty sample set)."""
        if len(samples) == 0:
            return LatencyStats(0.0, 0.0, 0.0, 0.0, 0.0)
        arr = np.asarray(samples, dtype=np.float64)
        p50, p95, p99 = np.percentile(arr, [50, 95, 99])
        return LatencyStats(
            mean=float(arr.mean()),
            p50=float(p50),
            p95=float(p95),
            p99=float(p99),
            max=float(arr.max()),
        )

    @staticmethod
    def from_histogram(hist: Histogram) -> "LatencyStats":
        """Summary from a streaming geometric-bucket histogram.

        Mean, count and max are exact (running aggregates); the
        percentiles carry the histogram's bounded relative error
        (≈1% at the default growth) — the default-mode trade that
        makes report memory independent of request count.
        """
        if hist.count == 0:
            return LatencyStats(0.0, 0.0, 0.0, 0.0, 0.0)
        return LatencyStats(
            mean=hist.mean,
            p50=hist.percentile(50),
            p95=hist.percentile(95),
            p99=hist.percentile(99),
            max=hist.max,
        )


@dataclass(frozen=True)
class SLO:
    """Service-level objectives a request must meet to count as goodput."""

    ttft: float = 2.0
    tpot: float = 0.1

    def met_by(self, request: Request) -> bool:
        """Whether a completed request satisfied both objectives.

        Degenerate requests — a single generated token, so no
        inter-token gaps (``request.has_tpot`` is False) — have no
        TPOT to judge: the TPOT objective is vacuously met and only
        TTFT decides.  This is the explicit form of the previous
        accidental behavior (TPOT defaulted to 0.0, which always
        passed) and is pinned by ``tests/test_serving_report.py``.
        """
        tpot_ok = request.tpot <= self.tpot if request.has_tpot else True
        return request.ttft <= self.ttft and tpot_ok


@dataclass(frozen=True)
class SimReport:
    """Everything one simulation run measured."""

    # -- population ------------------------------------------------------
    completed: int
    preemptions: int
    duration: float
    tokens_generated: int
    # -- latency distributions ------------------------------------------
    ttft: LatencyStats
    tpot: LatencyStats
    e2e: LatencyStats
    # -- rates -----------------------------------------------------------
    throughput_tokens_per_s: float
    goodput_requests_per_s: float
    slo_attainment: float
    # -- dynamics --------------------------------------------------------
    mean_queue_depth: float
    max_queue_depth: int
    mean_kv_occupancy: float
    peak_kv_occupancy: float
    decode_steps: int
    prefill_batches: int
    mtp_acceptance_measured: float
    # -- traces (time, value) pairs; tuples so the report hashes/compares
    queue_depth_trace: tuple[tuple[float, int], ...]
    kv_occupancy_trace: tuple[tuple[float, float], ...]
    # -- fault injection (None unless a fault schedule touched the run) --
    degradation: "DegradationReport | None" = None
    # -- live telemetry (None unless SimConfig.window_s was set) ---------
    # windows: the mergeable rollup from repro.obs.windows (raw bucket
    # state, so cross-point rollups merge exactly); alerts: the SLO
    # monitor's fire/resolve timeline ([] = monitored but quiet).
    windows: tuple[dict, ...] | None = None
    alerts: tuple[dict, ...] | None = None


def report_asdict(report: SimReport) -> dict:
    """``dataclasses.asdict`` with the baseline shape preserved.

    Optional sections (``degradation``, ``windows``, ``alerts``) are
    stripped when ``None``, keeping the serialized report
    byte-identical to the goldens that predate each feature (and to
    CLI ``--json`` consumers): fault-free runs match pre-fault-engine
    output, un-windowed runs match pre-telemetry output.
    """
    payload = asdict(report)
    for optional in ("degradation", "windows", "alerts"):
        if payload.get(optional) is None:
            payload.pop(optional, None)
    return payload


def compact_record(
    report: SimReport,
    *,
    gpus: int | None = None,
    gpu_cost_per_hour: float | None = None,
) -> dict:
    """A flat, JSON-able summary record of one run.

    This is the per-point payload the sweep engine and the benchmark
    ablations share: every headline scalar (latency percentiles in
    display units, rates, dynamics), none of the O(requests) traces —
    small enough to cache per grid point and diff as a committed
    baseline.  Fault runs append the degradation totals under a
    ``"degradation"`` sub-dict.

    Passing ``gpus`` + ``gpu_cost_per_hour`` appends the objective-ready
    economics fields the co-design optimizer (:mod:`repro.optimize`)
    scores against, derived entirely from existing report data:

    * ``cost_per_token`` — ``gpus × $/h ÷ 3600 ÷ throughput`` ($/token;
      ``None`` when the run produced no tokens, which an objective
      treats as unscorable rather than infinitely cheap);
    * ``goodput_tokens_per_s`` — token throughput discounted by SLO
      attainment, the paper's "useful tokens" rate.

    Both are stripped when economics are not configured, so default
    payloads (goldens, cached sweep entries, BENCH baselines) stay
    byte-identical to pre-economics output.
    """
    ms = 1e3
    record = {
        "completed": report.completed,
        "preemptions": report.preemptions,
        "duration_s": report.duration,
        "tokens_generated": report.tokens_generated,
        "ttft_p50_ms": report.ttft.p50 * ms,
        "ttft_p99_ms": report.ttft.p99 * ms,
        "tpot_p50_ms": report.tpot.p50 * ms,
        "tpot_p99_ms": report.tpot.p99 * ms,
        "e2e_p50_s": report.e2e.p50,
        "e2e_p99_s": report.e2e.p99,
        "throughput_tokens_per_s": report.throughput_tokens_per_s,
        "goodput_requests_per_s": report.goodput_requests_per_s,
        "slo_attainment": report.slo_attainment,
        "mtp_acceptance_measured": report.mtp_acceptance_measured,
        "decode_steps": report.decode_steps,
        "prefill_batches": report.prefill_batches,
        "mean_queue_depth": report.mean_queue_depth,
        "max_queue_depth": report.max_queue_depth,
        "mean_kv_occupancy": report.mean_kv_occupancy,
        "peak_kv_occupancy": report.peak_kv_occupancy,
    }
    if gpu_cost_per_hour is not None:
        if gpus is None:
            raise ValueError("economics fields need both gpus and gpu_cost_per_hour")
        throughput = report.throughput_tokens_per_s
        record["cost_per_token"] = (
            gpus * gpu_cost_per_hour / 3600.0 / throughput if throughput > 0 else None
        )
        record["goodput_tokens_per_s"] = throughput * report.slo_attainment
    d = report.degradation
    if d is not None:
        record["degradation"] = {
            "dropped": d.dropped,
            "shed": d.shed,
            "retries": d.retries,
            "retry_dropped": d.retry_dropped,
            "evicted": d.evicted,
            "unserved": d.unserved,
            "lost_tokens": d.lost_tokens,
            "steps_aborted": d.steps_aborted,
            "accounted": d.accounted,
        }
    # Telemetry sections ride along only when windowing was configured,
    # so default sweep payloads (and their cached entries, goldens and
    # BENCH_*.json baselines) stay byte-identical.
    if report.windows is not None:
        record["windows"] = [dict(w) for w in report.windows]
    if report.alerts is not None:
        record["alerts"] = [dict(a) for a in report.alerts]
    return record


class ReportTally:
    """Everything a :class:`SimReport` is built from, folded in as the run goes.

    The simulator feeds :meth:`finish` once per completed request and
    :meth:`sample` once per channel sample.  The tally always keeps the
    counts, the token sum, the three latency histograms and the running
    queue/KV sums and maxima — O(1) memory.  With ``exact=True``
    (``SimConfig.record_requests``) it also keeps compact float64
    columns of each finished request's rid and latencies, for exact
    percentiles; the traces keep whatever resolution the two series
    are configured for.
    """

    __slots__ = (
        "slo", "completed", "slo_met", "tokens", "ttft", "tpot", "e2e",
        "samples", "queue_sum", "queue_max", "kv_sum", "kv_peak",
        "queue_trace", "kv_trace", "columns",
    )

    def __init__(
        self, slo: SLO, queue_trace: TimeSeries, kv_trace: TimeSeries, *, exact: bool
    ) -> None:
        self.slo = slo
        self.completed = self.slo_met = self.tokens = 0
        self.ttft = Histogram("ttft")
        self.tpot = Histogram("tpot")
        self.e2e = Histogram("e2e")
        self.samples = self.queue_sum = self.queue_max = 0
        self.kv_sum = self.kv_peak = 0.0
        self.queue_trace = queue_trace
        self.kv_trace = kv_trace
        # rid, ttft, tpot (NaN when undefined), e2e — in finish order.
        self.columns = tuple(array("d") for _ in range(4)) if exact else None

    def finish(self, request: Request) -> bool:
        """Fold one completed request in; returns whether it met the SLO."""
        ttft, e2e = request.ttft, request.e2e
        self.ttft.observe(ttft)
        self.e2e.observe(e2e)
        tpot = math.nan
        if request.has_tpot:
            tpot = request.tpot
            self.tpot.observe(tpot)
        self.completed += 1
        self.tokens += request.generated
        met = self.slo.met_by(request)
        self.slo_met += met
        if self.columns is not None:
            for column, value in zip(self.columns, (request.rid, ttft, tpot, e2e)):
                column.append(value)
        return met

    def sample(self, time: float, depth: int, occupancy: float) -> None:
        """Fold one queue-depth / KV-occupancy sample in."""
        self.samples += 1
        self.queue_sum += depth
        self.kv_sum += occupancy
        if depth > self.queue_max:
            self.queue_max = depth
        if occupancy > self.kv_peak:
            self.kv_peak = occupancy
        self.queue_trace.record(time, depth)
        self.kv_trace.record(time, occupancy)


def build_report(
    tally: ReportTally,
    *,
    duration: float,
    preemptions: int,
    decode_steps: int,
    prefill_batches: int,
    draft_attempts: int,
    draft_accepted: int,
    degradation: "DegradationReport | None" = None,
    windows: tuple[dict, ...] | None = None,
    alerts: tuple[dict, ...] | None = None,
) -> SimReport:
    """Aggregate a run's :class:`ReportTally` into a :class:`SimReport`.

    Counts, rates and maxima are exact either way.  With exact columns,
    latency stats come from every sample in rid order and channel means
    from the full traces (the float paths the goldens pin); otherwise
    from the histograms (bounded relative error) and running sums.

    The TPOT distribution covers only requests where TPOT is defined
    (two or more generated tokens); degenerate single-token requests
    would otherwise pull the percentiles toward an artificial 0.0.
    They still count toward completion, TTFT/E2E and goodput (see
    :meth:`SLO.met_by`).
    """
    queue_trace = tally.queue_trace.samples
    kv_trace = tally.kv_trace.samples
    if tally.columns is not None:
        rids, ttfts, tpots, e2es = (np.frombuffer(c) for c in tally.columns)
        order = np.argsort(rids)
        tpots = tpots[order]
        ttft = LatencyStats.from_samples(ttfts[order])
        tpot = LatencyStats.from_samples(tpots[~np.isnan(tpots)])
        e2e = LatencyStats.from_samples(e2es[order])
        queue_depths = [d for _, d in queue_trace]
        kv_levels = [v for _, v in kv_trace]
        mean_queue = float(np.mean(queue_depths)) if queue_depths else 0.0
        mean_kv = float(np.mean(kv_levels)) if kv_levels else 0.0
    else:
        ttft = LatencyStats.from_histogram(tally.ttft)
        tpot = LatencyStats.from_histogram(tally.tpot)
        e2e = LatencyStats.from_histogram(tally.e2e)
        samples = tally.samples
        mean_queue = tally.queue_sum / samples if samples else 0.0
        mean_kv = tally.kv_sum / samples if samples else 0.0
    completed = tally.completed
    return SimReport(
        completed=completed,
        preemptions=preemptions,
        duration=duration,
        tokens_generated=tally.tokens,
        ttft=ttft,
        tpot=tpot,
        e2e=e2e,
        throughput_tokens_per_s=tally.tokens / duration if duration > 0 else 0.0,
        goodput_requests_per_s=tally.slo_met / duration if duration > 0 else 0.0,
        slo_attainment=tally.slo_met / completed if completed else 0.0,
        mean_queue_depth=mean_queue,
        max_queue_depth=tally.queue_max,
        mean_kv_occupancy=mean_kv,
        peak_kv_occupancy=tally.kv_peak,
        decode_steps=decode_steps,
        prefill_batches=prefill_batches,
        mtp_acceptance_measured=draft_accepted / draft_attempts if draft_attempts else 0.0,
        queue_depth_trace=tuple(queue_trace),
        kv_occupancy_trace=tuple(kv_trace),
        degradation=degradation,
        windows=windows,
        alerts=alerts,
    )


#: Former name of the streaming builder, kept for callers that look it up.
build_streaming_report = build_report
