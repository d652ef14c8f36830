"""The three simulator workloads: inputs from the seed, one timed unit, output checks.

Each workload is a class with ``setup()`` (the fixed structures built
before the first timed unit), ``unit_input(i)`` (the generated input of
unit ``i``, a pure function of the workload seed and ``i``), ``run(inp)``
(the timed call into the program) and ``check(inp, out)`` (the untimed
output check, returning a digest of simulated outputs, the exact work
counters, and the list of failed checks).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import random
from time import perf_counter

import numpy as np


def unit_seed(workload: str, seed: int, index: int) -> int:
    """Seed of one unit, independent of any seeding code in the program."""
    raw = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(raw[:4], "little")


def digest(values) -> str:
    """Short hash of simulated outputs (never host time)."""
    text = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM not found for process {pid}")


def reference_seconds() -> float:
    """Host seconds of a fixed pure-Python task (heap, dict, float work).

    It uses nothing from the program, so its time tracks only how fast
    the host runs the interpreter at that moment.
    """
    t0 = perf_counter()
    rng = random.Random(0)
    heap: list = []
    counts: dict = {}
    acc = 0.0
    for i in range(20_000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
    return perf_counter() - t0


class _Serving:
    """Shared unit for the two serving workloads."""

    name = ""
    requests = 0  # requests per unit

    def __init__(self, seed: int, requests: int | None = None) -> None:
        self.seed = seed
        if requests is not None:
            self.requests = requests

    def setup(self) -> None:
        from repro import serving  # noqa: F401  (import is part of set-up)

    def items(self, out) -> int:
        return self.requests

    def run(self, cfg):
        from repro.obs import MetricsRegistry
        from repro.serving import ServingSimulator

        metrics = MetricsRegistry()
        report = ServingSimulator(cfg, metrics=metrics).run()
        return report, metrics.snapshot()

    def check(self, cfg, out):
        report, snap = out
        counters = {
            name: int(snap.get(name, 0))
            for name in (
                "serving.decode_steps",
                "serving.prefill_batches",
                "serving.preemptions",
                "serving.fault_retries",
                "serving.fault_shed",
                "serving.requests_completed",
                "serving.requests_dropped",
            )
        }
        admitted = cfg.workload.num_requests
        completed = counters["serving.requests_completed"]
        dropped = counters["serving.requests_dropped"]
        failures = []
        deg = report.degradation
        unserved = deg.unserved if deg is not None else 0
        if completed + dropped + unserved != admitted:
            failures.append(
                f"completed {completed} + dropped {dropped} + unserved {unserved} != admitted {admitted}"
            )
        if report.completed != completed:
            failures.append(f"report completed {report.completed} != counter {completed}")
        if cfg.faults is not None and cfg.faults.events and (deg is None or not deg.accounted):
            failures.append("degradation report missing or not accounted")
        stats = [
            report.completed, report.duration, report.tokens_generated,
            report.decode_steps, report.prefill_batches, report.preemptions,
            report.ttft.p50, report.ttft.p99, report.tpot.p50, report.tpot.p99,
            report.e2e.p50, report.e2e.p99, report.peak_kv_occupancy,
        ]
        if deg is not None:
            stats += [deg.finished, deg.dropped, deg.shed, deg.unserved, len(deg.windows)]
        return digest(stats), counters, failures


class ServeDecode(_Serving):
    """Fault-free streaming disaggregated serving: the decode loop dominates."""

    name = "serve-decode"
    requests = 1000

    def unit_input(self, index: int):
        from repro.serving import DISAGGREGATED, SimConfig, WorkloadSpec

        return SimConfig(
            workload=WorkloadSpec(
                request_rate=8.0, num_requests=self.requests, output_mean=512
            ),
            mode=DISAGGREGATED,
            prefill_gpus=2,
            decode_gpus=6,
            seed=unit_seed(self.name, self.seed, index),
        )


class ServeFaults(_Serving):
    """Colocated 8-GPU pool with sampled GPU faults, so record mode is forced."""

    name = "serve-faults"
    requests = 10_000
    rate = 12.0

    def unit_input(self, index: int):
        from repro.faults import FaultSchedule, RecoveryPolicy
        from repro.serving import COLOCATED, SimConfig, WorkloadSpec

        useed = unit_seed(self.name, self.seed, index)
        return SimConfig(
            workload=WorkloadSpec(
                request_rate=self.rate,
                num_requests=self.requests,
                prompt_mean=3072,
                output_mean=64,
                arrival="bursty",
            ),
            mode=COLOCATED,
            prefill_gpus=2,
            decode_gpus=6,
            seed=useed,
            faults=FaultSchedule.sampled(
                100.0, self.requests / self.rate, useed, kind="gpu", mttr=40.0
            ),
            recovery=RecoveryPolicy(retry_budget=2, degraded_queue_limit=64),
        )


class FabricEP:
    """DeepSeek-V3 EP dispatch/combine stages on a 16-node MPFT cluster."""

    name = "fabric-ep"
    nodes = 16
    tokens_per_gpu = 128

    def __init__(self, seed: int, nodes: int | None = None) -> None:
        self.seed = seed
        if nodes is not None:
            self.nodes = nodes

    def setup(self) -> None:
        from repro import network
        from repro.comm.ep import DEEPSEEK_V3_EP, EPDeployment

        cluster = network.build_mpft_cluster(self.nodes)
        self.deployment = EPDeployment(cluster, DEEPSEEK_V3_EP)

    def items(self, out) -> int:
        return 1

    def unit_input(self, index: int):
        stage = "dispatch" if index % 2 == 0 else "combine"
        return stage, unit_seed(self.name, self.seed, index)

    def run(self, inp):
        from repro.network import FlowSimulator
        from repro.obs import MetricsRegistry

        stage, useed = inp
        dep = self.deployment
        decisions = dep.route_tokens(self.tokens_per_gpu, np.random.default_rng(useed))
        build = dep.dispatch_traffic if stage == "dispatch" else dep.combine_traffic
        flows = dep.traffic_to_flows(*build(decisions))
        metrics = MetricsRegistry()
        result = FlowSimulator(dep.cluster.topology, metrics=metrics).simulate(
            flows, mode="event"
        )
        return flows, result, metrics.snapshot()

    def check(self, inp, out):
        from repro.network import FlowSimulator

        flows, result, snap = out
        counters = {
            "comm.ep.flows": len(flows),
            "network.flowsim.resolves": len(snap.get("network.link_utilization.mean", ())),
        }
        failures = []
        done = [t for t in result.completion.values() if math.isfinite(t)]
        if len(done) != len(flows):
            failures.append(f"{len(flows) - len(done)} of {len(flows)} flows did not complete")
        # Fluid bound: no schedule drains a link faster than its capacity.
        # Drain mode adds the worst startup latency of any flow to the
        # largest per-link drain time; that flow need not cross the
        # bottleneck link, so the latency is taken off again.
        drain = FlowSimulator(self.deployment.cluster.topology).simulate(flows, mode="drain")
        bound = drain.makespan - max((f.latency for f in flows), default=0.0)
        if result.makespan < bound * (1 - 1e-9):
            failures.append(f"event makespan {result.makespan!r} below fluid bound {bound!r}")
        times = sorted(result.completion.values())
        stats = [
            inp[0], len(flows), result.makespan, times[len(times) // 2],
            sum(f.size for f in flows), counters["network.flowsim.resolves"],
        ]
        return digest(stats), counters, failures


WORKLOADS = {cls.name: cls for cls in (ServeDecode, ServeFaults, FabricEP)}
