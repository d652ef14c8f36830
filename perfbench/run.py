"""Benchmark entry point: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-decode --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes a traced run of the same seed and reports the
per-layer metrics (see README.md).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it list every unit with its digest of
simulated outputs and exact work counters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import service  # noqa: E402
import simworkloads  # noqa: E402
from simworkloads import reference_seconds  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("serve-decode", "serve-faults", "fabric-ep", "service-jobs")

#: Set-up-only launches before and after the timed run; the median of
#: these samples is reported as setup_s.
SETUP_PROBES_BEFORE = 4
SETUP_PROBES_AFTER = 3

#: Share of ``--seconds`` given to the traced pass; the untraced replay of
#: the same units takes about the rest.
TRACED_SHARE = 0.5

#: Seconds the reference task of ``simworkloads.reference_seconds`` takes on
#: the reference host (a quiet 2-core x86 VM running Python 3.11); items_per_s
#: is reported at that speed.
REFERENCE_S = 0.02

#: Slack beyond ``--seconds`` before a worker process is killed.
WORKER_TIMEOUT_S = 120.0

END_TO_END = {
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Timed layers: (span name, self-time metric).  Each also reports its
#: share of unit time as ``<metric minus its _s/.s suffix>_share_pct``.
TIMED_LAYERS = (
    ("serving.simulator", "serving.simulator.self_s"),
    ("serving.calqueue", "serving.calqueue.s"),
    ("serving.costmodel.decode", "serving.costmodel.decode_s"),
    ("serving.costmodel.prefill", "serving.costmodel.prefill_s"),
    ("serving.kvpool", "serving.kvpool.s"),
    ("serving.scheduler", "serving.scheduler.s"),
    ("serving.report", "serving.report.build_s"),
    ("faults.report", "faults.report.degradation_s"),
    ("serving.workload", "serving.workload.generate_s"),
    ("comm.ep.route", "comm.ep.route_s"),
    ("comm.ep.traffic", "comm.ep.traffic_s"),
    ("comm.ep.flows", "comm.ep.flows_s"),
    ("network.flowsim", "network.flowsim.simulate_s"),
    ("service.http.post", "service.http.post_s"),
    ("service.job.queue", "service.job.queue_s"),
    ("service.job.run", "service.job.run_s"),
    ("service.http.report", "service.http.report_s"),
)

#: Call counts of wrapped layers: (span name, metric).
CALL_COUNTS = (
    ("serving.calqueue", "serving.calqueue.ops"),
    ("serving.costmodel.decode", "serving.costmodel.decode_calls"),
    ("serving.costmodel.prefill", "serving.costmodel.prefill_calls"),
    ("serving.kvpool", "serving.kvpool.ops"),
)

#: Exact counters read from the program's MetricsRegistry, per unit.
SIM_COUNTERS = (
    "serving.decode_steps",
    "serving.prefill_batches",
    "serving.preemptions",
    "serving.fault_retries",
    "serving.fault_shed",
    "comm.ep.flows",
    "network.flowsim.resolves",
)

SERVICE_METRICS = {
    "service.journal.fsync_s": "s",
    "service.journal.fsyncs": "count",
    "sweep.points.evaluated": "count",
    "sweep.points.cache_hits": "count",
    "sweep.cache_hit_ratio": "ratio",
    "sweep.retries": "count",
    "sweep.timeouts": "count",
    "sweep.worker_deaths": "count",
    "service.loop.lag_s": "s",
}


def share_name(metric: str) -> str:
    return metric[:-2] + ("_share_pct" if metric.endswith("_s") else ".share_pct")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units: dict[str, str] = {}
    for _, metric in TIMED_LAYERS:
        units[metric] = "s"
        units[share_name(metric)] = "%"
    for _, metric in CALL_COUNTS:
        units[metric] = "count"
    units["serving.kvpool.refused"] = "count"
    units["serving.host_us_per_step"] = "us"
    for metric in SIM_COUNTERS:
        units[metric] = "count"
    units["network.topology.build_s"] = "s"
    units["network.flowsim.host_us_per_flow"] = "us"
    units.update(SERVICE_METRICS)
    units["service.job.p50_s"] = "s"
    units["service.job.p90_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


# -- program processes ----------------------------------------------------


def spawn_worker(root: Path, env: dict, workload: str, seed: int, mode: str,
                 seconds: float = 0.0, units: int = 0, size: int | None = None,
                 spans_out: Path | None = None) -> tuple[float, dict]:
    """Run ``worker.py`` to completion; returns (set-up seconds, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
           "--units", str(units)]
    if size is not None:
        cmd += ["--size", str(size)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=seconds + WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} worker ({mode}) timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    ready = result = None
    for line in out.decode().splitlines():
        msg = json.loads(line)
        ready = msg.get("ready", ready)
        result = msg.get("result", result)
    if ready is None:
        raise RuntimeError(f"{workload} worker ({mode}) never became ready")
    return ready - launched, result or {}


def compare_runs(traced: list[dict], untraced: list[dict]) -> None:
    """Mark traced units whose digest or counters differ from the untraced
    run of the same units as failed."""
    for a, b in zip(traced, untraced):
        if a["digest"] != b["digest"] or a["counters"] != b["counters"]:
            a["failures"].append(f"traced {a['digest']} {a['counters']} != "
                                 f"untraced {b['digest']} {b['counters']}")
    if len(untraced) != len(traced):
        traced[-1]["failures"].append(f"untraced replay ran {len(untraced)} units")


# -- workloads ------------------------------------------------------------


def reference_scale(ref_s: float) -> float:
    """Factor taking host seconds measured while the reference task took
    ``ref_s`` to seconds on the reference host."""
    return REFERENCE_S / ref_s


def interquartile_mean(values) -> float:
    """Mean of the middle half of ``values``: robust to bursts like a median,
    but steadier when a run has only ten or so units."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def unit_rate(units: list[dict]) -> float:
    """Items per second of a typical unit, at the reference host speed.

    The host runs at varying speed: other tenants slow every process on it
    by up to 2x, in phases from seconds to minutes, and the requests per
    host second of a 20 s serve-decode run moved by 35% between runs of
    identical code.  Each unit's host seconds are scaled by the reference
    task timed just before and after it, and the interquartile mean over
    units drops bursts the reference task did not see.
    """
    return interquartile_mean(
        u["items"] / (u["host_s"] * reference_scale(u["ref_s"])) for u in units
    )


def setup_median(probe, run):
    """Median set-up seconds, at the reference host speed, and ``run()``'s result.

    ``probe()`` launches the program and returns its set-up seconds.  The
    samples straddle the timed run so that one slow phase of the host does
    not set the median; each is scaled like a unit, by the reference task
    (median of three) timed just before and after it.
    """

    def ref():
        return statistics.median(reference_seconds() for _ in range(3))

    def samples(n):
        out, before = [], ref()
        for _ in range(n):
            seconds = probe()
            after = ref()
            out.append(seconds * reference_scale((before + after) / 2))
            before = after
        return out

    first = samples(SETUP_PROBES_BEFORE)
    result = run()
    return statistics.median(first + samples(SETUP_PROBES_AFTER)), result


def sim_untraced(root, env, workload, seed, seconds, size=None):
    setup_s, (_, result) = setup_median(
        lambda: spawn_worker(root, env, workload, seed, "setup", size=size)[0],
        lambda: spawn_worker(root, env, workload, seed, "run", seconds, size=size),
    )
    return result["units"], {
        "items_per_s": unit_rate(result["units"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": setup_s,
    }


def sim_traced(root, env, workload, seed, seconds, size=None):
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    _, traced = spawn_worker(root, env, workload, seed, "traced", seconds * TRACED_SHARE,
                             size=size, spans_out=out_dir / f"spans-{workload}.npz")
    units = traced["units"]
    _, replay = spawn_worker(root, env, workload, seed, "replay", seconds,
                             units=len(units), size=size)
    compare_runs(units, replay["units"])
    n = len(units)
    layers = traced["layers"]
    unit_time = layers[tracing.UNIT]["total_s"]
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    for span, metric in TIMED_LAYERS:
        if span in layers:
            metrics[metric] = layers[span]["self_s"] / n
            metrics[share_name(metric)] = 100.0 * layers[span]["self_s"] / unit_time
    for span, metric in CALL_COUNTS:
        if span in layers:
            metrics[metric] = layers[span]["calls"] / n
    metrics["serving.kvpool.refused"] = traced["refused"].get("serving.kvpool", 0) / n
    for name in SIM_COUNTERS:
        metrics[name] = sum(u["counters"].get(name, 0) for u in units) / n
    replay_time = sum(u["host_s"] for u in replay["units"])
    steps = metrics["serving.decode_steps"] + metrics["serving.prefill_batches"]
    if steps:
        metrics["serving.host_us_per_step"] = 1e6 * replay_time / n / steps
    if "network.topology" in layers:
        metrics["network.topology.build_s"] = layers["network.topology"]["outside_s"]
    if metrics["comm.ep.flows"]:
        metrics["network.flowsim.host_us_per_flow"] = (
            1e6 * layers["network.flowsim"]["self_s"] / n / metrics["comm.ep.flows"]
        )
    metrics["trace.overhead_pct"] = 100.0 * (unit_time / replay_time - 1.0)
    return units, metrics


def service_untraced(root, env, seed, seconds):
    def probe():
        with service.Server(root, env) as server:
            return server.setup_s

    def run():
        with service.Server(root, env) as server:
            units = service.run_jobs(server, seed, seconds=seconds)
            return units, simworkloads.peak_rss_mb(server.proc.pid)

    setup_s, (units, rss) = setup_median(probe, run)
    return units, {
        "items_per_s": unit_rate(units),
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }


def service_traced(root, env, seed, seconds):
    with service.Server(root, env) as server:
        before = service.server_metrics(server)
        units = service.run_jobs(server, seed, seconds=seconds * TRACED_SHARE)
        after = service.server_metrics(server)
        job_metrics = [server.request("GET", f"/jobs/{u['id']}")[1].get("metrics", {})
                       for u in units if "id" in u]
    with service.Server(root, env) as server:
        replay = service.run_jobs(server, seed, count=len(units))
    compare_runs(units, replay)
    n = len(units)
    total = sum(u["host_s"] for u in units)
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    for _, metric in TIMED_LAYERS:
        if metric.startswith("service."):
            spent = sum(u["spans"].get(metric, 0.0) for u in units)
            metrics[metric] = spent / n
            metrics[share_name(metric)] = 100.0 * spent / total
    metrics.update(service.metric_deltas(before, after, job_metrics))
    # Client spans cost nothing measurable, so the replayed jobs count too:
    # together they give p90 at least ten samples beyond it.
    latencies = [u["host_s"] for u in units + replay]
    metrics["service.job.p50_s"] = statistics.median(latencies)
    metrics["service.job.p90_s"] = service.percentile(latencies, 90)
    metrics["trace.overhead_pct"] = 100.0 * (total / sum(u["host_s"] for u in replay) - 1.0)
    return units, metrics


def fingerprint() -> dict:
    versions = {}
    for dist in ("numpy", "networkx"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), **versions}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, default=None,
                    help="override requests per unit (serving) or cluster nodes "
                    "(fabric-ep); for quick tests only")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {root} has no src/repro; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    if args.workload == "service-jobs":
        fn = service_traced if args.trace else service_untraced
        units, metrics = fn(root, env, args.seed, args.seconds)
    else:
        fn = sim_traced if args.trace else sim_untraced
        units, metrics = fn(root, env, args.workload, args.seed, args.seconds, args.size)

    failed = sum(1 for u in units if u["failures"])
    for u in units:
        print(f"unit {u['index']} host_s={u['host_s']:.6f} ref_s={u['ref_s']:.6f} "
              f"digest={u['digest']} "
              f"counters={json.dumps(u['counters'], sort_keys=True)}"
              + (f" FAILED {'; '.join(u['failures'])}" if u["failures"] else ""))
    print(f"host {json.dumps(fingerprint(), sort_keys=True)}")
    print(f"run digest={simworkloads.digest([u['digest'] for u in units])} units={len(units)}")
    times = [u["host_s"] for u in units]
    print(f"unit host_s p50={statistics.median(times)!r} "
          f"p90={service.percentile(times, 90)!r} n={len(times)}")
    if args.workload == "service-jobs" and not args.trace:
        print("peak_rss_mb is the repro serve process only; forked sweep workers are "
              "separate processes and are not included")
    units_of = per_layer_units() if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units_of[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
