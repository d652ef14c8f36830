"""The service-jobs workload: one closed-loop client against ``repro serve``.

The server runs as a subprocess with fresh temporary state and cache
directories inside the checkout, ``--job-workers 1`` and sweep fan-out
2.  The client (this process, stdlib ``http.client`` only) submits a
job, follows its SSE stream to the terminal event, then fetches the
report; the next job is sent only after that.  Each job is a 4-point
``serving`` grid, supervised: after the first job two of its points
repeat the previous job's new configs (cache hits) and two are new.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from simworkloads import digest, reference_seconds, unit_seed

#: Per-point serving configuration shared by every job (small so that a
#: job's host time is dominated by the service and sweep layers).
BASE = {"num_requests": 40, "output_mean": 128, "prompt_mean": 512}
JOB = {"target": "serving", "workers": 2, "timeout_s": 60, "max_attempts": 2}
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def rate_pairs(seed: int):
    """Endless stream of distinct request-rate pairs drawn from the seed."""
    rng = np.random.default_rng(unit_seed("service-jobs", seed, 0))
    seen = set()
    while True:
        pair = []
        while len(pair) < 2:
            rate = round(float(rng.uniform(1.0, 6.0)), 4)
            if rate not in seen:
                seen.add(rate)
                pair.append(rate)
        yield pair


def job_payloads(seed: int):
    """Job ``j`` covers rate pairs ``j`` and ``j + 1``: pair ``j`` was new in
    job ``j - 1`` and is served from the cache, pair ``j + 1`` is new."""
    pairs = rate_pairs(seed)
    prev = next(pairs)
    while True:
        new = next(pairs)
        yield {**JOB, "grid": {"request_rate": prev + new}, "base": BASE, "seed": seed}
        prev = new


class Server:
    """A ``repro serve`` subprocess; use as a context manager."""

    def __init__(self, root: Path, env: dict) -> None:
        self.root = root
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.tmp: str | None = None
        self.port = 0
        self.setup_s = 0.0

    def __enter__(self) -> "Server":
        scratch = self.root / ".perfbench_out"
        scratch.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="serve-", dir=scratch)
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--state-dir", os.path.join(self.tmp, "state"),
            "--cache-dir", os.path.join(self.tmp, "cache"),
            "--job-workers", "1", "--max-sweep-workers", "2",
        ]
        launched = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            line = self._read_line(launched + START_TIMEOUT_S)
            self.port = int(line.rsplit(":", 1)[1])
            while True:
                try:
                    status, _ = self.request("GET", "/healthz")
                except OSError:
                    status = 0
                if status == 200:
                    break
                if time.monotonic() > launched + START_TIMEOUT_S:
                    raise RuntimeError("server never answered /healthz")
                time.sleep(0.002)
            self.setup_s = time.monotonic() - launched
        except BaseException:
            self.__exit__()
            raise
        return self

    def _read_line(self, deadline: float) -> str:
        fd = self.proc.stdout.fileno()
        buf = b""
        while b"listening on" not in buf or not buf.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError("server did not report its port in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("server exited before listening")
            buf += chunk
        line = next(l for l in buf.decode().splitlines() if "listening on" in l)
        return line.strip()

    def __exit__(self, *exc) -> None:
        try:
            if self.proc is not None:
                if self.proc.poll() is None:
                    self.proc.send_signal(signal.SIGTERM)
                    try:
                        self.proc.wait(timeout=STOP_TIMEOUT_S)
                    except subprocess.TimeoutExpired:
                        self.proc.kill()
                        self.proc.wait()
                self.proc.stdout.close()
        finally:
            if self.tmp is not None:
                shutil.rmtree(self.tmp, ignore_errors=True)

    # -- HTTP ------------------------------------------------------------

    def _conn(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def request(self, method: str, path: str, body: dict | None = None):
        conn = self._conn()
        try:
            data = None if body is None else json.dumps(body).encode()
            headers = {} if body is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=data, headers=headers)
            resp = conn.getresponse()
            payload = resp.read()
            return resp.status, (json.loads(payload) if payload else None)
        finally:
            conn.close()

    def events(self, job_id: str):
        """Yield ``(event, data, receive_time)`` until the terminal event."""
        conn = self._conn()
        try:
            conn.request("GET", f"/jobs/{job_id}/events", headers={"Accept": "text/event-stream"})
            resp = conn.getresponse()
            if resp.status != 200:
                raise RuntimeError(f"SSE request failed with {resp.status}")
            event, data = None, []
            while True:
                raw = resp.readline()
                if not raw:
                    return
                line = raw.decode().rstrip("\r\n")
                if line.startswith("event:"):
                    event = line[6:].strip()
                elif line.startswith("data:"):
                    data.append(line[5:].strip())
                elif line == "" and event is not None:
                    yield event, json.loads("\n".join(data)) if data else {}, time.perf_counter()
                    if event in ("done", "failed", "cancelled"):
                        return
                    event, data = None, []
        finally:
            conn.close()


def run_job(server: Server, index: int, payload: dict) -> dict:
    """One timed unit: POST, SSE to the terminal event, GET the report."""
    t0 = time.perf_counter()
    status, job = server.request("POST", "/jobs", payload)
    t1 = time.perf_counter()
    failures = []
    if status != 202:
        return {"index": index, "host_s": t1 - t0, "items": 1,
                "failures": [f"POST returned {status}"],
                "digest": "", "counters": {}, "spans": {}}
    running = terminal = None
    final: dict = {}
    for event, data, at in server.events(job["id"]):
        if event == "status" and data.get("state") == "running" and running is None:
            running = at
        elif event in ("done", "failed", "cancelled"):
            terminal, final = at, {"state": event, **data}
    if running is None or terminal is None:
        failures.append("job stream ended without running and terminal events")
        running = running or t1
        terminal = terminal or time.perf_counter()
    status, report = server.request("GET", f"/jobs/{job['id']}/report")
    t4 = time.perf_counter()

    counters = {
        "evaluated": int(final.get("evaluated", -1)),
        "cache_hits": int(final.get("cache_hits", -1)),
    }
    if final.get("state") != "done":
        failures.append(f"job ended {final.get('state')!r}: {final.get('error', '')}")
    points = (report or {}).get("points", []) if status == 200 else []
    if status != 200:
        failures.append(f"report GET returned {status}")
    if len(points) != 4 or any("error" in p for p in points):
        failures.append(f"report has {len(points)} points, errors in "
                        f"{sum('error' in p for p in points)}")
    want_hits = 0 if index == 0 else 2
    if counters["cache_hits"] != want_hits or counters["evaluated"] != 4 - want_hits:
        failures.append(f"cache hits {counters['cache_hits']}, evaluated "
                        f"{counters['evaluated']}; expected {want_hits} hits")
    return {
        "index": index,
        "id": job["id"],
        "host_s": t4 - t0,
        "items": 1,
        "failures": failures,
        "digest": digest([[p.get("config"), p.get("seed"), p.get("result")] for p in points]),
        "counters": counters,
        "spans": {
            "service.http.post_s": t1 - t0,
            "service.job.queue_s": running - t1,
            "service.job.run_s": terminal - running,
            "service.http.report_s": t4 - terminal,
        },
    }


def server_metrics(server: Server) -> dict:
    status, body = server.request("GET", "/metrics?format=json")
    if status != 200:
        raise RuntimeError(f"/metrics returned {status}")
    return body["server"]


def run_jobs(server: Server, seed: int, seconds: float | None = None, count: int | None = None):
    """Closed loop until ``seconds`` have passed, or for exactly ``count`` jobs.

    Each job also records ``ref_s``, the reference task's mean time just
    before and just after it.
    """
    units = []
    payloads = job_payloads(seed)
    start = time.perf_counter()
    ref_before = reference_seconds()
    while True:
        unit = run_job(server, len(units), next(payloads))
        ref_after = reference_seconds()
        unit["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        units.append(unit)
        if count is not None:
            if len(units) >= count:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return units


def metric_deltas(before: dict, after: dict, job_metrics: list[dict]) -> dict:
    """Per-layer service/sweep metrics over the traced run."""

    def hist(snap, name):
        h = snap.get(name) or {"count": 0, "mean": 0.0}
        return h["count"], h["count"] * h["mean"]

    n0, s0 = hist(before, "service.journal.fsync_s")
    n1, s1 = hist(after, "service.journal.fsync_s")
    settled = after.get("service.points.settled", 0) - before.get("service.points.settled", 0)
    hits = after.get("service.points.cache_hits", 0) - before.get("service.points.cache_hits", 0)
    out = {
        "service.journal.fsyncs": n1 - n0,
        "service.journal.fsync_s": (s1 - s0) / (n1 - n0) if n1 > n0 else 0.0,
        "sweep.points.evaluated": settled - hits,
        "sweep.points.cache_hits": hits,
        "sweep.cache_hit_ratio": hits / settled if settled else 0.0,
        "service.loop.lag_s": (after.get("service.loop.lag_s") or {}).get("p50", 0.0),
    }
    for name in ("sweep.retries", "sweep.timeouts", "sweep.worker_deaths"):
        out[name] = sum(m.get(name, 0) for m in job_metrics)
    return out


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, inclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]
