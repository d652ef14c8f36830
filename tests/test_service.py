"""End-to-end tests for the experiment service (repro.service).

Everything runs over real sockets on ephemeral ports: in-process
servers (fast, lets tests register custom sweep targets) for the
submit/stream/backpressure/cancel paths, and a genuine ``repro serve``
subprocess killed with SIGKILL for the session-resume invariant.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import (
    EventBroker,
    ExperimentServer,
    ServiceClient,
    ServiceConfig,
)
from repro.sweep import SweepSpec, grid, register_target, run_sweep

SRC = Path(__file__).resolve().parent.parent / "src"

SERVING_BASE = {"num_requests": 20, "prompt_mean": 64, "output_mean": 16}


@register_target("svc-sleepy")
def _sleepy_target(config: dict, seed: int) -> dict:
    time.sleep(config.get("sleep_s", 0.1))
    return {"x": config.get("x", 0), "seed": seed}


@register_target("svc-flaky")
def _flaky_target(config: dict, seed: int) -> dict:
    if config.get("x", 0) % 2 == 0:
        raise ValueError(f"point {config['x']} exploded")
    return {"x": config["x"]}


def _config(tmp_path: Path, **overrides) -> ServiceConfig:
    defaults = dict(
        state_dir=tmp_path / "state",
        cache_dir=tmp_path / "cache",
        heartbeat_s=0.2,
        metrics_interval_s=0.05,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def _with_server(config: ServiceConfig, body) -> None:
    server = ExperimentServer(config)
    await server.start()
    try:
        await body(server, ServiceClient(server.host, server.port))
    finally:
        await server.stop()


def _counts(events: list[tuple[str, dict]]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event, _ in events:
        counts[event] = counts.get(event, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# submit → SSE stream → artifacts
# ---------------------------------------------------------------------------


def test_submit_stream_and_artifacts(tmp_path):
    spec = {
        "target": "serving",
        "grid": {"request_rate": [4, 8]},
        "base": SERVING_BASE,
        "seed": 3,
    }

    async def body(server, client):
        health = await client.wait_healthy()
        assert health["ok"] and health["jobs"] == 0
        status, job = await client.post_json("/jobs", spec)
        assert status == 202 and job["state"] in ("queued", "running")
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        # One progress event per evaluated point, each index exactly once.
        progress = [d for e, d in events if e == "progress"]
        assert sorted(p["index"] for p in progress) == [0, 1]
        assert events[-1][0] == "done"
        assert events[-1][1]["evaluated"] == 2 and events[-1][1]["errors"] == 0

        status, detail = await client.get_json(f"/jobs/{job['id']}")
        assert status == 200 and detail["state"] == "done"
        assert detail["evaluated"] == 2 and detail["cache_hits"] == 0
        assert "sweep.progress" in detail["metrics"]

        status, listing = await client.get_json("/jobs")
        assert status == 200 and [j["id"] for j in listing["jobs"]] == [job["id"]]

        # The report artifact is the cache-independent sweep document,
        # byte-identical to a direct uncached run of the same spec.
        status, _, report = await client.request("GET", f"/jobs/{job['id']}/report")
        assert status == 200
        direct = run_sweep(
            SweepSpec(
                target="serving",
                points=grid(request_rate=[4, 8]),
                base=SERVING_BASE,
                seed=3,
            ),
            cache=None,
        )
        assert report == direct.to_report_json().encode()

        status, _, trace = await client.request("GET", f"/jobs/{job['id']}/trace")
        assert status == 200 and isinstance(json.loads(trace), list)

        # Warm resubmit: every point arrives as a cache_hit instant.
        status, job2 = await client.post_json("/jobs", spec)
        events2 = await client.collect_events(f"/jobs/{job2['id']}/events", timeout=30)
        counts = _counts(events2)
        assert counts.get("cache_hit") == 2 and "progress" not in counts
        _, detail2 = await client.get_json(f"/jobs/{job2['id']}")
        assert detail2["evaluated"] == 0 and detail2["cache_hits"] == 2
        status, _, report2 = await client.request("GET", f"/jobs/{job2['id']}/report")
        assert report2 == report  # cache-independent document

    asyncio.run(_with_server(_config(tmp_path), body))


def test_sse_metrics_frames_and_late_subscriber(tmp_path):
    spec = {
        "target": "svc-sleepy",
        "grid": {"x": [1, 2, 3]},
        "base": {"sleep_s": 0.1},
    }

    async def body(server, client):
        _, job = await client.post_json("/jobs", spec)
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        counts = _counts(events)
        assert counts["progress"] == 3
        metrics_frames = [d for e, d in events if e == "metrics"]
        assert metrics_frames, "expected periodic obs snapshots on the stream"
        assert "sweep.progress" in metrics_frames[-1]["metrics"]
        # A subscriber connecting after completion replays history and
        # terminates immediately on the recorded terminal event.
        replayed = await client.collect_events(f"/jobs/{job['id']}/events", timeout=5)
        replay_counts = _counts(replayed)
        assert replay_counts["progress"] == 3 and replay_counts["done"] == 1

    asyncio.run(_with_server(_config(tmp_path), body))


# ---------------------------------------------------------------------------
# backpressure
# ---------------------------------------------------------------------------


def test_backpressure_429_with_retry_after(tmp_path):
    spec = {"target": "svc-sleepy", "grid": {"x": [1, 2]}, "base": {"sleep_s": 0.3}}

    async def body(server, client):
        # capacity = job_workers(1) + queue_size(1) = 2; submit 3x that.
        submissions = [await client.post_json("/jobs", spec) for _ in range(6)]
        accepted = [job for status, job in submissions if status == 202]
        statuses = [status for status, _ in submissions]
        assert statuses.count(202) == 2
        assert statuses.count(429) == 4
        # Rejections carry Retry-After.
        status, headers, body_bytes = await client.request(
            "POST", "/jobs", spec
        )
        assert status == 429 and "retry-after" in headers
        assert json.loads(body_bytes)["error"] == "job queue at capacity"
        # Every accepted job completes.
        for job in accepted:
            events = await client.collect_events(
                f"/jobs/{job['id']}/events", timeout=30
            )
            assert events[-1][0] == "done"
        # Capacity freed: submissions succeed again.
        status, _ = await client.post_json("/jobs", spec)
        assert status == 202

    asyncio.run(
        _with_server(_config(tmp_path, job_workers=1, queue_size=1), body)
    )


def test_event_broker_bounded_buffers():
    """Slow consumers lose droppable frames, never grow unbounded, and
    always still receive the terminal event."""
    broker = EventBroker(buffer=4)

    async def body():
        replay, queue = broker.subscribe()
        assert replay == []
        for i in range(100):
            broker.publish("metrics", {"i": i}, droppable=True)
        assert queue.qsize() == 4 and broker.dropped == 96
        for i in range(50):
            broker.publish("progress", {"i": i})
        assert queue.qsize() == 4  # oldest evicted, never blocked
        broker.publish("done", {"state": "done"})
        drained = []
        while not queue.empty():
            drained.append(queue.get_nowait())
        assert drained[-1][0] == "done"
        # History kept every critical event for replay despite the
        # bounded live buffer.
        assert sum(1 for e, _ in broker.history if e == "progress") == 50
        broker.unsubscribe(queue)
        assert broker.subscribers == 0

    asyncio.run(body())


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------


def test_cancel_route(tmp_path):
    spec = {"target": "svc-sleepy", "grid": {"x": list(range(10))}, "base": {"sleep_s": 0.15}}

    async def body(server, client):
        _, job = await client.post_json("/jobs", spec)
        async for event, data in client.events(
            f"/jobs/{job['id']}/events", stop_on_terminal=False
        ):
            if event == "progress":
                break
        status, cancelled = await client.delete_json(f"/jobs/{job['id']}")
        assert status == 200
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        assert events[-1][0] == "cancelled"
        _, detail = await client.get_json(f"/jobs/{job['id']}")
        assert detail["state"] == "cancelled"
        assert 0 < detail["done"] < detail["total"]
        # Cancel is idempotent.
        status, again = await client.delete_json(f"/jobs/{job['id']}")
        assert status == 200 and again["state"] == "cancelled"
        # The cancelled job's completed points are cached: resubmitting
        # the same spec serves them as hits.
        _, job2 = await client.post_json("/jobs", spec)
        await client.collect_events(f"/jobs/{job2['id']}/events", timeout=60)
        _, detail2 = await client.get_json(f"/jobs/{job2['id']}")
        assert detail2["state"] == "done"
        assert detail2["cache_hits"] >= detail["done"]

    asyncio.run(_with_server(_config(tmp_path), body))


def test_cancel_queued_job(tmp_path):
    slow = {"target": "svc-sleepy", "grid": {"x": [1, 2, 3]}, "base": {"sleep_s": 0.3}}

    async def body(server, client):
        _, running = await client.post_json("/jobs", slow)
        _, queued = await client.post_json("/jobs", slow)
        status, cancelled = await client.delete_json(f"/jobs/{queued['id']}")
        assert status == 200 and cancelled["state"] == "cancelled"
        assert cancelled["done"] == 0
        events = await client.collect_events(f"/jobs/{running['id']}/events", timeout=30)
        assert events[-1][0] == "done"

    asyncio.run(
        _with_server(_config(tmp_path, job_workers=1, queue_size=2), body)
    )


# ---------------------------------------------------------------------------
# per-point errors and bad requests
# ---------------------------------------------------------------------------


def test_point_errors_stream_as_error_events(tmp_path):
    spec = {"target": "svc-flaky", "grid": {"x": [1, 2, 3, 4]}}

    async def body(server, client):
        _, job = await client.post_json("/jobs", spec)
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        errors = [d for e, d in events if e == "error"]
        assert sorted(d["config"]["x"] for d in errors) == [2, 4]
        for d in errors:
            assert d["error"]["type"] == "ValueError"
            assert "exploded" in d["error"]["message"]
            assert "traceback" in d["error"]
        assert events[-1][0] == "done" and events[-1][1]["errors"] == 2
        status, _, report = await client.request("GET", f"/jobs/{job['id']}/report")
        doc = json.loads(report)
        failed = [p for p in doc["points"] if p["result"] is None]
        assert len(failed) == 2 and all("error" in p for p in failed)

    asyncio.run(_with_server(_config(tmp_path), body))


def test_faults_payload_accepted_and_validated(tmp_path):
    schedule = {"events": [{"time": 1.0, "kind": "gpu", "target": "decode", "mttr": 2.0}]}
    spec = {
        "target": "serving",
        "grid": {"request_rate": [6]},
        "base": {**SERVING_BASE, "num_requests": 40},
        "faults": schedule,
        "seed": 1,
    }

    async def body(server, client):
        status, job = await client.post_json("/jobs", spec)
        assert status == 202
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        assert events[-1][0] == "done" and events[-1][1]["errors"] == 0
        # Malformed schedules are rejected up front, not at run time.
        bad = dict(spec, faults={"events": [{"time": -3, "kind": "gpu"}]})
        status, payload = await client.post_json("/jobs", bad)
        assert status == 400 and "fault" in payload["error"]

    asyncio.run(_with_server(_config(tmp_path), body))


def test_http_error_paths(tmp_path):
    async def body(server, client):
        status, payload = await client.get_json("/jobs/nope")
        assert status == 404
        status, _ = await client.get_json("/no/such/route")
        assert status == 404
        status, _, _ = await client.request("PUT", "/jobs")
        assert status == 405
        status, _, body_bytes = await client.request("POST", "/jobs", {"target": "bogus"})
        assert status == 400 and b"unknown target" in body_bytes
        long_line = b"x" * (70 * 1024)  # past the 64 KiB StreamReader limit
        for request in (
            b"POST /jobs HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson",
            b"GET /" + long_line + b" HTTP/1.1\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Long: " + long_line + b"\r\n\r\n",
            b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        ):
            reader, writer = await asyncio.open_connection(client.host, client.port)
            writer.write(request)
            await writer.drain()
            raw = await reader.read()
            assert b"400" in raw.split(b"\r\n", 1)[0], request[:40]
            writer.close()
        assert server.metrics.counter("service.http.errors").value == 0
        # No grid and no points:
        status, _ = await client.post_json("/jobs", {"target": "serving"})
        assert status == 400
        # Report for a job that has not finished:
        _, job = await client.post_json(
            "/jobs",
            {"target": "svc-sleepy", "grid": {"x": [1]}, "base": {"sleep_s": 0.5}},
        )
        status, _, _ = await client.request("GET", f"/jobs/{job['id']}/report")
        assert status == 404

    asyncio.run(_with_server(_config(tmp_path), body))


# ---------------------------------------------------------------------------
# kill the real server, restart, resume
# ---------------------------------------------------------------------------


def _serve_subprocess(state: Path, cache: Path) -> subprocess.Popen:
    (state / "server.json").unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--state-dir", str(state), "--cache-dir", str(cache),
            "--heartbeat", "0.3", "--metrics-interval", "0.1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def _bound_port(state: Path, proc: subprocess.Popen, timeout: float = 20.0) -> int:
    info = state / "server.json"
    deadline = time.time() + timeout
    while time.time() < deadline:
        if info.is_file():
            return json.loads(info.read_text())["port"]
        if proc.poll() is not None:
            raise RuntimeError(f"server died: {proc.stderr.read().decode()}")
        time.sleep(0.05)
    raise RuntimeError("server never wrote server.json")


RESUME_GRID = [2, 3, 4, 5, 6, 7]
RESUME_BASE = {"num_requests": 2000, "prompt_mean": 256, "output_mean": 64}


def test_kill_and_resume_from_journal_and_cache(tmp_path):
    """The headline session invariant: SIGKILL the server mid-job,
    restart against the same state/cache dirs, and the job completes
    with zero recomputation of already-cached points and a report
    byte-identical to an uninterrupted run."""
    state, cache = tmp_path / "state", tmp_path / "cache"
    state.mkdir()
    spec = {
        "target": "serving",
        "grid": {"request_rate": RESUME_GRID},
        "base": RESUME_BASE,
        "seed": 9,
    }

    proc = _serve_subprocess(state, cache)
    try:
        port = _bound_port(state, proc)

        async def submit_and_watch() -> str:
            client = ServiceClient("127.0.0.1", port)
            await client.wait_healthy()
            _, job = await client.post_json("/jobs", spec)
            seen = 0
            async for event, _data in client.events(
                f"/jobs/{job['id']}/events", stop_on_terminal=False
            ):
                if event == "progress":
                    seen += 1
                    if seen >= 2:
                        break
            return job["id"]

        job_id = asyncio.run(asyncio.wait_for(submit_and_watch(), timeout=60))
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()

    cached_before_restart = sum(1 for _ in cache.glob("??/*.json"))
    assert cached_before_restart >= 2  # the observed progress is durable

    proc = _serve_subprocess(state, cache)
    try:
        port = _bound_port(state, proc)

        async def resume_and_fetch() -> tuple[dict, bytes]:
            client = ServiceClient("127.0.0.1", port)
            await client.wait_healthy()
            events = await client.collect_events(f"/jobs/{job_id}/events", timeout=90)
            assert events[-1][0] == "done"
            _, detail = await client.get_json(f"/jobs/{job_id}")
            _, _, report = await client.request("GET", f"/jobs/{job_id}/report")
            return detail, report

        detail, report = asyncio.run(asyncio.wait_for(resume_and_fetch(), timeout=120))
    finally:
        proc.terminate()
        proc.wait()

    # Resume recomputed nothing that was already cached...
    assert detail["state"] == "done" and detail["resumed"] is True
    assert detail["cache_hits"] == cached_before_restart
    assert detail["evaluated"] == len(RESUME_GRID) - cached_before_restart
    # ...and the report is byte-identical to an uninterrupted run.
    direct = run_sweep(
        SweepSpec(
            target="serving",
            points=grid(request_rate=RESUME_GRID),
            base=RESUME_BASE,
            seed=9,
        ),
        cache=None,
    )
    assert report == direct.to_report_json().encode()


def _telemetry_spec() -> dict:
    """A windowed, SLO-monitored, fault-injected serving job: one decode
    node dies at t=3s and rejoins at t=6s."""
    return {
        "target": "serving",
        "grid": {"request_rate": [8]},
        "base": {
            **SERVING_BASE,
            "num_requests": 120,
            "mode": "disaggregated",
            "prompt_mean": 256,
            "output_mean": 64,
        },
        "window_s": 2.0,
        "slo": ["burn>2@0.9"],
        "faults": {
            "events": [{"time": 3.0, "kind": "node", "target": "decode", "mttr": 3.0}]
        },
        "seed": 17,
    }


def test_metrics_exposition_and_self_telemetry(tmp_path):
    from repro.obs import parse_openmetrics

    spec = {"target": "serving", "grid": {"request_rate": [4]}, "base": SERVING_BASE}

    async def body(server, client):
        _, job = await client.post_json("/jobs", spec)
        await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        await asyncio.sleep(0.15)  # let the telemetry pump tick
        status, headers, text = await client.request("GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("application/openmetrics-text")
        families = parse_openmetrics(text.decode())
        # Server self-telemetry families.
        for family in (
            "service_loop_lag_s",
            "service_queue_depth",
            "service_workers_utilization",
            "service_cache_hit_ratio",
            "service_journal_fsync_s",
            "service_points_settled",
        ):
            assert family in families, family
        assert families["service_points_settled"]["samples"][0]["value"] == 1
        # The job's registry rides along, labeled.
        progress = families["sweep_progress"]["samples"]
        assert progress[0]["labels"] == {"job": job["id"]}
        # Two scrapes are monotone on counters (http requests grew).
        first = families["service_http_requests"]["samples"][0]["value"]
        _, _, text2 = await client.request("GET", "/metrics")
        second = parse_openmetrics(text2.decode())
        assert second["service_http_requests"]["samples"][0]["value"] > first
        # The legacy JSON snapshot stays available behind ?format=json.
        status, snap = await client.get_json("/metrics?format=json")
        assert status == 200 and set(snap) == {"server"}  # legacy shape
        assert snap["server"]["service.points.settled"] == 1
        assert 0.0 <= snap["server"]["service.workers.utilization"] <= 1.0
        assert isinstance(snap["server"]["service.journal.fsync_s"], dict)

    asyncio.run(_with_server(_config(tmp_path, telemetry_interval_s=0.05), body))


def test_alert_frames_ride_the_stream_and_replay(tmp_path):
    async def body(server, client):
        _, job = await client.post_json("/jobs", _telemetry_spec())
        events = await client.collect_events(f"/jobs/{job['id']}/events", timeout=60)
        alerts = [d for e, d in events if e == "alert"]
        states = [a["state"] for a in alerts]
        assert "fire" in states and "resolve" in states
        fire = next(a for a in alerts if a["state"] == "fire")
        assert fire["rule"] == "burn>2@0.9"
        assert fire["during_fault"] and fire["fault_target"] == "decode"
        assert fire["job"] == job["id"] and fire["index"] == 0
        # Alert frames are critical: a late subscriber replays them.
        replayed = await client.collect_events(f"/jobs/{job['id']}/events", timeout=5)
        assert [d for e, d in replayed if e == "alert"] == alerts

    asyncio.run(_with_server(_config(tmp_path), body))


def test_report_windows_section_is_opt_in(tmp_path):
    from repro.obs import merge_window_rollups

    async def body(server, client):
        spec = _telemetry_spec()
        spec["grid"] = {"request_rate": [6, 8]}
        _, job = await client.post_json("/jobs", spec)
        await client.collect_events(f"/jobs/{job['id']}/events", timeout=60)
        # Default report: the verbatim artifact, no merged section.
        status, _, report = await client.request("GET", f"/jobs/{job['id']}/report")
        assert status == 200
        doc = json.loads(report)
        assert "windows" not in doc
        assert doc["points"][0]["result"]["windows"]  # per-point rollups ride
        # ?windows=1 derives the cross-point merge on demand.
        status, _, with_windows = await client.request(
            "GET", f"/jobs/{job['id']}/report?windows=1"
        )
        assert status == 200
        merged_doc = json.loads(with_windows)
        section = merged_doc["windows"]
        assert section["points"] == 2
        expected = merge_window_rollups(
            [p["result"]["windows"] for p in doc["points"]]
        )
        assert section["merged"] == json.loads(json.dumps(expected))
        assert len(section["summaries"]) == len(expected)
        # Everything but the added section is unchanged.
        merged_doc.pop("windows")
        assert merged_doc == doc

    asyncio.run(_with_server(_config(tmp_path), body))


def test_dash_page_embeds_jobs(tmp_path):
    spec = {"target": "serving", "grid": {"request_rate": [4]}, "base": SERVING_BASE}

    async def body(server, client):
        status, headers, page = await client.request("GET", "/dash")
        assert status == 200 and headers["content-type"].startswith("text/html")
        html = page.decode()
        assert "no jobs yet" in html and "EventSource" in html
        _, job = await client.post_json("/jobs", spec)
        await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        _, _, page = await client.request("GET", "/dash")
        html = page.decode()
        assert job["id"] in html  # embedded snapshot covers terminal jobs

    asyncio.run(_with_server(_config(tmp_path), body))


def test_telemetry_payload_validation(tmp_path):
    spec = {"target": "serving", "grid": {"request_rate": [4]}, "base": SERVING_BASE}

    async def body(server, client):
        status, payload = await client.post_json("/jobs", {**spec, "window_s": -1.0})
        assert status == 400 and "window_s" in payload["error"]
        status, payload = await client.post_json("/jobs", {**spec, "window_s": True})
        assert status == 400 and "window_s" in payload["error"]
        status, payload = await client.post_json(
            "/jobs", {**spec, "slo": ["burn>2@0.9"]}
        )
        assert status == 400 and "window_s" in payload["error"]
        status, payload = await client.post_json(
            "/jobs", {**spec, "window_s": 2.0, "slo": ["garbage"]}
        )
        assert status == 400 and "slo" in payload["error"].lower()
        status, payload = await client.post_json(
            "/jobs", {**spec, "window_s": 2.0, "slo": []}
        )
        assert status == 400 and "slo" in payload["error"].lower()
        # A well-formed pair is accepted, with the rules canonicalized.
        status, job = await client.post_json(
            "/jobs", {**spec, "window_s": 2.0, "slo": ["burn>2@0.9"]}
        )
        assert status == 202
        await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        _, detail = await client.get_json(f"/jobs/{job['id']}")
        assert detail["state"] == "done" and detail["errors"] == 0

    asyncio.run(_with_server(_config(tmp_path), body))


def test_restart_lists_finished_jobs(tmp_path):
    """Terminal jobs survive a restart: listed, artifact-served, and
    their SSE stream replays to an immediate terminal event."""
    config = _config(tmp_path)
    spec = {"target": "serving", "grid": {"request_rate": [5]}, "base": SERVING_BASE}
    job_box = {}

    async def first(server, client):
        _, job = await client.post_json("/jobs", spec)
        await client.collect_events(f"/jobs/{job['id']}/events", timeout=30)
        job_box["id"] = job["id"]

    async def second(server, client):
        status, listing = await client.get_json("/jobs")
        assert [j["id"] for j in listing["jobs"]] == [job_box["id"]]
        assert listing["jobs"][0]["state"] == "done"
        status, _, report = await client.request(
            "GET", f"/jobs/{job_box['id']}/report"
        )
        assert status == 200 and json.loads(report)["target"] == "serving"
        events = await client.collect_events(f"/jobs/{job_box['id']}/events", timeout=5)
        assert events[-1][0] == "done"
        # New jobs on the restarted server get fresh ids.
        _, job2 = await client.post_json("/jobs", spec)
        assert job2["id"] != job_box["id"]
        await client.collect_events(f"/jobs/{job2['id']}/events", timeout=30)

    asyncio.run(_with_server(config, first))
    asyncio.run(_with_server(config, second))
