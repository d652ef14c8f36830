"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import service  # noqa: E402
import simworkloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

#: Tiny unit sizes: requests per unit (serving) or cluster nodes (fabric-ep).
TINY = {"serve-decode": 60, "serve-faults": 3000, "fabric-ep": 2}


def replay(workload: str, seed: int, units: int = 2) -> list[dict]:
    _, result = run.spawn_worker(ROOT, ENV, workload, seed, "replay",
                                 units=units, size=TINY[workload])
    return result["units"]


def work(units: list[dict]) -> list[tuple]:
    return [(u["digest"], u["counters"]) for u in units]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_sim_same_seed_same_work_and_checks_pass(workload):
    first, second = replay(workload, 3), replay(workload, 3)
    assert work(first) == work(second)
    assert all(not u["failures"] for u in first)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_sim_seed_changes_inputs(workload):
    cls = simworkloads.WORKLOADS[workload]
    assert cls(1, TINY[workload]).unit_input(0) != cls(2, TINY[workload]).unit_input(0)
    assert work(replay(workload, 1, units=1)) != work(replay(workload, 2, units=1))


def test_serve_faults_exercises_fault_handling():
    (unit,) = replay("serve-faults", 5, units=1)
    assert unit["counters"]["serving.fault_retries"] > 0


def test_service_seed_changes_jobs():
    first = service.job_payloads(1)
    second = service.job_payloads(2)
    assert next(first) != next(second)
    jobs = [next(service.job_payloads(4)) for _ in range(2)]
    assert jobs[0] == jobs[1]
    stream = service.job_payloads(4)
    a, b = next(stream), next(stream)
    rates_a, rates_b = a["grid"]["request_rate"], b["grid"]["request_rate"]
    assert rates_b[:2] == rates_a[2:] and len(set(rates_a + rates_b)) == 6


def _processes_mentioning(text: str) -> list[int]:
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if text.encode() in cmdline:
            pids.append(int(entry.name))
    return pids


def test_service_same_seed_same_work_and_cleanup():
    runs = []
    for _ in range(2):
        with service.Server(ROOT, ENV) as server:
            tmp = server.tmp
            units = service.run_jobs(server, 9, count=3)
            assert _processes_mentioning(tmp)  # the server is running
        assert server.proc.poll() is not None
        assert not _processes_mentioning(tmp), "server or sweep workers outlived the run"
        assert not Path(tmp).exists()
        assert all(not u["failures"] for u in units), [u["failures"] for u in units]
        runs.append(units)
    assert work(runs[0]) == work(runs[1])
    assert [u["counters"]["cache_hits"] for u in runs[0]] == [0, 2, 2]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_reports_every_metric(workload, trace):
    args = ["--workload", workload, "--seed", "2", "--seconds", "0.5", "--trace", trace]
    if workload in TINY:
        args += ["--size", str(TINY[workload])]
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = benchmark_spec()
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_run_tables():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_fails_without_program():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = bench("--workload", "serve-decode", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
