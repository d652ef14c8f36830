"""Golden determinism pins for the discrete-event simulation core.

The perf work on :mod:`repro.serving` and :mod:`repro.network.flowsim`
(identity-keyed requests, incremental aggregates, incremental max-min)
is only allowed to change *how fast* the simulators run, never *what*
they compute.  These tests pin that contract bit-for-bit:

* The **full** seeded :class:`repro.serving.SimReport` — every field,
  including the complete queue-depth and KV-occupancy traces, not just
  percentiles — is serialized to JSON and compared against a golden
  file generated before the optimizations landed.  ``json.dumps`` uses
  ``repr`` for floats, so the comparison is exact to the last bit.
* The Chrome trace file of the same runs is pinned by SHA-256, so span
  timings, ordering and counter samples are byte-identical too.

Three scenarios cover the interesting code paths: a *colocated* run with
a deliberately tight KV pool (preemption + recompute + MTP), a
*disaggregated* run (KV transfer, separate pools), and a *faulty*
disaggregated run (a repaired node fault and a permanent GPU fault:
aborted steps, evictions, retries, shedding and a ``NEVER`` window,
with the last finish landing exactly on the run horizon).

Regenerate (only when an intentional behavior change lands) with::

    PYTHONPATH=src python tests/test_simcore_golden.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.faults import FaultEvent, FaultSchedule, RecoveryPolicy
from repro.obs import Tracer
from repro.serving import (
    MTPConfig,
    ServingSimulator,
    SimConfig,
    StepCostModel,
    WorkloadSpec,
)
from repro.serving.report import report_asdict

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def _colocated_config() -> SimConfig:
    # Tight KV pool: forces preemption/recompute; MTP exercises the
    # draft-acceptance RNG stream; bursty arrivals exercise queueing.
    return SimConfig(
        workload=WorkloadSpec(
            request_rate=12.0,
            num_requests=160,
            prompt_mean=384,
            prompt_cv=0.6,
            output_mean=96,
            output_cv=0.6,
            arrival="bursty",
        ),
        costs=StepCostModel(mtp=MTPConfig(enabled=True)),
        mode="colocated",
        prefill_gpus=1,
        decode_gpus=3,
        kv_blocks_per_gpu=24,
        seed=7,
        record_requests=True,
    )


def _disaggregated_config() -> SimConfig:
    return SimConfig(
        workload=WorkloadSpec(
            request_rate=8.0,
            num_requests=160,
            prompt_mean=512,
            prompt_cv=0.5,
            output_mean=128,
            output_cv=0.5,
        ),
        mode="disaggregated",
        prefill_gpus=2,
        decode_gpus=6,
        seed=3,
        record_requests=True,
    )


def _faulty_config() -> SimConfig:
    return SimConfig(
        workload=WorkloadSpec(
            request_rate=8.0,
            num_requests=160,
            prompt_mean=512,
            prompt_cv=0.5,
            output_mean=128,
            output_cv=0.5,
            arrival="bursty",
        ),
        mode="disaggregated",
        prefill_gpus=2,
        decode_gpus=6,
        seed=11,
        faults=FaultSchedule(
            events=(
                FaultEvent(time=4.0, kind="node", target="decode", mttr=3.0),
                FaultEvent(time=12.0, kind="gpu", target="decode", count=2),
            )
        ),
        recovery=RecoveryPolicy(retry_budget=1, degraded_queue_limit=12),
        record_requests=True,
    )


SCENARIOS = {
    "colocated": _colocated_config,
    "disaggregated": _disaggregated_config,
    "faulty": _faulty_config,
}
FAULT_FREE = ("colocated", "disaggregated")


def _run(name: str, trace_path: Path, config: SimConfig | None = None) -> dict:
    """Run one scenario with tracing on; return the pinnable payload."""
    tracer = Tracer()
    simulator = ServingSimulator(
        SCENARIOS[name]() if config is None else config, tracer=tracer
    )
    report = simulator.run()
    tracer.write(str(trace_path))
    # report_asdict drops the always-None degradation key of fault-free
    # runs, so the payload shape matches the pre-fault-engine goldens.
    return {
        "report": report_asdict(report),
        "dropped": list(simulator.dropped),
        "decode_batch_profile": [list(row) for row in simulator.decode_batch_profile],
        "trace_sha256": hashlib.sha256(trace_path.read_bytes()).hexdigest(),
        "trace_events": len(tracer.events),
    }


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"simreport_{name}.json"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simreport_matches_golden(name: str, tmp_path: Path) -> None:
    golden = json.loads(_golden_path(name).read_text())
    current = _run(name, tmp_path / f"{name}.trace.json")
    # Compare via canonical JSON so the diff on failure is readable and
    # float comparison is repr-exact (bit-identical round trip).
    assert json.dumps(current, sort_keys=True) == json.dumps(golden, sort_keys=True)


@pytest.mark.parametrize("name", FAULT_FREE)
def test_null_fault_schedule_is_byte_identical(name: str, tmp_path: Path) -> None:
    """Faults *disabled* must mean exactly that: a config carrying an
    empty :class:`FaultSchedule` (and the default recovery policy) must
    reproduce the pre-fault-engine goldens bit-for-bit — SimReport JSON
    and trace SHA-256 both."""
    golden = json.loads(_golden_path(name).read_text())
    config = dataclasses.replace(SCENARIOS[name](), faults=FaultSchedule())
    current = _run(name, tmp_path / f"{name}.nullfaults.trace.json", config=config)
    assert json.dumps(current, sort_keys=True) == json.dumps(golden, sort_keys=True)


def test_goldens_exercise_interesting_paths(tmp_path: Path) -> None:
    """The pins are only meaningful if the scenarios hit the hot paths."""
    colo = _run("colocated", tmp_path / "c.trace.json")["report"]
    disagg = _run("disaggregated", tmp_path / "d.trace.json")["report"]
    assert colo["preemptions"] > 0  # preempt + recompute path
    assert colo["mtp_acceptance_measured"] > 0  # MTP draft RNG stream
    assert disagg["preemptions"] == 0
    assert disagg["completed"] == 160  # KV-transfer path end to end
    faulty = _run("faulty", tmp_path / "f.trace.json")["report"]
    degradation = faulty["degradation"]
    assert degradation["shed"] > 0 and degradation["retries"] > 0
    assert degradation["steps_aborted"] > 0
    assert degradation["windows"][-1]["end"] == -1.0  # permanent: NEVER
    assert degradation["admitted"] == (
        degradation["finished"] + degradation["dropped"] + degradation["unserved"]
    )


def _regen() -> None:
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(SCENARIOS):
            payload = _run(name, Path(tmp) / f"{name}.trace.json")
            path = _golden_path(name)
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
