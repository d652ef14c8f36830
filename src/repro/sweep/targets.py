"""Sweep targets: named, picklable entry points for the engine.

A *target* is a function ``fn(config: dict, seed: int) -> dict`` —
plain JSON-able data in, plain JSON-able data out.  That shape is what
makes the engine's three promises possible:

* **fan-out** — results cross a pipe from the pool worker back to the
  parent, so they must pickle trivially; workers resolve the target by
  *name* from this registry, never by shipping code objects;
* **determinism** — the result must be a pure function of
  ``(config, seed)``; the engine derives ``seed`` per point, so a
  target must route every stochastic choice through it;
* **caching** — the result is stored verbatim in the content-addressed
  cache, so it must round-trip through JSON.

Built-in targets wrap the three discrete-event simulators.  Register a
custom one with :func:`register_target`.  Pool workers are forked
inside each :func:`repro.sweep.run_sweep` call (``fork`` start method
where available), so targets registered before the call are visible
to them too.

``serving`` — :class:`repro.serving.ServingSimulator`.  Flat config
keys map onto ``WorkloadSpec`` (``request_rate``, ``num_requests``,
``prompt_mean``, …), ``SchedulerConfig`` (``max_concurrent_per_gpu``,
…) and ``SimConfig`` (``mode``, ``prefill_gpus``, ``decode_gpus``,
``kv_blocks_per_gpu``, ``block_tokens``, ``context_bucket``); plus
``mtp``/``mtp_acceptance``, a ``faults`` schedule dict
(``FaultSchedule.to_json`` shape), a ``recovery`` kwargs dict, and the
telemetry pair ``window_s`` (window width) / ``slo`` (a rule list for
:func:`repro.obs.parse_slo_rules`) — when set, each point's record
gains mergeable ``windows`` and an ``alerts`` timeline.  Points run in
constant-memory streaming mode unless ``record_requests`` is true.

``flowsim`` — shifted-ring all-to-all on a two-layer fat tree through
:class:`repro.network.FlowSimulator` (``num_leaves``,
``hosts_per_leaf``, ``num_spines``, ``shifts``, ``size_bytes``,
``sim_mode``).  Deterministic: the seed is accepted but unused.

``training`` — :func:`repro.training.simulate_checkpointed_training`
(``work_s``, ``interval_s``, ``checkpoint_s``, ``restart_s``,
``mtbf_s``, optional ``faults``).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable

__all__ = ["get_target", "register_target", "target_names"]

Target = Callable[[dict, int], dict]

_REGISTRY: dict[str, Target] = {}


def register_target(name: str, fn: Target | None = None):
    """Register ``fn`` as a sweep target (usable as a decorator)."""

    def _register(fn: Target) -> Target:
        _REGISTRY[name] = fn
        return fn

    return _register(fn) if fn is not None else _register


def get_target(name: str) -> Target:
    """Resolve a registered target by name.

    ``chaos`` and ``optimize`` resolve lazily — importing
    :mod:`repro.chaos` / :mod:`repro.optimize` registers them — so CLI
    and service jobs can name either without a prior import.
    """
    if name == "chaos" and name not in _REGISTRY:
        import repro.chaos  # noqa: F401 - registers the target
    if name == "optimize" and name not in _REGISTRY:
        import repro.optimize  # noqa: F401 - registers the target

    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown sweep target {name!r} (registered: {known})") from None


def target_names() -> list[str]:
    """Registered target names, sorted."""
    return sorted(_REGISTRY)


def _split_kwargs(cfg: dict, cls) -> dict:
    """Pop every key of ``cfg`` that is a dataclass field of ``cls``."""
    names = {f.name for f in fields(cls)}
    return {k: cfg.pop(k) for k in list(cfg) if k in names}


@register_target("serving")
def _serving_target(config: dict, seed: int) -> dict:
    from ..faults import FaultSchedule, RecoveryPolicy
    from ..serving import (
        MTPConfig,
        SchedulerConfig,
        ServingSimulator,
        SimConfig,
        StepCostModel,
        WorkloadSpec,
        compact_record,
    )

    cfg = dict(config)
    cfg.pop("seed", None)  # already folded into the point seed
    workload = WorkloadSpec(**_split_kwargs(cfg, WorkloadSpec))
    scheduler = SchedulerConfig(**_split_kwargs(cfg, SchedulerConfig))
    mtp = MTPConfig(
        enabled=bool(cfg.pop("mtp", False)),
        **({"acceptance_rate": cfg.pop("mtp_acceptance")} if "mtp_acceptance" in cfg else {}),
    )
    faults = cfg.pop("faults", None)
    recovery = cfg.pop("recovery", None)
    # Telemetry opts: a window width plus SLO monitor rules (compact
    # strings or SloRule.to_dict() shapes — both JSON-able, so they are
    # legal cache-key material like every other config key).
    window_s = cfg.pop("window_s", None)
    slo_rules = cfg.pop("slo", None)
    # Economics opt-in: a $/GPU-hour figure turns on the objective-ready
    # cost_per_token / goodput_tokens_per_s fields in the compact record
    # (repro.serving.report).  Absent, payloads are byte-identical to
    # pre-economics output.
    gpu_cost_per_hour = cfg.pop("gpu_cost_per_hour", None)
    sim = SimConfig(
        workload=workload,
        costs=StepCostModel(mtp=mtp),
        scheduler=scheduler,
        mode=cfg.pop("mode", "colocated"),
        prefill_gpus=cfg.pop("prefill_gpus", 2),
        decode_gpus=cfg.pop("decode_gpus", 6),
        kv_blocks_per_gpu=cfg.pop("kv_blocks_per_gpu", None),
        block_tokens=cfg.pop("block_tokens", 64),
        context_bucket=cfg.pop("context_bucket", 512),
        seed=seed,
        # Streaming aggregation by default — sweep points routinely run
        # large request counts, and compact_record only reads aggregate
        # fields.  record_requests=True opts back into exact per-request
        # records (identical aggregates, O(requests) memory).
        record_requests=bool(cfg.pop("record_requests", False)),
        faults=FaultSchedule.from_json(faults) if faults else None,
        **({"recovery": RecoveryPolicy(**recovery)} if recovery else {}),
        **({"window_s": window_s} if window_s is not None else {}),
        **({"slo_rules": tuple(slo_rules)} if slo_rules else {}),
    )
    if cfg:
        raise ValueError(f"unknown serving sweep keys: {sorted(cfg)}")
    economics = (
        {"gpus": sim.prefill_gpus + sim.decode_gpus, "gpu_cost_per_hour": gpu_cost_per_hour}
        if gpu_cost_per_hour is not None
        else {}
    )
    return compact_record(ServingSimulator(sim).run(), **economics)


@register_target("flowsim")
def _flowsim_target(config: dict, seed: int) -> dict:
    del seed  # the routed shifted-ring pattern is fully deterministic
    from ..network import FlowSimulator, shifted_ring_flows, two_layer_fat_tree

    cfg = dict(config)
    cfg.pop("seed", None)
    topo = two_layer_fat_tree(
        num_leaves=cfg.pop("num_leaves", 4),
        hosts_per_leaf=cfg.pop("hosts_per_leaf", 4),
        num_spines=cfg.pop("num_spines", 4),
    )
    flows = shifted_ring_flows(
        topo, range(1, 1 + cfg.pop("shifts", 3)), cfg.pop("size_bytes", 64e6)
    )
    mode = cfg.pop("sim_mode", "event")
    if cfg:
        raise ValueError(f"unknown flowsim sweep keys: {sorted(cfg)}")
    result = FlowSimulator(topo).simulate(flows, mode=mode)
    total = sum(f.size for f in flows)
    return {
        "flows": len(flows),
        "makespan_ms": result.makespan * 1e3,
        "aggregate_gbytes_per_s": total / result.makespan / 1e9 if result.makespan else 0.0,
    }


@register_target("training")
def _training_target(config: dict, seed: int) -> dict:
    from ..faults import FaultSchedule
    from ..training import simulate_checkpointed_training

    cfg = dict(config)
    cfg.pop("seed", None)
    faults = cfg.pop("faults", None)
    report = simulate_checkpointed_training(
        cfg.pop("work_s", 48 * 3600.0),
        cfg.pop("interval_s", 3600.0),
        cfg.pop("checkpoint_s", 60.0),
        cfg.pop("restart_s", 300.0),
        mtbf=cfg.pop("mtbf_s", None),
        faults=FaultSchedule.from_json(faults) if faults else None,
        seed=seed,
    )
    if cfg:
        raise ValueError(f"unknown training sweep keys: {sorted(cfg)}")
    return report.asdict()
