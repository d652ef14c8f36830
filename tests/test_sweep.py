"""The parallel sweep engine (repro.sweep): grids, cache, determinism.

The two engine guarantees the PR's acceptance criteria pin:

* a multi-point sweep at ``workers=N>1`` serializes byte-identically
  to the same sweep at ``workers=1`` (per-point seeds derive from
  point *content*, never from scheduling), and
* a warm-cache re-run of an unchanged sweep evaluates zero points.
"""

import json
import os

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.sweep import (
    SweepCache,
    SweepSpec,
    canonical_config,
    grid,
    point_key,
    register_target,
    run_sweep,
    target_names,
)

#: In-process call counter for cache-behavior tests (workers=1 runs the
#: target in this process, so the module global observes every call).
CALLS = {"count": 0}


def _counting_target(config: dict, seed: int) -> dict:
    CALLS["count"] += 1
    return {"value": 2 * config["x"] + config.get("bias", 0), "seed": seed}


register_target("test_counting", _counting_target)

#: A fast serving scenario for the real-simulator tests.
SERVING_BASE = {"num_requests": 25, "output_mean": 32, "prompt_mean": 128}


def _counting_spec(**overrides) -> SweepSpec:
    defaults = dict(
        target="test_counting", points=grid(x=[1, 2, 3]), base={"bias": 1}, seed=5
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


# -- spec / grid ---------------------------------------------------------


def test_grid_is_the_cartesian_product_in_axis_order():
    points = grid(a=[1, 2], b=["x", "y"], c=9)
    assert points == [
        {"a": 1, "b": "x", "c": 9},
        {"a": 1, "b": "y", "c": 9},
        {"a": 2, "b": "x", "c": 9},
        {"a": 2, "b": "y", "c": 9},
    ]


def test_canonical_config_ignores_key_order_and_rejects_non_json():
    assert canonical_config({"a": 1, "b": 2}) == canonical_config({"b": 2, "a": 1})
    with pytest.raises(TypeError):
        canonical_config({"a": {1, 2}})


def test_point_key_changes_with_each_ingredient():
    base = point_key("t", {"x": 1}, 0, "1.0")
    assert point_key("t", {"x": 1}, 0, "1.0") == base
    assert point_key("t", {"x": 2}, 0, "1.0") != base
    assert point_key("t", {"x": 1}, 1, "1.0") != base
    assert point_key("t", {"x": 1}, 0, "1.1") != base
    assert point_key("u", {"x": 1}, 0, "1.0") != base


def test_empty_sweep_is_rejected():
    with pytest.raises(ValueError):
        SweepSpec(target="test_counting", points=[])


def test_builtin_targets_are_registered():
    assert {"serving", "flowsim", "training"} <= set(target_names())


# -- seed discipline -----------------------------------------------------


def test_point_seeds_depend_on_content_not_order():
    forward = _counting_spec()
    backward = _counting_spec(points=list(reversed(forward.points)))
    seeds_fwd = {canonical_config(c): forward.point_seed(c) for c in forward.configs()}
    seeds_bwd = {canonical_config(c): backward.point_seed(c) for c in backward.configs()}
    assert seeds_fwd == seeds_bwd
    assert len(set(seeds_fwd.values())) == len(seeds_fwd), "points must decorrelate"


def test_explicit_seed_in_config_wins():
    spec = _counting_spec(base={"bias": 1, "seed": 77})
    assert all(spec.point_seed(c) == 77 for c in spec.configs())


# -- cache behavior ------------------------------------------------------


def test_cache_hit_skips_evaluation_and_preserves_results(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec()
    CALLS["count"] = 0
    cold = run_sweep(spec, cache=cache)
    assert CALLS["count"] == 3 and cold.evaluated == 3 and cold.cache_hits == 0
    warm = run_sweep(spec, cache=cache)
    assert CALLS["count"] == 3, "warm re-run must execute zero target evaluations"
    assert warm.evaluated == 0 and warm.cache_hits == 3
    assert warm.records() == cold.records()
    assert len(cache) == 3


def test_cache_misses_on_config_seed_and_version_change(tmp_path):
    cache = SweepCache(tmp_path)
    run_sweep(_counting_spec(), cache=cache)
    CALLS["count"] = 0
    # A changed config recomputes only the changed points...
    assert run_sweep(_counting_spec(base={"bias": 2}), cache=cache).evaluated == 3
    # ...a changed root seed recomputes (derived seeds moved)...
    assert run_sweep(_counting_spec(seed=6), cache=cache).evaluated == 3
    # ...and so does a version bump.
    assert run_sweep(_counting_spec(version="0.0.0-test"), cache=cache).evaluated == 3
    assert CALLS["count"] == 9


def test_incremental_rerun_recomputes_only_new_points(tmp_path):
    cache = SweepCache(tmp_path)
    run_sweep(_counting_spec(points=grid(x=[1, 2, 3])), cache=cache)
    CALLS["count"] = 0
    grown = run_sweep(_counting_spec(points=grid(x=[1, 2, 3, 4, 5])), cache=cache)
    assert grown.evaluated == 2 and grown.cache_hits == 3
    assert CALLS["count"] == 2
    assert [p.cached for p in grown.points] == [True, True, True, False, False]


def test_corrupted_cache_entry_is_recomputed_not_crashed(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec(points=[{"x": 4}])
    first = run_sweep(spec, cache=cache)
    path = cache.path_for(first.points[0].key)
    for garbage in ("not json {", json.dumps({"key": "wrong", "result": {}}), ""):
        path.write_text(garbage)
        CALLS["count"] = 0
        again = run_sweep(spec, cache=cache)
        assert CALLS["count"] == 1 and again.evaluated == 1
        assert again.records() == first.records()
        # The entry is repaired in place and serves the next run.
        assert cache.get(first.points[0].key) == first.points[0].result


def test_cache_entry_is_self_describing(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec(points=[{"x": 9}])
    result = run_sweep(spec, cache=cache)
    entry = json.loads(cache.path_for(result.points[0].key).read_text())
    assert entry["target"] == "test_counting"
    assert entry["config"] == {"bias": 1, "x": 9}
    assert entry["seed"] == result.points[0].seed
    assert entry["version"] == spec.version


# -- determinism across worker counts ------------------------------------


def test_worker_count_does_not_change_bytes():
    spec = SweepSpec(
        target="serving",
        points=grid(request_rate=[2.0, 6.0], mode=["colocated", "disaggregated"]),
        base=SERVING_BASE,
        seed=9,
    )
    serial = run_sweep(spec, workers=1, cache=None)
    fanned = run_sweep(spec, workers=3, cache=None)
    assert serial.to_json() == fanned.to_json()
    assert fanned.evaluated == 4


def test_custom_target_runs_in_worker_processes():
    # fork inherits the registry, so a target registered at test-module
    # import is callable from pool workers too.
    spec = _counting_spec(points=grid(x=[1, 2, 3, 4]))
    fanned = run_sweep(spec, workers=2, cache=None)
    assert [p.result["value"] for p in fanned.points] == [3, 5, 7, 9]


# -- target wiring -------------------------------------------------------


def test_serving_target_matches_direct_simulation():
    from repro.serving import ServingSimulator, SimConfig, WorkloadSpec, compact_record

    config = dict(SERVING_BASE, request_rate=3.0, mode="disaggregated", seed=4)
    [point] = run_sweep(
        SweepSpec(target="serving", points=[config]), cache=None
    ).points
    direct = compact_record(
        ServingSimulator(
            SimConfig(
                workload=WorkloadSpec(
                    request_rate=3.0, num_requests=25, output_mean=32, prompt_mean=128
                ),
                mode="disaggregated",
                seed=4,
            )
        ).run()
    )
    assert point.result == direct


def test_serving_target_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown serving sweep keys"):
        run_sweep(
            SweepSpec(target="serving", points=[{"no_such_knob": 1}]), cache=None
        )


def test_unknown_target_raises():
    with pytest.raises(KeyError, match="unknown sweep target"):
        run_sweep(SweepSpec(target="no-such-target", points=[{"x": 1}]), cache=None)


# -- observability -------------------------------------------------------


def test_sweep_emits_spans_counters_and_progress(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec()
    run_sweep(spec, cache=cache)

    tracer, metrics = Tracer(), MetricsRegistry()
    run_sweep(spec, cache=cache, tracer=tracer, metrics=metrics)
    hits = [e for e in tracer.events if e.get("ph") == "i"]
    assert len(hits) == 3, "every cached point records an instant"
    assert metrics.counter("sweep.points").value == 3
    assert metrics.counter("sweep.cache_hits").value == 3
    assert metrics.counter("sweep.evaluated").value == 0
    assert metrics.gauge("sweep.progress").value == 1.0

    tracer2 = Tracer()
    run_sweep(_counting_spec(seed=8), tracer=tracer2, cache=None)
    spans = [e for e in tracer2.events if e.get("ph") == "X"]
    assert len(spans) == 3, "every evaluated point records a span"


# -- CLI -----------------------------------------------------------------


def test_cli_sweep_json_document(tmp_path, capsys):
    from repro.cli import main

    argv = [
        "sweep", "--target", "test_counting",
        "--grid", "x=1,2", "--set", "bias=3",
        "--cache-dir", str(tmp_path), "--json",
    ]
    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)
    assert [p["config"] for p in cold["points"]] == [
        {"bias": 3, "x": 1}, {"bias": 3, "x": 2},
    ]
    assert [p["result"]["value"] for p in cold["points"]] == [5, 7]
    assert cold["evaluated"] == 2 and cold["cache_hits"] == 0

    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["cache_hits"] == 2 and warm["evaluated"] == 0
    assert [p["result"] for p in warm["points"]] == [p["result"] for p in cold["points"]]


def test_cli_sweep_table_output(tmp_path, capsys):
    from repro.cli import main

    assert (
        main(
            ["sweep", "--target", "test_counting", "--grid", "x=1,2",
             "--cache-dir", str(tmp_path)]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "sweep 'test_counting'" in out
    assert "evaluated 2" in out


def test_cli_sweep_value_parsing():
    from repro.cli import _sweep_value

    assert _sweep_value("4") == 4 and isinstance(_sweep_value("4"), int)
    assert _sweep_value("4.5") == 4.5
    assert _sweep_value("true") is True and _sweep_value("False") is False
    assert _sweep_value("null") is None
    assert _sweep_value("colocated") == "colocated"


def test_cli_sweep_rejects_unknown_target_and_missing_grid(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["sweep", "--target", "bogus", "--grid", "x=1"])
    with pytest.raises(SystemExit):
        main(["sweep", "--target", "test_counting", "--cache-dir", str(tmp_path)])


# -- error records, progress hook, interruption --------------------------


def _failing_target(config: dict, seed: int) -> dict:
    if config["x"] % 2 == 0:
        raise ValueError(f"bad point x={config['x']}")
    return {"value": config["x"]}


register_target("test_failing", _failing_target)


@pytest.mark.parametrize("workers", [1, 3])
def test_strict_default_raises_the_original_exception(workers):
    spec = SweepSpec(target="test_failing", points=grid(x=[1, 2]))
    with pytest.raises(ValueError, match="bad point x=2"):
        run_sweep(spec, workers=workers, cache=None)


def _exiting_target(config: dict, seed: int) -> dict:
    if config["x"] == 3:
        os._exit(3)
    return {"value": config["x"]}


register_target("test_exiting", _exiting_target)


def test_worker_death_costs_only_its_point():
    spec = SweepSpec(target="test_exiting", points=grid(x=[1, 2, 3, 4, 5]), seed=3)
    result = run_sweep(spec, workers=2, cache=None, strict=False)
    assert [p.result["value"] for p in result.points if p.error is None] == [1, 2, 4, 5]
    (died,) = [p for p in result.points if p.error is not None]
    assert died.config["x"] == 3
    assert died.error == {
        "target": "test_exiting",
        "config": canonical_config(died.config),
        "seed": died.seed,
        "type": "WorkerDied",
        "message": "worker process died without reporting (exitcode 3)",
    }


def test_strict_worker_death_raises_point_quarantined():
    from repro.sweep import PointQuarantined

    spec = SweepSpec(target="test_exiting", points=grid(x=[1, 3]), seed=3)
    with pytest.raises(PointQuarantined) as excinfo:
        run_sweep(spec, workers=2, cache=None)
    assert [f["type"] for f in excinfo.value.record["failures"]] == ["WorkerDied"]


def test_strict_false_yields_structured_error_records(tmp_path):
    cache = SweepCache(tmp_path)
    spec = SweepSpec(target="test_failing", points=grid(x=[1, 2, 3, 4]), seed=3)
    result = run_sweep(spec, cache=cache, strict=False)
    assert result.errors == 2 and result.evaluated == 4
    failed = [p for p in result.points if p.error is not None]
    assert [p.config["x"] for p in failed] == [2, 4]
    for p in failed:
        assert p.result is None
        assert p.error["target"] == "test_failing"
        assert p.error["config"] == canonical_config(p.config)
        assert p.error["seed"] == p.seed
        assert p.error["type"] == "ValueError"
        assert "bad point" in p.error["message"]
        assert "_failing_target" in p.error["traceback"]
    # The document carries the error records (and only for failures).
    doc = result.payload()
    assert [i for i, p in enumerate(doc["points"]) if "error" in p] == [1, 3]
    # Failed points are never cached: a warm re-run retries exactly them.
    again = run_sweep(spec, cache=cache, strict=False)
    assert again.cache_hits == 2 and again.evaluated == 2
    assert [p.config["x"] for p in again.points if not p.cached] == [2, 4]


def test_error_records_byte_identical_across_worker_counts():
    spec = SweepSpec(target="test_failing", points=grid(x=[1, 2, 3, 4]), seed=3)
    serial = run_sweep(spec, workers=1, cache=None, strict=False)
    fanned = run_sweep(spec, workers=3, cache=None, strict=False)
    assert serial.to_json() == fanned.to_json()


def test_on_point_reports_hits_and_evaluations_in_order(tmp_path):
    cache = SweepCache(tmp_path)
    run_sweep(_counting_spec(points=grid(x=[1, 2])), cache=cache)
    settled = []
    run_sweep(
        _counting_spec(points=grid(x=[1, 2, 3])),
        cache=cache,
        on_point=lambda p: settled.append((p.index, p.cached)),
    )
    assert settled == [(0, True), (1, True), (2, False)]


def test_interrupt_raises_and_the_cache_resumes(tmp_path):
    from repro.sweep import SweepInterrupted

    cache = SweepCache(tmp_path)
    CALLS["count"] = 0
    spec = _counting_spec()
    with pytest.raises(SweepInterrupted) as excinfo:
        run_sweep(spec, cache=cache, interrupt=lambda: CALLS["count"] >= 1)
    assert excinfo.value.done == 1 and excinfo.value.total == 3
    assert len(cache) == 1  # the completed point is durable
    resumed = run_sweep(spec, cache=cache)
    assert resumed.cache_hits == 1 and resumed.evaluated == 2


def test_report_payload_is_cache_independent(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec()
    cold = run_sweep(spec, cache=cache)
    warm = run_sweep(spec, cache=cache)
    assert cold.to_json() != warm.to_json()  # provenance differs...
    assert cold.to_report_json() == warm.to_report_json()  # ...results don't
    assert "cached" not in warm.report_payload()["points"][0]


def test_get_many_matches_per_key_get(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec()
    keys = [spec.key(c) for c in spec.configs()]
    # All-miss probe: every key None, no shard directories touched.
    assert cache.get_many(keys) == {k: None for k in keys}
    run_sweep(spec, cache=cache)
    got = cache.get_many(keys)
    assert got == {k: cache.get(k) for k in keys}
    assert all(v is not None for v in got.values())


def test_get_many_index_survives_own_puts_and_rescans_foreign_writes(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec()
    configs = spec.configs()
    keys = [spec.key(c) for c in configs]
    cache.get_many(keys)  # warm the (empty) shard index
    # Our own put updates the index in place: no rescan needed.
    cache.put(keys[0], target=spec.target, config=configs[0],
              seed=spec.point_seed(configs[0]), version=spec.version,
              result={"value": 1})
    assert cache.get_many(keys)[keys[0]] == {"value": 1}
    # A foreign writer (second cache instance) bumps the shard mtime;
    # the next probe revalidates and sees the new entry.
    other = SweepCache(tmp_path)
    other.put(keys[1], target=spec.target, config=configs[1],
              seed=spec.point_seed(configs[1]), version=spec.version,
              result={"value": 2})
    assert cache.get_many(keys)[keys[1]] == {"value": 2}


def test_get_many_validates_entries_like_get(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _counting_spec()
    run_sweep(spec, cache=cache)
    key = spec.key(spec.configs()[0])
    cache.path_for(key).write_text("{not json")
    fresh = SweepCache(tmp_path)  # no index: forces scandir + full get
    assert fresh.get_many([key])[key] is None  # corrupt entry is a miss
