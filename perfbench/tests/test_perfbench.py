"""Tests of the benchmark's own code (no server is started).

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import client, common, layers, run, serve, tracing, train  # noqa: E402

SPEC = common.load_benchmark()
END_TO_END = {entry["name"] for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"] for entry in SPEC["per_layer"]}


# -- the seed fixes the load ------------------------------------------------------


def test_schedule_is_reproducible_from_the_seed():
    tenants = ["static", "tr_a", "tr_b", "cp"]
    first = client.draw_schedule(7, 200.0, 2.0, tenants, 48)
    assert first == client.draw_schedule(7, 200.0, 2.0, tenants, 48)
    assert first != client.draw_schedule(8, 200.0, 2.0, tenants, 48)
    offsets = [offset for offset, __, __ in first]
    assert offsets == sorted(offsets) and 0.0 < offsets[0] and offsets[-1] < 2.0
    assert len(first) == 400  # 200/s over 2 s, conditioned on the count
    assert first != client.draw_schedule(7, 200.0, 2.0, tenants, 48, launch=1)
    assert client.draw_sequence(7, 100, tenants, 48) == client.draw_sequence(7, 100, tenants, 48)
    assert client.draw_sequence(7, 100, tenants, 48) != client.draw_sequence(8, 100, tenants, 48)


# -- percentiles rest on a tail -----------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert common.percentile(list(range(1000)), 99) == 989.0  # exactly 10 beyond
    assert common.percentile(list(range(999)), 99) is None  # 9 beyond
    assert common.percentile(list(range(20)), 50) == 9.0
    assert common.percentile(list(range(19)), 50) is None
    assert common.percentile([], 50) is None


def test_tail_falls_back_to_the_maximum_with_a_note():
    layers.NOTES.clear()
    assert layers.tail([1.0, 5.0, 3.0], 99, "x") == 5.0
    assert layers.NOTES and "3 samples" in layers.NOTES[0]
    layers.NOTES.clear()
    assert layers.tail([float(v) for v in range(1000)], 99) == 989.0
    assert not layers.NOTES


# -- the correctness check ------------------------------------------------------------


def _checker():
    rng = np.random.default_rng(0)
    static = rng.normal(size=(4, 8))
    meta = rng.normal(size=(4, 8))
    meta_alt = rng.normal(size=(4, 8))
    return client.Checker({"static": [static], "tr_b": [meta, meta_alt]}, exact={"static"}), static, meta, meta_alt


def test_checker_catches_a_perturbed_row():
    check, static, meta, meta_alt = _checker()
    assert check("static", 1, static[1].copy())
    perturbed = static[1].copy()
    perturbed[3] += 1e-15 * max(1.0, abs(perturbed[3]))
    assert not np.array_equal(perturbed, static[1])
    assert not check("static", 1, perturbed)  # static rows must be exact
    assert check("tr_b", 2, meta[2] + 2e-15)  # batch-composition drift passes
    assert not check("tr_b", 2, meta[2] + 1e-6)
    assert check("tr_b", 2, meta_alt[2])  # either weight set of a swapped tenant
    assert not check("tr_b", 2, meta[3])  # another sample's row
    assert not check("static", 0, None)
    assert not check("static", 0, static[0][:4])


# -- names --------------------------------------------------------------------------


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    workloads = [entry["name"] for entry in SPEC["workloads"]]
    assert set(workloads) <= set(run.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200 and "\n" not in entry["why"]
    names = workloads + [e["name"] for e in SPEC["end_to_end"]] + [e["name"] for e in SPEC["per_layer"]]
    assert len(set(names) - set(workloads)) == len(names) - len(workloads)
    for name in names:
        assert common.NAME_RE.match(name), name
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    assert any(e["name"] == "setup_s" and e["unit"] == "s" and e["better"] == "lower" for e in SPEC["end_to_end"])
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert entry["better"] in ("lower", "higher")
        assert len(entry["unit"]) <= 16


def test_layer_map_points_at_gated_workloads():
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as handle:
        mapping = json.load(handle)
    assert set(mapping) == PER_LAYER
    declared = {entry["name"] for entry in SPEC["workloads"]}
    for name, entry in mapping.items():
        assert entry["moves"] in END_TO_END, name
        assert entry["on"] in declared, name


def _outcome(tenant, due, sent, done, status="ok", correct=True):
    outcome = client.Outcome(tenant, 0, due, sent, done, status, correct)
    outcome.timings = {"queue_seconds": 0.001, "run_seconds": 0.002, "total_seconds": 0.004}
    return outcome


def _serve_run(sharded: bool) -> dict:
    outcomes = [_outcome("static", k * 0.01, k * 0.01, k * 0.01 + 0.005 + k * 1e-5) for k in range(1200)]
    stats = {
        "serve.batch.size": {"kind": "histogram", "calls": 3, "buckets": {"1": 2, "3": 1}},
        "serve.queue.depth": {"kind": "histogram", "calls": 3, "buckets": {"2": 3}},
        "serve.program_cache.hit": {"kind": "counter", "calls": 3},
        "serve.program_cache.miss": {"kind": "counter", "calls": 1},
    }
    ready = {"port": 1}
    if sharded:
        ready.update(spawn_s=0.1, replicate_ms=[5.0, 7.0])
    return {
        "outcomes": outcomes,
        "wall": 12.0,
        "lateness": 0.002,
        "before": {"stats": {}},
        "after": {"stats": stats},
        "peak_rss_mb": 100.0,
        "clean_stop": True,
        "ready": ready,
        "open": True,
    }


@pytest.mark.parametrize("sharded", [False, True])
def test_serve_names_are_declared(sharded):
    run_ = _serve_run(sharded)
    spans = [
        {"id": 1, "pid": 1, "parent": None, "name": "engine.serve", "start": 0.0, "end": 0.01, "rows": 2},
        {"id": 2, "pid": 1, "parent": 1, "name": "program.run", "start": 0.0, "end": 0.004, "role": "body", "rows": 2},
        {"id": 3, "pid": 1, "parent": None, "name": "shard.submit", "start": 0.0, "end": 0.02, "shard_total": 0.015, "status": "ok"},
    ]
    metrics, absent = layers.serve_layers(run_, run_, [{"obs": {}}], spans)
    assert set(metrics) <= PER_LAYER
    assert set(absent) <= PER_LAYER
    assert metrics["scheduler.batch_size.mean"] == pytest.approx(5.0 / 3.0)
    assert metrics["program_cache.hit_ratio"] == pytest.approx(0.75)
    e2e = serve.end_to_end([run_, run_], [1.0, 2.0, 3.0])
    assert set(e2e) == END_TO_END
    assert all(value > 0 for value in e2e.values())
    assert e2e["setup_s"] == 2.0 and e2e["ok_ratio"] == 1.0


def test_serve_verdict_needs_served_and_correct_rows():
    good = _serve_run(False)
    assert serve.verdict([good], 0)[0]
    assert not serve.verdict([good], 1)[0]  # a warm-up request went wrong
    nothing = dict(good, outcomes=[_outcome("static", 0.0, 0.0, 0.0, status="error", correct=False)])
    assert not serve.verdict([good, nothing], 0)[0]  # a load with no ok row checks nothing
    wrong = dict(good, outcomes=good["outcomes"][:5] + [_outcome("static", 0.0, 0.0, 0.001, correct=False)])
    assert not serve.verdict([wrong], 0)[0]
    warm = [_outcome("cp", 0.0, 0.0, 0.001), _outcome("cp", 0.0, 0.0, 0.0, status="rejected", correct=False)]
    assert serve.warm_failures(warm) == 1


def test_swap_share_clips_swaps_to_the_load():
    run_ = _serve_run(True)  # sends from 0 to 11.99 s, wall 12 s
    spans = [
        {"name": "shard.swap", "start": 1.0, "end": 1.6},
        {"name": "shard.swap", "start": 11.9, "end": 12.5},  # ends after the load
        {"name": "engine.serve", "start": 0.0, "end": 12.0},
    ]
    assert layers.swap_share(spans, run_) == pytest.approx(0.7 / 12.0)


def test_obs_layers_read_counters():
    snapshot = {
        "serve.arena.hit": {"calls": 3},
        "serve.arena.alloc": {"calls": 1},
        "serve.parallel.skipped": {"calls": 1},
        "serve.parallel.slots": {"calls": 4},
        "einsum.plan_cache.hit": {"calls": 9},
        "einsum.plan_cache.miss": {"calls": 1},
    }
    metrics = layers.obs_layers(snapshot)
    assert set(metrics) <= PER_LAYER
    assert metrics["arena.hit_ratio"] == pytest.approx(0.75)
    assert metrics["parallel.skipped_ratio"] == pytest.approx(0.2)
    assert metrics["einsum.plan_cache.hit_ratio"] == pytest.approx(0.9)
    assert metrics["conv2d.patches_cache.hit_ratio"] == 0.0


def _table(wall: float) -> dict:
    rows = {"original": {"5": 0.5, "10": 0.5}}
    rows.update({m: {"5": 0.9, "10": 0.8} for m in train.ADAPTED})
    return {"table1_s": wall, "rows": rows, "cells": [{"key": ["x", 0], "seconds": 1.0, "ok": True}],
            "episodes_ms": [float(v) for v in range(200)]}


def test_train_names_are_declared_and_checks_catch_a_regression():
    done = {"tables": [_table(9.0)], "peak_rss_mb": 150.0, "obs": {}}
    spans = [
        {"id": 1, "pid": 1, "parent": None, "name": "table1.cell", "start": 0.0, "end": 2.0, "method": "lora"},
        {"id": 2, "pid": 1, "parent": 1, "name": "train.step", "start": 0.0, "end": 0.03},
        {"id": 3, "pid": 1, "parent": 2, "name": "autograd.backward", "start": 0.01, "end": 0.02},
    ]
    metrics = train.train_layers(done, done, [], spans)
    assert set(metrics) <= PER_LAYER
    assert metrics["train.step_ms.lora"] == pytest.approx(30.0)
    assert metrics["autograd.forward_ms.p50"] == pytest.approx(20.0)
    results = train.checks(done["tables"])
    e2e = train.end_to_end([done, done], [1.0, 1.2, 1.1], sum(ok for __, ok in results), len(results))
    assert set(e2e) == END_TO_END and all(value > 0 for value in e2e.values())
    assert all(ok for __, ok in results)
    worse = _table(9.0)
    worse["rows"]["lora"]["5"] = 0.4
    assert not all(ok for __, ok in train.checks([worse]))
    worse["rows"]["lora"]["5"] = float("nan")
    assert not all(ok for __, ok in train.checks([worse]))


def test_result_line_reports_every_declared_metric():
    outcome = {"metrics": {"setup_s": 1.5}, "counts": {"sent": 3, "failed": 0}, "correct": True}
    line = run.result_line(outcome, False, SPEC)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == END_TO_END
    line = run.result_line(dict(outcome, metrics={}), True, SPEC)
    assert set(line["metrics"]) == PER_LAYER


def test_self_time_subtracts_children():
    rows = [
        {"id": 1, "pid": 9, "parent": None, "name": "a", "start": 0.0, "end": 1.0},
        {"id": 2, "pid": 9, "parent": 1, "name": "b", "start": 0.1, "end": 0.4},
        {"id": 3, "pid": 9, "parent": 1, "name": "c", "start": 0.5, "end": 0.7},
    ]
    selfs = tracing.self_times(rows)
    assert selfs[(9, 1)] == pytest.approx(0.5)
    assert selfs[(9, 2)] == pytest.approx(0.3)


def test_wrap_records_nested_spans_and_absent_targets():
    class Target:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    module = type(sys)("perfbench_fake_target")
    module.Target = Target
    sys.modules[module.__name__] = module
    try:
        tracing.wrap("perfbench_fake_target:Target.outer", "fake.outer")
        tracing.wrap("perfbench_fake_target:Target.inner", "fake.inner")
        tracing.wrap("perfbench_fake_target:Target.missing", "fake.missing")
        assert Target().outer() == 2
        spans = {s["name"]: s for s in tracing.spans() if s["name"].startswith("fake.")}
        assert spans["fake.inner"]["parent"] == spans["fake.outer"]["id"]
        assert "perfbench_fake_target:Target.missing" in tracing.ABSENT
        tracing.unwrap_all()
        assert not hasattr(Target.outer, "__perfbench_original__")
        assert not hasattr(Target.inner, "__perfbench_original__")
    finally:
        tracing.unwrap_all()
        del sys.modules[module.__name__]
