"""Per-layer metrics of a traced run, from spans, wire stats and OBS."""

from __future__ import annotations

from perfbench import common

#: Notes on figures that could not follow the percentile rule; printed
#: with the run's report.
NOTES: list[str] = []


def tail(values: list[float], q: float, label: str = "") -> float:
    """``q``-th percentile under the >=10-beyond rule, else the maximum.

    The fallback keeps a metric present when a run is too short for its
    tail; the note says so and how many samples there were.
    """
    value = common.percentile(values, q)
    if value is not None:
        return value
    NOTES.append(
        f"{label or 'p' + str(q)}: {len(values)} samples leave fewer than "
        f"{common.MIN_BEYOND} beyond p{q:g}; reporting the maximum"
    )
    return float(max(values)) if values else 0.0


def _series(snapshot: dict, name: str, field: str = "calls") -> float:
    return float((snapshot.get(name) or {}).get(field, 0) or 0)


def _buckets(before: dict, after: dict, name: str) -> dict[float, int]:
    old = (before.get(name) or {}).get("buckets") or {}
    new = (after.get(name) or {}).get("buckets") or {}
    delta = {}
    for key, count in new.items():
        change = int(count) - int(old.get(key, 0))
        if change > 0:
            delta[float(key)] = change
    return delta


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def durations(spans: list[dict], name: str) -> list[float]:
    return [span["end"] - span["start"] for span in spans if span["name"] == name]


def obs_layers(snapshot: dict) -> dict:
    """The metrics read straight off the program's ``OBS`` counters.

    Serving and training report the same set: on training the serving
    passes never run, so their figures are the predicted zero.
    """

    def hit_ratio(prefix: str, miss: str = "miss") -> float:
        hits = _series(snapshot, f"{prefix}.hit")
        return ratio(hits, hits + _series(snapshot, f"{prefix}.{miss}"))

    skipped = _series(snapshot, "serve.parallel.skipped")
    return {
        "program_cache.hit_ratio": hit_ratio("serve.program_cache"),
        "conv2d.patches_cache.hit_ratio": hit_ratio("conv2d.patches_cache"),
        "einsum.plan_cache.hit_ratio": hit_ratio("einsum.plan_cache"),
        "fusion.steps_eliminated": _series(snapshot, "serve.fusion.steps_eliminated"),
        "arena.hit_ratio": hit_ratio("serve.arena", "alloc"),
        "parallel.skipped_ratio": ratio(skipped, skipped + _series(snapshot, "serve.parallel.slots")),
    }


def swap_share(spans: list[dict], run: dict) -> float:
    """Share of the timed load's wall time during which a hot swap ran.

    Span and client times are both ``perf_counter`` readings, which on
    Linux share one monotonic clock across processes.
    """
    if not run["outcomes"] or run["wall"] <= 0:
        return 0.0
    start = min(o.sent for o in run["outcomes"])
    end = start + run["wall"]
    covered = sum(
        max(0.0, min(span["end"], end) - max(span["start"], start))
        for span in spans
        if span["name"] == "shard.swap"
    )
    return covered / run["wall"]


def serve_layers(traced: dict, baseline: dict, headers: list[dict], spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced serve load; returns ``(metrics, absent)``."""
    metrics: dict[str, float] = {}
    absent: dict[str, str] = {}
    good = [o for o in traced["outcomes"] if o.status == "ok" and o.correct]

    frames = len(durations(spans, "codec.encode_frame"))
    encode = sum(durations(spans, "codec.encode_frame")) + sum(durations(spans, "codec.encode_payload"))
    metrics["codec.encode_us"] = ratio(encode, frames) * 1e6
    metrics["codec.decode_us"] = mean(durations(spans, "codec.decode_payload")) * 1e6

    overhead = [(o.done - o.sent - o.timings.get("total_seconds", 0.0)) * 1e3 for o in good]
    queue = [o.timings.get("queue_seconds", 0.0) * 1e3 for o in good]
    run = [o.timings.get("run_seconds", 0.0) * 1e3 for o in good]
    metrics["frontend.overhead_ms.p50"] = tail(overhead, 50, "frontend.overhead_ms.p50")
    metrics["frontend.overhead_ms.p99"] = tail(overhead, 99, "frontend.overhead_ms.p99")
    metrics["scheduler.queue_ms.p50"] = tail(queue, 50, "scheduler.queue_ms.p50")
    metrics["scheduler.queue_ms.p99"] = tail(queue, 99, "scheduler.queue_ms.p99")
    metrics["engine.run_ms.p50"] = tail(run, 50, "engine.run_ms.p50")

    before, after = traced["before"]["stats"], traced["after"]["stats"]
    sizes = _buckets(before, after, "serve.batch.size")
    metrics["scheduler.batch_size.mean"] = ratio(
        sum(size * count for size, count in sizes.items()), sum(sizes.values())
    )
    depths = _buckets(before, after, "serve.queue.depth")
    metrics["scheduler.queue_depth.max"] = max(depths, default=0.0)
    for key, series in (("scheduler.rejected", "serve.request.rejected"), ("scheduler.deadline_missed", "serve.request.deadline_missed")):
        metrics[key] = _series(after, series) - _series(before, series)

    serves = [span for span in spans if span["name"] == "engine.serve"]
    metrics["engine.serve_ms_per_row"] = ratio(
        sum(span["end"] - span["start"] for span in serves) * 1e3,
        sum(span.get("rows", 0) for span in serves),
    )
    metrics["registry.register_ms"] = mean(durations(spans, "registry.register")) * 1e3
    swaps = durations(spans, "shard.swap")
    metrics["registry.swap_ms"] = mean(swaps) * 1e3
    metrics["registry.swap_share"] = swap_share(spans, traced)
    if not swaps:
        for key in ("registry.swap_ms", "registry.swap_share"):
            absent[key] = "no hot swap runs on this workload"

    runs = [span for span in spans if span["name"] == "program.run"]
    for role in ("extractor", "mapping", "body", "static"):
        mine = [span for span in runs if span.get("role") == role]
        metrics[f"program.{role}.run_ms"] = mean([span["end"] - span["start"] for span in mine]) * 1e3
        metrics[f"program.{role}.rows"] = mean([span.get("rows", 0) for span in mine])
    compile_s = sum(_series(header.get("obs") or {}, "serve.compile", "seconds") for header in headers)
    metrics["compile_ms"] = compile_s * 1e3

    metrics.update(obs_layers(after))

    ipc = [
        (span["end"] - span["start"] - span.get("shard_total", 0.0)) * 1e3
        for span in spans
        if span["name"] == "shard.submit" and span.get("status") == "ok"
    ]
    sharded = "spawn_s" in traced["ready"]
    if sharded:
        metrics["shard.ipc_ms.p50"] = tail(ipc, 50, "shard.ipc_ms.p50")
        affinity = _series(after, "serve.router.affinity") - _series(before, "serve.router.affinity")
        spill = _series(after, "serve.router.spill") - _series(before, "serve.router.spill")
        metrics["router.affinity_ratio"] = ratio(affinity, affinity + spill)
        metrics["shard.spawn_s"] = traced["ready"]["spawn_s"]
        metrics["shard.replicate_ms"] = mean(traced["ready"]["replicate_ms"])
        metrics["shard.deaths"] = _series(after, "serve.shard.deaths")
    else:
        for key in ("shard.ipc_ms.p50", "router.affinity_ratio", "shard.spawn_s", "shard.replicate_ms", "shard.deaths"):
            metrics[key] = 0.0
            absent[key] = "single-process server: no shards"

    metrics["loadgen.lateness_max_ms"] = traced["lateness"] * 1e3
    metrics["loadgen.sent"] = float(len(traced["outcomes"]))
    metrics["loadgen.latency_p99_ms"] = tail(latencies(baseline), 99, "loadgen.latency_p99_ms")
    metrics.update(overhead_metrics(traced, baseline))
    for header in headers:
        for target, reason in (header.get("absent") or {}).items():
            absent[target] = reason
    return metrics, absent


def _throughput(run: dict) -> float:
    good = [o for o in run["outcomes"] if o.status == "ok" and o.correct]
    return len(good) / max(run["wall"], 1e-9)


def latencies(run: dict) -> list[float]:
    """Client latencies of correct rows: from the due time (open loop) or the send."""
    good = [o for o in run["outcomes"] if o.status == "ok" and o.correct]
    return [(o.done - (o.due if run["open"] else o.sent)) * 1e3 for o in good]


def _p50(run: dict) -> float:
    return tail(latencies(run), 50)


def overhead_metrics(traced: dict, baseline: dict) -> dict:
    """Tracing overhead: traced vs untraced p50 latency and throughput, in %."""
    return {
        "trace.overhead.latency_p50_pct": (ratio(_p50(traced), _p50(baseline)) - 1.0) * 100.0,
        "trace.overhead.throughput_pct": (1.0 - ratio(_throughput(traced), _throughput(baseline))) * 100.0,
    }
