"""The ``train-table1`` workload: one seed of a reduced Table I grid.

The grid runs in a child process (``python -m perfbench.train``)
so imports count in set-up and peak memory is the trainer's alone.  The
child runs ``run_table1_grid(jobs=1)`` with a run directory, as
``repro table1`` does, and reads the adaptation-step spans back from the
run's own ``trace.jsonl``.  The reduced config is fixed in
``table1_config.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common, layers  # noqa: E402

CONFIG_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "table1_config.json")
#: Fewest trainer launches in an untraced run.  Each launch runs the
#: grid once; launches go on until the run's seconds are used, and the
#: timing metrics pool every launch's grid, so a run averages the host's
#: speed over all of its measured time.
MIN_LAUNCHES = 3
ADAPTED = ("lora", "multi_lora", "meta_lora_cp", "meta_lora_tr")


def load_config():
    from repro.eval.protocol import Table1Config

    with open(CONFIG_PATH) as handle:
        return Table1Config(**json.load(handle))


# -- the child process ---------------------------------------------------------


def _cell_method(args, kwargs, result) -> dict:
    return {"method": args[2] if len(args) > 2 else kwargs.get("method")}


def install_tracing() -> None:
    from perfbench import tracing
    from repro.obs import OBS

    OBS.enable()
    for path, name in (
        ("repro.train.trainer:Trainer.train_step", "train.step"),
        ("repro.autograd.tensor:Tensor.backward", "autograd.backward"),
        ("repro.train.optim:Adam.step", "optim.step"),
        ("repro.eval.knn:KNNClassifier.fit", "knn.fit"),
        ("repro.eval.knn:KNNClassifier.score", "knn.score"),
        ("repro.runtime.rundir:RunDir.save_cell_artifact", "rundir.checkpoint"),
    ):
        tracing.wrap(path, name)
    import repro.runtime.table1  # noqa: F401  (bind the names rebound below)

    for path, name, attrs in (
        ("repro.eval.embeddings:extract_embeddings", "eval.embed", None),
        ("repro.eval.protocol:pretrain_backbone", "train.pretrain", None),
        ("repro.data.synthetic:generate_task_data", "data.generate", None),
        ("repro.eval.protocol:run_table1_cell", "table1.cell", _cell_method),
        ("repro.eval.protocol:prepare_table1_seed", "table1.context", None),
    ):
        tracing.wrap(path, name, attrs, everywhere=True)


def episode_ms(trace_path: str) -> list[float]:
    """Per-episode adaptation time, summed over the adapted methods, in ms.

    Read from the run's own trace export: each method's ``train.step``
    spans sit under its ``train.episodes`` span in episode order, and
    episode ``e`` of the result is the sum of every method's step ``e``.
    One step per method would make the distribution as many-peaked as
    there are methods, so a percentile would jump between peaks.
    """
    from repro.obs import load_trace

    records = load_trace(trace_path)
    names = {record["id"]: record["name"] for record in records}
    per_method: dict[int, list[float]] = {}
    for record in records:
        if record["name"] == "train.step" and names.get(record["parent"]) == "train.episodes":
            per_method.setdefault(record["parent"], []).append(record["seconds"] * 1e3)
    return [sum(steps) for steps in zip(*per_method.values())]


def child(args: argparse.Namespace) -> int:
    if args.trace_dir:
        install_tracing()
    from repro.runtime.table1 import run_table1_grid

    config = load_config()
    shutil.rmtree(args.run_dir, ignore_errors=True)
    os.makedirs(os.path.dirname(args.run_dir), exist_ok=True)
    common.emit({"event": "ready"})
    began = time.perf_counter()
    result = run_table1_grid(config, [args.seed], jobs=1, out_dir=args.run_dir)
    wall = time.perf_counter() - began
    table = {
        "table1_s": wall,
        "rows": {m: {str(k): a for k, a in row.accuracy_by_k.items()} for m, row in result.rows_by_seed[0].items()},
        "cells": [{"key": list(r.key), "seconds": r.seconds, "ok": r.ok} for r in result.cell_results],
        "episodes_ms": episode_ms(os.path.join(args.run_dir, "trace.jsonl")),
    }
    shutil.rmtree(args.run_dir, ignore_errors=True)
    done = {"event": "done", "tables": [table], "peak_rss_mb": common.self_peak_rss_mb()}
    if args.trace_dir:
        from perfbench import tracing
        from repro.obs import OBS

        done["obs"] = OBS.snapshot()
        tracing.flush(args.trace_dir, {"role": "trainer"})
    common.emit(done)
    return 0


# -- the benchmark side ----------------------------------------------------------


def launch(seed: int, trace_dir: str | None = None) -> tuple[float, dict]:
    """One child run of the grid; returns ``(setup seconds, done message)``."""
    env, __ = common.scrubbed_env()
    run_dir = os.path.join(common.WORK, f"table1-{os.getpid()}", "run")
    command = [sys.executable, "-m", "perfbench.train", "--seed", str(seed), "--run-dir", run_dir]
    if trace_dir:
        command += ["--trace-dir", trace_dir]
    start = time.perf_counter()
    process = subprocess.Popen(command, cwd=common.ROOT, env=env, stdout=subprocess.PIPE, text=True)
    setup = None
    done = None
    try:
        for line in process.stdout:
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                sys.stderr.write(line)
                continue
            if message.get("event") == "ready":
                setup = time.perf_counter() - start
            elif message.get("event") == "done":
                done = message
    except BaseException:
        process.kill()
        raise
    finally:
        code = process.wait()
        shutil.rmtree(os.path.dirname(run_dir), ignore_errors=True)
    if code != 0 or setup is None or done is None:
        raise RuntimeError(f"training child failed with exit code {code}")
    return setup, done


def checks(tables: list[dict]) -> list[tuple[str, bool]]:
    """Every accuracy finite and in [0, 1]; every adapted method beats Original."""
    out = []
    for n, table in enumerate(tables):
        rows = table["rows"]
        for method, by_k in sorted(rows.items()):
            for k, acc in sorted(by_k.items()):
                out.append((f"table {n} {method} K={k} accuracy {acc:.4f} finite and in [0, 1]",
                            math.isfinite(acc) and 0.0 <= acc <= 1.0))
        for method in ADAPTED:
            if method in rows and "original" in rows:
                out.append((f"table {n} {method} K=5 {rows[method]['5']:.4f} beats original {rows['original']['5']:.4f}",
                            rows[method]["5"] > rows["original"]["5"]))
        out.append((f"table {n} has every method", set(rows) == {"original", *ADAPTED}))
    return out


def _samples(config) -> int:
    return len(ADAPTED) * config.adapt_episodes * config.adapt_batch


def end_to_end(dones: list[dict], setups: list[float], passed: int, total: int) -> dict:
    """Latency and throughput pool every launch's grid; set-up and memory are medians."""
    config = load_config()
    tables = [table for done in dones for table in done["tables"]]
    episodes = [ms for table in tables for ms in table["episodes_ms"]]
    return {
        "setup_s": common.median(setups),
        "latency_p50_ms": layers.tail(episodes, 50, "adaptation episode p50"),
        "latency_p90_ms": layers.tail(episodes, 90, "adaptation episode p90"),
        "throughput_per_s": _samples(config) * len(tables) / sum(table["table1_s"] for table in tables),
        "ok_ratio": passed / max(total, 1),
        "peak_rss_mb": common.median([done["peak_rss_mb"] for done in dones]),
    }


def train_layers(done: dict, baseline: dict, headers: list[dict], spans: list[dict]) -> dict:
    from perfbench import tracing

    metrics: dict[str, float] = {}
    by_id = {(span["pid"], span["id"]): span for span in spans}

    def method_of(span: dict) -> str | None:
        while span is not None:
            if span["name"] == "table1.cell":
                return span.get("method")
            span = by_id.get((span["pid"], span["parent"]))
        return None

    selfs = tracing.self_times(spans)
    steps = [span for span in spans if span["name"] == "train.step"]
    # train_step's own time is the model call, the loss and the gradient
    # bookkeeping: everything but backward and the optimizer step.
    forward = [selfs[(span["pid"], span["id"])] * 1e3 for span in steps]
    metrics["autograd.forward_ms.p50"] = layers.tail(forward, 50)
    metrics["autograd.backward_ms.p50"] = layers.tail([d * 1e3 for d in layers.durations(spans, "autograd.backward")], 50)
    for method in ADAPTED:
        mine = [(span["end"] - span["start"]) * 1e3 for span in steps if method_of(span) == method]
        metrics[f"train.step_ms.{method}"] = layers.tail(mine, 50) if mine else 0.0
    for key, name in (("optim.step_ms", "optim.step"), ("knn.fit_ms", "knn.fit"),
                      ("knn.score_ms", "knn.score"), ("rundir.checkpoint_ms", "rundir.checkpoint")):
        metrics[key] = layers.mean(layers.durations(spans, name)) * 1e3
    for key, name in (("train.pretrain_s", "train.pretrain"), ("eval.embed_s", "eval.embed"),
                      ("data.generate_s", "data.generate")):
        metrics[key] = sum(layers.durations(spans, name))
    wall = sum(table["table1_s"] for table in done["tables"])
    work = sum(layers.durations(spans, "table1.cell")) + sum(layers.durations(spans, "table1.context"))
    metrics["grid.overhead_s"] = wall - work
    metrics.update(layers.obs_layers(done.get("obs") or {}))
    accuracies = [row["5"] for table in done["tables"] for m, row in table["rows"].items() if m in ADAPTED]
    metrics["eval.knn_acc"] = layers.mean(accuracies)
    base_wall = sum(table["table1_s"] for table in baseline["tables"])
    base_steps = [ms for table in baseline["tables"] for ms in table["episodes_ms"]]
    traced_steps = [ms for table in done["tables"] for ms in table["episodes_ms"]]
    metrics["trace.overhead.latency_p50_pct"] = (layers.tail(traced_steps, 50) / layers.tail(base_steps, 50) - 1.0) * 100.0
    metrics["trace.overhead.throughput_pct"] = (1.0 - base_wall / wall) * 100.0
    return metrics


def run_workload(seed: int, seconds: float, trace: bool) -> dict:
    if not trace:
        setups, dones = [], []
        start = time.perf_counter()
        while len(dones) < MIN_LAUNCHES or time.perf_counter() - start < seconds:
            setup, done = launch(seed)
            setups.append(setup)
            dones.append(done)
        tables = [table for done in dones for table in done["tables"]]
        results = checks(tables)
        results.append((
            "every launch computed the same accuracies",
            all(table["rows"] == tables[0]["rows"] for table in tables),
        ))
        passed = sum(1 for __, ok in results if ok)
        failed_cells = sum(1 for t in tables for c in t["cells"] if not c["ok"])
        episodes = sum(len(t["episodes_ms"]) for t in tables)
        return {
            "metrics": end_to_end(dones, setups, passed, len(results)),
            "correct": passed == len(results) and failed_cells == 0,
            "checks": [f"{'pass' if ok else 'FAIL'}: {text}" for text, ok in results]
            + [f"latency percentiles rest on {episodes} adaptation episodes"],
            "counts": {
                "sent": sum(len(t["cells"]) for t in tables) + len(results),
                "ok": sum(1 for t in tables for c in t["cells"] if c["ok"]) + passed,
                "failed": failed_cells + len(results) - passed,
            },
        }
    from perfbench import tracing

    __, baseline = launch(seed)
    trace_dir = common.spans_dir("train-table1")
    __, done = launch(seed, trace_dir=trace_dir)
    headers, spans = tracing.load(trace_dir)
    tables = done["tables"] + baseline["tables"]
    results = checks(tables)
    passed = sum(1 for __, ok in results if ok)
    failed_cells = sum(1 for t in tables for c in t["cells"] if not c["ok"])
    absent = {}
    for header in headers:
        absent.update(header.get("absent") or {})
    for key in ("codec.encode_us", "codec.decode_us", "frontend.overhead_ms.p50", "frontend.overhead_ms.p99"):
        absent[key] = "no serving layer runs in training"
    return {
        "metrics": train_layers(done, baseline, headers, spans),
        "correct": passed == len(results) and failed_cells == 0,
        "absent": absent,
        "checks": [f"{'pass' if ok else 'FAIL'}: {text}" for text, ok in results],
        "counts": {
            "sent": sum(len(t["cells"]) for t in tables) + len(results),
            "ok": sum(1 for t in tables for c in t["cells"] if c["ok"]) + passed,
            "failed": failed_cells + len(results) - passed,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--trace-dir", default=None)
    return child(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
