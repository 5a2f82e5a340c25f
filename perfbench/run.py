"""Run one benchmark workload against the program, from outside it.

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seconds 10

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the traced variant and prints the per-layer metrics
(a layer the workload does not exercise reports 0, and the report says
why).  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness check
prints ``"correct": false`` and exits 1.  ``--all`` runs every workload
in turn and prints a summary table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import common  # noqa: E402

WORKLOADS = ("serve-steady", "serve-saturate", "serve-sharded", "train-table1")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "train-table1":
        from perfbench import train

        return train.run_workload(seed, seconds, trace)
    from perfbench import serve

    return serve.run_workload(workload, seed, seconds, trace)


def result_line(outcome: dict, trace: bool, spec: dict) -> dict:
    """The contract's last line: every declared metric, by name and unit."""
    from perfbench import layers

    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in declared:
        value = outcome["metrics"].get(entry["name"])
        if value is None:
            value = 0.0
            outcome.setdefault("absent", {})[entry["name"]] = "layer not exercised by this workload"
        value = float(value)
        if not math.isfinite(value):
            layers.NOTES.append(f"{entry['name']}: non-finite value {value} reported as 0")
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    counts = outcome["counts"]
    return {
        "correct": bool(outcome["correct"]),
        "attempted": max(int(counts["sent"]), 1),
        "failed": int(counts["failed"]),
        "metrics": metrics,
    }


def report(workload: str, outcome: dict, line: dict, env: dict) -> None:
    from perfbench import layers

    counts = outcome["counts"]
    print(f"# {workload}: sent={counts['sent']} ok={counts['ok']} failed={counts['failed']} "
          f"correct={outcome['correct']}")
    if counts.get("statuses"):
        print(f"#   statuses {counts['statuses']}")
    for name, metric in line["metrics"].items():
        print(f"#   {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    for name, reason in sorted((outcome.get("absent") or {}).items()):
        print(f"#   absent {name}: {reason}")
    for note in layers.NOTES:
        print(f"#   note {note}")
    for check in outcome.get("checks", []):
        print(f"#   check {check}")
    print("# env " + json.dumps(env, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run a benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    # A terminated run still stops the servers and trainers it started.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"perfbench: no program source under {common.SRC}", file=sys.stderr)
        return 2
    removed = common.scrub_self()
    spec = common.load_benchmark()

    if not args.all:
        outcome = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        line = result_line(outcome, bool(args.trace), spec)
        env = common.fingerprint(removed, outcome.get("start_method"))
        report(args.workload, outcome, line, env)
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    summary = []
    for workload in WORKLOADS:
        start = time.perf_counter()
        outcome = run_one(workload, args.seed, args.seconds, bool(args.trace))
        line = result_line(outcome, bool(args.trace), spec)
        report(workload, outcome, line, common.fingerprint(removed, outcome.get("start_method")))
        summary.append((workload, outcome["counts"], line, time.perf_counter() - start))
        from perfbench import layers

        layers.NOTES.clear()
    print("workload          sent      ok  failed  correct")
    for workload, counts, line, __ in summary:
        print(f"{workload:<16} {counts['sent']:>6} {counts['ok']:>7} {counts['failed']:>7}  {line['correct']}")
    everything = all(line["correct"] for __, __, line, __ in summary)
    print(json.dumps({
        "correct": everything,
        "attempted": sum(max(int(c["sent"]), 1) for __, c, __, __ in summary),
        "failed": sum(int(c["failed"]) for __, c, __, __ in summary),
        "metrics": {
            f"{workload}.{name}": metric
            for workload, __, line, __ in summary
            for name, metric in line["metrics"].items()
        },
    }))
    return 0 if everything else 1


if __name__ == "__main__":
    sys.exit(main())
