"""The three serve workloads, driven from outside the server process."""

from __future__ import annotations

import asyncio
import copy
import gc
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time

from perfbench import client, common, layers, tenants

#: The closed loops' per-request deadline: as long as a finished load
#: waits for outstanding responses before it counts them lost.
CLOSED_DEADLINE = client.DRAIN_SECONDS

WORKLOADS = {
    # Open-loop Poisson load.  100 req/s keeps batches at 1-2 rows and the
    # engine thread about a third busy: at 200 req/s small batches cost
    # enough per row to keep it near 60% busy, where queueing amplifies
    # every wobble of the host into latency.
    "serve-steady": {"mode": "single", "loop": "open", "rate": 100.0, "deadline": 1.0},
    # Closed loop, client.WINDOW requests pipelined on one connection.
    # Every request carries a deadline, so the scheduler's deadline path
    # runs, but one far beyond any latency a working server shows (p99
    # under 0.1 s): a host stall of a second or two is the environment,
    # not a failure of the program, and must not count against ok_ratio.
    "serve-saturate": {"mode": "single", "loop": "closed", "deadline": CLOSED_DEADLINE},
    # The same closed loop through two shard processes, with hot swaps.
    "serve-sharded": {"mode": "sharded", "loop": "closed", "deadline": CLOSED_DEADLINE},
}

#: Server launches per untraced run; each carries a fifth of the timed
#: load, and every end-to-end metric is a median over them.  With three
#: launches the run-to-run spread of p50 latency and throughput was about
#: 0.12 over five seeds; with five it was about 0.07.
LAUNCHES = 5
READY_TIMEOUT = 120.0


class ServerProcess:
    """``python -m perfbench.server`` with a JSON-lines stdout and stdin commands."""

    def __init__(self, mode: str, seed: int, trace_dir: str | None = None) -> None:
        env, __ = common.scrubbed_env()
        command = [sys.executable, "-m", "perfbench.server", "--mode", mode, "--seed", str(seed)]
        if trace_dir:
            command += ["--trace-dir", trace_dir]
        self.process = subprocess.Popen(
            command,
            cwd=common.ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            # Its own process group, so a kill reaches the shards too.
            start_new_session=True,
        )
        self.lines: "queue.Queue[dict | None]" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            try:
                self.lines.put(json.loads(line))
            except json.JSONDecodeError:
                sys.stderr.write(line)
        self.lines.put(None)

    def wait_for(self, event: str, timeout: float = READY_TIMEOUT) -> dict:
        end = time.monotonic() + timeout
        while True:
            try:
                message = self.lines.get(timeout=max(0.0, end - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"server gave no {event!r} line within {timeout}s")
            if message is None:
                raise RuntimeError(f"server exited (code {self.process.wait()}) before {event!r}")
            if message.get("event") == event:
                return message

    def command(self, text: str) -> None:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()

    def stop(self) -> None:
        """Drain and stop; raises ``RuntimeError`` if that does not finish."""
        self.command("stop")
        self.wait_for("done", timeout=60.0)
        self.process.stdin.close()
        try:
            self.process.wait(timeout=30.0)
        except subprocess.TimeoutExpired as exc:
            raise RuntimeError("server did not exit after stopping") from exc
        self.kill()

    def kill(self) -> None:
        """Kill the server's whole process group (its shards included)."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.reader.join(timeout=5.0)


def build_checker(seed: int, sharded: bool) -> tuple[client.Checker, dict]:
    """Reference rows for every pool sample (both weight sets of a swapped tenant)."""
    mix = tenants.build_mix(seed)
    pools = tenants.sample_pools(seed)
    references = {
        name: [tenants.reference_rows(tenants.serving_module(mix[name]), pools[name])]
        for name in tenants.TENANTS
    }
    if sharded:
        twin = copy.deepcopy(mix[tenants.SWAPPED])
        twin.load_state_dict(tenants.alternate_mapping(mix[tenants.SWAPPED], seed))
        references[tenants.SWAPPED].append(
            tenants.reference_rows(twin, pools[tenants.SWAPPED])
        )
    return client.Checker(references, exact={"static"}), pools


def launch(spec: dict, seed: int, checker, pools, trace_dir: str | None = None):
    """Start a server and warm it over the wire; returns ``(server, ready, setup_s, warm)``."""
    start = time.perf_counter()
    server = ServerProcess(spec["mode"], seed, trace_dir)
    try:
        ready = server.wait_for("ready")
        warm = asyncio.run(client.warm_up(ready["port"], checker, pools))
    except BaseException:
        server.kill()
        raise
    return server, ready, time.perf_counter() - start, warm


def measure(spec: dict, seed: int, seconds: float, server, ready, checker, pools, launch: int = 0, stats: bool = False) -> dict:
    """The timed load against a ready server; ``stats`` adds wire-stats deltas.

    Peak memory is read from outside before the stop, while the shards
    are alive.  A server that does not stop cleanly is killed with its
    shards and the run records the failure instead of dying with it.
    """
    port = ready["port"]
    before = asyncio.run(client.stats(port)) if stats else {"stats": {}}
    server.command("go")
    # The generator's own collector pauses would read as server latency.
    gc.collect()
    gc.disable()
    try:
        outcomes, wall, lateness = _load(spec, seed, seconds, port, checker, pools, launch)
    finally:
        gc.enable()
    after = asyncio.run(client.stats(port)) if stats else {"stats": {}}
    peak_rss_mb = common.tree_peak_rss_mb(server.process.pid)
    try:
        server.stop()
        clean_stop = True
    except RuntimeError:
        server.kill()
        clean_stop = False
    return {
        "outcomes": outcomes,
        "wall": wall,
        "lateness": lateness,
        "before": before,
        "after": after,
        "peak_rss_mb": peak_rss_mb,
        "clean_stop": clean_stop,
        "ready": ready,
        "open": spec["loop"] == "open",
    }


def _load(spec: dict, seed: int, seconds: float, port: int, checker, pools, launch: int) -> tuple[list, float, float]:
    """Run the workload's arrival process; returns ``(outcomes, wall, lateness)``."""
    if spec["loop"] == "open":
        schedule = client.draw_schedule(seed, spec["rate"], seconds, list(tenants.TENANTS), tenants.POOL_SIZE, launch)
        return asyncio.run(client.open_loop(port, checker, pools, schedule, deadline=spec["deadline"]))
    sequence = client.draw_sequence(seed, 200_000, list(tenants.TENANTS), tenants.POOL_SIZE, launch)
    return asyncio.run(
        client.closed_loop(port, checker, pools, sequence, seconds=seconds, deadline=spec["deadline"])
    )


def end_to_end(runs: list[dict], setups: list[float]) -> dict:
    """The end-to-end metrics: medians over the launches' timed loads."""
    per_run = []
    for run in runs:
        latencies = layers.latencies(run)
        per_run.append({
            "latency_p50_ms": layers.tail(latencies, 50, "latency_p50_ms"),
            "latency_p90_ms": layers.tail(latencies, 90, "latency_p90_ms"),
            "throughput_per_s": len(latencies) / max(run["wall"], 1e-9),
        })
    sent = sum(len(run["outcomes"]) for run in runs)
    good = sum(len(layers.latencies(run)) for run in runs)
    metrics = {key: common.median([entry[key] for entry in per_run]) for key in per_run[0]}
    metrics.update(
        setup_s=common.median(setups),
        ok_ratio=good / max(sent, 1),
        peak_rss_mb=common.median([run["peak_rss_mb"] for run in runs]),
    )
    return metrics


def warm_failures(warm: list) -> int:
    """Warm-up requests that did not come back ``ok`` and correct."""
    return sum(1 for o in warm if not (o.status == "ok" and o.correct))


def verdict(runs: list[dict], warm_failed: int) -> tuple[bool, str]:
    """``correct`` of a serve run, and the check line that explains it.

    A wrong row fails it; so does a warm-up request that was not served
    correctly, or a timed load in which not one row could be checked.
    """
    tally = counts(runs)
    checked = [sum(1 for o in run["outcomes"] if o.status == "ok") for run in runs]
    correct = tally["wrong"] == 0 and warm_failed == 0 and min(checked) > 0
    return correct, (
        f"rows checked against references: {tally['ok'] + tally['wrong']} ok, {tally['wrong']} wrong; "
        f"{warm_failed} warm-up requests not served correctly; ok rows per load {checked}"
    )


def counts(runs: list[dict]) -> dict:
    """Requests by status over ``runs``; a server that would not stop is one more failure."""
    by_status: dict[str, int] = {}
    wrong = sent = 0
    for run in runs:
        for o in run["outcomes"]:
            sent += 1
            by_status[o.status] = by_status.get(o.status, 0) + 1
            if o.status == "ok" and not o.correct:
                wrong += 1
    ok = by_status.get("ok", 0) - wrong
    unclean = sum(1 for run in runs if not run["clean_stop"])
    return {
        "sent": sent,
        "ok": ok,
        "failed": sent - ok + unclean,
        "wrong": wrong,
        "unclean_stops": unclean,
        "statuses": by_status,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    checker, pools = build_checker(seed, spec["mode"] == "sharded")
    warm_failed = 0
    if not trace:
        # Each launch is set up, warmed and loaded the same way; medians
        # over launches cancel what one process's memory layout or start
        # moment does to its speed.
        setups, runs = [], []
        for index in range(LAUNCHES):
            server, ready, setup_s, warm = launch(spec, seed, checker, pools)
            setups.append(setup_s)
            warm_failed += warm_failures(warm)
            try:
                runs.append(measure(spec, seed, seconds / LAUNCHES, server, ready, checker, pools, index))
            finally:
                server.kill()
        tally = counts(runs)
        correct, checked = verdict(runs, warm_failed)
        samples = [len(layers.latencies(run)) for run in runs]
        return {
            "metrics": end_to_end(runs, setups),
            "correct": correct,
            "checks": [
                checked,
                f"latency percentiles rest on {samples} samples per launch",
                f"{tally['unclean_stops']} of {len(runs)} servers did not stop cleanly and were killed",
            ],
            "counts": tally,
            "start_method": ready.get("start_method"),
        }

    # Traced run: an untraced baseline, then the same load with wrappers in.
    server, ready, __, warm = launch(spec, seed, checker, pools)
    warm_failed += warm_failures(warm)
    try:
        baseline = measure(spec, seed, seconds, server, ready, checker, pools, stats=True)
    finally:
        server.kill()
    trace_dir = common.spans_dir(name)
    from perfbench import tracing

    # The codec wrappers sit in this process; they come out again after
    # the traced load, so a later workload's untraced baseline runs bare.
    for target in ("encode_frame", "encode_payload", "decode_payload"):
        tracing.wrap(f"repro.serve.codec:{target}", f"codec.{target}")
    tracing.clear()
    try:
        server, ready, __, warm = launch(spec, seed, checker, pools, trace_dir)
        warm_failed += warm_failures(warm)
        try:
            traced = measure(spec, seed, seconds, server, ready, checker, pools, stats=True)
        finally:
            server.kill()
    finally:
        tracing.unwrap_all()
    tracing.flush(trace_dir, {"role": "client"})
    headers, spans = tracing.load(trace_dir)
    per_layer, absent = layers.serve_layers(traced, baseline, headers, spans)
    tally = counts([baseline, traced])
    correct, checked = verdict([baseline, traced], warm_failed)
    return {
        "metrics": per_layer,
        "correct": correct,
        "checks": [
            checked,
            f"per-layer percentiles rest on {len(layers.latencies(traced))} traced responses; "
            f"loadgen.latency_p99_ms on {len(layers.latencies(baseline))} untraced ones",
            f"{tally['unclean_stops']} of 2 servers did not stop cleanly and were killed",
        ],
        "absent": absent,
        "counts": tally,
        "start_method": ready.get("start_method"),
    }
