"""The benchmark's server launcher: the program under test, in its own process.

Run as ``python -m perfbench.server --mode single|sharded --seed N``.
It builds the tenant mix from the seed, registers it on a
``MultiTenantEngine`` (``single``) or on ``ShardedEngine(2)``
(``sharded``), mounts that behind ``ServingFrontend`` and prints one JSON
``ready`` line with the bound port.  Commands then arrive on stdin, one
per line:

- ``go``: start the hot-swap schedule (``sharded`` only): the
  ``tenants.SWAPPED`` tenant alternates between two mapping-net weight
  sets every :data:`SWAP_INTERVAL` seconds;
- ``stop``: stop swapping, drain and close everything, print one JSON
  ``done`` line.

With ``--trace-dir`` the traced-run wrappers go in before anything is
built; shard workers inherit them (fork) or install them when they
import the tenant builder (spawn), and every process writes its spans to
that directory when its engine closes.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
import threading
import time

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common, tenants  # noqa: E402

SHARDS = 2
#: Seconds between hot swaps on the sharded server.  A swap ships the
#: tenant's state to both shards and waits for their digest checks,
#: about 0.09 s on a 2-CPU host.  Every 0.5 s one would run a fifth of
#: the time and the workload would measure replication as much as
#: serving; every 2 s one runs about 4% of the time (the traced run
#: reports it as ``registry.swap_share``) and each 8 s launch still sees
#: three or four swaps beside the reads.
SWAP_INTERVAL = 2.0
#: Seconds the frontend gets to drain and close everything on ``stop``.
STOP_TIMEOUT = 45.0


def _rows(args, kwargs, result) -> dict:
    requests = args[1] if len(args) > 1 else kwargs.get("requests")
    return {"rows": 1 if not isinstance(requests, (list, tuple)) else len(requests)}


def _program_attrs(args, kwargs, result) -> dict:
    program = args[0]
    if len(program.input_slots) == 2:
        role = "body"
    elif program.source == "FeatureExtractor":
        role = "extractor"
    elif program.source.endswith(".seeds"):
        role = "mapping"
    else:
        role = "static"
    return {"role": role, "rows": int(args[1].shape[0])}


def install_tracing(trace_dir: str) -> None:
    """Wrap the serving layers' public calls; idempotent per process."""
    from perfbench import tracing
    from repro.obs import OBS

    OBS.enable()
    tracing.wrap("repro.serve.scheduler:BatchScheduler.submit", "scheduler.submit")
    tracing.wrap("repro.serve.registry:MultiTenantEngine.serve", "engine.serve", _rows)
    tracing.wrap("repro.serve.compile:CompiledProgram.run", "program.run", _program_attrs)
    tracing.wrap("repro.serve.registry:MultiTenantEngine.register", "registry.register")
    tracing.wrap("repro.serve.shard:ShardedEngine.swap", "shard.swap")
    _wrap_sharded_submit()
    _wrap_wire_reads()
    _flush_on_close(trace_dir)


def _wrap_sharded_submit() -> None:
    """``ShardedEngine.submit`` → result span, minus the shard-reported total."""
    from perfbench import tracing

    try:
        from repro.serve.shard import ShardedEngine
    except ImportError as exc:
        tracing.ABSENT["repro.serve.shard:ShardedEngine.submit"] = str(exc)
        return
    original = ShardedEngine.submit
    if getattr(original, "__perfbench_original__", None):
        return

    def submit(self, request):
        start = time.perf_counter()
        rid = tracing.WIRE_ID.get()
        future = original(self, request)

        def done(finished) -> None:
            end = time.perf_counter()
            result = finished.result()
            tracing.record(
                "shard.submit",
                start,
                end,
                {"shard_total": result.timings.total_seconds, "status": result.status},
                rid=rid,
            )

        future.add_done_callback(done)
        return future

    submit.__perfbench_original__ = original
    ShardedEngine.submit = submit


def _wrap_wire_reads() -> None:
    """Tag the frontend's frame handling with the wire ``id`` it carries.

    The connection task awaits ``read_frame`` and then spawns the frame's
    handler task, which copies the context: setting :data:`WIRE_ID` here
    makes the id visible to ``BatchScheduler.submit`` in that handler.
    """
    from perfbench import tracing

    try:
        from repro.serve import frontend
    except ImportError as exc:
        tracing.ABSENT["repro.serve.frontend:read_frame"] = str(exc)
        return
    original = getattr(frontend, "_read_frame", None)
    if original is None or getattr(original, "__perfbench_original__", None):
        if original is None:
            tracing.ABSENT["repro.serve.frontend:read_frame"] = "frontend has no frame reader binding"
        return

    async def read_frame(reader):
        frame = await original(reader)
        if frame is not None:
            tracing.WIRE_ID.set(frame[0].get("id"))
        return frame

    read_frame.__perfbench_original__ = original
    frontend._read_frame = read_frame


def _flush_on_close(trace_dir: str) -> None:
    """Write spans when an engine closes: shard workers end right after."""
    from perfbench import tracing
    from repro.serve.registry import MultiTenantEngine

    original = MultiTenantEngine.close
    if getattr(original, "__perfbench_original__", None):
        return

    def close(self, *args, **kwargs):
        try:
            return original(self, *args, **kwargs)
        finally:
            tracing.flush(trace_dir, {"role": "engine"})

    close.__perfbench_original__ = original
    MultiTenantEngine.close = close


class Swapper:
    """Alternates one tenant between two weight sets on a fixed period."""

    def __init__(self, sharded, name: str, modules: list, interval: float) -> None:
        self.sharded = sharded
        self.name = name
        self.modules = modules
        self.interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-swapper", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        turn = 1
        while not self._stop.wait(self.interval):
            self.sharded.swap(self.name, self.modules[turn % 2])
            turn += 1

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=30.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("single", "sharded"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    if args.trace_dir:
        os.environ["PERFBENCH_TRACE_DIR"] = args.trace_dir
        install_tracing(args.trace_dir)
    from repro.serve import MultiTenantEngine, ServingFrontend, ShardedEngine

    mix = tenants.build_mix(args.seed)
    ready: dict = {"event": "ready", "pid": os.getpid()}
    engine = sharded = swapper = None
    if args.mode == "single":
        engine = MultiTenantEngine(cache_size=0)
        for name, tenant in mix.items():
            engine.register(name, tenant)
        frontend = ServingFrontend(engine)
    else:
        start = time.perf_counter()
        sharded = ShardedEngine(SHARDS)
        ready["spawn_s"] = time.perf_counter() - start
        ready["start_method"] = sharded.start_method
        ready["replicate_ms"] = []
        for name, tenant in mix.items():
            start = time.perf_counter()
            sharded.register(
                name, tenant, builder=tenants.build_tenant, args=(tenants.KINDS[name], args.seed)
            )
            ready["replicate_ms"].append((time.perf_counter() - start) * 1e3)
        twin = copy.deepcopy(mix[tenants.SWAPPED])
        twin.load_state_dict(tenants.alternate_mapping(mix[tenants.SWAPPED], args.seed))
        swapper = Swapper(sharded, tenants.SWAPPED, [mix[tenants.SWAPPED], twin], SWAP_INTERVAL)
        frontend = ServingFrontend(scheduler=sharded)
    __, ready["port"] = frontend.start_in_thread()
    common.emit(ready)

    for line in sys.stdin:
        command = line.strip()
        if command == "go" and swapper is not None:
            swapper.start()
        elif command == "stop":
            break
    if swapper is not None:
        swapper.stop()
    # A stop that does not finish counts as a failure of the run, so the
    # limit is one that catches a hang, not a slow drain of both shards.
    frontend.stop_in_thread(timeout=STOP_TIMEOUT)
    if engine is not None:
        engine.close()
    if args.trace_dir:
        from perfbench import tracing

        tracing.flush(args.trace_dir, {"role": "server"})
    common.emit({"event": "done"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
