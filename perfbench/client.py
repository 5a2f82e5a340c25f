"""The load generator: one asyncio thread, at most two connections.

Frames are built and read with ``repro.serve.codec`` and pipelined: many
requests are in flight on one connection and responses are matched by
their ``id``.  Two arrival processes:

- :func:`open_loop`: a pre-drawn Poisson schedule is sent at its due
  times whatever the server does; latency counts from the due time, so
  generator lateness cannot hide server queueing;
- :func:`closed_loop`: a fixed window of requests stays in flight on one
  connection; latency counts from the send.

Both report generator lateness: how late the open loop sent against its
schedule, or how late the closed loop's event loop woke for its tick.

Every response row is checked against its reference as it arrives.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve import codec

#: MetaLoRA rows may differ from their reference by batch-composition
#: drift (about 2e-15 measured); this admits it with room and nothing
#: more.  Static rows must match exactly.
META_TOLERANCE = 1e-12
#: How long a finished load waits for outstanding responses before it
#: counts them ``lost`` (a normal response takes well under a second).
DRAIN_SECONDS = 5.0
#: The closed loops' in-flight window.
WINDOW = 32


def draw_schedule(seed: int, rate: float, seconds: float, tenants: list[str], pool: int, launch: int = 0) -> list[tuple[float, str, int]]:
    """Poisson arrivals at ``rate``/s over ``seconds``: ``(offset, tenant, index)``.

    The count is fixed at ``rate * seconds`` and the times are uniform
    order statistics: a Poisson process conditioned on its count, so the
    offered load itself does not vary from seed to seed.
    """
    rng = np.random.default_rng([seed, 30, launch])
    count = int(round(rate * seconds))
    offsets = np.sort(rng.uniform(0.0, seconds, size=count))
    picks = rng.integers(len(tenants), size=count)
    indices = rng.integers(pool, size=count)
    return [(float(o), tenants[int(t)], int(i)) for o, t, i in zip(offsets, picks, indices)]


def draw_sequence(seed: int, count: int, tenants: list[str], pool: int, launch: int = 0) -> list[tuple[str, int]]:
    """A closed loop's request sequence: ``(tenant, index)`` pairs."""
    rng = np.random.default_rng([seed, 31, launch])
    picks = rng.integers(len(tenants), size=count)
    indices = rng.integers(pool, size=count)
    return [(tenants[int(t)], int(i)) for t, i in zip(picks, indices)]


class Checker:
    """Served row vs reference: exact for static tenants, else within tolerance."""

    def __init__(self, references: dict[str, list[np.ndarray]], exact: set[str]) -> None:
        #: ``tenant -> [reference rows array, ...]``: a row may match any
        #: of its tenant's weight sets (a hot-swapped tenant has two).
        self.references = references
        self.exact = exact

    def __call__(self, tenant: str, index: int, row: np.ndarray | None) -> bool:
        if row is None:
            return False
        for table in self.references[tenant]:
            ref = table[index]
            if row.shape != ref.shape:
                continue
            if tenant in self.exact:
                if np.array_equal(row, ref):
                    return True
            elif float(np.max(np.abs(row - ref))) <= META_TOLERANCE * max(1.0, float(np.max(np.abs(ref)))):
                return True
        return False


@dataclass
class Outcome:
    tenant: str
    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: str = "lost"
    correct: bool = False
    timings: dict = field(default_factory=dict)


class Connection:
    """One pipelined connection with a response reader task."""

    def __init__(self, reader, writer, checker: Checker, on_done=None) -> None:
        self.reader = reader
        self.writer = writer
        self.checker = checker
        self.on_done = on_done
        self.pending: dict[int, Outcome | asyncio.Future] = {}
        self.next_id = 0
        self.task = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, port: int, checker: Checker, on_done=None) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer, checker, on_done)

    def send(self, outcome: Outcome, sample: np.ndarray, deadline: float | None) -> None:
        request_id = self.next_id
        self.next_id += 1
        header = {"op": "serve", "id": request_id, "adapter": outcome.tenant, "deadline": deadline}
        frame = codec.encode_frame(header, codec.encode_payload(sample))
        self.pending[request_id] = outcome
        outcome.sent = time.perf_counter()
        self.writer.write(frame)

    async def control(self, op: str) -> dict:
        """A non-serve op (``stats``, ``ping``) on this connection."""
        request_id = self.next_id
        self.next_id += 1
        future = asyncio.get_running_loop().create_future()
        self.pending[request_id] = future
        self.writer.write(codec.encode_frame({"op": op, "id": request_id}))
        await self.writer.drain()
        return await asyncio.wait_for(future, 60.0)

    async def _read(self) -> None:
        while True:
            frame = await codec.read_frame(self.reader)
            if frame is None:
                return
            header, payload = frame
            entry = self.pending.pop(header.get("id"), None)
            if isinstance(entry, asyncio.Future):
                entry.set_result(header)
            elif entry is not None:
                entry.done = time.perf_counter()
                entry.status = header.get("status", "error")
                entry.timings = header.get("timings") or {}
                row = codec.decode_payload(payload)
                entry.correct = entry.status == "ok" and self.checker(entry.tenant, entry.index, row)
                if self.on_done is not None:
                    self.on_done(self, entry)

    async def wait_idle(self, timeout: float) -> None:
        end = time.perf_counter() + timeout
        while any(isinstance(v, Outcome) for v in self.pending.values()) and time.perf_counter() < end:
            await asyncio.sleep(0.005)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, Exception):
            pass


async def open_loop(port: int, checker: Checker, pools: dict, schedule: list, *, deadline: float | None) -> tuple[list[Outcome], float, float]:
    """Send ``schedule`` at its due times; returns ``(outcomes, wall, max lateness)``."""
    conns = [await Connection.open(port, checker) for __ in range(2)]
    outcomes = []
    lateness = 0.0
    start = time.perf_counter()
    for k, (offset, tenant, index) in enumerate(schedule):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness = max(lateness, time.perf_counter() - due)
        outcome = Outcome(tenant, index, due)
        outcomes.append(outcome)
        conn = conns[k % len(conns)]
        conn.send(outcome, pools[tenant][index], deadline)
        await conn.writer.drain()
    for conn in conns:
        await conn.wait_idle(DRAIN_SECONDS)
    wall = max((o.done for o in outcomes), default=start) - start
    for conn in conns:
        await conn.close()
    return outcomes, wall, lateness


async def closed_loop(port: int, checker: Checker, pools: dict, sequence: list, *, seconds: float, deadline: float | None) -> tuple[list[Outcome], float, float]:
    """Keep :data:`WINDOW` requests in flight for ``seconds``; returns ``(outcomes, wall, lateness)``.

    Lateness is how far the generator's 10 ms tick overshot at worst: the
    longest stretch its event loop was too busy to read responses and
    send their replacements.
    """
    outcomes: list[Outcome] = []
    state = {"next": 0, "stop": 0.0}

    def send_next(conn: Connection) -> None:
        if time.perf_counter() >= state["stop"]:
            return
        tenant, index = sequence[state["next"] % len(sequence)]
        state["next"] += 1
        outcome = Outcome(tenant, index, 0.0)
        outcomes.append(outcome)
        conn.send(outcome, pools[tenant][index], deadline)

    conn = await Connection.open(port, checker, on_done=lambda c, __: send_next(c))
    start = time.perf_counter()
    state["stop"] = start + seconds
    for __ in range(WINDOW):
        send_next(conn)
    lateness = 0.0
    while time.perf_counter() < state["stop"]:
        tick = time.perf_counter()
        await asyncio.sleep(0.01)
        lateness = max(lateness, time.perf_counter() - tick - 0.01)
        await conn.writer.drain()
    await conn.wait_idle(DRAIN_SECONDS)
    wall = max((o.done for o in outcomes), default=start) - start
    await conn.close()
    return outcomes, wall, lateness


async def stats(port: int) -> dict:
    """One ``stats`` op on a fresh connection: ``{"stats": ..., "shards": ...}``."""
    conn = await Connection.open(port, Checker({}, set()))
    try:
        header = await conn.control("stats")
    finally:
        await conn.close()
    return {"stats": header.get("stats") or {}, "shards": header.get("shards") or {}}


async def warm_up(port: int, checker: Checker, pools: dict) -> list[Outcome]:
    """Serve every pool sample of every tenant twice, checked."""
    pairs = [(tenant, index) for __ in range(2) for tenant in pools for index in range(len(pools[tenant]))]
    outcomes: list[Outcome] = []
    cursor = {"next": 0}

    def send_next(conn: Connection) -> None:
        if cursor["next"] >= len(pairs):
            return
        tenant, index = pairs[cursor["next"]]
        cursor["next"] += 1
        outcome = Outcome(tenant, index, 0.0)
        outcomes.append(outcome)
        conn.send(outcome, pools[tenant][index], None)

    conn = await Connection.open(port, checker, on_done=lambda c, __: send_next(c))
    for __ in range(WINDOW):
        send_next(conn)
    await conn.writer.drain()
    while cursor["next"] < len(pairs):
        await asyncio.sleep(0.005)
    await conn.wait_idle(10.0)
    await conn.close()
    return outcomes
