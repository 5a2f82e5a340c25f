"""The traced run's span recorder and the wrappers that feed it.

The benchmark never edits the program: it wraps public callables from
the outside.  A wrapped call becomes one span ``(id, name, start, end,
parent, rid, attrs)`` kept in memory and written as JSON lines when the
process flushes (``flush``).  Parents come from a per-thread stack, so
self time is span time minus the time its children cover.  ``rid`` is
the wire request id where the call can see it.

Every wrapper is installed by name; a target the program no longer has
is recorded in :data:`ABSENT` with the reason, instead of failing the
run.  ``OBS`` is enabled too, so the program's own counters can be read.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import os
import sys
import threading
import time

#: Wire id of the frame whose handling is running (server side).
WIRE_ID: contextvars.ContextVar = contextvars.ContextVar("perfbench_wire_id", default=None)

#: ``target -> reason`` for wrappers that could not be installed.
ABSENT: dict[str, str] = {}

_LOCAL = threading.local()
_LOCK = threading.Lock()
_SPANS: list[tuple] = []
_STATE = {"pid": os.getpid(), "next": 0}
#: ``path -> [(owner, attr, original), ...]``: every binding a wrapper replaced.
_INSTALLED: dict[str, list[tuple]] = {}


def _check_pid() -> None:
    # A forked child inherits the parent's spans; it must not re-emit them.
    if _STATE["pid"] != os.getpid():
        with _LOCK:
            _SPANS.clear()
            _STATE["pid"] = os.getpid()


def record(name: str, start: float, end: float, attrs: dict | None = None, rid=None) -> None:
    """Record a span that was timed by hand (no children)."""
    _check_pid()
    with _LOCK:
        _STATE["next"] += 1
        _SPANS.append((_STATE["next"], name, start, end, None, rid, attrs or {}))


def _traced(name: str, fn, attrs_fn=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _check_pid()
        stack = getattr(_LOCAL, "stack", None)
        if stack is None:
            stack = _LOCAL.stack = []
        with _LOCK:
            _STATE["next"] += 1
            span_id = _STATE["next"]
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = attrs_fn(args, kwargs, result) if attrs_fn is not None else {}
        with _LOCK:
            _SPANS.append((span_id, name, start, end, parent, WIRE_ID.get(), attrs))
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _resolve(path: str):
    module_name, __, attr = path.partition(":")
    owner = importlib.import_module(module_name)
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, attr.split(".")[-1]


def wrap(path: str, name: str, attrs_fn=None, *, everywhere: bool = False) -> None:
    """Wrap ``module:Qual.name`` in a span called ``name``.

    ``everywhere`` also rebinds the function in every loaded ``repro``
    module that imported it by name (``from x import f``), so callers
    that hold their own binding are traced too.
    """
    if path in _INSTALLED:
        return
    try:
        owner, attr = _resolve(path)
        original = getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        ABSENT[path] = f"not found: {exc}"
        return
    wrapper = _traced(name, original, attrs_fn)
    setattr(owner, attr, wrapper)
    bindings = [(owner, attr, original)]
    if everywhere:
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and getattr(
                module, attr, None
            ) is original:
                setattr(module, attr, wrapper)
                bindings.append((module, attr, original))
    _INSTALLED[path] = bindings


def unwrap_all() -> None:
    """Put back every binding :func:`wrap` replaced in this process."""
    for bindings in _INSTALLED.values():
        for owner, attr, original in bindings:
            setattr(owner, attr, original)
    _INSTALLED.clear()


def clear() -> None:
    """Drop this process's finished spans (a new traced load starts)."""
    with _LOCK:
        _SPANS.clear()


def spans() -> list[dict]:
    """This process's finished spans as dicts."""
    _check_pid()
    with _LOCK:
        rows = list(_SPANS)
    return [
        {
            "id": span_id,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "rid": rid,
            "pid": os.getpid(),
            **attrs,
        }
        for span_id, name, start, end, parent, rid, attrs in rows
    ]


def flush(directory: str, extra: dict | None = None) -> str:
    """Write this process's spans (and ``OBS`` snapshot) to ``directory``."""
    from repro.obs import OBS

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"spans-{os.getpid()}.jsonl")
    with open(path, "w") as handle:
        header = {"pid": os.getpid(), "obs": OBS.snapshot(), "absent": ABSENT}
        header.update(extra or {})
        handle.write(json.dumps(header) + "\n")
        for span in spans():
            handle.write(json.dumps(span) + "\n")
    return path


def load(directory: str) -> tuple[list[dict], list[dict]]:
    """Every flushed process in ``directory``: ``(headers, spans)``."""
    headers, rows = [], []
    if not os.path.isdir(directory):
        return headers, rows
    for filename in sorted(os.listdir(directory)):
        if not filename.startswith("spans-"):
            continue
        with open(os.path.join(directory, filename)) as handle:
            lines = handle.read().splitlines()
        if lines:
            headers.append(json.loads(lines[0]))
            rows.extend(json.loads(line) for line in lines[1:])
    return headers, rows


def self_times(rows: list[dict]) -> dict[tuple, float]:
    """``(pid, id) -> self seconds``: span time minus its children's."""
    child_time: dict[tuple, float] = {}
    for row in rows:
        if row["parent"] is not None:
            key = (row["pid"], row["parent"])
            child_time[key] = child_time.get(key, 0.0) + row["end"] - row["start"]
    return {
        (row["pid"], row["id"]): row["end"] - row["start"] - child_time.get((row["pid"], row["id"]), 0.0)
        for row in rows
    }
