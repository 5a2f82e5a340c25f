"""Shared helpers: paths, the scrubbed environment, fingerprint, statistics."""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space the benchmark writes into (run dirs, span files).
WORK = os.path.join(ROOT, ".perfbench")

#: BLAS thread pools are pinned to one thread in every process the
#: benchmark starts.  The server, its shards and the load generator share
#: two CPUs; a multi-threaded BLAS in each process makes run speed
#: depend on how the threads happen to land (two speed modes 15% apart
#: were measured across otherwise identical training runs).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Percentiles are reported only when at least this many samples lie
#: beyond them.
MIN_BEYOND = 10


def scrubbed_env() -> tuple[dict[str, str], list[str]]:
    """The environment with every ``REPRO_*`` knob removed, plus their names.

    ``REPRO_SERVE_PRECISION`` or ``REPRO_SHARD_START`` left in place would
    silently change what is measured.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    removed = sorted(key for key in os.environ if key.startswith("REPRO_"))
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    env["PYTHONHASHSEED"] = "0"
    return env, removed


def scrub_self() -> list[str]:
    """Apply :func:`scrubbed_env` to this process; returns removed names."""
    removed = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in removed:
        del os.environ[key]
    os.environ.update(BLAS_THREADS)
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    return removed


def fingerprint(removed: list[str], start_method: str | None = None) -> dict:
    """Host and build facts every result is recorded with."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {}).get("name", "unknown")
    except (TypeError, AttributeError):
        pass
    sha = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": sha,
        "src_digest": src_digest(),
        "shard_start_method": start_method,
        "blas_threads": BLAS_THREADS,
        "removed_env": removed,
    }


def src_digest() -> str:
    """Content digest of ``src/`` (identifies the code where git is absent)."""
    import hashlib

    digest = hashlib.sha256()
    for directory, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` if too few samples.

    ``None`` unless at least :data:`MIN_BEYOND` samples lie strictly
    above the reported rank, so a tail figure always rests on a tail.
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    if len(ordered) - 1 - rank < MIN_BEYOND:
        return None
    return float(ordered[rank])


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2.0)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS of a live process and all its descendants, in MB."""
    total, pending = 0.0, [pid]
    while pending:
        current = pending.pop()
        total += proc_peak_rss_mb(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    pending.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
    return total


def emit(payload: dict, stream=None) -> None:
    """One JSON line on ``stream`` (stdout), flushed."""
    stream = stream or sys.stdout
    stream.write(json.dumps(payload) + "\n")
    stream.flush()


def spans_dir(workload: str) -> str:
    """Where a traced run writes its span files; the last run's stay there."""
    import shutil

    path = os.path.join(WORK, "spans", workload)
    shutil.rmtree(path, ignore_errors=True)
    return path


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)
