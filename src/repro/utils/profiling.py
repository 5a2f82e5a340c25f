"""Legacy flat-profiler API — now a compatibility shim over ``repro.obs``.

.. deprecated::
    The per-op profiling registry this module used to own has been
    replaced by the structured observability layer in :mod:`repro.obs`
    (typed metrics + hierarchical trace spans).  Every internal call
    site now reports into :data:`repro.obs.OBS`; this module keeps the
    historical surface — :data:`PROFILER`, :class:`Profiler`,
    :class:`OpStats`, :func:`profiled` — working unchanged on top of it.

The shim is *live*, not a fork: ``PROFILER`` shares the process-wide
:data:`~repro.obs.metrics.METRICS` registry, so ``PROFILER.enable()``
enables the new registry, events recorded through either API land in
the same series, and ``PROFILER.snapshot()`` / ``as_dict()`` derive the
**pre-redesign flat format** from the registry: dotted names mapping to
``calls`` / ``seconds`` / ``bytes``, with histogram buckets flattened
to their historical ``name.<bucket>`` spellings (``serve.batch.size.8``).
A regression test pins that derived output equal to what the old
profiler produced (``tests/utils/test_profiling.py``).

Counter names are unchanged: ``einsum.forward`` / ``einsum.backward``,
``conv2d.forward`` / ``conv2d.backward``, ``einsum.plan_cache.hit`` /
``.miss``, the backward sweep
counters (``backward.sweep`` / ``backward.inplace_accum`` /
``backward.released``), the runtime's fault-tolerance counters
(``retry.*`` / ``timeout.cell`` / ``faults.*``) and the serving
counters (``serve.*``).  New code should use :data:`repro.obs.OBS`
directly — see ``docs/observability.md``.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass
from typing import Iterator

from repro.obs.metrics import METRICS, MetricsRegistry


@dataclass
class OpStats:
    """Accumulated counters for one named operation (legacy view)."""

    calls: int = 0
    seconds: float = 0.0
    bytes: int = 0

    def merge(self, seconds: float, nbytes: int) -> None:
        self.calls += 1
        self.seconds += seconds
        self.bytes += nbytes


class Profiler:
    """Flat-profiler facade over a :class:`~repro.obs.metrics.MetricsRegistry`.

    A bare ``Profiler()`` owns a private registry (what older tests and
    callers construct for isolation); the module-level :data:`PROFILER`
    wraps the shared :data:`repro.obs.METRICS` registry, so the legacy
    and new APIs observe the same state.
    """

    def __init__(
        self, enabled: bool = False, registry: MetricsRegistry | None = None
    ) -> None:
        self._registry = (
            registry if registry is not None else MetricsRegistry(enabled=enabled)
        )
        if registry is not None and enabled:
            self._registry.enable()

    @property
    def enabled(self) -> bool:
        return self._registry.enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._registry.enabled = bool(value)

    @property
    def registry(self) -> MetricsRegistry:
        """The backing registry (the migration path off this shim)."""
        return self._registry

    def enable(self) -> "Profiler":
        self._registry.enable()
        return self

    def disable(self) -> "Profiler":
        self._registry.disable()
        return self

    def reset(self) -> None:
        self._registry.reset()

    def record(self, name: str, seconds: float, nbytes: int = 0) -> None:
        """Add one completed call to ``name``'s counters (no-op if disabled)."""
        self._registry.record_legacy(name, 1, seconds, nbytes, kind="timer")

    def bump(self, name: str, nbytes: int = 0) -> None:
        """Count an event with no duration (cache hits, allocations)."""
        self._registry.record_legacy(name, 1, 0.0, nbytes, kind="counter")

    def add(self, name: str, calls: int, seconds: float = 0.0, nbytes: int = 0) -> None:
        """Fold ``calls`` pre-counted events into ``name`` at once."""
        self._registry.record_legacy(name, calls, seconds, nbytes, kind="counter")

    def merge_counters(self, counters: dict[str, dict[str, float]]) -> None:
        """Fold an :meth:`as_dict`-style snapshot into this profiler.

        Accepts both the legacy flat format and the unified
        metrics-snapshot schema (entries carrying a ``kind`` merge with
        full fidelity).  Works even when disabled, since the merged
        events were gated at their origin.
        """
        if any(isinstance(s, dict) and "kind" in s for s in counters.values()):
            self._registry.merge(counters)
        else:
            self._registry.merge_legacy(counters)

    @contextlib.contextmanager
    def track(self, name: str, nbytes: int = 0) -> Iterator[None]:
        """Time the block and record it under ``name``."""
        if not self._registry.enabled:
            yield
            return
        import time

        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - start, nbytes)

    def snapshot(self) -> dict[str, OpStats]:
        """The pre-redesign flat view, derived from the registry."""
        return {
            name: OpStats(
                int(stats["calls"]), float(stats["seconds"]), int(stats["bytes"])
            )
            for name, stats in self._registry.legacy_counters().items()
        }

    def as_dict(self) -> dict[str, dict[str, float]]:
        """JSON-friendly legacy view of the counters."""
        return {name: asdict(stats) for name, stats in self.snapshot().items()}


#: The process-wide shim; shares state with :data:`repro.obs.METRICS`.
PROFILER = Profiler(registry=METRICS)


@contextlib.contextmanager
def profiled() -> Iterator[Profiler]:
    """Enable the global profiler for a block, restoring state after.

    Counters accumulated before the block are preserved; use
    ``PROFILER.reset()`` first for a clean window.
    """
    previous = PROFILER.enabled
    PROFILER.enabled = True
    try:
        yield PROFILER
    finally:
        PROFILER.enabled = previous
