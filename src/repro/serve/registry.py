"""Multi-tenant adapter serving: named adapters behind one engine.

One serving process, many tasks: :class:`AdapterRegistry` manages *named*
adapters — register, hot-swap, evict at runtime — on top of
``peft.attach`` / ``AttachResult.serving_model()``, and
:class:`MultiTenantEngine` serves them behind the unified typed API
(``serve(ServeRequest(...))`` synchronously, ``enqueue(...)`` through
the micro-batcher; the pre-redesign ``submit``/``embed``/``dispatch``
forms survive as deprecated shims).

Three design points carry the throughput story:

- **Program sharing.**  Compiled slot-programs live in a process-wide-ish
  LRU (:class:`ProgramCache`) keyed by :class:`ProgramKey` — a
  ``(backbone_digest, families, ranks, weights_digest)`` tuple built from
  :func:`repro.peft.checkpoint.state_digest`, the same function checkpoint
  manifests and ``AttachResult.digest()`` use.  Tenants whose merged
  static graphs coincide share one program; counters
  ``serve.program_cache.{hit,miss,evict}`` record the traffic.

- **Split compilation for MetaLoRA tenants.**  A seed-slot tenant
  compiles to *three* programs — extractor (``x → features``), mapping
  (``features → stacked seeds``) and body (``(x, seeds) → embeddings``) —
  keyed independently, so tenants sharing a backbone+extractor but
  trained to different mapping weights share two of the three.

- **Heterogeneous micro-batching.**  The dispatcher groups queued
  requests by adapter: static tenants sharing a program are stacked into
  one run, and seed-slot tenants sharing a body are stacked *across
  tenants* — extractor once over the union, mapping per tenant (its
  float64 GEMMs are the one stage whose BLAS results depend on row
  count, so per-tenant batches keep rows bit-identical to single-tenant
  serving), then one body run consuming every tenant's seeds.

Metrics mirror :class:`~repro.serve.engine.EmbeddingEngine`'s
(``serve.requests``, ``serve.batches``, ``serve.batch.size``,
``serve.queue_wait``, ``serve.cache.*``, ``serve.run``), with two
additions: a ``serve.batch.tenants`` histogram (distinct adapters per
dispatch group) and — when ``tenant_labels`` is on — a ``{tenant=name}``
labeled twin of each per-request series next to the bare aggregate.
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time
import warnings
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ServeError
from repro.nn.module import Module
from repro.obs import OBS, TRACER
from repro.obs.metrics import MetricsRegistry
from repro.peft.meta_model import MetaLoRAModel
from repro.serve.api import (
    DEADLINE_MISSED,
    ERROR,
    ServeRequest,
    ServeResult,
    Timings,
    ingest_sample as _ingest,
)
from repro.serve.compile import (
    CompiledProgram,
    compile_features,
    compile_forward,
    compile_seed_mapping,
)
from repro.serve.optimize import resolve_precision

#: Label used on ``serve.run`` when one program execution serves rows
#: from more than one tenant (the cross-tenant stacked runs).
SHARED_TENANT = "(shared)"

#: ``serve.*`` series the engines promise to expose even at zero, so
#: dashboards and ``BENCH_*.json`` counter sections never miss a name.
#: ``serve.request.rejected`` is recorded by admission control (the
#: frontend scheduler); the other two by the engine's queue path.
ZERO_SERIES = {
    "serve.request.rejected": {"kind": "counter", "calls": 0},
    "serve.request.deadline_missed": {"kind": "counter", "calls": 0},
    "serve.queue.depth": {"kind": "histogram", "calls": 0, "buckets": {}},
}


def _digest(array: np.ndarray) -> bytes:
    """Content digest for the result cache (shape + dtype + bytes)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((array.shape, array.dtype.str)).encode())
    h.update(np.ascontiguousarray(array).tobytes())
    return h.digest()


class _Request:
    """One queued unit of work: the typed request plus engine bookkeeping.

    ``adapter`` is the *resolved* tenant name (``request.adapter`` may be
    ``None`` when a default adapter filled it in); ``future`` resolves to
    a :class:`~repro.serve.api.ServeResult` — the queue path never sets
    exceptions for serving outcomes, only results with a status.
    """

    __slots__ = ("request", "adapter", "key", "future", "enqueued_at")

    def __init__(
        self,
        request: ServeRequest,
        adapter: str,
        key: tuple | None,
        future: "Future[ServeResult]",
    ) -> None:
        self.request = request
        self.adapter = adapter
        self.key = key
        self.future = future
        self.enqueued_at = time.perf_counter()


def _legacy_future(result_future: "Future[ServeResult]") -> "Future[np.ndarray]":
    """Adapt ``Future[ServeResult]`` to the old ``Future[np.ndarray]`` contract.

    Pre-redesign futures resolved to the raw embedding row and carried
    serving failures as exceptions; the adapter re-raises any non-``ok``
    result as the typed :class:`ServeError` that ``require()`` produces.
    """
    legacy: "Future[np.ndarray]" = Future()

    def _transfer(done: "Future[ServeResult]") -> None:
        try:
            legacy.set_result(done.result().require())
        except BaseException as exc:
            legacy.set_exception(exc)

    result_future.add_done_callback(_transfer)
    return legacy


# -- program identity ---------------------------------------------------------


class ProgramKey(tuple):
    """Identity of one compiled slot-program.

    A ``(backbone, families, ranks, weights, precision)`` tuple: the
    architecture digest (module-tree class names + state shapes/dtypes,
    prefixed with the program role), the adapter families and ranks
    present, the :func:`~repro.peft.checkpoint.state_digest` of the
    weights the program folds, and the precision tier the program was
    compiled at.  Equal keys ⇒ compiling would produce programs with
    identical outputs, so the cache may hand out one program to many
    tenants; byte-identical tenants compiled at *different* tiers get
    distinct keys (an f32 tenant must never be served an f64 program and
    vice versa).
    """

    __slots__ = ()

    def __new__(
        cls,
        backbone: str,
        families: tuple[str, ...],
        ranks: tuple[int, ...],
        weights: str,
        precision: str = "f64",
    ) -> "ProgramKey":
        return tuple.__new__(
            cls,
            (backbone, tuple(families), tuple(ranks), weights, str(precision)),
        )

    @property
    def backbone(self) -> str:
        return self[0]

    @property
    def families(self) -> tuple[str, ...]:
        return self[1]

    @property
    def ranks(self) -> tuple[int, ...]:
        return self[2]

    @property
    def weights(self) -> str:
        return self[3]

    @property
    def precision(self) -> str:
        return self[4]


def _architecture_digest(role: str, model: Module, state: Mapping[str, np.ndarray]) -> str:
    hasher = hashlib.sha256()
    for name, module in model.named_modules():
        hasher.update(f"{name}={type(module).__name__};".encode())
    for name in sorted(state):
        array = np.asarray(state[name])
        hasher.update(f"{name}:{array.shape}:{array.dtype.str};".encode())
    return f"{role}:{hasher.hexdigest()}"


def program_key(
    model: Module,
    *,
    role: str = "features",
    extra: Mapping | None = None,
    precision: str | None = None,
) -> ProgramKey:
    """The :class:`ProgramKey` compiling ``model`` (in ``role``) would get.

    ``extra`` folds additional compile-time inputs into the weights
    digest — e.g. the mapping programs fold ``FLAGS.batched_seeds``,
    which freezes the seed-generation strategy at compile time.
    ``precision`` resolves like the compile entry points (explicit tier,
    else ``REPRO_SERVE_PRECISION``, else ``f64``).
    """
    from repro.peft.checkpoint import _adapter_meta, state_digest

    state = model.state_dict()
    meta = _adapter_meta(model)
    payload = dict(meta)
    if extra:
        payload.update(extra)
    return ProgramKey(
        backbone=_architecture_digest(role, model, state),
        families=tuple(meta["families"]),
        ranks=tuple(int(rank) for rank in meta["ranks"]),
        weights=state_digest(state, extra=payload),
        precision=resolve_precision(precision),
    )


def _mapping_key(model: MetaLoRAModel, precision: str | None = None) -> ProgramKey:
    """Key for the mapping program: trunk + heads + gains only.

    Deliberately excludes the backbone and extractor, so tenants that
    share them but were trained to different mapping weights get
    distinct mapping programs while sharing the other two.
    """
    from repro.peft.checkpoint import state_digest
    from repro.perf import FLAGS

    state: dict[str, np.ndarray] = {"head_gains": model.head_gains.data}
    for name, param in model.trunk.named_parameters():
        state[f"trunk.{name}"] = param.data
    for name, param in model.heads.named_parameters():
        state[f"heads.{name}"] = param.data
    hasher = hashlib.sha256()
    for name in sorted(state):
        array = state[name]
        hasher.update(f"{name}:{array.shape}:{array.dtype.str};".encode())
    return ProgramKey(
        backbone=f"mapping:{hasher.hexdigest()}",
        families=(),
        ranks=(),
        weights=state_digest(state, extra={"batched_seeds": bool(FLAGS.batched_seeds)}),
        precision=resolve_precision(precision),
    )


# -- the compiled-program LRU -------------------------------------------------


class ProgramCache:
    """LRU of compiled slot-programs keyed by :class:`ProgramKey`.

    ``get`` compiles on miss; tenants whose keys coincide receive the
    *same* program object, which is what lets the dispatcher stack their
    requests into one run (grouping is by program identity).  Counters:
    ``serve.program_cache.hit`` / ``.miss`` / ``.evict``.
    """

    def __init__(self, capacity: int = 64, metrics: MetricsRegistry | None = None) -> None:
        if capacity < 1:
            raise ServeError(f"program cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._programs: "OrderedDict[ProgramKey, CompiledProgram]" = OrderedDict()
        self._metrics = metrics if metrics is not None else MetricsRegistry(enabled=True)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._programs)

    def __contains__(self, key: ProgramKey) -> bool:
        with self._lock:
            return key in self._programs

    def _count(self, name: str, precision: str | None = None) -> None:
        """Bare counter plus a ``{precision=tier}`` labeled twin.

        The bare series keeps the pre-tier exact-count contract; the
        labeled twin splits the same traffic by precision tier.
        """
        self._metrics.inc(name)
        OBS.enabled and OBS.inc(name)
        if precision is not None:
            self._metrics.inc(name, precision=precision)
            OBS.enabled and OBS.inc(name, precision=precision)

    def get(self, key: ProgramKey, compile_fn: Callable[[], CompiledProgram]) -> CompiledProgram:
        precision = getattr(key, "precision", None)
        with self._lock:
            program = self._programs.get(key)
            if program is not None:
                self._programs.move_to_end(key)
                self._count("serve.program_cache.hit", precision)
                return program
            self._count("serve.program_cache.miss", precision)
            program = compile_fn()
            self._programs[key] = program
            while len(self._programs) > self.capacity:
                evicted_key, __ = self._programs.popitem(last=False)
                self._count(
                    "serve.program_cache.evict",
                    getattr(evicted_key, "precision", None),
                )
            return program

    def stats(self) -> dict[str, dict]:
        return self._metrics.snapshot()


# -- named adapter entries ----------------------------------------------------


class AdapterEntry:
    """One registered adapter: compiled program(s), identity, version.

    ``kind`` is ``"static"`` (one ``program``) or ``"seeded"`` (the
    extractor / mapping / body triple).  ``version`` bumps on every
    hot-swap, which is what invalidates result-cache rows keyed under
    the old weights.
    """

    __slots__ = (
        "name",
        "kind",
        "digest",
        "version",
        "program",
        "extractor",
        "mapping",
        "body",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        digest: str | None,
        *,
        program: CompiledProgram | None = None,
        extractor: CompiledProgram | None = None,
        mapping: CompiledProgram | None = None,
        body: CompiledProgram | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.digest = digest
        self.version = 1
        self.program = program
        self.extractor = extractor
        self.mapping = mapping
        self.body = body

    def run(self, batch: np.ndarray) -> np.ndarray:
        """This tenant's full pipeline on one batch (no cross-tenant work)."""
        if self.kind == "static":
            assert self.program is not None
            return self.program.run(batch)
        assert self.extractor is not None and self.mapping is not None
        assert self.body is not None
        features = self.extractor.run(batch)
        return self.body.run(batch, self.mapping.run(features))


class AdapterRegistry:
    """Named adapters plus the shared :class:`ProgramCache`.

    ``register`` compiles (or cache-hits) the adapter's programs;
    ``swap`` replaces an existing name's weights hot — queued requests
    resolve their entry at dispatch time, so they serve the new weights;
    ``evict`` removes a name.  All three are safe under concurrent
    serving.
    """

    def __init__(self, *, program_cache_size: int = 64) -> None:
        self._metrics = MetricsRegistry(enabled=True)
        self.programs = ProgramCache(program_cache_size, metrics=self._metrics)
        self._entries: "OrderedDict[str, AdapterEntry]" = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def names(self) -> list[str]:
        """Registered adapter names, in registration order."""
        with self._lock:
            return list(self._entries)

    def get(self, name: str) -> AdapterEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            known = ", ".join(sorted(self._entries)) or "(none)"
            raise ServeError(f"unknown adapter {name!r}; registered: {known}")
        return entry

    def register(
        self,
        name: str,
        model_or_result: object,
        *,
        merge: bool = True,
        replace: bool = False,
        precision: str | None = None,
    ) -> AdapterEntry:
        """Compile and install ``name``; ``replace=True`` allows hot-swap.

        Accepts a :class:`~repro.nn.module.Module` or anything exposing
        ``serving_model(merge=...)`` (an ``AttachResult``).  MetaLoRA
        models compile to the extractor/mapping/body split; everything
        else compiles to one ``features()`` program.  ``precision``
        picks the tenant's tier (explicit, else ``REPRO_SERVE_PRECISION``,
        else ``f64``); tenants at different tiers never share a program.
        """
        with self._lock:
            previous = self._entries.get(name)
            if previous is not None and not replace:
                raise ServeError(
                    f"adapter {name!r} is already registered; "
                    f"use swap() (or replace=True) to hot-swap it"
                )
            entry = self._compile_entry(
                name, model_or_result, merge=merge, precision=precision
            )
            if previous is not None:
                entry.version = previous.version + 1
            self._entries[name] = entry
            return entry

    def swap(
        self,
        name: str,
        model_or_result: object,
        *,
        merge: bool = True,
        precision: str | None = None,
    ) -> AdapterEntry:
        """Hot-swap ``name``'s weights; the name must already be registered."""
        with self._lock:
            if name not in self._entries:
                known = ", ".join(sorted(self._entries)) or "(none)"
                raise ServeError(
                    f"cannot swap unknown adapter {name!r} (registered: {known}); "
                    f"use register() to add it"
                )
            self._metrics.inc("serve.registry.swap")
            OBS.enabled and OBS.inc("serve.registry.swap")
            return self.register(
                name, model_or_result, merge=merge, replace=True, precision=precision
            )

    def evict(self, name: str) -> AdapterEntry:
        """Remove ``name``; returns the evicted entry."""
        with self._lock:
            entry = self._entries.pop(name, None)
        if entry is None:
            known = ", ".join(sorted(self._entries)) or "(none)"
            raise ServeError(f"cannot evict unknown adapter {name!r}; registered: {known}")
        return entry

    def register_program(
        self, name: str, program: CompiledProgram, *, replace: bool = False
    ) -> AdapterEntry:
        """Install a pre-compiled program under ``name`` (bypasses the cache).

        This is how the single-tenant :class:`~repro.serve.engine.EmbeddingEngine`
        wrapper mounts the program it was handed.
        """
        with self._lock:
            previous = self._entries.get(name)
            if previous is not None and not replace:
                raise ServeError(
                    f"adapter {name!r} is already registered; "
                    f"use swap() (or replace=True) to hot-swap it"
                )
            entry = AdapterEntry(name, "static", None, program=program)
            if previous is not None:
                entry.version = previous.version + 1
            self._entries[name] = entry
            return entry

    def register_checkpoint(
        self,
        name: str,
        model: Module,
        path: object,
        *,
        merge: bool = True,
        replace: bool = False,
        precision: str | None = None,
    ) -> AdapterEntry:
        """Load an adapter checkpoint into ``model`` and register the result.

        The checkpoint (written by :func:`repro.peft.save_adapter`) is
        validated against its manifest and against ``model``, then the
        restored model is compiled under ``name`` — the straight
        checkpoint-file → serving-tenant path.
        """
        from repro.peft.checkpoint import load_adapter

        load_adapter(model, path)
        return self.register(
            name, model, merge=merge, replace=replace, precision=precision
        )

    def stats(self) -> dict[str, dict]:
        """Registry counters (program cache + swaps) as a metrics snapshot."""
        self._metrics.gauge("serve.registry.size", len(self))
        return self._metrics.snapshot()

    def program_counters(self) -> dict[str, int]:
        """Optimizer counters summed over every distinct in-use program.

        Programs are deduplicated by identity (shared programs count
        once).  Feeds the ``serve.fusion.steps_eliminated`` /
        ``serve.quantized.weights`` series the engines fold into
        ``stats()``.
        """
        totals = {"fusion_eliminated": 0, "quantized": 0}
        seen: set[int] = set()
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            for program in (entry.program, entry.extractor, entry.mapping, entry.body):
                if program is None or id(program) in seen:
                    continue
                seen.add(id(program))
                counters = program.counters()
                for field in totals:
                    totals[field] += int(counters[field])
        return totals

    # -- compilation ----------------------------------------------------------

    def _compile_entry(
        self,
        name: str,
        model_or_result: object,
        merge: bool,
        precision: str | None = None,
    ) -> AdapterEntry:
        model = model_or_result
        if not isinstance(model, Module):
            serving_model = getattr(model, "serving_model", None)
            if serving_model is None or not callable(serving_model):
                raise ServeError(
                    f"register() expects a Module or AttachResult, "
                    f"got {type(model_or_result).__name__}"
                )
            model = serving_model(merge=merge)
            if not isinstance(model, Module):
                raise ServeError(
                    f"serving_model() on {type(model_or_result).__name__} returned "
                    f"{type(model).__name__}, not a Module"
                )
        precision = resolve_precision(precision)
        if isinstance(model, MetaLoRAModel):
            return self._compile_seeded(name, model, precision)
        key = program_key(model, precision=precision)
        program = self.programs.get(
            key, lambda: compile_features(model, precision=precision)
        )
        return AdapterEntry(name, "static", key.weights, program=program)

    def _compile_seeded(
        self, name: str, model: MetaLoRAModel, precision: str
    ) -> AdapterEntry:
        from repro.peft.checkpoint import model_digest

        extractor_key = program_key(model.extractor, role="extractor", precision=precision)
        body_key = program_key(model.backbone, role="body", precision=precision)
        mapping_key = _mapping_key(model, precision)
        # The extractor feeds the mapping net's f64 trunk: quantizing it
        # would perturb the seeds and break fused==split at int8.
        extractor = self.programs.get(
            extractor_key,
            lambda: compile_forward(model.extractor, precision=precision, quantize=False),
        )
        mapping = self.programs.get(
            mapping_key, lambda: compile_seed_mapping(model, precision=precision)
        )
        body = self.programs.get(
            body_key,
            lambda: compile_features(model, external_seeds=True, precision=precision),
        )
        return AdapterEntry(
            name,
            "seeded",
            model_digest(model),
            extractor=extractor,
            mapping=mapping,
            body=body,
        )


# -- the tenant-aware engine --------------------------------------------------


class MultiTenantEngine:
    """Serve many named adapters behind one typed request/response API.

    The canonical surface is :meth:`serve` (synchronous, single request
    or heterogeneous batch) and :meth:`enqueue` (the micro-batched queue
    path), both speaking :class:`~repro.serve.api.ServeRequest` /
    :class:`~repro.serve.api.ServeResult`.  The pre-redesign call forms
    — ``embed(images, adapter)``, ``submit(sample, adapter)``,
    ``dispatch(pairs)`` — survive as deprecated shims pinned
    bit-identical to the typed path.

    Parameters
    ----------
    registry:
        An :class:`AdapterRegistry` to serve from; omitted, the engine
        owns a fresh one (``program_cache_size`` sizes its LRU).
    max_batch / max_delay / cache_size:
        Micro-batcher and result-cache limits, exactly as on
        :class:`~repro.serve.engine.EmbeddingEngine`.  The result cache
        is keyed by ``(adapter, version, sample digest)``, so hot-swaps
        never serve stale rows.
    tenant_labels:
        When true (default), per-request metrics also record a
        ``{tenant=name}`` labeled series next to the bare aggregate.
    precision:
        Default tier for ``register``/``swap`` calls that don't pick one
        (explicit, else ``REPRO_SERVE_PRECISION``, else ``f64``).
    drain_timeout:
        Seconds :meth:`close` waits for the worker to finish queued work
        before abandoning the drain and failing the remaining requests
        with a typed error (``close(drain_timeout=...)`` overrides per
        call).
    """

    def __init__(
        self,
        registry: AdapterRegistry | None = None,
        *,
        max_batch: int = 32,
        max_delay: float = 0.002,
        cache_size: int = 256,
        tenant_labels: bool = True,
        program_cache_size: int = 64,
        precision: str | None = None,
        drain_timeout: float = 10.0,
    ) -> None:
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ServeError(f"max_delay must be >= 0, got {max_delay}")
        if cache_size < 0:
            raise ServeError(f"cache_size must be >= 0, got {cache_size}")
        if drain_timeout < 0:
            raise ServeError(f"drain_timeout must be >= 0, got {drain_timeout}")
        self.precision = resolve_precision(precision)
        self.registry = (
            registry
            if registry is not None
            else AdapterRegistry(program_cache_size=program_cache_size)
        )
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay)
        self.cache_size = int(cache_size)
        self.tenant_labels = bool(tenant_labels)
        self.drain_timeout = float(drain_timeout)
        #: Tenant a ``ServeRequest`` with ``adapter=None`` resolves to
        #: (the single-tenant wrapper sets it; bare engines require an
        #: explicit adapter on every request).
        self.default_adapter: str | None = None
        self._cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._metrics = MetricsRegistry(enabled=True)
        self._stats_lock = threading.Lock()
        self._run_lock = threading.Lock()
        self._queue: "queue.Queue[_Request]" = queue.Queue()
        self._worker: threading.Thread | None = None
        self._worker_lock = threading.Lock()
        self._stop = threading.Event()
        self._abort = threading.Event()
        self._closed = False

    # -- registry passthroughs ------------------------------------------------

    def register(self, name: str, model_or_result: object, **kwargs: object) -> AdapterEntry:
        kwargs.setdefault("precision", self.precision)
        return self.registry.register(name, model_or_result, **kwargs)

    def swap(self, name: str, model_or_result: object, **kwargs: object) -> AdapterEntry:
        kwargs.setdefault("precision", self.precision)
        return self.registry.swap(name, model_or_result, **kwargs)

    def evict(self, name: str) -> AdapterEntry:
        return self.registry.evict(name)

    def adapters(self) -> list[str]:
        return self.registry.names()

    # -- metric recording -----------------------------------------------------

    def _inc(
        self, name: str, n: int = 1, *, seconds: float = 0.0, tenant: str | None = None
    ) -> None:
        with self._stats_lock:
            self._metrics.inc(name, n, seconds=seconds)
            if self.tenant_labels and tenant is not None:
                self._metrics.inc(name, n, seconds=seconds, tenant=tenant)
        OBS.enabled and OBS.inc(name, n, seconds=seconds)
        if self.tenant_labels and tenant is not None:
            OBS.enabled and OBS.inc(name, n, seconds=seconds, tenant=tenant)

    def _hist(self, name: str, value: object) -> None:
        with self._stats_lock:
            self._metrics.hist(name, value)
        OBS.enabled and OBS.hist(name, value)

    def _observe(
        self, name: str, seconds: float, nbytes: int = 0, *, tenant: str | None = None
    ) -> None:
        with self._stats_lock:
            self._metrics.observe(name, seconds, bytes=nbytes)
            if self.tenant_labels and tenant is not None:
                self._metrics.observe(name, seconds, bytes=nbytes, tenant=tenant)
        OBS.enabled and OBS.observe(name, seconds, bytes=nbytes)
        if self.tenant_labels and tenant is not None:
            OBS.enabled and OBS.observe(name, seconds, bytes=nbytes, tenant=tenant)

    # -- canonical typed surface ----------------------------------------------

    def _resolve_adapter(self, request: ServeRequest) -> str:
        name = request.adapter if request.adapter is not None else self.default_adapter
        if name is None:
            raise ServeError(
                "ServeRequest.adapter is None and this engine has no "
                "default_adapter; name the tenant on the request"
            )
        return name

    def serve(
        self, requests: "ServeRequest | Sequence[ServeRequest]"
    ) -> "ServeResult | list[ServeResult]":
        """The canonical synchronous path: typed requests in, results out.

        Accepts one :class:`~repro.serve.api.ServeRequest` or a
        heterogeneous sequence of them; returns the matching shape.
        Single-sample requests are grouped across tenants exactly like
        the micro-batcher (stacked static runs, shared seeded bodies);
        batched requests (rank-4 ``sample``) each run standalone, with
        chunking left to the caller.  Unknown adapters raise up front
        (nothing is served); per-request failures — lapsed deadlines,
        kernel errors — come back as non-``ok`` results instead.
        """
        if self._closed:
            raise ServeError("serve() on a closed MultiTenantEngine")
        single = isinstance(requests, ServeRequest)
        batch = [requests] if single else list(requests)
        for request in batch:
            if not isinstance(request, ServeRequest):
                raise ServeError(
                    f"serve() takes ServeRequest objects, got "
                    f"{type(request).__name__} (migrating from embed/dispatch? "
                    f"wrap samples in ServeRequest)"
                )
        results = self._serve_batch(batch)
        return results[0] if single else results

    def _serve_batch(self, requests: list[ServeRequest]) -> list[ServeResult]:
        names = [self._resolve_adapter(request) for request in requests]
        entries = [self.registry.get(name) for name in names]  # fail-fast
        results: list[ServeResult | None] = [None] * len(requests)
        now = time.perf_counter()
        live: list[int] = []
        for i, request in enumerate(requests):
            if request.expired(now):
                self._inc("serve.request.deadline_missed", tenant=names[i])
                elapsed = now - request.created_at
                results[i] = ServeResult.failure(
                    DEADLINE_MISSED,
                    f"SLO budget of {request.deadline}s lapsed before serving",
                    Timings(total_seconds=elapsed),
                )
            else:
                live.append(i)
        singles = [i for i in live if not requests[i].batched]
        if singles:
            started = time.perf_counter()
            sub_entries = [entries[i] for i in singles]
            for indices in self._group_indices(sub_entries):
                group = [singles[j] for j in indices]
                try:
                    rows = self._serve_group(
                        [entries[i] for i in group],
                        [requests[i].sample for i in group],
                    )
                except BaseException as exc:
                    for i in group:
                        results[i] = ServeResult.failure(
                            ERROR, f"serving failed: {exc}"
                        )
                    continue
                done = time.perf_counter()
                for i, row in zip(group, rows):
                    results[i] = ServeResult(
                        embedding=row,
                        timings=Timings(
                            queue_seconds=started - requests[i].created_at,
                            run_seconds=done - started,
                            total_seconds=done - requests[i].created_at,
                        ),
                    )
        for i in live:
            request = requests[i]
            if not request.batched:
                continue
            started = time.perf_counter()
            try:
                with TRACER.span(
                    "serve.request",
                    kind="bulk",
                    tenant=names[i],
                    samples=int(request.sample.shape[0]),
                ):
                    out = self._run_entry(entries[i], request.sample)
            except BaseException as exc:
                results[i] = ServeResult.failure(ERROR, f"serving failed: {exc}")
                continue
            done = time.perf_counter()
            results[i] = ServeResult(
                embedding=out,
                timings=Timings(
                    queue_seconds=started - request.created_at,
                    run_seconds=done - started,
                    total_seconds=done - request.created_at,
                ),
            )
        return results  # type: ignore[return-value]

    # -- deprecated pre-redesign call forms -----------------------------------

    def embed(self, images: np.ndarray, adapter: str, batch_size: int = 64) -> np.ndarray:
        """Deprecated: wrap chunks in :class:`ServeRequest` and ``serve()``.

        Chunk boundaries match ``extract_embeddings``, so rows stay
        bit-identical to the reference path under that adapter's model.
        """
        warnings.warn(
            "MultiTenantEngine.embed() is deprecated; build batched "
            "ServeRequest objects and call serve()",
            DeprecationWarning,
            stacklevel=2,
        )
        if self._closed:
            raise ServeError("embed() on a closed MultiTenantEngine")
        self.registry.get(adapter)  # fail unknown names before ingesting
        images = _ingest(images)
        requests = [
            ServeRequest(sample=images[start : start + batch_size], adapter=adapter)
            for start in range(0, images.shape[0], batch_size)
        ]
        results = self.serve(requests)
        return np.concatenate([result.require() for result in results], axis=0)

    def _run_program(
        self,
        program: CompiledProgram,
        inputs: tuple[np.ndarray, ...],
        tenant: str,
    ) -> np.ndarray:
        with self._run_lock:
            start = time.perf_counter()
            out = program.run(*inputs)
            elapsed = time.perf_counter() - start
        self._observe("serve.run", elapsed, out.nbytes, tenant=tenant)
        return out

    def _run_entry(self, entry: AdapterEntry, batch: np.ndarray) -> np.ndarray:
        """One tenant's pipeline on one batch, with per-program metrics."""
        if entry.kind == "static":
            return self._run_program(entry.program, (batch,), entry.name)
        features = self._run_program(entry.extractor, (batch,), entry.name)
        seeds = self._run_program(entry.mapping, (features,), entry.name)
        return self._run_program(entry.body, (batch, seeds), entry.name)

    # -- request path: heterogeneous micro-batching ---------------------------

    def enqueue(self, request: ServeRequest) -> "Future[ServeResult]":
        """Queue one single-sample request; resolves to a :class:`ServeResult`.

        The future never carries serving failures as exceptions — lapsed
        deadlines, evicted tenants and kernel errors resolve to results
        whose ``status`` says what happened (``require()`` re-raises).
        """
        if self._closed:
            raise ServeError("enqueue() on a closed MultiTenantEngine")
        if not isinstance(request, ServeRequest):
            raise ServeError(
                f"enqueue() takes a ServeRequest, got {type(request).__name__}"
            )
        if request.batched:
            raise ServeError(
                "enqueue() takes single-sample requests (batching is the "
                "queue's job); use serve() for pre-batched samples"
            )
        name = self._resolve_adapter(request)
        entry = self.registry.get(name)  # fail unknown names fast
        key = (name, entry.version, _digest(request.sample)) if self.cache_size else None
        future: "Future[ServeResult]" = Future()
        if key is not None:
            cached = self._cache_get(key)
            if cached is not None:
                self._inc("serve.requests", tenant=name)
                self._inc("serve.cache.hit", tenant=name)
                future.set_result(ServeResult(embedding=cached))
                return future
            self._inc("serve.cache.miss", tenant=name)
        self._ensure_worker()
        self._queue.put(_Request(request, name, key, future))
        return future

    def submit(self, sample: np.ndarray, adapter: str) -> "Future[np.ndarray]":
        """Deprecated: ``enqueue(ServeRequest(...))`` is the queue path now.

        The returned future keeps the old contract — it resolves to the
        raw embedding row and carries serving failures as exceptions.
        """
        warnings.warn(
            "MultiTenantEngine.submit() is deprecated; use "
            "enqueue(ServeRequest(sample, adapter=...)) and read the "
            "ServeResult",
            DeprecationWarning,
            stacklevel=2,
        )
        if self._closed:
            raise ServeError("submit() on a closed MultiTenantEngine")
        return _legacy_future(self.enqueue(ServeRequest(sample=sample, adapter=adapter)))

    def dispatch(self, batch: Sequence[tuple[str, np.ndarray]]) -> list[np.ndarray]:
        """Deprecated: build :class:`ServeRequest` lists and ``serve()``.

        ``batch`` is ``(adapter_name, sample)`` pairs; the result is one
        embedding row per pair, in request order, with the same
        cross-tenant grouping the micro-batcher applies.
        """
        warnings.warn(
            "MultiTenantEngine.dispatch() is deprecated; build a list of "
            "ServeRequest objects and call serve()",
            DeprecationWarning,
            stacklevel=2,
        )
        if self._closed:
            raise ServeError("dispatch() on a closed MultiTenantEngine")
        requests = [ServeRequest(sample=sample, adapter=name) for name, sample in batch]
        return [result.require() for result in self.serve(requests)]

    @staticmethod
    def _group_indices(entries: Sequence[AdapterEntry]) -> list[list[int]]:
        """Group request indices by runnable unit: static tenants by
        program identity, seeded tenants by body-program identity."""
        groups: "OrderedDict[tuple, list[int]]" = OrderedDict()
        for index, entry in enumerate(entries):
            if entry.kind == "static":
                key = ("static", id(entry.program))
            else:
                key = ("seeded", id(entry.body))
            groups.setdefault(key, []).append(index)
        return list(groups.values())

    def _serve_group(
        self, entries: list[AdapterEntry], samples: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Run one homogeneous group; returns fresh per-request rows.

        Static group: one stacked run.  Seeded group: extractor once per
        distinct extractor program over the stacked union, mapping per
        tenant on its own rows (keeping mapping batch shapes identical
        to single-tenant serving), then one body run over the union with
        every tenant's seeds stacked in request order.
        """
        count = len(entries)
        tenants = {entry.name for entry in entries}
        label = next(iter(tenants)) if len(tenants) == 1 else SHARED_TENANT
        if entries[0].kind == "static":
            out = self._run_program(entries[0].program, (np.stack(samples),), label)
            return [np.ascontiguousarray(out[i]) for i in range(count)]
        x = np.stack(samples)
        feature_rows: list[np.ndarray | None] = [None] * count
        by_extractor: "OrderedDict[int, list[int]]" = OrderedDict()
        for index, entry in enumerate(entries):
            by_extractor.setdefault(id(entry.extractor), []).append(index)
        for indices in by_extractor.values():
            sub = {entries[i].name for i in indices}
            sub_label = next(iter(sub)) if len(sub) == 1 else SHARED_TENANT
            features = self._run_program(
                entries[indices[0]].extractor,
                (x[np.asarray(indices)] if len(indices) < count else x,),
                sub_label,
            )
            for j, i in enumerate(indices):
                feature_rows[i] = features[j]
        seed_rows: list[np.ndarray | None] = [None] * count
        by_mapping: "OrderedDict[int, list[int]]" = OrderedDict()
        for index, entry in enumerate(entries):
            by_mapping.setdefault(id(entry.mapping), []).append(index)
        for indices in by_mapping.values():
            entry = entries[indices[0]]
            features = np.stack([feature_rows[i] for i in indices])
            seeds = self._run_program(entry.mapping, (features,), entry.name)
            for j, i in enumerate(indices):
                seed_rows[i] = seeds[j]
        out = self._run_program(
            entries[0].body, (x, np.stack(seed_rows)), label
        )
        return [np.ascontiguousarray(out[i]) for i in range(count)]

    # -- worker ---------------------------------------------------------------

    def _ensure_worker(self) -> None:
        with self._worker_lock:
            if self._worker is not None and self._worker.is_alive():
                return
            self._stop.clear()
            self._worker = threading.Thread(
                target=self._worker_loop, name="repro-serve-batcher", daemon=True
            )
            self._worker.start()

    def _worker_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            self._process(self._gather(first))

    def _gather(self, first: _Request) -> list[_Request]:
        """Coalesce queued requests after ``first``, bounded by
        ``max_batch`` and by ``max_delay`` seconds since the first."""
        batch = [first]
        deadline = time.perf_counter() + self.max_delay
        while len(batch) < self.max_batch:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                batch.append(self._queue.get(timeout=remaining))
            except queue.Empty:
                break
        return batch

    def _process(self, requests: list[_Request]) -> None:
        queued = time.perf_counter()
        if self._abort.is_set():
            # close() gave up on the drain: answer, never hang a caller.
            for item in requests:
                item.future.set_result(
                    ServeResult.failure(
                        ERROR, "MultiTenantEngine closed before serving this request"
                    )
                )
            return
        self._hist("serve.queue.depth", self._queue.qsize())
        live: list[_Request] = []
        for item in requests:
            if item.request.expired(queued):
                self._inc("serve.request.deadline_missed", tenant=item.adapter)
                elapsed = queued - item.request.created_at
                item.future.set_result(
                    ServeResult.failure(
                        DEADLINE_MISSED,
                        f"SLO budget of {item.request.deadline}s lapsed in queue",
                        Timings(queue_seconds=elapsed, total_seconds=elapsed),
                    )
                )
            else:
                live.append(item)
        # Resolve entries at dispatch time: a swap() between enqueue and
        # dispatch serves the *new* weights; an evict fails the request.
        resolved: list[tuple[_Request, AdapterEntry]] = []
        for item in live:
            try:
                resolved.append((item, self.registry.get(item.adapter)))
            except ServeError as exc:
                item.future.set_result(ServeResult.failure(ERROR, str(exc)))
        if not resolved:
            return
        entries = [entry for __, entry in resolved]
        with TRACER.span("serve.batch", size=len(resolved)):
            for indices in self._group_indices(entries):
                group = [resolved[i] for i in indices]
                group_entries = [entry for __, entry in group]
                run_started = time.perf_counter()
                try:
                    rows = self._serve_group(
                        group_entries, [item.request.sample for item, __ in group]
                    )
                except BaseException as exc:  # surface kernel errors to callers
                    for item, __ in group:
                        item.future.set_result(
                            ServeResult.failure(ERROR, f"serving failed: {exc}")
                        )
                    continue
                run_done = time.perf_counter()
                for item, __ in group:
                    self._inc("serve.requests", tenant=item.adapter)
                self._inc("serve.batches")
                self._hist("serve.batch.size", len(group))
                self._hist(
                    "serve.batch.tenants", len({entry.name for entry in group_entries})
                )
                waited = sum(queued - item.enqueued_at for item, __ in group)
                self._inc("serve.queue_wait", len(group), seconds=waited)
                for (item, __), row in zip(group, rows):
                    if item.key is not None:
                        self._cache_put(item.key, row)
                        row = row.copy()
                    item.future.set_result(
                        ServeResult(
                            embedding=row,
                            timings=Timings(
                                queue_seconds=run_started - item.request.created_at,
                                run_seconds=run_done - run_started,
                                total_seconds=run_done - item.request.created_at,
                            ),
                        )
                    )

    # -- LRU result cache -----------------------------------------------------

    def _cache_get(self, key: tuple) -> np.ndarray | None:
        with self._stats_lock:
            row = self._cache.get(key)
            if row is None:
                return None
            self._cache.move_to_end(key)
            return row.copy()

    def _cache_put(self, key: tuple, row: np.ndarray) -> None:
        with self._stats_lock:
            self._cache[key] = row
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
                self._metrics.inc("serve.cache.evict")
                OBS.enabled and OBS.inc("serve.cache.evict")

    # -- lifecycle ------------------------------------------------------------

    def stats(self) -> dict[str, dict]:
        """Engine + registry counters in the unified snapshot schema.

        The engine's own series (bare names, plus ``{tenant=...}``
        labeled twins when ``tenant_labels`` is on) are merged with its
        registry's (``serve.program_cache.*``, ``serve.registry.*``) and
        with the optimizer counters summed over every in-use compiled
        program (``serve.fusion.steps_eliminated``,
        ``serve.quantized.weights``) — merged, not inc'd, so the series
        appear even at zero.
        """
        with self._stats_lock:
            self._metrics.gauge("serve.cache.size", len(self._cache))
            snapshot = self._metrics.snapshot()
        merged = MetricsRegistry(enabled=True)
        merged.merge(ZERO_SERIES)
        merged.merge(snapshot)
        merged.merge(self.registry.stats())
        programs = self.registry.program_counters()
        merged.merge(
            {
                "serve.fusion.steps_eliminated": {
                    "kind": "counter",
                    "calls": int(programs["fusion_eliminated"]),
                },
                "serve.quantized.weights": {
                    "kind": "counter",
                    "calls": int(programs["quantized"]),
                },
            }
        )
        return merged.snapshot()

    def close(self, drain_timeout: float | None = None) -> None:
        """Stop the worker and answer every pending request — never hang.

        Waits up to ``drain_timeout`` seconds (default: the constructor
        knob) for the worker to finish queued work.  If the drain times
        out — a stalled program, a flooded queue — the engine aborts:
        every request still queued (or picked up after the abort)
        resolves to an ``error`` :class:`ServeResult`, so callers
        blocked on futures get a typed failure instead of a hang.
        """
        if self._closed:
            return
        self._closed = True
        timeout = self.drain_timeout if drain_timeout is None else float(drain_timeout)
        self._stop.set()
        worker = self._worker
        if worker is not None and worker.is_alive():
            worker.join(timeout=timeout)
            if worker.is_alive():
                self._abort.set()
        while True:  # belt and braces: fail anything the worker left behind
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            item.future.set_result(
                ServeResult.failure(
                    ERROR, "MultiTenantEngine closed before serving this request"
                )
            )

    def __enter__(self) -> "MultiTenantEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
