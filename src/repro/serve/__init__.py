"""Graph-free compiled inference for embedding serving.

``compile_features`` lowers a model's ``features()`` into a flat program
of raw-numpy kernels (no Tensor wrapping, no autograd bookkeeping);
``EmbeddingEngine`` serves one program with micro-batching and an LRU
result cache, while ``AdapterRegistry`` + ``MultiTenantEngine`` serve a
fleet of *named* adapters — hot register/swap/evict, a shared LRU of
compiled programs, and cross-tenant micro-batching.  ``optimize``
supplies the compile-time pass pipeline: precision tiers
(f64/f32/int8) and elementwise-chain fusion; a compiled program then
runs as one serial loop of plain kernels.

Every path speaks one typed surface (``api``): ``ServeRequest`` in,
``ServeResult`` out — the engines' ``serve``/``enqueue``, the asyncio
TCP ``frontend`` with its continuous-batching ``scheduler``, and the
open-loop ``loadgen``.  See docs/serving.md and
docs/serving_frontend.md.
"""

from repro.serve.api import (
    DEADLINE_MISSED,
    ERROR,
    OK,
    REJECTED,
    STATUSES,
    ServeRequest,
    ServeResult,
    Timings,
    ingest_sample,
)
from repro.serve.optimize import (
    PRECISIONS,
    fuse_program,
    quantize_weight,
    resolve_precision,
)
from repro.serve.compile import (
    CompiledProgram,
    ProgramBuilder,
    compile_features,
    compile_forward,
    compile_seed_mapping,
    compiles,
    compiles_features,
)
from repro.serve.engine import (
    ENGINES,
    EmbeddingEngine,
    Engines,
    build_engine,
)
from repro.serve.registry import (
    AdapterEntry,
    AdapterRegistry,
    MultiTenantEngine,
    ProgramCache,
    ProgramKey,
    program_key,
)
from repro.serve.scheduler import BatchScheduler
from repro.serve.shard import ShardedEngine, TenantSpec
from repro.serve.frontend import ServeClient, ServingFrontend
from repro.serve.loadgen import run_load
from repro.serve.codec import MAX_SEGMENT, decode_payload, encode_payload

__all__ = [
    "AdapterEntry",
    "AdapterRegistry",
    "BatchScheduler",
    "CompiledProgram",
    "DEADLINE_MISSED",
    "EmbeddingEngine",
    "ENGINES",
    "ERROR",
    "Engines",
    "MAX_SEGMENT",
    "MultiTenantEngine",
    "OK",
    "PRECISIONS",
    "ProgramBuilder",
    "ProgramCache",
    "ProgramKey",
    "REJECTED",
    "STATUSES",
    "ServeClient",
    "ServeRequest",
    "ServeResult",
    "ServingFrontend",
    "ShardedEngine",
    "TenantSpec",
    "Timings",
    "build_engine",
    "compile_features",
    "compile_forward",
    "compile_seed_mapping",
    "compiles",
    "compiles_features",
    "decode_payload",
    "encode_payload",
    "fuse_program",
    "ingest_sample",
    "program_key",
    "quantize_weight",
    "resolve_precision",
    "run_load",
]
