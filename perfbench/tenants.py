"""The serve workloads' tenant mix, sample pools and reference rows.

Four tenants, all on the CPU-scale ResNet at 16x16:

- ``static``: a LoRA adapter merged into its base (one static program);
- ``tr_a`` and ``tr_b``: MetaLoRA-TR tenants with byte-identical
  extractor and backbone weights, differing only in the mapping net, so
  the registry shares their extractor and body programs;
- ``cp``: a MetaLoRA-CP tenant sharing only the extractor.

:func:`build_tenant` is the importable builder shard workers call to
rebuild an architecture; the parent replicates the authoritative weights
on top of it.  Everything is derived from the workload seed.
"""

from __future__ import annotations

import os

import numpy as np

TENANTS = ("static", "tr_a", "tr_b", "cp")
NUM_CLASSES = 4
IMAGE_SIZE = 16
RANK = 2
#: Distinct samples per tenant pool; served rows are checked against the
#: reference row of the pool entry they were drawn from.
POOL_SIZE = 48
#: The tenant whose mapping net ``serve-sharded`` hot-swaps.
SWAPPED = "tr_b"


def _randomize_zeros(model: object, rng: np.random.Generator) -> None:
    """Give zero-initialised adapter factors weights, so adapters matter."""
    for param in model.parameters():
        if not np.any(param.data):
            param.data[...] = (rng.normal(size=param.data.shape) * 0.2).astype(
                param.data.dtype
            )


def _perturb_mapping(model: object, rng: np.random.Generator) -> None:
    """A tenant-specific fine-tune: move only the mapping-net weights."""
    model.trunk.weight.data[...] += rng.normal(size=model.trunk.weight.data.shape) * 0.05
    for head in model.heads:
        head.weight.data[...] += rng.normal(size=head.weight.data.shape) * 0.05


def build_tenant(kind: str, seed: int = 0) -> object:
    """Rebuild one tenant architecture (``static`` | ``meta_tr`` | ``meta_cp``).

    Module-level and JSON-argument only, so shard workers import it by
    path.  The weights it draws are placeholders: the parent's state
    dict overwrites them and the shard verifies the digest.
    """
    from repro.models import FeatureExtractor, resnet_small
    from repro.peft import MetaLoRAModel, attach

    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if trace_dir:  # a spawned shard worker of a traced server
        from perfbench.server import install_tracing

        install_tracing(trace_dir)
    rng = np.random.default_rng([int(seed), 1])
    backbone = resnet_small(NUM_CLASSES, np.random.default_rng([int(seed), 2]))
    if kind == "static":
        return attach(backbone, "lora", rank=RANK, rng=rng)
    if kind not in ("meta_tr", "meta_cp"):
        raise ValueError(f"unknown tenant kind {kind!r}")
    result = attach(backbone, kind, rank=RANK, rng=rng)
    extractor = FeatureExtractor(
        resnet_small(NUM_CLASSES, np.random.default_rng([int(seed), 3]))
    )
    return MetaLoRAModel(
        backbone, extractor, rng=np.random.default_rng([int(seed), 4]), adapters=result
    )


KINDS = {"static": "static", "tr_a": "meta_tr", "tr_b": "meta_tr", "cp": "meta_cp"}


def build_mix(seed: int) -> dict[str, object]:
    """The four tenants with their authoritative weights, from ``seed``.

    Values are what gets registered: the static tenant's ``AttachResult``
    (merged at registration) and the meta tenants' ``MetaLoRAModel``.
    """
    tenants: dict[str, object] = {}
    static = build_tenant("static", seed)
    _randomize_zeros(static.model, np.random.default_rng([seed, 10]))
    tenants["static"] = static
    for name in ("tr_a", "tr_b", "cp"):
        model = build_tenant(KINDS[name], seed)
        # The same seed for every meta tenant keeps extractor (and, for
        # the TR pair, body) weights byte-identical, hence shared.
        _randomize_zeros(model, np.random.default_rng([seed, 11]))
        if name != "tr_a":
            _perturb_mapping(model, np.random.default_rng([seed, 12, len(tenants)]))
        tenants[name] = model
    return tenants


def alternate_mapping(model: object, seed: int) -> dict[str, np.ndarray]:
    """The second mapping-net weight set ``serve-sharded`` swaps to."""
    import copy

    twin = copy.deepcopy(model)
    _perturb_mapping(twin, np.random.default_rng([seed, 13]))
    return twin.state_dict()


def serving_module(tenant: object) -> object:
    """The module a tenant serves (merged for static tenants)."""
    serving_model = getattr(tenant, "serving_model", None)
    return serving_model(merge=True) if callable(serving_model) else tenant


def sample_pools(seed: int) -> dict[str, np.ndarray]:
    """Per-tenant pools of synthetic task images, one shifted task each."""
    from repro.data.synthetic import generate_task_data
    from repro.data.tasks import TaskDistribution

    tasks = TaskDistribution(len(TENANTS) + 1, image_size=IMAGE_SIZE, seed=seed)
    rng = np.random.default_rng([seed, 20])
    return {
        name: generate_task_data(
            task, POOL_SIZE, NUM_CLASSES, IMAGE_SIZE, rng
        ).images
        for name, task in zip(TENANTS, tasks.shifted_tasks())
    }


def reference_rows(module: object, pool: np.ndarray) -> np.ndarray:
    """``extract_embeddings`` of every pool sample, one sample at a time.

    Row-by-row, so a reference never depends on which other samples
    shared its batch.
    """
    from repro.eval.embeddings import extract_embeddings

    return np.stack([extract_embeddings(module, pool[i : i + 1])[0] for i in range(len(pool))])
