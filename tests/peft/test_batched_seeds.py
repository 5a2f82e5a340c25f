"""Batched meta-seed generation must match the per-head reference path."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.models import FeatureExtractor, resnet_small
from repro.peft import MetaLoRAModel, attach
from repro.perf import PerfFlags, perf_overrides


def make_model(rng, fmt="tr"):
    backbone = resnet_small(4, rng)
    extractor = FeatureExtractor(resnet_small(4, np.random.default_rng(7)))
    result = attach(backbone, f"meta_{fmt}", rank=2, rng=rng)
    return MetaLoRAModel(backbone, extractor, rng=rng, adapters=result)


@pytest.mark.parametrize("fmt", ["tr", "cp"])
class TestBatchedSeeds:
    def test_seeds_match_per_head_path(self, fmt, rng):
        model = make_model(rng, fmt)
        # Perturb the heads so seeds are non-trivial (they start neutral).
        for head in model.heads:
            head.weight.data[...] = rng.normal(size=head.weight.shape) * 0.1
        x = Tensor(rng.normal(size=(3, 3, 16, 16)).astype(np.float32))
        with perf_overrides(batched_seeds=False):
            reference = [s.data.copy() for s in model.generate_seeds(x)]
        with perf_overrides(batched_seeds=True):
            batched = [s.data.copy() for s in model.generate_seeds(x)]
        assert len(reference) == len(batched)
        for ref, got in zip(reference, batched):
            np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_forward_and_gradients_match(self, fmt, rng):
        model = make_model(rng, fmt)
        x = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))

        def step():
            model.zero_grad()
            loss = model(x).sum()
            loss.backward()
            grads = {
                name: None if p.grad is None else p.grad.copy()
                for name, p in model.named_parameters()
                if p.requires_grad
            }
            return loss.data.copy(), grads

        with perf_overrides(batched_seeds=False):
            ref_loss, ref_grads = step()
        with perf_overrides(batched_seeds=True):
            opt_loss, opt_grads = step()

        np.testing.assert_allclose(opt_loss, ref_loss, atol=1e-10)
        assert ref_grads.keys() == opt_grads.keys()
        for name, ref in ref_grads.items():
            got = opt_grads[name]
            if ref is None:
                assert got is None, name
            else:
                np.testing.assert_allclose(got, ref, atol=1e-10, err_msg=name)

    def test_flag_controls_path(self, fmt, rng):
        model = make_model(rng, fmt)
        assert PerfFlags().batched_seeds  # default on, whatever REPRO_PERF says
        assert len(model._meta_adapters) > 1  # fused path actually exercised
