"""The one-node training BatchNorm against the composed-op path it replaced."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, no_grad, sqrt
from repro.nn import BatchNorm2d

AXES = (0, 2, 3)


def composed_forward(bn, x):
    """BatchNorm2d.forward built from Tensor ops, running-stat update included."""
    c = bn.channels
    if bn.training:
        mean = x.mean(axis=AXES, keepdims=True)
        var = x.var(axis=AXES, keepdims=True)
        m = bn.momentum
        bn._buffers["running_mean"] *= 1 - m
        bn._buffers["running_mean"] += m * mean.data.reshape(-1)
        bn._buffers["running_var"] *= 1 - m
        bn._buffers["running_var"] += m * var.data.reshape(-1)
    else:
        mean = Tensor(bn._buffers["running_mean"].reshape(1, -1, 1, 1))
        var = Tensor(bn._buffers["running_var"].reshape(1, -1, 1, 1))
    x_hat = (x - mean) / sqrt(var + bn.eps)
    return x_hat * bn.gamma.reshape(1, c, 1, 1) + bn.beta.reshape(1, c, 1, 1)


def twin_layers(rng, channels=3, dtype=np.float64):
    """Two layers with identical, non-trivial parameters and running stats."""
    gamma = rng.normal(size=channels).astype(dtype)
    beta = rng.normal(size=channels).astype(dtype)
    mean = rng.normal(size=channels).astype(np.float32)
    var = rng.uniform(0.5, 2.0, size=channels).astype(np.float32)
    layers = []
    for __ in range(2):
        bn = BatchNorm2d(channels, momentum=0.3)
        bn.gamma.data = gamma.copy()
        bn.beta.data = beta.copy()
        bn._buffers["running_mean"][...] = mean
        bn._buffers["running_var"][...] = var
        layers.append(bn)
    return layers


def x_of(rng, dtype=np.float64):
    return Tensor((rng.normal(size=(4, 3, 5, 6)) * 2 + 1).astype(dtype), requires_grad=True)


class TestFusedTrainingBatchNorm:
    def test_matches_composed_reference_f64(self, rng):
        fused, composed = twin_layers(rng)
        x_data = x_of(rng).data
        g = rng.normal(size=x_data.shape)
        results = []
        for bn, forward in ((fused, lambda bn, x: bn(x)), (composed, composed_forward)):
            x = Tensor(x_data.copy(), requires_grad=True)
            out = forward(bn, x)
            out.backward(g)
            results.append((out.data, x.grad, bn.gamma.grad, bn.beta.grad))
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_running_stats_identical(self, rng):
        fused, composed = twin_layers(rng)
        for __ in range(3):
            x = x_of(rng)
            fused(x)
            composed_forward(composed, x)
        for name in ("running_mean", "running_var"):
            np.testing.assert_array_equal(fused._buffers[name], composed._buffers[name])
            assert fused._buffers[name].dtype == np.float32

    def test_float32_input_promotes_like_composed(self, rng):
        fused, composed = twin_layers(rng, dtype=np.float32)
        x = x_of(rng, np.float32)
        out, ref = fused(x), composed_forward(composed, x)
        assert out.dtype == ref.dtype == np.float64
        np.testing.assert_array_equal(out.data, ref.data)

    def test_eval_path_bit_identical(self, rng):
        fused, composed = twin_layers(rng)
        fused.eval()
        composed.eval()
        x = x_of(rng, np.float32)
        np.testing.assert_array_equal(fused(x).data, composed_forward(composed, x).data)

    def test_is_one_graph_node(self, rng):
        bn = BatchNorm2d(3)
        x = x_of(rng)
        out = bn(x)
        assert out._parents == (x, bn.gamma, bn.beta)

    def test_frozen_affine_gets_no_gradient(self, rng):
        fused, composed = twin_layers(rng)
        for bn in (fused, composed):
            bn.gamma.requires_grad = bn.beta.requires_grad = False
        g = rng.normal(size=(4, 3, 5, 6))
        x1 = x_of(rng)
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        fused(x1).backward(g)
        composed_forward(composed, x2).backward(g)
        assert fused.gamma.grad is None and fused.beta.grad is None
        np.testing.assert_allclose(x1.grad, x2.grad, rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        bn = twin_layers(rng)[0]
        weights = rng.normal(size=(4, 3, 5, 6))
        check_gradients(lambda x, gamma, beta: bn(x) * weights, [x_of(rng), bn.gamma, bn.beta])

    def test_no_grad_still_updates_running_stats(self, rng):
        fused, composed = twin_layers(rng)
        x = x_of(rng)
        with no_grad():
            out = fused(x)
            ref = composed_forward(composed, x)
        assert not out.requires_grad and not out._parents
        np.testing.assert_array_equal(out.data, ref.data)
        np.testing.assert_array_equal(fused._buffers["running_mean"], composed._buffers["running_mean"])
