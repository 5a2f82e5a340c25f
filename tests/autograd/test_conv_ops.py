"""Tests for conv2d / pooling / padding ops against references and FD."""

import numpy as np
import pytest

from repro.autograd import (
    avg_pool2d,
    check_gradients,
    conv2d,
    max_pool2d,
    pad2d,
    tensor,
)
from repro.autograd.conv_ops import conv2d_forward, conv2d_shared, fold_conv_weight
from repro.errors import ShapeError
from repro.tensornet.dummy import conv2d_via_dummy


def _t(rng, shape):
    return tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)


class TestConvForward:
    def test_output_shape(self, rng):
        x, w = _t(rng, (2, 3, 8, 8)), _t(rng, (3, 3, 3, 6))
        assert conv2d(x, w, padding=1).shape == (2, 6, 8, 8)
        assert conv2d(x, w, stride=2, padding=1).shape == (2, 6, 4, 4)
        assert conv2d(x, w).shape == (2, 6, 6, 6)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_dummy_tensor_reference(self, rng, stride, padding):
        x, w = _t(rng, (2, 3, 9, 9)), _t(rng, (3, 3, 3, 4))
        ours = conv2d(x, w, stride=stride, padding=padding).data
        reference = conv2d_via_dummy(x.data, w.data, stride=stride, padding=padding)
        assert np.allclose(ours, reference, atol=1e-10)

    def test_1x1_conv_is_channel_matmul(self, rng):
        x, w = _t(rng, (2, 4, 5, 5)), _t(rng, (1, 1, 4, 3))
        out = conv2d(x, w).data
        manual = np.einsum("nchw,co->nohw", x.data, w.data[0, 0])
        assert np.allclose(out, manual)

    def test_bias_added_per_channel(self, rng):
        x, w = _t(rng, (1, 2, 4, 4)), _t(rng, (3, 3, 2, 5))
        bias = tensor(np.arange(5, dtype=np.float64), requires_grad=True)
        with_bias = conv2d(x, w, bias).data
        without = conv2d(x, w).data
        assert np.allclose(with_bias - without, np.arange(5)[None, :, None, None])

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            conv2d(_t(rng, (1, 3, 4, 4)), _t(rng, (3, 3, 5, 2)))

    def test_wrong_rank_raises(self, rng):
        with pytest.raises(ShapeError):
            conv2d(_t(rng, (3, 4, 4)), _t(rng, (3, 3, 3, 2)))

    def test_empty_output_raises(self, rng):
        with pytest.raises(ShapeError):
            conv2d(_t(rng, (1, 1, 2, 2)), _t(rng, (5, 5, 1, 1)))


class TestConvGradients:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_full_gradients(self, rng, stride, padding):
        x, w = _t(rng, (2, 2, 6, 6)), _t(rng, (3, 3, 2, 3))
        b = _t(rng, (3,))
        check_gradients(
            lambda x, w, b: conv2d(x, w, b, stride=stride, padding=padding), [x, w, b]
        )

    def test_gradient_without_bias(self, rng):
        x, w = _t(rng, (1, 2, 5, 5)), _t(rng, (2, 2, 2, 2))
        check_gradients(lambda x, w: conv2d(x, w), [x, w])


class TestPooling:
    def test_max_pool_values(self):
        x = tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_values(self):
        x = tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        out = avg_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_gradient_routes_to_argmax(self):
        x = tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4), requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        assert np.allclose(x.grad[0, 0], expected)

    def test_avg_pool_gradient_spreads(self):
        x = tensor(np.zeros((1, 1, 4, 4)), requires_grad=True)
        avg_pool2d(x, 2).sum().backward()
        assert np.allclose(x.grad, 0.25)

    def test_pool_gradients_fd(self, rng):
        x = _t(rng, (2, 2, 6, 6))
        check_gradients(lambda x: avg_pool2d(x, 2), [x])
        check_gradients(lambda x: max_pool2d(x, 3, stride=3), [x])

    def test_strided_pooling_shape(self, rng):
        x = _t(rng, (1, 1, 8, 8))
        assert max_pool2d(x, 2, stride=1).shape == (1, 1, 7, 7)


class TestPad:
    def test_pad_shape_and_values(self):
        x = tensor(np.ones((1, 1, 2, 2)))
        out = pad2d(x, 1)
        assert out.shape == (1, 1, 4, 4)
        assert out.data[0, 0, 0, 0] == 0.0
        assert out.data[0, 0, 1, 1] == 1.0

    def test_pad_zero_is_identity(self):
        x = tensor(np.ones((1, 1, 2, 2)))
        assert pad2d(x, 0) is x

    def test_pad_negative_raises(self):
        with pytest.raises(ShapeError):
            pad2d(tensor(np.ones((1, 1, 2, 2))), -1)

    def test_pad_gradient(self, rng):
        check_gradients(lambda x: pad2d(x, 2), [_t(rng, (1, 2, 3, 3))])


# -- differential tests against direct loops ------------------------------------


def _windows(size, kernel, stride, padding):
    return range((size + 2 * padding - kernel) // stride + 1)


def _conv_loop(x, w, b, g, stride, padding):
    """Forward, grad_x, grad_w and grad_b of conv2d by one loop per output pixel."""
    kh, kw, __, c_out = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    rows, cols = _windows(x.shape[2], kh, stride, padding), _windows(x.shape[3], kw, stride, padding)
    out = np.zeros((x.shape[0], c_out, len(rows), len(cols)))
    d_xp, d_w = np.zeros_like(xp), np.zeros_like(w)
    for i in rows:
        for j in cols:
            window = (slice(None), slice(None), slice(i * stride, i * stride + kh),
                      slice(j * stride, j * stride + kw))
            out[:, :, i, j] = np.einsum("ncab,abco->no", xp[window], w) + b
            d_xp[window] += np.einsum("no,abco->ncab", g[:, :, i, j], w)
            d_w += np.einsum("ncab,no->abco", xp[window], g[:, :, i, j])
    h, wd = x.shape[2], x.shape[3]
    d_x = d_xp[:, :, padding : padding + h, padding : padding + wd]
    return out, d_x, d_w, g.sum(axis=(0, 2, 3))


def _pool_loop(x, g, kernel, stride, reduce):
    """Forward and grad_x of max/avg pooling by one loop per output pixel."""
    rows, cols = _windows(x.shape[2], kernel, stride, 0), _windows(x.shape[3], kernel, stride, 0)
    out = np.zeros(x.shape[:2] + (len(rows), len(cols)))
    d_x = np.zeros_like(x)
    for i in rows:
        for j in cols:
            window = (slice(None), slice(None), slice(i * stride, i * stride + kernel),
                      slice(j * stride, j * stride + kernel))
            patch = x[window].reshape(x.shape[0], x.shape[1], -1)
            if reduce == "max":
                out[:, :, i, j] = patch.max(axis=-1)
                onehot = patch == patch.max(axis=-1, keepdims=True)
                d_x[window] += (onehot * g[:, :, i, j, None]).reshape(x[window].shape)
            else:
                out[:, :, i, j] = patch.mean(axis=-1)
                d_x[window] += g[:, :, i, j, None, None] / kernel**2
    return out, d_x


# (9, 8) input: for most (k, s, p) one of h + 2p - k, w + 2p - k is odd,
# so stride 2 leaves a remainder on that axis.
GEOMETRY = [(k, s, p) for k in (1, 3, 5) for s in (1, 2) for p in (0, 1, 2)]


class TestConvDifferential:
    @pytest.mark.parametrize("kernel,stride,padding", GEOMETRY)
    def test_conv2d_matches_direct_loop(self, rng, kernel, stride, padding):
        x, w, b = _t(rng, (2, 3, 9, 8)), _t(rng, (kernel, kernel, 3, 4)), _t(rng, (4,))
        out = conv2d(x, w, b, stride=stride, padding=padding)
        g = rng.normal(size=out.shape)
        out.backward(g)
        ref_out, ref_dx, ref_dw, ref_db = _conv_loop(x.data, w.data, b.data, g, stride, padding)
        for got, ref in ((out.data, ref_out), (x.grad, ref_dx), (w.grad, ref_dw), (b.grad, ref_db)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride", [(k, s) for k in (1, 3, 5) for s in (1, 2)])
    @pytest.mark.parametrize("reduce", ["max", "avg"])
    def test_pooling_matches_direct_loop(self, rng, kernel, stride, reduce):
        x = _t(rng, (2, 3, 9, 8))
        pool = max_pool2d if reduce == "max" else avg_pool2d
        out = pool(x, kernel, stride=stride)
        g = rng.normal(size=out.shape)
        out.backward(g)
        ref_out, ref_dx = _pool_loop(x.data, g, kernel, stride, reduce)
        np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, ref_dx, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_forward_returns_c_contiguous_nchw(self, rng, with_bias):
        x, w = rng.normal(size=(2, 3, 9, 8)), rng.normal(size=(3, 3, 3, 5))
        bias = rng.normal(size=5) if with_bias else None
        out, cols, out_h, out_w = conv2d_forward(x, fold_conv_weight(w), bias, 3, 3, 2, 1)
        assert out.shape == (2, 5, out_h, out_w) == (2, 5, 5, 4)
        assert out.flags.c_contiguous
        assert cols.shape == (2, 3 * 3 * 3, out_h * out_w)


class TestConvShared:
    def test_matches_separate_convs(self, rng):
        x = _t(rng, (2, 3, 7, 7))
        w1, w2, b1 = _t(rng, (3, 3, 3, 4)), _t(rng, (3, 3, 3, 2)), _t(rng, (4,))
        g1, g2 = rng.normal(size=(2, 4, 4, 4)), rng.normal(size=(2, 2, 4, 4))
        shared = conv2d_shared(x, [w1, w2], [b1, None], stride=2, padding=1)
        shared[0].backward(g1)
        shared[1].backward(g2)
        got = [t.data for t in shared] + [x.grad, w1.grad, w2.grad, b1.grad]
        for t in (x, w1, w2, b1):
            t.zero_grad()
        separate = [conv2d(x, w1, b1, stride=2, padding=1), conv2d(x, w2, stride=2, padding=1)]
        separate[0].backward(g1)
        separate[1].backward(g2)
        want = [t.data for t in separate] + [x.grad, w1.grad, w2.grad, b1.grad]
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_kernel_size_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            conv2d_shared(_t(rng, (1, 2, 5, 5)), [_t(rng, (3, 3, 2, 1)), _t(rng, (1, 1, 2, 1))])
