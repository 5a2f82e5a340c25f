"""Differentiable 2-D convolution and pooling.

Convolution is implemented with im2col: patches are unfolded into a matrix
so the convolution becomes a single matmul, which is the fastest approach
available in pure numpy.  The backward pass uses the exact adjoint
(col2im scatter-add), and is validated against finite differences and a
direct-loop reference in the test suite.

Layout convention: activations are ``(N, C, H, W)`` and convolution
weights are ``(K_h, K_w, C_in, C_out)`` — the latter matches the paper's
``W ∈ R^{K×K×I×O}`` notation for Conv-LoRA (Eq. 5).

The patch matrix is channel-first, ``(N, C*kh*kw, oh*ow)``: the unfold
copies contiguous ``ow`` runs, the forward ``(Cout, C*kh*kw) @ cols``
yields a C-contiguous ``(N, Cout, oh, ow)`` output with no transpose,
and the backward scatters contiguous ``(N, C, oh, ow)`` slices.

:func:`conv2d_shared` runs several kernels off one patch matrix: conv
adapters' rank-R factor reads the same input as the base conv (Fig. 3).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import ShapeError
from repro.perf import FLAGS
from repro.obs import OBS


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution output size would be {out} "
            f"(input {size}, kernel {kernel}, stride {stride}, padding {padding})"
        )
    return out


def _im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    _use_workspace: bool = False,
) -> tuple[np.ndarray, int, int]:
    """Unfold ``(N, C, H, W)`` into ``(N, C, kh, kw, out_h, out_w)`` patches.

    The returned array is a zero-copy strided view.  With
    ``_use_workspace`` the padded input is written into a pooled scratch
    buffer instead of a fresh allocation — only safe when the caller copies
    the patches out before the next convolution (:func:`_unfold` does; the
    view must not escape the call).
    """
    n, c, h, w = x.shape
    out_h = _out_size(h, kh, stride, padding)
    out_w = _out_size(w, kw, stride, padding)
    if padding:
        if _use_workspace and FLAGS.conv_pad_workspace:
            x = _padded_workspace(x, padding)
        else:
            x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    stride_n, stride_c, stride_h, stride_w = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(stride_n, stride_c, stride_h, stride_w, stride_h * stride, stride_w * stride),
        writeable=False,
    )
    return patches, out_h, out_w


# -- pad workspace -------------------------------------------------------------
#
# A flag-gated padded-input scratch buffer pooled by (shape, dtype), so
# repeated same-shape convolutions stop reallocating (and re-zeroing) the
# pad frame every call.

_PAD_POOL: dict[tuple[tuple[int, ...], np.dtype], np.ndarray] = {}


def clear_conv_caches() -> None:
    """Drop pooled pad buffers (frees memory)."""
    _PAD_POOL.clear()


def _padded_workspace(x: np.ndarray, padding: int) -> np.ndarray:
    n, c, h, w = x.shape
    shape = (n, c, h + 2 * padding, w + 2 * padding)
    key = (shape, x.dtype)
    buffer = _PAD_POOL.get(key)
    if buffer is None:
        buffer = _PAD_POOL[key] = np.zeros(shape, dtype=x.dtype)
    # Only the interior is written; the pad frame stays zero.
    buffer[:, :, padding : padding + h, padding : padding + w] = x
    return buffer


def _unfold(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """The contiguous ``(N, C*kh*kw, oh*ow)`` patch matrix of ``x``."""
    n, c = x.shape[0], x.shape[1]
    patches, out_h, out_w = _im2col(x, kh, kw, stride, padding, _use_workspace=True)
    cols = np.ascontiguousarray(patches).reshape(n, c * kh * kw, out_h * out_w)
    return cols, out_h, out_w


def _col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter-add ``(N, C, kh, kw, oh, ow)``
    patches back into an image."""
    n, c, h, w = x_shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    out_h, out_w = cols.shape[4], cols.shape[5]
    for i in range(kh):
        for j in range(kw):
            padded[
                :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
            ] += cols[:, :, i, j]
    if padding:
        return padded[:, :, padding : padding + h, padding : padding + w]
    return padded


def fold_conv_weight(weight: np.ndarray) -> np.ndarray:
    """Reshape a ``(Kh, Kw, Cin, Cout)`` kernel into the im2col matmul matrix.

    This is the per-call weight layout work of :func:`conv2d`, exposed so
    the serve compiler can fold it once at compile time instead of on
    every request.
    """
    kh, kw, c_in, c_out = weight.shape
    return weight.transpose(2, 0, 1, 3).reshape(c_in * kh * kw, c_out)


def _conv_cols(
    cols: np.ndarray, w_mat: np.ndarray, bias: np.ndarray | None, out_h: int, out_w: int
) -> np.ndarray:
    """``(Cout, C*kh*kw) @ (N, C*kh*kw, oh*ow)`` as a ``(N, Cout, oh, ow)`` image."""
    out = (w_mat.T @ cols).reshape(cols.shape[0], w_mat.shape[1], out_h, out_w)
    if bias is not None:
        out = out + bias.reshape(1, w_mat.shape[1], 1, 1)
    if OBS.enabled:
        OBS.inc("conv2d.forward", bytes=out.nbytes)
    return out


def conv2d_forward(
    x: np.ndarray,
    w_mat: np.ndarray,
    bias: np.ndarray | None,
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Graph-free convolution forward on raw arrays.

    ``w_mat`` is the pre-folded ``(Cin*kh*kw, Cout)`` matrix from
    :func:`fold_conv_weight`.  Returns ``(out, cols, out_h, out_w)`` with
    ``out`` a C-contiguous ``(N, Cout, oh, ow)`` array.  The autograd ops
    share these kernels, so the serve compiler is bit-identical to them.
    """
    cols, out_h, out_w = _unfold(x, kh, kw, stride, padding)
    return _conv_cols(cols, w_mat, bias, out_h, out_w), cols, out_h, out_w


def _conv_node(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    cols: np.ndarray,
    out_h: int,
    out_w: int,
    stride: int,
    padding: int,
) -> Tensor:
    """One convolution of ``x``'s patch matrix ``cols`` as a graph node."""
    kh, kw, c_in, c_out = weight.shape
    n = x.shape[0]
    w_mat = fold_conv_weight(weight.data)
    out = _conv_cols(cols, w_mat, bias.data if bias is not None else None, out_h, out_w)
    x_shape = x.shape

    def grad_x(g: np.ndarray) -> np.ndarray:
        d_cols = w_mat @ g.reshape(n, c_out, out_h * out_w)  # (N, C*kh*kw, oh*ow)
        d_patches = d_cols.reshape(n, c_in, kh, kw, out_h, out_w)
        result = _col2im(d_patches, x_shape, kh, kw, stride, padding)
        if OBS.enabled:
            OBS.inc("conv2d.backward", bytes=result.nbytes)
        return result

    def grad_w(g: np.ndarray) -> np.ndarray:
        # Σ_n (C*kh*kw, oh*ow) @ (oh*ow, Cout): the swapaxes is a view
        # that BLAS reads transposed, so nothing is copied.
        g_rows = np.swapaxes(g.reshape(n, c_out, out_h * out_w), 1, 2)
        d_w_mat = (cols @ g_rows).sum(axis=0)  # (C*kh*kw, Cout)
        if OBS.enabled:
            OBS.inc("conv2d.backward", bytes=d_w_mat.nbytes)
        return d_w_mat.reshape(c_in, kh, kw, c_out).transpose(1, 2, 0, 3)

    if bias is None:
        return Tensor._result(out, (x, weight), (grad_x, grad_w))

    def grad_b(g: np.ndarray) -> np.ndarray:
        return g.sum(axis=(0, 2, 3))

    return Tensor._result(out, (x, weight, bias), (grad_x, grad_w, grad_b))


def conv2d_shared(
    x: Tensor,
    weights: Sequence[Tensor],
    biases: Sequence[Tensor | None] | None = None,
    stride: int = 1,
    padding: int = 0,
) -> list[Tensor]:
    """``[conv2d(x, w, b, stride, padding) for w, b in zip(weights, biases)]``
    with ``x`` unfolded once; all weights share ``(K_h, K_w, C_in)``."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input (N, C, H, W), got {x.shape}")
    kernel = weights[0].shape[:2]
    for weight in weights:
        if weight.ndim != 4 or weight.shape[:3] != (*kernel, x.shape[1]):
            raise ShapeError(
                f"conv2d weight {weight.shape} is not (Kh, Kw, Cin, Cout) with "
                f"(Kh, Kw) = {kernel} and Cin = input channels {x.shape[1]}"
            )
    kh, kw = kernel
    biases = [None] * len(weights) if biases is None else biases
    cols, out_h, out_w = _unfold(x.data, kh, kw, stride, padding)
    return [
        _conv_node(x, weight, bias, cols, out_h, out_w, stride, padding)
        for weight, bias in zip(weights, biases)
    ]


def max_pool2d_forward(
    x: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Graph-free max-pool forward; returns ``(out, argmax, out_h, out_w)``."""
    patches, out_h, out_w = _im2col(x, kernel, kernel, stride, padding=0)
    n, c = x.shape[0], x.shape[1]
    windows = patches.reshape(n, c, kernel * kernel, out_h, out_w)
    arg = windows.argmax(axis=2)
    out = np.take_along_axis(windows, arg[:, :, None], axis=2)[:, :, 0]
    return out, arg, out_h, out_w


def avg_pool2d_forward(x: np.ndarray, kernel: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Graph-free average-pool forward; returns ``(out, out_h, out_w)``."""
    patches, out_h, out_w = _im2col(x, kernel, kernel, stride, padding=0)
    n, c = x.shape[0], x.shape[1]
    out = patches.reshape(n, c, kernel * kernel, out_h, out_w).mean(axis=2)
    return out, out_h, out_w


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution of ``(N, C_in, H, W)`` with ``(K_h, K_w, C_in, C_out)``.

    Returns ``(N, C_out, H_out, W_out)``.  ``bias``, if given, has shape
    ``(C_out,)`` and is added per output channel.
    """
    return conv2d_shared(x, [weight], [bias], stride, padding)[0]


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the spatial dimensions of a ``(N, C, H, W)`` tensor."""
    if padding < 0:
        raise ShapeError(f"padding must be non-negative, got {padding}")
    if padding == 0:
        return x
    out = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    def grad_fn(g: np.ndarray) -> np.ndarray:
        return g[:, :, padding:-padding, padding:-padding]

    return Tensor._result(out, (x,), (grad_fn,))


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) spatial windows."""
    stride = stride or kernel
    n, c = x.shape[0], x.shape[1]
    out, arg, out_h, out_w = max_pool2d_forward(x.data, kernel, stride)
    x_shape = x.shape

    def grad_fn(g: np.ndarray) -> np.ndarray:
        g_windows = np.zeros((n, c, kernel * kernel, out_h, out_w), dtype=g.dtype)
        np.put_along_axis(g_windows, arg[:, :, None], g[:, :, None], axis=2)
        d_patches = g_windows.reshape(n, c, kernel, kernel, out_h, out_w)
        return _col2im(d_patches, x_shape, kernel, kernel, stride, padding=0)

    return Tensor._result(out, (x,), (grad_fn,))


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling over spatial windows."""
    stride = stride or kernel
    n, c = x.shape[0], x.shape[1]
    out, out_h, out_w = avg_pool2d_forward(x.data, kernel, stride)
    x_shape = x.shape
    scale = 1.0 / (kernel * kernel)

    def grad_fn(g: np.ndarray) -> np.ndarray:
        # Every window position receives the same scaled gradient, so a
        # broadcast view stands in for the patch gradient.
        g_spread = np.broadcast_to(
            (g * scale)[:, :, None, None], (n, c, kernel, kernel, out_h, out_w)
        )
        return _col2im(g_spread, x_shape, kernel, kernel, stride, 0)

    return Tensor._result(out, (x,), (grad_fn,))
