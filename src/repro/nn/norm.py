"""Normalization layers: BatchNorm2d (ResNet) and LayerNorm (MLP-Mixer)."""

from __future__ import annotations

import numpy as np

from repro.autograd.ops import sqrt
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError
from repro.nn import init
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """Batch normalization over the channel axis of ``(N, C, H, W)``.

    Running statistics are tracked as buffers (exponential moving average)
    and used in eval mode, as required by the frozen-backbone evaluation
    protocol: embeddings must be deterministic at eval time.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((channels,)))
        self.beta = Parameter(init.zeros((channels,)))
        self.register_buffer("running_mean", np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_var", np.ones(channels, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(
                f"BatchNorm2d({self.channels}) got input shape {x.shape}"
            )
        if self.training:
            return self._train_forward(x)
        mean = Tensor(self._buffers["running_mean"].reshape(1, -1, 1, 1))
        var = Tensor(self._buffers["running_var"].reshape(1, -1, 1, 1))
        x_hat = (x - mean) / sqrt(var + self.eps)
        gamma = self.gamma.reshape(1, self.channels, 1, 1)
        beta = self.beta.reshape(1, self.channels, 1, 1)
        return x_hat * gamma + beta

    def _train_forward(self, x: Tensor) -> Tensor:
        """Batch statistics as one graph node with the analytic backward.

        Mirrors the composed ``Tensor`` ops (``mean`` is ``sum * (1/count)``
        and ``eps`` a 0-d float64), so outputs, dtypes and running stats
        match them."""
        axes = (0, 2, 3)
        data = x.data
        inv_count = np.asarray(1.0 / (data.size // self.channels))
        mean = data.sum(axis=axes, keepdims=True) * inv_count
        centered = data - mean
        var = (centered * centered).sum(axis=axes, keepdims=True) * inv_count
        m = self.momentum
        self._buffers["running_mean"] *= 1 - m
        self._buffers["running_mean"] += m * mean.reshape(-1)
        self._buffers["running_var"] *= 1 - m
        self._buffers["running_var"] += m * var.reshape(-1)
        std = np.sqrt(var + np.asarray(self.eps))
        x_hat = centered / std
        gamma = self.gamma.data.reshape(1, self.channels, 1, 1)
        out = x_hat * gamma + self.beta.data.reshape(1, self.channels, 1, 1)

        def grad_x(g: np.ndarray) -> np.ndarray:
            g_hat = g * gamma
            g_mean = g_hat.sum(axis=axes, keepdims=True) * inv_count
            proj = (g_hat * x_hat).sum(axis=axes, keepdims=True) * inv_count
            return (g_hat - g_mean - x_hat * proj) / std

        return Tensor._result(
            out,
            (x, self.gamma, self.beta),
            (grad_x, lambda g: (g * x_hat).sum(axis=axes), lambda g: g.sum(axis=axes)),
        )


class LayerNorm(Module):
    """Layer normalization over the last axis (token/channel mixing norm)."""

    def __init__(self, features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.features = features
        self.eps = eps
        self.gamma = Parameter(init.ones((features,)))
        self.beta = Parameter(init.zeros((features,)))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.features:
            raise ShapeError(f"LayerNorm({self.features}) got input shape {x.shape}")
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        x_hat = (x - mean) / sqrt(var + self.eps)
        return x_hat * self.gamma + self.beta
