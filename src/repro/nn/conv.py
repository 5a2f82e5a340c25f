"""2-D convolution layer."""

from __future__ import annotations

import numpy as np

from repro.autograd.conv_ops import conv2d, conv2d_shared
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError
from repro.nn import init
from repro.nn.module import Module, Parameter


class Conv2d(Module):
    """Convolution with weight layout ``(K, K, C_in, C_out)``.

    This matches the paper's convolutional tensor ``W ∈ R^{K×K×I×O}``
    (Sec. III-A), so Conv-LoRA's update ``ΔW = A ×₄ B`` adds to the weight
    without any axis shuffling.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ShapeError(f"kernel_size must be positive, got {kernel_size}")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.kaiming_uniform(
                rng, (kernel_size, kernel_size, in_channels, out_channels), fan_in
            )
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def forward_shared(self, x: Tensor, *weights: Tensor) -> list[Tensor]:
        """``forward(x)`` plus bias-free convs of ``x`` by ``weights`` (an
        adapter's rank-R factor), all off one unfolded patch matrix."""
        biases = (self.bias,) + (None,) * len(weights)
        return conv2d_shared(x, (self.weight, *weights), biases, self.stride, self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}->{self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )
