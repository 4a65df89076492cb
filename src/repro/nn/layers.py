"""Neural-network layers as structure: parameters and settings.

A layer holds what it computes with and nothing it computes: ``params``
(a list of numpy arrays, empty for stateless layers; ``weight`` and
``bias`` on the parameterised ones) and its scalar settings.  Shapes
follow the PyTorch convention: dense inputs are ``(N, features)``, images
``(N, C, H, W)``.

The one computation over a stack of layers is the training walk
(:mod:`repro.nn.batched`): it dispatches on each layer's type and reads
its settings and its parameters, or per-group ones passed beside it.  The
plain per-layer forward/backward passes it is checked against are the
tests' reference (``tests/reference_nn.py``).
"""

from __future__ import annotations

import numpy as np

#: The dtype local training computes in: the engine's scratch model and
#: per-group weights, the walk and its workspace views.  Everything from
#: the clip on -- rows, norms, factors, the fold, noise and the global
#: parameters -- is float64 (``repro.core.engine``).
TRAIN_DTYPE = np.dtype(np.float32)


class Layer:
    """Base class; a stateless layer has no parameters."""

    def __init__(self):
        self.params: list[np.ndarray] = []


class Linear(Layer):
    """Fully connected layer: y = x @ W + b, ``W`` of shape (in, out)."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        # He initialisation (fan-in scaled); fine for both ReLU and linear
        # heads at the sizes used here.
        scale = np.sqrt(2.0 / in_features)
        self.weight = rng.standard_normal((in_features, out_features)) * scale
        self.bias = np.zeros(out_features)
        self.params = [self.weight, self.bias]


class ReLU(Layer):
    """y = max(x, 0)."""


class Tanh(Layer):
    """y = tanh(x)."""


class Flatten(Layer):
    """(N, ...) -> (N, features)."""


class Conv2d(Layer):
    """2D convolution; weight shape (out_c, in_c, kh, kw)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
    ):
        super().__init__()
        fan_in = in_channels * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.weight = rng.standard_normal(
            (out_channels, in_channels, kernel_size, kernel_size)
        ) * scale
        self.bias = np.zeros(out_channels)
        self.stride = stride
        self.padding = padding
        self.kernel_size = kernel_size
        self.params = [self.weight, self.bias]


class MaxPool2d(Layer):
    """Non-overlapping max pooling with kernel = stride = ``size``.

    Inputs whose spatial dims are not divisible by ``size`` are cropped at
    the bottom/right edge (floor semantics, like PyTorch's default); tied
    maxima share a window's gradient equally.
    """

    def __init__(self, size: int):
        super().__init__()
        self.size = size


class AvgPool2d(Layer):
    """Non-overlapping average pooling with kernel = stride = ``size``."""

    def __init__(self, size: int):
        super().__init__()
        self.size = size
