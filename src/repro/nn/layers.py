"""Neural-network layers with explicit forward/backward passes.

Every layer exposes:

- ``forward(x)``: computes the output and caches whatever backward needs;
- ``backward(grad_out)``: returns the gradient w.r.t. the input and stores
  parameter gradients in ``self.grads`` (aligned with ``self.params``);
- ``params`` / ``grads``: lists of numpy arrays (empty for stateless
  layers).

Shapes follow the PyTorch convention: dense inputs are ``(N, features)``,
images are ``(N, C, H, W)``.  The layers compute in the dtype of their
parameters and inputs.

These passes are the reference the training engine is checked against
(``repro.nn.train``, the loop DP-SGD and the tests' loop oracle): the
engine itself trains through one walk over a model's layers
(:mod:`repro.nn.batched`), which reads each layer's structure -- and its
parameters, or per-group ones passed beside it -- and never calls these
methods.
"""

from __future__ import annotations

import numpy as np

#: The dtype local training computes in: the engine's scratch model and
#: per-group weights, the walk and its workspace views.  Everything from
#: the clip on -- rows, norms, factors, the fold, noise and the global
#: parameters -- is float64 (``repro.core.engine``).
TRAIN_DTYPE = np.dtype(np.float32)


class Layer:
    """Base class; stateless layers only override forward/backward."""

    def __init__(self):
        self.params: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for g in self.grads:
            g[...] = 0.0

    def __getstate__(self) -> dict:
        """Copies and pickles carry configuration, parameters and gradients
        -- not what ``forward`` left behind for ``backward`` (the
        underscore-prefixed attributes), e.g. a whole test set's activations
        after an evaluation."""
        return {
            name: None if name.startswith("_") else value
            for name, value in self.__dict__.items()
        }


class Linear(Layer):
    """Fully connected layer: y = x @ W + b."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        # He initialisation (fan-in scaled); fine for both ReLU and linear
        # heads at the sizes used here.
        scale = np.sqrt(2.0 / in_features)
        self.weight = rng.standard_normal((in_features, out_features)) * scale
        self.bias = np.zeros(out_features)
        self.params = [self.weight, self.bias]
        self.grads = [np.zeros_like(self.weight), np.zeros_like(self.bias)]
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.grads[0] += self._x.T @ grad_out
        self.grads[1] += grad_out.sum(axis=0)
        return grad_out @ self.weight.T


class ReLU(Layer):
    def __init__(self):
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class Tanh(Layer):
    def __init__(self):
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._out**2)


class Flatten(Layer):
    def __init__(self):
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> tuple[np.ndarray, int, int]:
    """Unfold (N, C, H, W) into (N, C*kh*kw, out_h*out_w) patches."""
    n, c, h, w = x.shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    # Strided view: (N, C, kh, kw, out_h, out_w)
    s = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(s[0], s[1], s[2], s[3], s[2] * stride, s[3] * stride),
        writeable=False,
    )
    cols = view.reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), out_h, out_w


def _col2im(
    cols: np.ndarray,
    x_shape: tuple[int, ...],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold (N, C*kh*kw, P) patch gradients back to the input shape (adjoint of im2col)."""
    n, c, h, w = x_shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), cols.dtype)
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += cols[
                :, :, i, j, :, :
            ]
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


class Conv2d(Layer):
    """2D convolution via im2col; weight shape (out_c, in_c, kh, kw)."""

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
        self.grads = [np.zeros_like(self.weight), np.zeros_like(self.bias)]
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        cols, out_h, out_w = _im2col(x, k, k, self.stride, self.padding)
        w_row = self.weight.reshape(self.weight.shape[0], -1)  # (out_c, C*k*k)
        out = np.einsum("of,nfp->nop", w_row, cols) + self.bias[None, :, None]
        self._cache = (x.shape, cols)
        return out.reshape(x.shape[0], self.weight.shape[0], out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, cols = self._cache
        n, out_c, out_h, out_w = grad_out.shape
        g = grad_out.reshape(n, out_c, out_h * out_w)
        w_row = self.weight.reshape(out_c, -1)
        self.grads[0] += np.einsum("nop,nfp->of", g, cols).reshape(self.weight.shape)
        self.grads[1] += g.sum(axis=(0, 2))
        dcols = np.einsum("of,nop->nfp", w_row, g)
        k = self.kernel_size
        return _col2im(dcols, x_shape, k, k, self.stride, self.padding)


class MaxPool2d(Layer):
    """Non-overlapping max pooling with kernel = stride = ``size``.

    Inputs whose spatial dims are not divisible by ``size`` are cropped at
    the bottom/right edge (floor semantics, like PyTorch's default).
    """

    def __init__(self, size: int):
        super().__init__()
        self.size = size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        oh, ow = h // s, w // s
        # One strided-slice maximum per window offset: much faster than a
        # multi-axis reduction over a 6-D window view, same result.
        out = x[:, :, 0 : oh * s : s, 0 : ow * s : s].copy()
        for i in range(s):
            for j in range(s):
                if i or j:
                    np.maximum(out, x[:, :, i : oh * s : s, j : ow * s : s], out=out)
        self._cache = (x.shape, x, out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, x, out = self._cache
        n, c, h, w = x_shape
        s = self.size
        oh, ow = h // s, w // s
        # Break ties like a single-argmax pool: normalise so gradient mass
        # is preserved even when several entries share the max.
        masks = [
            [x[:, :, i : oh * s : s, j : ow * s : s] == out for j in range(s)]
            for i in range(s)
        ]
        counts = np.zeros_like(out)
        for row in masks:
            for mask in row:
                counts += mask
        scaled = grad_out / counts
        dx = np.zeros(x_shape, scaled.dtype)
        for i in range(s):
            for j in range(s):
                dx[:, :, i : oh * s : s, j : ow * s : s] = masks[i][j] * scaled
        return dx


class AvgPool2d(Layer):
    """Non-overlapping average pooling with kernel = stride = ``size``."""

    def __init__(self, size: int):
        super().__init__()
        self.size = size
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        oh, ow = h // s, w // s
        self._x_shape = x.shape
        return x[:, :, : oh * s, : ow * s].reshape(n, c, oh, s, ow, s).mean(axis=(3, 5))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        s = self.size
        oh, ow = h // s, w // s
        dx = np.zeros(self._x_shape, grad_out.dtype)
        expanded = np.repeat(np.repeat(grad_out, s, axis=2), s, axis=3) / (s * s)
        dx[:, :, : oh * s, : ow * s] = expanded
        return dx
