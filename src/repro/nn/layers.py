"""Neural-network layers with explicit forward/backward passes.

Every layer exposes:

- ``forward(x)``: computes the output and caches whatever backward needs;
- ``backward(grad_out)``: returns the gradient w.r.t. the input and stores
  parameter gradients in ``self.grads`` (aligned with ``self.params``);
- ``params`` / ``grads``: lists of numpy arrays (empty for stateless
  layers).

Shapes follow the PyTorch convention: dense inputs are ``(N, features)``,
images are ``(N, C, H, W)``.

Batched leading axis (the vectorized multi-user engine): several layers
additionally accept a *group* axis in front, so ``G`` independent models --
one per (silo, user) pair in ULDP-AVG -- train in a single pass:

- :class:`BatchedLinear` / :class:`BatchedConv2d` hold per-group parameters
  of shape ``(G, ...)`` and map ``(G, N, ...)`` inputs to ``(G, N, ...)``
  outputs;
- :class:`ReLU` and :class:`Tanh` are elementwise and handle any rank
  unchanged;
- :class:`MaxPool2d` / :class:`AvgPool2d` transparently fold a 5-D
  ``(G, N, C, H, W)`` input into the sample axis;
- :class:`BatchedFlatten` flattens everything behind the two leading axes.

See :mod:`repro.core.engine` for the training loop built on top of these.
The ``Batched*`` layers hold :data:`TRAIN_DTYPE` parameters; the standard
layers compute in the dtype of their parameters and inputs.
"""

from __future__ import annotations

import numpy as np

#: The dtype local training computes in: the engine's replicas and scratch
#: model, the shared-weight walk and its workspace views.  Everything from
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


class BatchedLinear(Layer):
    """``G`` independent fully connected layers: y[g] = x[g] @ W[g] + b[g].

    Parameters carry a leading group axis (``weight`` is
    ``(G, in_features, out_features)``); inputs are ``(G, N, in_features)``.
    Group ``g``'s forward/backward is bit-for-bit the same linear algebra as
    a standalone :class:`Linear`, which is what makes the vectorized engine
    a drop-in replacement for the per-user training loop.

    Parameters are allocated as zeros -- the engine always loads them from a
    flat global parameter vector before use.  ``skip_input_grad`` (set by
    :func:`repro.nn.model.batch_model` on a network's first layer) elides
    the unused input-gradient computation in ``backward``.

    Unlike the standard layers, ``backward`` *writes* the parameter
    gradients (the engine takes one step per backward, so accumulating
    would only buy a fill of the whole replica per step) and lets go of
    what ``forward`` cached.
    """

    def __init__(self, in_features: int, out_features: int, groups: int):
        super().__init__()
        if groups < 1:
            raise ValueError("need at least one group")
        self.weight = np.zeros((groups, in_features, out_features), TRAIN_DTYPE)
        self.bias = np.zeros((groups, out_features), TRAIN_DTYPE)
        self.skip_input_grad = False
        self.params = [self.weight, self.bias]
        self.grads = [np.zeros_like(self.weight), np.zeros_like(self.bias)]
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[0] != self.weight.shape[0]:
            raise ValueError("expected (groups, batch, in_features) input")
        self._x = x
        return x @ self.weight + self.bias[:, None, :]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        np.matmul(np.swapaxes(self._x, 1, 2), grad_out, out=self.grads[0])
        np.sum(grad_out, axis=1, out=self.grads[1])
        self._x = None
        if self.skip_input_grad:
            return np.zeros(0)
        return grad_out @ np.swapaxes(self.weight, 1, 2)


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


class BatchedFlatten(Layer):
    """Flatten everything behind the (group, sample) axes: (G, N, ...) -> (G, N, F)."""

    def __init__(self):
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim < 3:
            raise ValueError("expected at least (groups, batch, features) input")
        self._shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

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


def _im2col_grouped(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, int, int]:
    """Unfold (G, N, C, H, W) into (G, C*kh*kw, N*out_h*out_w) patches.

    The per-group patch matrix puts the contraction axis second, so the
    per-group convolution is a single GEMM ``W_row[g] @ cols[g]`` -- one
    large BLAS call per group instead of one small one per sample.
    """
    g, n, c, h, w = x.shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (0, 0), (pad, pad), (pad, pad)))
    s = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(g, n, c, kh, kw, out_h, out_w),
        strides=(s[0], s[1], s[2], s[3], s[4], s[3] * stride, s[4] * stride),
        writeable=False,
    )
    cols = np.ascontiguousarray(view.transpose(0, 2, 3, 4, 1, 5, 6))
    return cols.reshape(g, c * kh * kw, n * out_h * out_w), out_h, out_w


class BatchedConv2d(Layer):
    """``G`` independent 2D convolutions over ``(G, N, C, H, W)`` inputs.

    The weight carries a leading group axis ``(G, out_c, in_c, kh, kw)``.
    Patches are gathered with :func:`_im2col_grouped` so the whole layer is
    one batched GEMM over groups -- the same patches and the same
    contraction as ``G`` separate :class:`Conv2d` layers.

    ``skip_input_grad`` (set by :func:`repro.nn.model.batch_model` on a
    network's first layer) elides the input-gradient computation in
    ``backward``, which nothing consumes for the input layer.  Like
    :class:`BatchedLinear`, ``backward`` writes the parameter gradients and
    drops the forward cache.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        groups: int,
        stride: int = 1,
        padding: int = 0,
    ):
        super().__init__()
        if groups < 1:
            raise ValueError("need at least one group")
        self.weight = np.zeros(
            (groups, out_channels, in_channels, kernel_size, kernel_size), TRAIN_DTYPE
        )
        self.bias = np.zeros((groups, out_channels), TRAIN_DTYPE)
        self.stride = stride
        self.padding = padding
        self.kernel_size = kernel_size
        self.skip_input_grad = False
        self.params = [self.weight, self.bias]
        self.grads = [np.zeros_like(self.weight), np.zeros_like(self.bias)]
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5 or x.shape[0] != self.weight.shape[0]:
            raise ValueError("expected (groups, batch, C, H, W) input")
        g, n = x.shape[:2]
        k = self.kernel_size
        out_c = self.weight.shape[1]
        cols, out_h, out_w = _im2col_grouped(x, k, k, self.stride, self.padding)
        w_row = self.weight.reshape(g, out_c, -1)  # (G, out_c, C*k*k)
        out = w_row @ cols + self.bias[:, :, None]  # (G, out_c, N*P)
        self._cache = (x.shape, cols)
        out = out.reshape(g, out_c, n, out_h * out_w)
        return np.ascontiguousarray(out.transpose(0, 2, 1, 3)).reshape(
            g, n, out_c, out_h, out_w
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, cols = self._cache
        self._cache = None
        g, n, out_c, out_h, out_w = grad_out.shape
        go = grad_out.reshape(g, n, out_c, out_h * out_w)
        go = np.ascontiguousarray(go.transpose(0, 2, 1, 3)).reshape(g, out_c, -1)
        w_row = self.weight.reshape(g, out_c, -1)
        # dW[g] = go[g] @ cols[g].T -- one GEMM per group.
        np.matmul(go, cols.transpose(0, 2, 1), out=self.grads[0].reshape(g, out_c, -1))
        np.sum(go, axis=2, out=self.grads[1])
        if self.skip_input_grad:
            return np.zeros(0)
        # dcols[g] = W_row[g].T @ go[g], then fold back per sample.
        dcols = np.swapaxes(w_row, 1, 2) @ go  # (G, C*k*k, N*P)
        k = self.kernel_size
        p = out_h * out_w
        f = dcols.shape[1]
        dcols = np.ascontiguousarray(
            dcols.reshape(g, f, n, p).transpose(0, 2, 1, 3)
        ).reshape(g * n, f, p)
        dx = _col2im(
            dcols, (g * n, *x_shape[2:]), k, k, self.stride, self.padding
        )
        return dx.reshape(x_shape)


class MaxPool2d(Layer):
    """Non-overlapping max pooling with kernel = stride = ``size``.

    Inputs whose spatial dims are not divisible by ``size`` are cropped at
    the bottom/right edge (floor semantics, like PyTorch's default).

    A 5-D ``(G, N, C, H, W)`` input (batched leading axis) is pooled by
    folding the group axis into the sample axis -- pooling is per-sample, so
    the result is identical to pooling each group separately.
    """

    def __init__(self, size: int):
        super().__init__()
        self.size = size
        self._cache: tuple | None = None
        self._lead: tuple[int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._lead = x.shape[:2] if x.ndim == 5 else None
        if self._lead is not None:
            x = x.reshape(-1, *x.shape[2:])
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
        if self._lead is not None:
            return out.reshape(*self._lead, *out.shape[1:])
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        if self._lead is not None:
            grad_out = grad_out.reshape(-1, *grad_out.shape[2:])
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
        if self._lead is not None:
            return dx.reshape(*self._lead, *x_shape[1:])
        return dx


class AvgPool2d(Layer):
    """Non-overlapping average pooling with kernel = stride = ``size``.

    Like :class:`MaxPool2d`, a 5-D ``(G, N, C, H, W)`` input is handled by
    folding the group axis into the sample axis.
    """

    def __init__(self, size: int):
        super().__init__()
        self.size = size
        self._x_shape: tuple[int, ...] | None = None
        self._lead: tuple[int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._lead = x.shape[:2] if x.ndim == 5 else None
        if self._lead is not None:
            x = x.reshape(-1, *x.shape[2:])
        n, c, h, w = x.shape
        s = self.size
        oh, ow = h // s, w // s
        self._x_shape = x.shape
        out = x[:, :, : oh * s, : ow * s].reshape(n, c, oh, s, ow, s).mean(axis=(3, 5))
        if self._lead is not None:
            return out.reshape(*self._lead, *out.shape[1:])
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        if self._lead is not None:
            grad_out = grad_out.reshape(-1, *grad_out.shape[2:])
        n, c, h, w = self._x_shape
        s = self.size
        oh, ow = h // s, w // s
        dx = np.zeros(self._x_shape, grad_out.dtype)
        expanded = np.repeat(np.repeat(grad_out, s, axis=2), s, axis=3) / (s * s)
        dx[:, :, : oh * s, : ow * s] = expanded
        if self._lead is not None:
            return dx.reshape(*self._lead, *self._x_shape[1:])
        return dx
