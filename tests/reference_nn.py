"""The plain numpy reference the training walk is checked against.

``repro.nn`` computes one way, the walk, over layers that hold only their
parameters and settings.  This is the obviously-correct second way, for
the tests alone: per-layer forward/backward passes, the plain losses'
gradients, SGD, the mini-batch trainer, the scalar l2 clip and the loop
DP-SGD clipped sum.
:func:`reference` wraps a model, layer or loss: the wrapper keeps its own
caches and gradient buffers and reads every other attribute (parameters,
settings) off the wrapped object.
"""

import numpy as np

from repro.nn import layers, losses
from repro.nn.losses import DegenerateBatchError
from repro.nn.model import Sequential as PlainSequential


def l2_clip(vector: np.ndarray, clip: float) -> np.ndarray:
    """Scale one ``vector`` to l2 norm at most ``clip`` (a copy): the
    scalar form of ``repro.nn.clip.l2_clip_rows``.

    Returns ``vector * min(1, clip / ||vector||_2)``.  The zero vector is
    returned unchanged; a non-finite vector (a diverged local update) is
    clipped to zero.
    """
    if clip <= 0:
        raise ValueError("clip bound must be positive")
    norm = float(np.linalg.norm(vector))
    if not np.isfinite(norm):
        return np.zeros(np.asarray(vector).shape, dtype=np.float64)
    if norm <= clip or norm == 0.0:
        return np.array(vector, dtype=np.float64, copy=True)
    return np.asarray(vector, dtype=np.float64) * (clip / norm)


class _Wrapper:
    """Reads every attribute it does not set off the wrapped object; a
    pass's cache (``self._name``) read before the pass wrote it raises."""

    def __init__(self, wrapped):
        self.wrapped = wrapped

    def __getattr__(self, name):
        if name == "wrapped":  # not set yet: no recursion
            raise AttributeError(name)
        if name.startswith("_") and not name.startswith("__"):
            raise RuntimeError("backward called before forward")
        return getattr(self.wrapped, name)


class Layer(_Wrapper):
    """``forward(x)`` caches what ``backward(grad_out)`` needs; backward
    returns the input gradient and adds the parameter gradients into
    ``self.grads`` (aligned with the wrapped layer's ``params``)."""

    def __init__(self, layer):
        super().__init__(layer)
        self.grads = [np.zeros_like(p) for p in layer.params]

    def zero_grad(self) -> None:
        for g in self.grads:
            g[...] = 0.0


class Linear(Layer):
    """y = x @ W + b."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.grads[0] += self._x.T @ grad_out
        self.grads[1] += grad_out.sum(axis=0)
        return grad_out @ self.weight.T


class ReLU(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._mask


class Tanh(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * (1.0 - self._out**2)


class Flatten(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
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


def _col2im(cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        cols, out_h, out_w = _im2col(x, k, k, self.stride, self.padding)
        w_row = self.weight.reshape(self.weight.shape[0], -1)  # (out_c, C*k*k)
        out = np.einsum("of,nfp->nop", w_row, cols) + self.bias[None, :, None]
        self._cache = (x.shape, cols)
        return out.reshape(x.shape[0], self.weight.shape[0], out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
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
    """Non-overlapping max pooling with kernel = stride = ``size``; inputs
    not divisible by ``size`` are cropped at the bottom/right edge."""

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

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        oh, ow = h // s, w // s
        self._x_shape = x.shape
        return x[:, :, : oh * s, : ow * s].reshape(n, c, oh, s, ow, s).mean(axis=(3, 5))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        s = self.size
        oh, ow = h // s, w // s
        dx = np.zeros(self._x_shape, grad_out.dtype)
        expanded = np.repeat(np.repeat(grad_out, s, axis=2), s, axis=3) / (s * s)
        dx[:, :, : oh * s, : ow * s] = expanded
        return dx


class Sequential(_Wrapper):
    """A model's reference passes, layer by layer."""

    def __init__(self, model: PlainSequential):
        super().__init__(model)
        self.layers = [reference(layer) for layer in model.layers]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    @property
    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    def get_flat_grads(self) -> np.ndarray:
        return np.concatenate([g.ravel() for g in self.grads] or [np.zeros(0)])


class Loss(_Wrapper):
    """``forward(pred, target)`` is the wrapped loss's value (raising what
    it raises); ``backward()`` the gradient of that *mean* loss w.r.t.
    ``pred``, same shape."""

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        value = self.wrapped.forward(pred, target)
        self._inputs = (pred, target)
        return value

    def backward(self) -> np.ndarray:
        pred, target = self._inputs
        return self.gradient(pred, target).reshape(pred.shape)


class SoftmaxCrossEntropyLoss(Loss):
    def gradient(self, pred, target):
        target = np.asarray(target, dtype=np.int64).ravel()
        exp = np.exp(pred - pred.max(axis=1, keepdims=True))
        grad = exp / exp.sum(axis=1, keepdims=True)
        n = pred.shape[0]
        grad[np.arange(n), target] -= 1.0
        return grad / n


class BCEWithLogitsLoss(Loss):
    def gradient(self, pred, target):
        z = pred.ravel().astype(np.float64)
        y = np.asarray(target, dtype=np.float64).ravel()
        sigmoid = 1.0 / (1.0 + np.exp(-z))
        return (sigmoid - y) / len(z)


class CoxPHLoss(Loss):
    def gradient(self, pred, target):
        eta = pred.ravel().astype(np.float64)
        target = np.asarray(target, dtype=np.float64)
        times, events = target[:, 0], target[:, 1]
        n_events = int(events.sum())
        # Risk-set membership matrix: R[i, j] = 1 iff t_j >= t_i.
        risk = (times[None, :] >= times[:, None]).astype(np.float64)
        exp_eta = np.exp(eta - eta.max())
        risk_sums = risk @ exp_eta  # sum_{j in R_i} exp(eta_j - max)
        event_idx = events > 0
        grad = np.zeros(len(eta))
        grad[event_idx] -= 1.0
        # d/d eta_j of sum_i log(sum_{k in R_i} exp(eta_k))
        #   = sum_{i: event, j in R_i} exp(eta_j) / risk_sums_i
        weights = np.where(event_idx, 1.0 / risk_sums, 0.0)
        grad += exp_eta * (risk.T @ weights)
        return grad / n_events


#: ``repro.nn`` type -> its reference wrapper, of the same name.
_REFERENCES = {PlainSequential: Sequential} | {
    getattr(layers if issubclass(w, Layer) else losses, w.__name__): w
    for w in (Linear, ReLU, Tanh, Flatten, Conv2d, MaxPool2d, AvgPool2d,
              SoftmaxCrossEntropyLoss, BCEWithLogitsLoss, CoxPHLoss)}


def reference(obj):
    """``obj``'s reference wrapper; anything else -- a wrapper already, or
    a test's own layer or loss with passes of its own -- as it is."""
    wrapper = _REFERENCES.get(type(obj))
    return obj if wrapper is None else wrapper(obj)


class SGD:
    def __init__(self, model, lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.model = reference(model)
        self.lr = lr

    def step(self) -> None:
        for p, g in zip(self.model.params, self.model.grads):
            p -= self.lr * g

    def zero_grad(self) -> None:
        self.model.zero_grad()


def iterate_minibatches(n: int, batch_size: int, rng: np.random.Generator, shuffle: bool = True):
    """Yield index arrays covering ``range(n)`` in batches; full-batch
    iteration (batch_size >= n) draws nothing from ``rng``."""
    if batch_size >= n:
        yield np.arange(n)
        return
    order = rng.permutation(n) if shuffle else np.arange(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train_epochs(model, loss, x, y, lr, epochs, rng, batch_size=None) -> float:
    """Train ``model`` in place for ``epochs`` passes of plain SGD; returns
    the final batch loss.  ``batch_size=None`` is full-batch descent, the
    per-user inner loop of ULDP-AVG.  The engine pre-draws the same
    minibatch partition (``repro.core.engine.draw_minibatch_schedule``)."""
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    model, loss = reference(model), reference(loss)
    batch = n if batch_size is None else max(1, min(batch_size, n))
    optimiser = SGD(model, lr)
    last = 0.0
    for _ in range(max(0, epochs)):
        for idx in iterate_minibatches(n, batch, rng):
            optimiser.zero_grad()
            pred = model.forward(x[idx])
            try:
                last = loss.forward(pred, y[idx])
            except DegenerateBatchError:  # e.g. Cox with no events: skip it
                continue
            model.backward(loss.backward())
            optimiser.step()
    return last


def per_sample_clipped_gradient_sum(model, loss, x, y, clip, microbatch_size=1) -> np.ndarray:
    """``repro.nn.dpsgd.per_sample_clipped_gradient_sum`` one
    microbatch's forward/backward at a time; degenerate ones are skipped."""
    if microbatch_size < 1:
        raise ValueError("microbatch size must be at least 1")
    model, loss = reference(model), reference(loss)
    total = np.zeros(model.num_params)
    n = x.shape[0]
    for start in range(0, n, microbatch_size):
        idx = slice(start, min(start + microbatch_size, n))
        model.zero_grad()
        pred = model.forward(x[idx])
        try:
            loss.forward(pred, y[idx])
        except DegenerateBatchError:
            continue
        model.backward(loss.backward())
        total += l2_clip(model.get_flat_grads(), clip)
    return total
