"""Mini-batch training and evaluation helpers.

These are the local solvers used inside the FL client algorithms:
``train_epochs`` runs plain SGD over a (possibly tiny) dataset -- the
"Compute stochastic gradients / descend" inner loops of Algorithms 1-3.
"""

from __future__ import annotations

import numpy as np

from repro.nn.losses import DegenerateBatchError, Loss
from repro.nn.model import Sequential
from repro.nn.optim import SGD


def iterate_minibatches(
    n: int, batch_size: int, rng: np.random.Generator, shuffle: bool = True
):
    """Yield index arrays covering ``range(n)`` in batches.

    Full-batch iteration (batch_size >= n) skips shuffling entirely -- the
    order is irrelevant for a single batch, and not consuming the RNG keeps
    plaintext and secure-protocol training streams aligned (their per-user
    work differs under sub-sampling, but neither draws randomness here).
    """
    if batch_size >= n:
        yield np.arange(n)
        return
    order = rng.permutation(n) if shuffle else np.arange(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train_epochs(
    model: Sequential,
    loss: Loss,
    x: np.ndarray,
    y: np.ndarray,
    lr: float,
    epochs: int,
    rng: np.random.Generator,
    batch_size: int | None = None,
) -> float:
    """Train in place for ``epochs`` passes; returns the final batch loss.

    ``batch_size=None`` uses full-batch gradient descent, which matches the
    per-user inner loop of ULDP-AVG where user datasets are tiny (the paper
    notes full-batch descent eliminates one of the clipping-bias terms).
    """
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    batch = n if batch_size is None else max(1, min(batch_size, n))
    optimiser = SGD(model, lr)
    last = 0.0
    for _ in range(max(0, epochs)):
        for idx in iterate_minibatches(n, batch, rng):
            optimiser.zero_grad()
            pred = model.forward(x[idx])
            try:
                last = loss.forward(pred, y[idx])
            except DegenerateBatchError:
                # Partial-likelihood losses are undefined on some batches
                # (e.g. Cox with no events); skip them.
                continue
            model.backward(loss.backward())
            optimiser.step()
    return last


def predict(model: Sequential, x: np.ndarray, batch_size: int = 512) -> np.ndarray:
    """Forward pass in batches; returns stacked model outputs."""
    outputs = [model.forward(x[i : i + batch_size]) for i in range(0, x.shape[0], batch_size)]
    return np.concatenate(outputs, axis=0) if outputs else np.zeros((0,))


def evaluate_loss(model: Sequential, loss: Loss, x: np.ndarray, y: np.ndarray) -> float:
    """Mean loss over a dataset (single full-batch forward)."""
    return loss.forward(model.forward(x), y)


def accuracy_of(pred: np.ndarray, y: np.ndarray) -> float:
    """Classification accuracy of model outputs ``pred`` against ``y``.

    Multi-logit outputs use argmax; single-logit outputs threshold at 0.
    """
    if pred.ndim == 2 and pred.shape[1] > 1:
        labels = pred.argmax(axis=1)
    else:
        labels = (pred.ravel() > 0).astype(np.int64)
    return float((labels == np.asarray(y).ravel()).mean())


def evaluate_accuracy(model: Sequential, x: np.ndarray, y: np.ndarray) -> float:
    """:func:`accuracy_of` the model's own forward pass over ``x``."""
    return accuracy_of(predict(model, x), y)
