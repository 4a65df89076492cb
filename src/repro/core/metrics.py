"""Task-dependent losses and evaluation metrics.

The paper reports test accuracy (Creditcard, MNIST, HeartDisease), test loss
(MNIST, Fig. 8), and C-index (TcgaBrca).  ``make_loss`` picks the training
loss from the task and the model's output width; ``evaluate_model`` returns
the utility metric plus test loss for the round history.
"""

from __future__ import annotations

import numpy as np

from repro.data.federated import FederatedDataset
from repro.nn.losses import (
    BatchedLoss,
    BCEWithLogitsLoss,
    CoxPHLoss,
    Loss,
    SoftmaxCrossEntropyLoss,
    batched_counterpart,
    concordance_index,
)
from repro.nn.model import Sequential
from repro.nn.train import accuracy_of, predict


def output_width(model: Sequential) -> int:
    """Width of the model's final Linear layer output."""
    for layer in reversed(model.layers):
        if hasattr(layer, "weight") and getattr(layer, "weight").ndim == 2:
            return layer.weight.shape[1]
    raise ValueError("model has no Linear output layer")


def make_loss(task: str, model: Sequential) -> Loss:
    """Fresh loss instance matching the task and model head."""
    if task == "survival":
        return CoxPHLoss()
    if task in ("binary", "multiclass"):
        if output_width(model) == 1:
            return BCEWithLogitsLoss()
        return SoftmaxCrossEntropyLoss()
    raise ValueError(f"unknown task: {task!r}")


def make_batched_loss(task: str, model: Sequential) -> BatchedLoss:
    """Group-batched loss matching :func:`make_loss` for the same task/model.

    Used by the vectorized engine, which trains many (silo, user) models in
    one pass and needs per-group losses with padding masks.
    """
    return batched_counterpart(make_loss(task, model))


def metric_name(task: str) -> str:
    return "c_index" if task == "survival" else "accuracy"


def evaluate_model(fed: FederatedDataset, model: Sequential) -> dict[str, float]:
    """Evaluate on the held-out test split.

    Returns:
        dict with ``"loss"`` and either ``"accuracy"`` or ``"c_index"``.
    """
    loss = make_loss(fed.task, model)
    out: dict[str, float] = {}
    pred = predict(model, fed.test_x)
    if not np.all(np.isfinite(pred)):
        # A diverged model (noise-dominated round): report infinite loss
        # and chance-level utility instead of warning-spewing NaN math.
        out["loss"] = float("inf")
        out["c_index" if fed.task == "survival" else "accuracy"] = (
            0.5 if fed.task == "survival" else 0.0
        )
        return out
    out["loss"] = float(loss.forward(pred, fed.test_y))
    if fed.task == "survival":
        times = fed.test_y[:, 0]
        events = fed.test_y[:, 1]
        out["c_index"] = concordance_index(pred.ravel(), times, events)
    else:
        out["accuracy"] = accuracy_of(pred, fed.test_y)
    return out
