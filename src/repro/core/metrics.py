"""Task-dependent losses and evaluation metrics.

The paper reports test accuracy (Creditcard, MNIST, HeartDisease), test loss
(MNIST, Fig. 8), and C-index (TcgaBrca).  ``make_loss`` picks the training
loss from the task and the model's output width; ``evaluate_model`` returns
the utility metric plus test loss for the round history.

Dtype boundary: evaluation's logits are float32 -- the test records run
through the training walk's forward (:func:`repro.nn.batched.forward_logits`)
on the process's float32 copy of the model, in workspace-sized chunks --
while the loss and the metric are computed in float64 on those logits.
"""

from __future__ import annotations

import numpy as np

from repro.data.federated import FederatedDataset
from repro.nn.losses import (
    BCEWithLogitsLoss,
    CoxPHLoss,
    Loss,
    SoftmaxCrossEntropyLoss,
    concordance_index,
)
from repro.nn.batched import forward_logits, scratch_model
from repro.nn.model import Sequential


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


def accuracy_of(pred: np.ndarray, y: np.ndarray) -> float:
    """Classification accuracy of model outputs ``pred`` against ``y``.

    Multi-logit outputs use argmax; single-logit outputs threshold at 0.
    """
    if pred.ndim == 2 and pred.shape[1] > 1:
        labels = pred.argmax(axis=1)
    else:
        labels = (pred.ravel() > 0).astype(np.int64)
    return float((labels == np.asarray(y).ravel()).mean())


def metric_name(task: str) -> str:
    return "c_index" if task == "survival" else "accuracy"


def evaluate_model(fed: FederatedDataset, model: Sequential) -> dict[str, float]:
    """Evaluate on the held-out test split.

    One float32 forward of the test records yields the logits both scores
    are computed from, in float64.

    Returns:
        dict with ``"loss"`` and either ``"accuracy"`` or ``"c_index"``.
    """
    loss = make_loss(fed.task, model)
    out: dict[str, float] = {}
    pred = forward_logits(scratch_model(model, model.get_flat_params()), fed.test_x)
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
