"""Loss values, and the batched gradient rules the walk takes.

Each loss exposes ``forward(pred, target) -> float`` (mean loss over the
batch).  The Cox proportional-hazards loss follows the FLamby TcgaBrca
setup the paper reuses: predictions are linear risk scores, and the loss
is the negative partial log-likelihood under the Breslow convention.  It
needs at least one observed event and at least two records to be defined,
which is why the paper requires >= 2 records per user/silo pair for this
dataset.

The walk needs each group's *own* mean-loss gradient for many groups at
once.  Cross-entropy and binary cross-entropy are separable over records,
so :func:`record_gradient` forms it record by record -- on flat grouped
records or on padded stacks alike -- with no loss value and no padding.
The Cox loss couples a group's records through its risk sets:
:class:`BatchedCoxPHLoss` takes predictions with a leading group axis and
a boolean validity mask marking the padding introduced when groups with
different record counts are stacked into one tensor; a group on which the
loss is undefined contributes a zero gradient.  :func:`grouped_gradient`
(flat grouped records) and :func:`padded_gradient` (padded stacks) pick
the rule.
"""

from __future__ import annotations

import numpy as np


class Loss:
    """Base class for losses."""

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError


class DegenerateBatchError(ValueError):
    """A batch on which the loss is mathematically undefined.

    Raised by :class:`CoxPHLoss` for batches with fewer than two records or
    no observed events.  Such a batch takes no step (the standard practice
    for partial-likelihood losses under mini-batching): the batched rule
    gives it a zero gradient.
    """


class SoftmaxCrossEntropyLoss(Loss):
    """Multi-class cross-entropy over logits of shape (N, n_classes).

    Targets are integer class labels of shape (N,).
    """

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        target = np.asarray(target, dtype=np.int64).ravel()
        if pred.ndim != 2 or len(target) != pred.shape[0]:
            raise ValueError("pred must be (N, classes) with N targets")
        shifted = pred - pred.max(axis=1, keepdims=True)
        total = np.exp(shifted).sum(axis=1)
        # log-softmax, finite even where the class probability underflows.
        log_likelihood = shifted[np.arange(len(target)), target] - np.log(total)
        return float(-log_likelihood.mean())


class BCEWithLogitsLoss(Loss):
    """Binary cross-entropy over logits of shape (N,) or (N, 1).

    Targets are 0/1 labels.  Numerically stable formulation:
    loss = max(z, 0) - z*y + log(1 + exp(-|z|)).
    """

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        z = pred.ravel().astype(np.float64)
        y = np.asarray(target, dtype=np.float64).ravel()
        if z.shape != y.shape:
            raise ValueError("pred and target sizes differ")
        loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
        return float(loss.mean())


class CoxPHLoss(Loss):
    """Negative Cox partial log-likelihood (Breslow ties convention).

    Predictions are risk scores eta of shape (N,) or (N, 1).  Targets are
    shape (N, 2): column 0 is the observed time, column 1 the event
    indicator (1 = event, 0 = censored).

    loss = -(1/N_events) sum_{i: event} [ eta_i - log sum_{j: t_j >= t_i} exp(eta_j) ]
    """

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        eta = pred.ravel().astype(np.float64)
        target = np.asarray(target, dtype=np.float64)
        if target.ndim != 2 or target.shape[1] != 2 or target.shape[0] != len(eta):
            raise ValueError("target must be (N, 2): time, event")
        times = target[:, 0]
        events = target[:, 1]
        n_events = int(events.sum())
        if n_events == 0:
            raise DegenerateBatchError("Cox loss undefined without observed events")
        if len(eta) < 2:
            raise DegenerateBatchError("Cox loss needs at least two records")

        # Risk-set membership matrix: R[i, j] = 1 iff t_j >= t_i.
        risk = (times[None, :] >= times[:, None]).astype(np.float64)
        # Stable log-sum-exp over each risk set.
        eta_max = eta.max()
        exp_eta = np.exp(eta - eta_max)
        risk_sums = risk @ exp_eta  # sum_{j in R_i} exp(eta_j - max)
        log_risk = np.log(risk_sums) + eta_max

        event_idx = events > 0
        loss = -(eta[event_idx] - log_risk[event_idx]).sum() / n_events
        return float(loss)


class BatchedCoxPHLoss:
    """Group-batched negative Cox partial log-likelihood (Breslow ties).

    Predictions are risk scores ``(G, B)`` or ``(G, B, 1)``; targets are
    ``(G, B, 2)`` (time, event).  Risk sets only range over each group's
    valid records.  Degenerate groups -- no observed events or fewer than
    two valid records, the cases where :class:`CoxPHLoss` raises
    :class:`DegenerateBatchError` -- report zero loss and zero gradient.
    """

    def __init__(self):
        self._cache: tuple | None = None

    def forward(self, pred: np.ndarray, target: np.ndarray, mask: np.ndarray) -> np.ndarray:
        shape = pred.shape
        mask = np.asarray(mask, dtype=bool)
        eta = pred.reshape(pred.shape[0], -1).astype(np.float64)
        target = np.asarray(target, dtype=np.float64)
        if target.ndim != 3 or target.shape[2] != 2 or target.shape[:2] != eta.shape:
            raise ValueError("target must be (G, B, 2): time, event")
        if mask.shape != eta.shape:
            raise ValueError("mask must be (G, B)")
        times = target[:, :, 0]
        events = (target[:, :, 1] > 0) & mask
        n_events = events.sum(axis=1)
        defined = (n_events > 0) & (mask.sum(axis=1) >= 2)

        # Risk-set membership within each group's valid records:
        # R[g, i, j] = 1 iff both valid and t_j >= t_i.
        risk = (
            (times[:, None, :] >= times[:, :, None])
            & mask[:, None, :]
            & mask[:, :, None]
        ).astype(np.float64)
        # Stable log-sum-exp, shifted by each group's max valid score (the
        # loop path shifts by the batch max -- same quantity per group).
        eta_max = np.where(mask, eta, -np.inf).max(axis=1, initial=-np.inf)
        eta_max = np.where(np.isfinite(eta_max), eta_max, 0.0)
        exp_eta = np.where(mask, np.exp(eta - eta_max[:, None]), 0.0)
        risk_sums = np.einsum("gij,gj->gi", risk, exp_eta)
        with np.errstate(divide="ignore"):
            log_risk = np.where(risk_sums > 0, np.log(risk_sums), 0.0) + eta_max[:, None]

        denom = np.maximum(n_events, 1)
        loss = -((eta - log_risk) * events).sum(axis=1) / denom
        self._cache = (shape, risk, exp_eta, risk_sums, events, denom, defined)
        return np.where(defined, loss, 0.0)

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        shape, risk, exp_eta, risk_sums, events, denom, defined = self._cache
        grad = -events.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            weights = np.where(events & (risk_sums > 0), 1.0 / risk_sums, 0.0)
        grad += exp_eta * np.einsum("gij,gi->gj", risk, weights)
        grad = grad * defined[:, None] / denom[:, None]
        return grad.reshape(shape)


def record_gradient(loss: Loss, pred: np.ndarray, target, count, valid=True) -> np.ndarray:
    """Each record's gradient of its own group's mean loss, for the
    record-separable losses (cross-entropy, binary cross-entropy).

    ``pred`` is ``(R, K)`` logits, one row per record; ``target`` holds the
    ``R`` labels; ``count`` is each record's group size ``(R,)`` and
    ``valid`` is ``True`` or an ``(R,)`` mask, ``False`` at padding (an
    exact zero gradient there).  Cross-entropy is ``(softmax - onehot) * (valid / count)``,
    binary cross-entropy ``(sigmoid - y) * valid / count``; the softmax runs
    in ``pred``'s dtype, the sigmoid in float64, and the result is float64.
    No loss value is formed.
    """
    if isinstance(loss, SoftmaxCrossEntropyLoss):
        labels = np.where(valid, np.asarray(target, dtype=np.int64).ravel(), 0)
        shifted = pred - pred.max(axis=1, keepdims=True)
        probs = np.exp(shifted, out=shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(len(probs)), labels] -= 1.0
        return probs * (valid / count)[:, None]
    if isinstance(loss, BCEWithLogitsLoss):
        z = pred.ravel().astype(np.float64)
        sigmoid = 1.0 / (1.0 + np.exp(-z))
        grad = (sigmoid - np.asarray(target, dtype=np.float64).ravel()) * valid / count
        return grad.reshape(pred.shape)
    raise TypeError(f"{type(loss).__name__} is not record-separable")


def grouped_gradient(loss: Loss, pred: np.ndarray, target, sizes: np.ndarray) -> np.ndarray:
    """Each record's gradient of its own group's mean loss, for flat
    ``(N, ...)`` predictions of groups concatenated in order (``sizes`` >=
    1 records each).  Cross-entropy and binary cross-entropy run
    :func:`record_gradient` on the flat rows; Cox scatters into a padded
    ``(G, n_max)`` stack for :class:`BatchedCoxPHLoss` and gathers back."""
    if not isinstance(loss, CoxPHLoss):
        return record_gradient(loss, pred, target, np.repeat(sizes, sizes))
    mask = np.arange(int(sizes.max())) < sizes[:, None]  # row-major = flat order

    def padded(values: np.ndarray) -> np.ndarray:
        out = np.zeros((*mask.shape, *values.shape[1:]), values.dtype)
        out[mask] = values
        return out

    target = padded(np.asarray(target, dtype=np.float64))
    return padded_gradient(loss, padded(pred), target, mask)[mask]


def padded_gradient(
    loss: Loss, pred: np.ndarray, target: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Gradient of each group's own mean loss w.r.t. padded ``(G, B, ...)``
    predictions, zero at padding (``mask`` is ``(G, B)``, ``True`` on real
    records).  Cox runs :class:`BatchedCoxPHLoss`; the record-separable
    losses run :func:`record_gradient` with each record's weight
    ``mask / count``."""
    if isinstance(loss, CoxPHLoss):
        cox = BatchedCoxPHLoss()
        cox.forward(pred, target, mask)
        return cox.backward()
    count = np.repeat(np.maximum(mask.sum(axis=1), 1), mask.shape[1])
    rows = pred.reshape(mask.size, -1)
    return record_gradient(loss, rows, target, count, mask.ravel()).reshape(pred.shape)


#: (event row, record) pairs :func:`concordance_index` compares per block.
_PAIR_BLOCK = 1 << 16


def concordance_index(risk: np.ndarray, times: np.ndarray, events: np.ndarray) -> float:
    """Harrell's C-index: fraction of comparable pairs ranked correctly.

    A pair (i, j) is comparable when the record with the smaller time had an
    event (its true risk is known to be higher).  Ties in predicted risk
    count one half.  Pairs are counted as integers -- the comparable ones
    and twice the concordant ones -- a block of event rows at a time, so
    the result is exact up to the final division.
    """
    risk = np.asarray(risk, dtype=np.float64).ravel()
    times = np.asarray(times, dtype=np.float64).ravel()
    events = np.asarray(events, dtype=np.float64).ravel()
    rows = np.flatnonzero(events == 1)
    block = max(1, _PAIR_BLOCK // max(len(risk), 1))
    comparable = twice = 0
    for start in range(0, len(rows), block):
        i = rows[start : start + block, None]
        later = times > times[i]  # (rows, n): j comparable with event row i
        comparable += int(np.count_nonzero(later))
        twice += 2 * int(np.count_nonzero(later & (risk[i] > risk)))
        twice += int(np.count_nonzero(later & (risk[i] == risk)))
    if comparable == 0:
        return 0.5
    return (twice / 2) / comparable
