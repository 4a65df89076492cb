"""Loss-threshold membership inference at record and user level.

The attack model (Yeom et al. 2018; the paper cites the Jayaraman & Evans
2019 evaluation as reference [20]): the adversary holds candidate records
(or users), queries the released model for per-record losses, and predicts
"member" when the loss is low.  Score = negative loss, so higher means
more member-like.

Two granularities, mirroring the record-level vs user-level DP split the
paper is about:

- **record-level**: one score per record; members are training records.
- **user-level**: one score per user -- the mean score over all of the
  user's records *across all silos*.  This is the attack surface that
  record-level DP fails to bound when users hold many records (the
  cumulative-risk argument of the paper's introduction) and the one ULDP
  is designed to protect.

Outputs are threshold-free metrics: ROC AUC and the maximum membership
advantage (max over thresholds of TPR - FPR; 0 = chance, 1 = total leak).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import make_loss
from repro.core.trainer import Trainer
from repro.data.federated import FederatedDataset
from repro.nn.batched import forward_logits, scratch_model
from repro.nn.model import Sequential, default_model_for


def _per_record_losses(
    model: Sequential, task: str, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Per-record losses under the task's loss function, in float64 on
    the logits of one float32 walk over the set (as evaluation runs it).

    The survival partial likelihood is not separable; for the attack we
    approximate a record's loss by its loss within the full candidate set,
    which is what an attacker can compute.
    """
    loss = make_loss(task, model)
    pred = forward_logits(scratch_model(model, model.get_flat_params()), x)
    if task == "survival":
        # Risk-set losses need context; score each record against the full
        # set by leaving the rest in place.
        base = loss.forward(pred, y)
        # Contribution proxy: per-record deviation of predicted risk from
        # the cohort mean, signed by event status (high risk + event =
        # well-fit = member-like).  Falls back to a separable proxy since
        # the Cox loss has no per-record decomposition.
        risk = pred.ravel()
        events = y[:, 1]
        proxy = -np.abs(risk - risk.mean()) * (1 - events) - (-risk) * events
        return base - proxy  # ordering is what matters for AUC
    return np.array([loss.forward(pred[i : i + 1], y[i : i + 1]) for i in range(len(x))])


def record_membership_scores(
    model: Sequential,
    fed: FederatedDataset,
) -> tuple[np.ndarray, np.ndarray]:
    """Record-level attack scores.

    Returns:
        (member_scores, nonmember_scores): negative per-record losses for
        all training records (members) and the held-out test records
        (non-members).
    """
    member_losses = np.concatenate(
        [
            _per_record_losses(model, fed.task, silo.x, silo.y)
            for silo in fed.silos
            if silo.n_records > 0
        ]
    )
    nonmember_losses = _per_record_losses(model, fed.task, fed.test_x, fed.test_y)
    return -member_losses, -nonmember_losses


def user_membership_scores(
    model: Sequential,
    fed: FederatedDataset,
    nonmember_groups: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """User-level attack scores: mean record score per user across silos.

    Non-member "users" are synthesised by grouping held-out test records
    into pseudo-users whose size distribution matches the real users'
    (size matters: averaging over more records sharpens the signal, which
    is exactly the cumulative risk user-level DP addresses).

    Returns:
        (member_scores, nonmember_scores): one score per (pseudo-)user.
    """
    rng = np.random.default_rng(0) if rng is None else rng

    member_scores = []
    per_user_losses: dict[int, list[float]] = {}
    for silo in fed.silos:
        if silo.n_records == 0:
            continue
        losses = _per_record_losses(model, fed.task, silo.x, silo.y)
        for user, loss_value in zip(silo.user_ids, losses):
            per_user_losses.setdefault(int(user), []).append(float(loss_value))
    sizes = []
    for user, losses in sorted(per_user_losses.items()):
        member_scores.append(-float(np.mean(losses)))
        sizes.append(len(losses))

    nonmember_losses = _per_record_losses(model, fed.task, fed.test_x, fed.test_y)
    n_groups = nonmember_groups if nonmember_groups is not None else len(sizes)
    order = rng.permutation(len(nonmember_losses))
    nonmember_scores = []
    pos = 0
    for g in range(n_groups):
        size = sizes[g % len(sizes)]
        take = order[pos : pos + size]
        if len(take) == 0:
            break
        nonmember_scores.append(-float(np.mean(nonmember_losses[take])))
        pos += size
        if pos >= len(nonmember_losses):
            pos = 0
            order = rng.permutation(len(nonmember_losses))
    return np.array(member_scores), np.array(nonmember_scores)


def attack_auc(member_scores: np.ndarray, nonmember_scores: np.ndarray) -> float:
    """ROC AUC of the threshold attack (0.5 = chance, 1.0 = total leak).

    Computed exactly as the Mann-Whitney U statistic.
    """
    members = np.asarray(member_scores, dtype=np.float64)
    others = np.asarray(nonmember_scores, dtype=np.float64)
    if len(members) == 0 or len(others) == 0:
        raise ValueError("need scores on both sides")
    wins = 0.0
    for m in members:
        wins += np.sum(m > others) + 0.5 * np.sum(m == others)
    return float(wins / (len(members) * len(others)))


def membership_advantage(
    member_scores: np.ndarray, nonmember_scores: np.ndarray
) -> float:
    """Max over thresholds of TPR - FPR (Yeom et al.'s advantage metric)."""
    members = np.sort(np.asarray(member_scores, dtype=np.float64))
    others = np.sort(np.asarray(nonmember_scores, dtype=np.float64))
    thresholds = np.unique(np.concatenate([members, others]))
    best = 0.0
    for t in thresholds:
        tpr = np.mean(members >= t)
        fpr = np.mean(others >= t)
        best = max(best, float(tpr - fpr))
    return best


@dataclass(frozen=True)
class MembershipResult:
    """Attack outcome for one trained model."""

    method: str
    record_auc: float
    record_advantage: float
    user_auc: float
    user_advantage: float

    def row(self) -> str:
        return (
            f"{self.method:<22s} record AUC={self.record_auc:.3f} "
            f"adv={self.record_advantage:.3f} | user AUC={self.user_auc:.3f} "
            f"adv={self.user_advantage:.3f}"
        )


def run_membership_experiment(
    fed: FederatedDataset,
    method,
    rounds: int,
    seed: int = 0,
    model: Sequential | None = None,
) -> MembershipResult:
    """Train with ``method`` and attack the final model at both levels."""
    rng = np.random.default_rng(seed)
    model = model if model is not None else default_model_for(fed, rng)
    Trainer(fed, method, rounds=rounds, model=model, seed=seed).run()

    rec_m, rec_n = record_membership_scores(model, fed)
    usr_m, usr_n = user_membership_scores(model, fed, rng=np.random.default_rng(seed))
    return MembershipResult(
        method=method.display_name,
        record_auc=attack_auc(rec_m, rec_n),
        record_advantage=membership_advantage(rec_m, rec_n),
        user_auc=attack_auc(usr_m, usr_n),
        user_advantage=membership_advantage(usr_m, usr_n),
    )
