"""ULDP-GROUP-k (Algorithm 2): per-silo DP-SGD + group-privacy conversion.

Each silo runs record-level DP-SGD on a contribution-bounded dataset: the
flags B keep at most k records per user *across all silos*.  Record-level
RDP composes in parallel across the disjoint silos (order-wise max), is
lifted to k-record group RDP by Lemma 6, and converted to (eps, delta)-ULDP
by Proposition 1 -- the epsilon that explodes with k in the paper's figures.

The paper generates B "for existing records to minimize waste, despite the
potential privacy concerns" (flags depend on the cross-silo histogram);
:func:`build_group_flags` does the same, spreading each user's kept records
across their silos round-robin.

Accounting matches Theorem 2: the client performs Q noisy DP-SGD steps per
round (each a Poisson-sub-sampled Gaussian at the silo's sampling rate), so
after T rounds each silo has composed Q*T sub-sampled Gaussian events.
"""

from __future__ import annotations

import numpy as np

from repro.accounting import PrivacyAccountant
from repro.core.methods.base import FLMethod, ParticipationSummary
from repro.core.metrics import make_loss
from repro.core.weighting import RoundParticipation
from repro.data.federated import FederatedDataset
from repro.nn.dpsgd import dpsgd_train


def resolve_group_size(fed: FederatedDataset, group_size: int | str) -> int:
    """Resolve "max" / "median" group-size policies from the histogram.

    ULDP-GROUP-max uses the maximum user record count (no records removed);
    ULDP-GROUP-median the median count over users with at least one record.
    """
    if isinstance(group_size, int):
        if group_size < 1:
            raise ValueError("group size must be at least 1")
        return group_size
    totals = fed.user_totals()
    present = totals[totals > 0]
    if len(present) == 0:
        raise ValueError("dataset has no records")
    if group_size == "max":
        return int(present.max())
    if group_size == "median":
        return max(1, int(np.median(present)))
    raise ValueError(f"unknown group size policy: {group_size!r}")


def build_group_flags(fed: FederatedDataset, k: int) -> list[np.ndarray]:
    """Contribution-bounding flags B: keep <= k records per user overall.

    For each user the kept records are chosen round-robin over the user's
    silos so that no silo is starved (minimising removed records, as in the
    paper's experiments).  Returns one boolean array per silo.
    """
    if k < 1:
        raise ValueError("group size must be at least 1")
    flags = [np.zeros(s.n_records, dtype=bool) for s in fed.silos]
    # Record positions per (user, silo).
    positions: dict[int, list[list[int]]] = {}
    for s, silo in enumerate(fed.silos):
        for idx, user in enumerate(silo.user_ids):
            positions.setdefault(int(user), [[] for _ in range(fed.n_silos)])[s].append(idx)
    for user, per_silo in positions.items():
        budget = k
        cursor = [0] * fed.n_silos
        while budget > 0:
            progressed = False
            for s in range(fed.n_silos):
                if budget == 0:
                    break
                if cursor[s] < len(per_silo[s]):
                    flags[s][per_silo[s][cursor[s]]] = True
                    cursor[s] += 1
                    budget -= 1
                    progressed = True
            if not progressed:
                break
    return flags


class UldpGroup(FLMethod):
    """Group-privacy baseline (Algorithm 2)."""

    name = "ULDP-GROUP"

    def __init__(
        self,
        group_size: int | str = 8,
        clip: float = 1.0,
        noise_multiplier: float = 5.0,
        global_lr: float = 1.0,
        local_lr: float = 0.05,
        local_steps: int = 2,
        expected_batch_size: int = 64,
        group_route: str = "rdp",
    ):
        super().__init__()
        if clip <= 0:
            raise ValueError("clip bound must be positive")
        if local_steps < 1:
            raise ValueError("need at least one DP-SGD step per round")
        if expected_batch_size < 1:
            raise ValueError("expected batch size must be positive")
        self.group_size_policy = group_size
        self.clip = clip
        self.noise_multiplier = noise_multiplier
        self.global_lr = global_lr
        self.local_lr = local_lr
        self.local_steps = local_steps
        self.expected_batch_size = expected_batch_size
        self.group_route = group_route
        self.group_size: int | None = None
        self.flags: list[np.ndarray] | None = None
        self.filtered: FederatedDataset | None = None
        self.sample_rates: list[float] = []
        self.silo_accountants: list[PrivacyAccountant] = []

    @property
    def display_name(self) -> str:
        suffix = self.group_size if self.group_size is not None else self.group_size_policy
        return f"ULDP-GROUP-{suffix}"

    def prepare(self, fed, model, rng, compression=None, engine=None) -> None:
        super().prepare(fed, model, rng, compression=compression, engine=engine)
        self.group_size = resolve_group_size(fed, self.group_size_policy)
        self.flags = build_group_flags(fed, self.group_size)
        self.filtered = fed.apply_flags(self.flags)
        self.sample_rates = [
            min(1.0, self.expected_batch_size / max(1, silo.n_records))
            for silo in self.filtered.silos
        ]
        self.silo_accountants = [PrivacyAccountant() for _ in fed.silos]

    def round(
        self,
        t: int,
        params: np.ndarray,
        participation: RoundParticipation | None = None,
    ) -> np.ndarray:
        """One round of per-silo DP-SGD.

        Partial participation skips the dropped silos entirely -- their
        per-silo accountants do not advance, so the parallel-composition
        maximum of Theorem 2 stays honest.  User churn (``user_mask``) is
        not modelled here: the contribution-bounding flags B are fixed at
        prepare time, so departed users' records remain in the silo
        datasets (documented limitation of the group baseline).
        """
        fed, model, rng = self._require_prepared()
        assert self.filtered is not None
        if participation is None:
            participation = RoundParticipation.full(fed.n_silos)
        if participation.n_active_silos == 0:
            self.last_participation = ParticipationSummary(0, 0)
            return params.copy()
        active = participation.silo_mask
        users_seen: set[int] = set()
        deltas = []
        for s, silo in enumerate(self.filtered.silos):
            if not active[s] or silo.n_records == 0:
                deltas.append(np.zeros_like(params))
                continue
            local = model.clone()
            local.set_flat_params(params)
            loss = make_loss(fed.task, local)
            # The Cox partial likelihood is undefined on single records, so
            # survival tasks use microbatches of two (standard relaxation;
            # see repro.nn.dpsgd for the sensitivity caveat).
            microbatch = 2 if fed.task == "survival" else 1
            dpsgd_train(
                local, loss, silo.x, silo.y,
                lr=self.local_lr,
                steps=self.local_steps,
                clip=self.clip,
                noise_multiplier=self.noise_multiplier,
                sample_rate=self.sample_rates[s],
                rng=rng,
                microbatch_size=microbatch,
            )
            deltas.append(local.get_flat_params() - params)
            users_seen.update(int(u) for u in silo.users_present())
            self.silo_accountants[s].step(
                self.noise_multiplier, self.sample_rates[s], self.local_steps
            )
        self.last_participation = ParticipationSummary(
            silos_seen=participation.n_active_silos, users_seen=len(users_seen)
        )
        return params + self.global_lr * np.mean(deltas, axis=0)

    def state_dict(self) -> dict:
        """The base state plus the per-silo accountants Theorem 2 composes
        in parallel (the method has no single :attr:`accountant`)."""
        return {
            **super().state_dict(),
            "silo_accountants": [a.state_dict() for a in self.silo_accountants],
        }

    def load_state(self, state: dict) -> None:
        state = dict(state)
        saved = state.pop("silo_accountants", None)
        if saved is None:
            raise self._unplaced("silo_accountants", False)
        super().load_state(state)
        # strict: a snapshot of another silo count is a ValueError too.
        for accountant, silo_state in zip(self.silo_accountants, saved, strict=True):
            accountant.load_state(silo_state)

    def epsilon(self, delta: float) -> float:
        """ULDP epsilon via Theorem 2: parallel-max RDP + group conversion."""
        assert self.group_size is not None
        merged = self.silo_accountants[0]
        for acct in self.silo_accountants[1:]:
            merged = merged.merge_max(acct)
        return merged.get_group_epsilon(delta, self.group_size, route=self.group_route)

    def record_level_epsilon(self, delta: float) -> float:
        """The (much smaller) record-level epsilon, before group conversion."""
        merged = self.silo_accountants[0]
        for acct in self.silo_accountants[1:]:
            merged = merged.merge_max(acct)
        return merged.get_epsilon(delta)
