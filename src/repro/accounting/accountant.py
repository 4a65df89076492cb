"""High-level RDP accountant used by the federated trainer.

The accountant accumulates *events* -- (sampling rate, noise multiplier,
step count) triples -- maintains the composed RDP curve on a shared order
grid, and converts to (eps, delta)-DP (optionally through a group-privacy
conversion) on demand.  It mirrors the role Opacus's ``RDPAccountant``
plays in the paper's reference implementation.

Per-method usage (see :mod:`repro.core.privacy` for the wiring):

- ULDP-NAIVE / ULDP-AVG (Theorems 1 and 3): one Gaussian event with q = 1
  per round; the user-level noise multiplier is sigma by construction.
- ULDP-AVG with user-level sub-sampling (Remark 1): one sub-sampled
  Gaussian event with q = sampling rate per round.
- ULDP-GROUP-k (Theorem 2): per-silo DP-SGD events with q = record-level
  sampling rate; ``group_epsilon`` applies Lemma 6 + Lemma 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accounting.conversion import rdp_curve_to_dp
from repro.accounting.group import group_epsilon_via_normal_dp, group_epsilon_via_rdp
from repro.accounting.rdp import DEFAULT_ALPHAS, gaussian_rdp_curve
from repro.accounting.subsampled import subsampled_gaussian_rdp_curve


def _check_sample_rate(sample_rate: float) -> None:
    # RdpEvent.curve routes every q >= 1 to the unsampled Gaussian, so a
    # q > 1 would otherwise be priced (and labelled) as if it were valid.
    if not 0.0 <= sample_rate <= 1.0:
        raise ValueError("sampling rate must lie in [0, 1]")


@dataclass(frozen=True)
class RdpEvent:
    """One accounted mechanism invocation (possibly repeated ``steps`` times)."""

    noise_multiplier: float
    sample_rate: float = 1.0
    steps: int = 1

    def curve(self, alphas: np.ndarray) -> np.ndarray:
        if self.sample_rate >= 1.0:
            return gaussian_rdp_curve(self.noise_multiplier, self.steps, alphas=alphas)
        return subsampled_gaussian_rdp_curve(
            self.sample_rate, self.noise_multiplier, self.steps, alphas=alphas
        )


@dataclass(frozen=True)
class ReleaseEvent:
    """Sensitivity bookkeeping for one partial-participation release.

    Under the simulation runtime each aggregate release may realise a
    sensitivity other than C (carryover gains, per-release weight sums) and
    a noise scale other than sigma * C (dropped silos without noise
    rescaling, staleness-discounted async noise).  The honest per-release
    noise multiplier is ``sigma * noise_scale / sensitivity``.
    """

    noise_multiplier: float
    sample_rate: float = 1.0
    #: Realised sensitivity in units of C (max per-user weight sum applied
    #: in this release); 0 means the release carried no user signal.
    sensitivity: float = 1.0
    #: Realised aggregate noise std in units of sigma * C.
    noise_scale: float = 1.0

    @property
    def effective_noise_multiplier(self) -> float:
        """The sigma actually protecting this release's worst-case user."""
        if self.sensitivity <= 0:
            return float("inf")
        return self.noise_multiplier * self.noise_scale / self.sensitivity


@dataclass
class PrivacyAccountant:
    """Composable RDP accountant over a fixed order grid."""

    alphas: np.ndarray = field(default_factory=lambda: DEFAULT_ALPHAS.copy())
    _rhos: np.ndarray = field(init=False)
    history: list[RdpEvent] = field(init=False, default_factory=list)
    #: Per-release sensitivity bookkeeping appended by :meth:`step_release`
    #: (empty for trainers that only ever call :meth:`step`).
    releases: list[ReleaseEvent] = field(init=False, default_factory=list)
    # Cache of per-(q, sigma) single-step curves: computing the sub-sampled
    # curve is the expensive part and trainers call step() every round with
    # identical parameters.
    _curve_cache: dict[tuple[float, float], np.ndarray] = field(
        init=False, default_factory=dict
    )

    def __post_init__(self):
        self._rhos = np.zeros_like(self.alphas)

    def step(
        self, noise_multiplier: float, sample_rate: float = 1.0, steps: int = 1
    ) -> None:
        """Account ``steps`` compositions of a (sub-sampled) Gaussian."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        _check_sample_rate(sample_rate)
        if steps == 0:
            return
        event = RdpEvent(noise_multiplier, sample_rate, steps)
        if noise_multiplier <= 0:
            # A noiseless release has unbounded privacy loss; record an
            # infinite curve so epsilon queries report +inf rather than a
            # spurious finite value (used by tests that disable noise).
            self._rhos = np.full_like(self._rhos, np.inf)
            self.history.append(event)
            return
        key = (float(sample_rate), float(noise_multiplier))
        if key not in self._curve_cache:
            self._curve_cache[key] = RdpEvent(noise_multiplier, sample_rate, 1).curve(
                self.alphas
            )
        self._rhos = self._rhos + steps * self._curve_cache[key]
        self.history.append(event)

    def step_release(
        self,
        noise_multiplier: float,
        sample_rate: float = 1.0,
        sensitivity: float = 1.0,
        noise_scale: float = 1.0,
    ) -> None:
        """Account one partial-participation release honestly.

        The release's effective noise multiplier is
        ``sigma * noise_scale / sensitivity`` (see :class:`ReleaseEvent`):
        carryover gains (sensitivity > 1) *increase* the privacy cost,
        silos dropping without noise rescaling (noise_scale < 1) do too.
        A release with zero sensitivity carries no user signal and consumes
        no budget (it is still logged for the honesty report).

        Under full participation (sensitivity = noise_scale = 1) this is
        exactly :meth:`step` -- the oracle-equivalence invariant.
        """
        if sensitivity < 0:
            raise ValueError("sensitivity must be non-negative")
        if noise_scale < 0:
            raise ValueError("noise scale must be non-negative")
        _check_sample_rate(sample_rate)
        event = ReleaseEvent(noise_multiplier, sample_rate, sensitivity, noise_scale)
        self.releases.append(event)
        if sensitivity == 0:
            return
        self.step(event.effective_noise_multiplier, sample_rate=sample_rate)

    def get_epsilon(self, delta: float) -> float:
        """Best (eps, delta)-DP guarantee for the composed mechanism.

        Returns +inf when a noiseless event was recorded.
        """
        return self.get_epsilon_and_alpha(delta)[0]

    def get_epsilon_and_alpha(self, delta: float) -> tuple[float, float]:
        if not np.any(np.isfinite(self._rhos)):
            return float("inf"), float("nan")
        return rdp_curve_to_dp(self._rhos, delta, alphas=self.alphas)

    def get_group_epsilon(
        self, delta: float, group_size: int, route: str = "rdp"
    ) -> float:
        """GDP epsilon after a group-privacy conversion.

        Args:
            delta: target delta.
            group_size: k (rounded down to a power of two on the RDP route).
            route: ``"rdp"`` (Lemma 6, default -- what the paper's
                experiments report) or ``"dp"`` (Lemma 5 + footnote-1
                search).
        """
        if route == "rdp":
            return group_epsilon_via_rdp(self._rhos, group_size, delta, alphas=self.alphas)
        if route == "dp":
            return group_epsilon_via_normal_dp(
                self._rhos, group_size, delta, alphas=self.alphas
            )
        raise ValueError(f"unknown group conversion route: {route!r}")

    def merge_max(self, other: "PrivacyAccountant") -> "PrivacyAccountant":
        """Parallel composition (order-wise max) with another accountant.

        Used for ULDP-GROUP: silos hold disjoint databases, so the joint
        guarantee is the worst per-silo curve (Theorem 2).
        """
        if self.alphas.shape != other.alphas.shape or np.any(self.alphas != other.alphas):
            raise ValueError("accountants must share the order grid")
        merged = PrivacyAccountant(alphas=self.alphas.copy())
        merged._rhos = np.maximum(self._rhos, other._rhos)
        merged.history = [*self.history, *other.history]
        merged.releases = [*self.releases, *other.releases]
        return merged

    def reset(self) -> None:
        self._rhos = np.zeros_like(self.alphas)
        self.history.clear()
        self.releases.clear()

    # -- checkpoint serialisation --------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot restoring the accountant bit-exactly.

        Floats survive the JSON round-trip exactly (shortest-repr floats
        parse back to the identical IEEE-754 value), so a resumed
        accountant reports the same epsilon to the last bit.  The curve
        cache is not saved; it is a pure performance memo.
        """
        return {
            "schema": "uldp-fl-accountant/v1",
            "alphas": [float(a) for a in self.alphas],
            "rhos": [float(r) for r in self._rhos],
            "history": [
                [e.noise_multiplier, e.sample_rate, e.steps] for e in self.history
            ],
            "releases": [
                [e.noise_multiplier, e.sample_rate, e.sensitivity, e.noise_scale]
                for e in self.releases
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this accountant.

        The per-(q, sigma) curve memo survives the restore -- a resumed
        run keeps paying nothing for curves it has already drawn -- unless
        the snapshot is on another order grid, where it would be wrong.
        """
        if state.get("schema") != "uldp-fl-accountant/v1":
            raise ValueError(f"unknown accountant schema: {state.get('schema')!r}")
        alphas = np.asarray(state["alphas"], dtype=np.float64)
        if not np.array_equal(alphas, self.alphas):
            self._curve_cache.clear()
        self.alphas = alphas
        self._rhos = np.asarray(state["rhos"], dtype=np.float64)
        self.history = [
            RdpEvent(sigma, q, int(steps)) for sigma, q, steps in state["history"]
        ]
        self.releases = [
            ReleaseEvent(sigma, q, sens, scale)
            for sigma, q, sens, scale in state["releases"]
        ]

    @classmethod
    def from_state(cls, state: dict) -> "PrivacyAccountant":
        """Inverse of :meth:`state_dict`."""
        acct = cls()
        acct.load_state(state)
        return acct
