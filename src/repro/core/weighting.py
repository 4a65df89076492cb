"""Per-user per-silo clipping weights W (Algorithm 3 and Eq. 3).

The weight matrix W has shape (|S|, |U|); ULDP-AVG multiplies user u's
clipped model delta in silo s by ``W[s, u]``.  User-level sensitivity of the
cross-silo aggregate equals ``C * max_u sum_s W[s, u]``, so any W with
column sums at most one yields ULDP with sensitivity C (Theorem 3).

Two strategies from the paper:

- :func:`uniform_weights` -- ``w = 1/|S|`` everywhere; requires no knowledge
  of the data distribution (privacy-free).
- :func:`proportional_weights` -- Eq. (3): ``w[s, u] = n[s, u] / N_u``,
  favouring the silos where the user has more records (smaller clipping
  bias, see Remark 4).  Computing it privately is the job of Protocol 1.

Partial participation (the :mod:`repro.sim` runtime) perturbs W per round:
dropped silos and departed users contribute nothing, and the surviving
weights may be renormalised.  :class:`RoundParticipation` carries one
round's roster and :func:`participation_weights` produces the *realised*
weight matrix, whose maximum column sum is the round's true sensitivity
multiplier (``realised_sensitivity``) -- the quantity the accountant must
see for epsilon under dropout to be honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Weight renormalisation strategies under partial participation.
RENORMS = ("none", "survivors", "carryover")


class QuorumError(RuntimeError):
    """A round has fewer live or surviving silos than the configured quorum.

    Raised instead of aggregating: releasing an aggregate built from too
    few silos both wastes privacy budget on a noise-dominated update and
    -- for the masked secure backend -- concentrates the revealed
    mask-recovery keys on a small survivor set.  Shared by the networked
    runtime's ``net.min_quorum`` (live-silo quorum, checked before a round
    starts) and :class:`repro.protocol.SecureUldpAvg`'s ``min_survivors``
    (surviving-silo quorum, checked at aggregation time so simulated
    dropout counts too).
    """


def uniform_weights(n_silos: int, n_users: int) -> np.ndarray:
    """W[s, u] = 1/|S| for all s, u (the default ULDP-AVG weighting)."""
    if n_silos < 1 or n_users < 1:
        raise ValueError("need at least one silo and one user")
    return np.full((n_silos, n_users), 1.0 / n_silos)


def proportional_weights(histogram: np.ndarray) -> np.ndarray:
    """Eq. (3): W[s, u] = n[s, u] / N_u (0 where the user has no records).

    Args:
        histogram: integer matrix n[s, u] of per-silo per-user record counts.
    """
    hist = np.asarray(histogram, dtype=np.float64)
    if hist.ndim != 2:
        raise ValueError("histogram must be a (|S|, |U|) matrix")
    if np.any(hist < 0):
        raise ValueError("record counts must be non-negative")
    totals = hist.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = np.where(totals > 0, hist / np.where(totals > 0, totals, 1.0), 0.0)
    return weights


def validate_weights(weights: np.ndarray, atol: float = 1e-9) -> None:
    """Check the Theorem 3 constraints: W >= 0 and column sums <= 1.

    Column sums strictly below one are allowed (users absent from all silos,
    or sub-sampled users with zeroed weights) -- they only lower sensitivity.

    Raises:
        ValueError: when a constraint is violated.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("weights must be a (|S|, |U|) matrix")
    # NaN compares False against every bound, so the sign and column-sum
    # checks below would silently wave a NaN matrix through -- reject
    # non-finite entries explicitly first.
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < -atol):
        raise ValueError("weights must be non-negative")
    col_sums = w.sum(axis=0)
    if np.any(col_sums > 1.0 + atol):
        raise ValueError("per-user weight sums must not exceed 1")


def subsample_weights(
    weights: np.ndarray, sampled_users: np.ndarray
) -> np.ndarray:
    """Zero the columns of non-sampled users (Algorithm 4, lines 4-7)."""
    w = np.array(weights, dtype=np.float64, copy=True)
    sampled = np.asarray(sampled_users, dtype=np.int64)
    # Fancy indexing would silently wrap negative ids to the *end* of the
    # user axis (sampling the wrong user); ids past the end would raise a
    # cryptic IndexError.  Validate the range explicitly.
    if sampled.size and (sampled.min() < 0 or sampled.max() >= w.shape[1]):
        raise ValueError(
            f"sampled user ids must lie in [0, {w.shape[1]}) "
        )
    mask = np.zeros(w.shape[1], dtype=bool)
    mask[sampled] = True
    w[:, ~mask] = 0.0
    return w


# -- partial participation ----------------------------------------------------


@dataclass(frozen=True)
class RoundParticipation:
    """One round's federation roster under partial participation.

    Attributes:
        silo_mask: boolean (|S|,) -- True for silos contributing this round
            (survivors of dropout, silos that met the deadline, ...).
        user_mask: boolean (|U|,) of currently-active users, or None for
            all users (no churn).
        silo_gain: optional (|S|,) carryover multipliers applied to the
            surviving silos' weights (``renorm="carryover"``: a silo that
            missed g-1 rounds re-enters with gain g so its users' missed
            weight is made up).  Gains above one raise the round's
            sensitivity; :func:`realised_sensitivity` reports that.
        renorm: one of :data:`RENORMS`.  ``"none"`` keeps the surviving
            weights as-is (column sums shrink under dropout -- unbiased
            noise accounting, biased aggregate); ``"survivors"`` rescales
            each user's surviving weights so the column sum is restored to
            its full-participation value (unbiased aggregate, sensitivity
            still <= C); ``"carryover"`` applies ``silo_gain`` (which is
            required in that mode -- construction fails without it).
        noise_rescale: when True (default) the surviving silos inflate
            their per-silo noise to ``sigma * C / sqrt(A)`` (A = number of
            noise-contributing silos) so the summed noise keeps std
            ``sigma * C``; when False silos keep the nominal
            ``sigma * C / sqrt(|S|)`` share and the accountant is charged
            the reduced ``sqrt(A / |S|)`` noise scale instead.
        broadcast_mask: boolean (|S|,) -- True for silos that received the
            server's model broadcast this round (silos alive at round
            start, *before* deadline or bandwidth-admission filtering), or
            None when the recipients are exactly ``silo_mask``.  The byte
            ledger charges downlink to these recipients: a silo that got
            the model but then missed the deadline still consumed
            broadcast bytes.
    """

    silo_mask: np.ndarray
    user_mask: np.ndarray | None = None
    silo_gain: np.ndarray | None = None
    renorm: str = "none"
    noise_rescale: bool = True
    broadcast_mask: np.ndarray | None = None

    def __post_init__(self):
        if self.renorm not in RENORMS:
            raise ValueError(f"renorm must be one of {RENORMS}")
        if self.renorm == "carryover" and self.silo_gain is None:
            # Without gains, carryover would silently degrade to
            # renorm="none" (the weight application skips the gain step),
            # so a caller asking for make-up semantics would get neither
            # the make-up nor an error.  Fail at construction instead.
            raise ValueError(
                "renorm='carryover' requires silo_gain (per-silo make-up "
                "multipliers); use renorm='none' to keep surviving weights"
            )
        object.__setattr__(
            self, "silo_mask", np.asarray(self.silo_mask, dtype=bool)
        )
        if self.user_mask is not None:
            object.__setattr__(
                self, "user_mask", np.asarray(self.user_mask, dtype=bool)
            )
        if self.silo_gain is not None:
            gain = np.asarray(self.silo_gain, dtype=np.float64)
            if np.any(gain < 0):
                raise ValueError("silo gains must be non-negative")
            object.__setattr__(self, "silo_gain", gain)
        if self.broadcast_mask is not None:
            object.__setattr__(
                self, "broadcast_mask", np.asarray(self.broadcast_mask, dtype=bool)
            )

    @property
    def n_active_silos(self) -> int:
        """Number of silos contributing to this round's aggregate."""
        return int(self.silo_mask.sum())

    @property
    def n_broadcast_silos(self) -> int:
        """Number of silos the server's broadcast reached this round."""
        mask = (
            self.broadcast_mask if self.broadcast_mask is not None else self.silo_mask
        )
        return int(mask.sum())

    @classmethod
    def full(cls, n_silos: int) -> "RoundParticipation":
        """Everyone participates (the idealised setting of the paper):
        what ``participation=None`` means to ULDP-AVG/SGD's round."""
        return cls(silo_mask=np.ones(n_silos, dtype=bool))


def participation_weights(
    weights: np.ndarray, participation: RoundParticipation
) -> np.ndarray:
    """The realised weight matrix of one partial-participation round.

    Masks dropped silos' rows and departed users' columns, then applies the
    participation's renormalisation strategy.  Under full participation
    every strategy returns the input weights bit-exactly (the survivor
    rescaling factor is exactly 1.0), which is what makes the synchronous
    zero-dropout policy an oracle for the plain trainer.
    """
    w = np.array(weights, dtype=np.float64, copy=True)
    if participation.user_mask is not None:
        w[:, ~participation.user_mask] = 0.0
    masked_users = w  # silo rows still intact: the renorm baseline
    w = w.copy()
    w[~participation.silo_mask, :] = 0.0
    if participation.renorm == "survivors":
        surviving = w.sum(axis=0)
        target = masked_users.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            factor = np.where(surviving > 0, target / np.where(surviving > 0, surviving, 1.0), 0.0)
        w = w * factor
    elif participation.renorm == "carryover":
        # Construction guarantees silo_gain is present for carryover.
        w = w * participation.silo_gain[:, None]
    return w


def realised_sensitivity(realised_weights: np.ndarray) -> float:
    """Max per-user weight sum -- the round's sensitivity in units of C.

    Under the Theorem 3 constraint this is at most 1; carryover gains can
    push it above 1, and the accountant must then divide the round's
    effective noise multiplier by this factor for epsilon to stay honest.
    """
    w = np.asarray(realised_weights, dtype=np.float64)
    if w.size == 0:
        return 0.0
    return float(w.sum(axis=0).max(initial=0.0))
