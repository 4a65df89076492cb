"""Participation dynamics: silo dropout, straggler latency, user churn.

Everything here is a small deterministic-given-rng model the scheduler
queries once per round:

- dropout models answer "which silos are up this round?"
- latency models answer "how long does each silo's local work take?"
  (abstract time units; the semi-synchronous policy compares them to its
  deadline, the async policy uses them to order completion events);
- :class:`BandwidthModel` answers "how long does shipping the round's
  uplink payload take, and does it fit the silo's byte budget at all?" --
  the piece that makes update compression interact with stragglers and
  dropout (compressed payloads transmit faster and fit tighter caps);
- :class:`ChurnProcess` drives arrivals/departures on the simulator's
  per-user activity mask.

All models draw exclusively from the rng handed in, so a checkpoint that
restores the scheduler's rng state resumes the exact same dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# -- silo dropout --------------------------------------------------------------


@dataclass(frozen=True)
class NoDropout:
    """Every silo is up every round (the idealised paper setting)."""

    def draw(self, t: int, n_silos: int, rng: np.random.Generator) -> np.ndarray:
        """Boolean up-mask for round ``t``."""
        return np.ones(n_silos, dtype=bool)


@dataclass(frozen=True)
class IidSiloDropout:
    """Each silo independently crashes this round with probability p."""

    prob: float

    def __post_init__(self):
        if not 0 <= self.prob < 1:
            raise ValueError("dropout probability must lie in [0, 1)")

    def draw(self, t: int, n_silos: int, rng: np.random.Generator) -> np.ndarray:
        """Boolean up-mask for round ``t`` (True = silo participates)."""
        return rng.random(n_silos) >= self.prob


@dataclass(frozen=True)
class SiloOutageWindows:
    """Scheduled outages: silo s is down for rounds ``windows[s] = (a, b)``.

    Rounds are half-open: the silo misses rounds a, a+1, ..., b-1.  Models
    maintenance windows / regional incidents rather than random churn.
    """

    windows: dict[int, tuple[int, int]]

    def draw(self, t: int, n_silos: int, rng: np.random.Generator) -> np.ndarray:
        """Boolean up-mask for round ``t``."""
        mask = np.ones(n_silos, dtype=bool)
        for silo, (start, stop) in self.windows.items():
            if 0 <= silo < n_silos and start <= t < stop:
                mask[silo] = False
        return mask


# -- straggler latency ---------------------------------------------------------


@dataclass(frozen=True)
class NoLatency:
    """All silos finish instantly (latency 0 -- never misses a deadline)."""

    def draw(self, t: int, n_silos: int, rng: np.random.Generator) -> np.ndarray:
        """Per-silo completion latencies for round ``t``."""
        return np.zeros(n_silos)


@dataclass(frozen=True)
class LogNormalLatency:
    """Heavy-tailed straggler latencies, optionally skewed per silo.

    ``exp(N(mu, sigma^2))`` scaled by the silo's speed factor: the classic
    straggler model -- most silos cluster near ``exp(mu)``, a few take
    multiples of it.  ``silo_speed[s]`` (default all ones) multiplies silo
    s's latency, modelling persistently slow sites.
    """

    median: float = 1.0
    sigma: float = 0.5
    silo_speed: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.median <= 0:
            raise ValueError("median latency must be positive")
        if self.sigma < 0:
            raise ValueError("latency sigma must be non-negative")

    def draw(self, t: int, n_silos: int, rng: np.random.Generator) -> np.ndarray:
        """Per-silo completion latencies for round ``t``."""
        lat = self.median * np.exp(rng.normal(0.0, self.sigma, size=n_silos))
        if self.silo_speed is not None:
            speed = np.asarray(self.silo_speed, dtype=np.float64)
            if len(speed) != n_silos:
                raise ValueError("need one speed factor per silo")
            lat = lat * speed
        return lat


# -- uplink bandwidth ----------------------------------------------------------


@dataclass(frozen=True)
class BandwidthModel:
    """Per-silo uplink links: transmission time plus optional byte caps.

    The scheduler asks the method for its per-silo uplink payload size
    (compressed when a :class:`repro.compress.CompressionSpec` is active,
    the method's dense ``payload_bytes(d)`` otherwise -- float32 for the
    ULDP-AVG family) and this model turns bytes into round
    dynamics:

    - **transmission time** ``bytes / (rate * silo_rate[s])`` is added to
      the silo's compute latency, so heavy payloads straggle (and miss
      semi-synchronous deadlines) even on fast compute;
    - **byte caps** exclude a silo outright when its payload exceeds the
      per-round uplink budget -- the regime where dense rounds
      simply cannot participate and compression is what admits them.

    Attributes:
        rate: baseline uplink bytes per abstract clock unit.
        silo_rate: optional per-silo rate multipliers (heterogeneous
            links; < 1 = slower silo).
        byte_cap: per-round uplink budget in bytes -- one scalar for a
            federation-wide cap or one value per silo; None disables caps.
    """

    rate: float
    silo_rate: tuple[float, ...] | None = None
    byte_cap: float | tuple[float, ...] | None = None

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("uplink rate must be positive")
        if self.silo_rate is not None and any(r <= 0 for r in self.silo_rate):
            raise ValueError("silo rate multipliers must be positive")
        caps = (
            self.byte_cap
            if isinstance(self.byte_cap, tuple)
            else (self.byte_cap,)
        )
        if self.byte_cap is not None and any(c <= 0 for c in caps):
            raise ValueError("byte caps must be positive")

    def _rates(self, n_silos: int) -> np.ndarray:
        rates = np.full(n_silos, float(self.rate))
        if self.silo_rate is not None:
            multipliers = np.asarray(self.silo_rate, dtype=np.float64)
            if len(multipliers) != n_silos:
                raise ValueError("need one rate multiplier per silo")
            rates = rates * multipliers
        return rates

    def transmission_times(self, payload_bytes: float, n_silos: int) -> np.ndarray:
        """Per-silo clock units spent shipping one uplink payload."""
        if payload_bytes < 0:
            raise ValueError("payload bytes must be non-negative")
        return payload_bytes / self._rates(n_silos)

    def admitted(self, payload_bytes: float, n_silos: int) -> np.ndarray:
        """Boolean mask of silos whose payload fits their byte cap."""
        if self.byte_cap is None:
            return np.ones(n_silos, dtype=bool)
        caps = np.asarray(
            self.byte_cap
            if isinstance(self.byte_cap, tuple)
            else [self.byte_cap] * n_silos,
            dtype=np.float64,
        )
        if len(caps) != n_silos:
            raise ValueError("need one byte cap per silo")
        return payload_bytes <= caps


# -- user churn ----------------------------------------------------------------


@dataclass(frozen=True)
class ChurnProcess:
    """Per-round user arrival/departure rates applied to a user mask.

    Departures remove active users (their weights are zeroed through the
    round's ``user_mask``); arrivals re-activate departed users.  The rates
    are per-user per-round probabilities.
    """

    departure_rate: float = 0.0
    arrival_rate: float = 0.0

    def __post_init__(self):
        if not 0 <= self.departure_rate <= 1 or not 0 <= self.arrival_rate <= 1:
            raise ValueError("churn rates must lie in [0, 1]")

    def step(self, active: np.ndarray, rng: np.random.Generator) -> tuple[int, int]:
        """Flip ``active`` (one bool per user) in place for one round;
        returns the realised (arrivals, departures).

        ``Binomial(n_active, departure_rate)`` uniformly chosen active users
        depart, then ``Binomial(n_inactive, arrival_rate)`` users arrive,
        where ``n_inactive`` is counted before the departures but the
        arrivals are chosen among everyone inactive after them -- so a user
        can depart and re-arrive in one step.
        """
        n_active = int(active.sum())
        n_inactive = active.size - n_active
        departures = _flip(active, True, n_active, self.departure_rate, rng)
        arrivals = _flip(active, False, n_inactive, self.arrival_rate, rng)
        return arrivals, departures


def _flip(active: np.ndarray, state: bool, n: int, rate: float, rng) -> int:
    """Flip ``Binomial(n, rate)`` users chosen uniformly among those whose
    flag is ``state`` now; returns how many flipped."""
    k = int(rng.binomial(n, rate)) if rate > 0 and n > 0 else 0
    if k:
        idx = np.flatnonzero(active == state)
        active[idx[rng.choice(len(idx), size=k, replace=False)]] = not state
    return k
