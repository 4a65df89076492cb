"""Fixed-point encoding between real vectors and the finite field F_n.

Implements Algorithm 5 of the paper.  Real numbers (model deltas, Gaussian
noise) are divided by a precision parameter P (e.g. 1e-10), rounded to
integers, and mapped into F_n; signed values use the upper half of the field
for negatives.  Decoding (Protocol 1's server) undoes the mapping and also
removes the C_LCM factor that Protocol 1 multiplies into every term so that
the per-user division by N_u stays exact on integers.

Correctness requires the accumulated integer magnitudes to stay below n/2
(Theorem 4, condition (2)); :func:`check_magnitude_budget` validates the
bound for given protocol parameters.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: Paper's example precision parameter.
DEFAULT_PRECISION = 1e-10


def quantize_vector(values: Sequence[float] | np.ndarray, precision: float) -> list[int]:
    """Round a real vector to *signed* fixed-point integers (``x / P``).

    The one place a float becomes an integer: the scaling and
    round-half-even happen in a single ``np.rint`` over the whole vector
    (bit-identical to per-element ``round``).  :func:`encode_vector` wraps
    the result into F_n; Protocol 1's weighting kernel exponentiates by
    the signed values directly (they are ~38 bits, not key width).
    """
    if precision <= 0:
        raise ValueError("precision must be positive")
    scaled = np.rint(np.asarray(values, dtype=np.float64).ravel() / precision)
    return [int(v) for v in scaled]


def encode_vector(values: Sequence[float] | np.ndarray, precision: float, modulus: int) -> list[int]:
    """Encode a real vector into F_n: :func:`quantize_vector`, then
    ``% modulus`` (negatives wrap to the upper half of the field).

    Only the modular reduction needs Python integers, since field elements
    routinely exceed 64-bit range.
    """
    return [v % modulus for v in quantize_vector(values, precision)]


def lcm_up_to(n_max: int) -> int:
    """C_LCM: least common multiple of 1..n_max (Protocol 1, setup (a)).

    Grows like e^n_max, so realistic deployments restrict the admissible
    per-user record counts (paper suggests e.g. {10, 100, 1000, 10000}).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return math.lcm(*range(1, n_max + 1))


class MagnitudeBudgetError(ValueError):
    """Theorem 4's overflow condition (2) fails: the accumulated fixed-point
    sum could exceed half the modulus and signed decoding would wrap."""


def check_magnitude_budget(
    modulus: int,
    c_lcm: int,
    precision: float,
    max_abs_value: float,
    num_terms: int,
) -> bool:
    """Check Theorem 4's overflow condition (2).

    The field sum accumulated by the server is bounded by
    ``num_terms * Encode(max_abs_value) * c_lcm``; correctness requires this
    to be below n/2 (signed decoding).  Returns True when the budget holds;
    a NaN or infinite ``max_abs_value`` has no encoding and never fits.
    """
    if not math.isfinite(max_abs_value):
        return False
    max_encoded = int(math.ceil(max_abs_value / precision)) + 1
    return num_terms * max_encoded * c_lcm < modulus // 2


def round_max_abs(
    contributions: Sequence[dict[int, np.ndarray]],
    noises: Sequence[np.ndarray],
    noise_silos: Sequence[int] | None = None,
    label: str = "noise",
) -> float:
    """The ``max_abs_value`` of one round: the largest ``|value|`` over
    every silo's per-user deltas and its one vector: the noise, or what
    ``label`` names (the masked backend's release).

    A NaN or infinity (a diverged model, say) has no fixed-point encoding;
    it is refused here with the silo (and user) that holds it, instead of
    being skipped by Python's ``max`` and surfacing later as a bare
    ``cannot convert float NaN to integer``.  ``noise_silos`` names the
    silo of each noise vector when some silos sent none (default: 0, 1, ...).
    """
    if noise_silos is None:
        noise_silos = range(len(noises))
    held = [(s, None, z) for s, z in zip(noise_silos, noises)]
    held += [
        (s, u, delta)
        for s, per_silo in enumerate(contributions)
        for u, delta in per_silo.items()
    ]
    worst = 0.0
    for s, u, values in held:
        top = float(np.abs(values).max(initial=0.0))
        if not math.isfinite(top):
            what = label if u is None else f"delta of user {u}"
            raise MagnitudeBudgetError(
                f"silo {s}'s {what} holds a non-finite value (NaN or infinity), "
                "which has no fixed-point encoding; the round is refused"
            )
        worst = max(worst, top)
    return worst


def require_magnitude_headroom(
    n_max: int,
    knob: str,
    modulus_bits: int,
    precision: float,
    min_abs_value: float,
    num_terms: int,
) -> None:
    """Refuse an ``n_max`` whose C_LCM no round could fit.

    A necessary condition of every per-round :func:`check_magnitude_budget`
    -- evaluated at the largest modulus ``knob`` (``paillier_bits``)
    allows and the smallest ``max_abs_value`` and ``num_terms`` a round
    check can see -- so it refuses nothing a round would accept, and it is
    decidable before any key is made.
    """
    c_lcm = lcm_up_to(n_max)
    if not check_magnitude_budget(
        1 << modulus_bits, c_lcm, precision, min_abs_value, num_terms
    ):
        raise MagnitudeBudgetError(
            f"n_max={n_max} leaves no fixed-point headroom: C_LCM = "
            f"lcm(1..{n_max}) has {c_lcm.bit_length()} bits and scales every "
            f"encoded term, but the modulus has only {knob}={modulus_bits}; "
            f"raise {knob} or lower n_max"
        )
