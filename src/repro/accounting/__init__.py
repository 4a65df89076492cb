"""Differential-privacy accounting for Uldp-FL.

This package is a from-scratch replacement for the Opacus/TF-privacy RDP
accountant plus the paper's group-privacy conversions:

- :mod:`repro.accounting.rdp` -- Renyi DP of the Gaussian mechanism
  (Lemma 3) and RDP composition (Lemma 1).
- :mod:`repro.accounting.subsampled` -- RDP of the Poisson-sub-sampled
  Gaussian mechanism (Lemma 4; numerically tight bounds of Mironov et al.
  2019 for integer and fractional orders), on NumPy alone.
- :mod:`repro.accounting.conversion` -- RDP -> (eps, delta)-DP conversion
  (Lemma 2, Balle et al. 2020) with optimal-order search.
- :mod:`repro.accounting.group` -- group privacy: the RDP doubling route
  (Lemma 6, Mironov Prop. 11) and the approximate-DP route with the
  binary-search procedure of the paper's footnote 1 (Lemma 5).
- :mod:`repro.accounting.accountant` -- a high-level
  :class:`PrivacyAccountant` used by the trainer, with constructors matching
  Theorems 1-3 of the paper.
"""

from repro.accounting.rdp import (
    DEFAULT_ALPHAS,
    compose_rdp,
    gaussian_rdp,
    gaussian_rdp_curve,
)
from repro.accounting.subsampled import (
    subsampled_gaussian_rdp,
    subsampled_gaussian_rdp_curve,
    subsampled_rdp_closed_form,
)
from repro.accounting.conversion import rdp_to_dp, rdp_curve_to_dp
from repro.accounting.group import (
    group_rdp_curve,
    group_epsilon_via_rdp,
    group_epsilon_via_normal_dp,
)
from repro.accounting.accountant import PrivacyAccountant, RdpEvent, ReleaseEvent
from repro.accounting.calibration import (
    calibrate_noise_multiplier,
    calibrate_sample_rate,
)

__all__ = [
    "calibrate_noise_multiplier",
    "calibrate_sample_rate",
    "DEFAULT_ALPHAS",
    "compose_rdp",
    "gaussian_rdp",
    "gaussian_rdp_curve",
    "subsampled_gaussian_rdp",
    "subsampled_gaussian_rdp_curve",
    "subsampled_rdp_closed_form",
    "rdp_to_dp",
    "rdp_curve_to_dp",
    "group_rdp_curve",
    "group_epsilon_via_rdp",
    "group_epsilon_via_normal_dp",
    "PrivacyAccountant",
    "RdpEvent",
    "ReleaseEvent",
]
