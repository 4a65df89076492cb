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

from repro import _lazy_namespace

# name -> defining module, resolved on first attribute access.
_LAZY_EXPORTS = {
    "calibrate_noise_multiplier": "repro.accounting.calibration",
    "calibrate_sample_rate": "repro.accounting.calibration",
    "DEFAULT_ALPHAS": "repro.accounting.rdp",
    "gaussian_rdp": "repro.accounting.rdp",
    "gaussian_rdp_curve": "repro.accounting.rdp",
    "subsampled_gaussian_rdp_curve": "repro.accounting.subsampled",
    "rdp_to_dp": "repro.accounting.conversion",
    "rdp_curve_to_dp": "repro.accounting.conversion",
    "group_rdp_curve": "repro.accounting.group",
    "group_epsilon_via_rdp": "repro.accounting.group",
    "group_epsilon_via_normal_dp": "repro.accounting.group",
    "PrivacyAccountant": "repro.accounting.accountant",
    "RdpEvent": "repro.accounting.accountant",
    "ReleaseEvent": "repro.accounting.accountant",
}

__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = _lazy_namespace(__name__, _LAZY_EXPORTS)
