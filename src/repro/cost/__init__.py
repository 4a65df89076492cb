"""Closed-form cost model + capacity planner for Uldp-FL runs.

Three layers (see docs/cost_model.md):

- :mod:`repro.cost.model` -- per-phase **cost functions** of the workload
  numbers for wall-clock seconds, uplink/downlink bytes,
  ciphertext/mask-element counts, and resident memory, composed from any
  :class:`repro.api.RunSpec` (per-method, per-crypto-backend, engine,
  compression, and sim terms).  Each returns a form linear in named
  calibration constants; bytes call the runtime's own formulas.
- :mod:`repro.cost.calibrate` -- fits those constants from the committed
  ``BENCH_*.json`` files (schema ``uldp-fl-bench/v1``) and persists them
  as a versioned ``calibration.json``.
- :mod:`repro.cost.planner` -- evaluates the functions at a spec's
  numbers, renders per-phase breakdown tables, and bisects them for
  capacity questions ("max users per round under X seconds / Y bytes").

Surfaced as ``repro cost`` and as ``repro sweep --prune-cost-seconds``;
``tools/check_cost_drift.py`` is the CI gate that keeps predictions
within 2x of fresh measurements.
"""

from repro.cost.calibrate import (
    Calibration,
    fit_calibration,
    load_calibration,
)
from repro.cost.model import (
    MASK_BYTES,
    METRICS,
    CostModel,
    Linear,
    PhaseCost,
    build_cost_model,
    ciphertext_bytes,
)
from repro.cost.planner import CostError, CostReport, predict, solve_max_users

__all__ = [
    "MASK_BYTES",
    "METRICS",
    "Calibration",
    "CostError",
    "CostModel",
    "CostReport",
    "Linear",
    "PhaseCost",
    "build_cost_model",
    "ciphertext_bytes",
    "fit_calibration",
    "load_calibration",
    "predict",
    "solve_max_users",
]
