#!/usr/bin/env python
"""The cost-model drift gate: predictions must stay within 2x of benches.

Two modes (both exit non-zero on violation and can emit a JSON report):

- **default**: evaluate the committed ``src/repro/cost/calibration.json``
  against the ``BENCH_*.json`` files in ``--bench-dir`` -- every gated
  measurement's predicted/measured ratio must lie in [1/2, 2], and every
  wire-byte formula must match the benches' accounting *exactly*.
- **--refit**: additionally fit fresh constants from the (typically
  smoke-refreshed) bench files and require every constant to land
  within 2x of its committed value -- the perf-regression signal CI
  runs after re-executing the smoke benches.

Measurements under the 2 ms noise floor are reported but never fail the
gate (docs/cost_model.md, "drift-gate semantics").

Usage::

    python tools/check_cost_drift.py [--refit] [--report out.json]
                                     [--bench-dir DIR] [--calibration PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cost.calibrate import (  # noqa: E402
    DRIFT_FACTOR,
    CalibrationError,
    byte_check_rows,
    drift_rows,
    fit_calibration,
    load_benches,
    load_calibration,
)


def _compare_constants(committed: dict, fresh: dict) -> list[dict]:
    rows = []
    for name in sorted(committed):
        old, new = committed[name], fresh.get(name)
        if new is None or old <= 0:
            ratio = float("inf")
        else:
            ratio = new / old
        rows.append(
            {
                "constant": name,
                "committed": old,
                "refit": new,
                "ratio": ratio,
                "ok": 1 / DRIFT_FACTOR <= ratio <= DRIFT_FACTOR,
            }
        )
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", default=str(REPO_ROOT))
    parser.add_argument("--calibration", default=None)
    parser.add_argument(
        "--refit",
        action="store_true",
        help="also re-fit constants from the bench files and compare "
        "against the committed calibration",
    )
    parser.add_argument("--report", default=None, help="write a JSON report here")
    args = parser.parse_args(argv)

    try:
        calibration = load_calibration(args.calibration)
        benches = load_benches(args.bench_dir)
        prediction_rows = drift_rows(calibration, benches)
        byte_rows = byte_check_rows(benches)
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = 0
    print("== prediction vs measured (gated rows must stay within 2x) ==")
    for row in prediction_rows:
        mark = "GATE" if row["gated"] else "    "
        status = "ok" if row["ok"] else "DRIFT"
        if not row["ok"]:
            failures += 1
        print(
            f"{mark} {status:5s} {row['label']:55s} "
            f"measured={row['measured']:<12.5g} "
            f"predicted={row['predicted']:<12.5g} ratio={row['ratio']:.3f}"
        )
    print("\n== wire-byte formulas (must match exactly) ==")
    for row in byte_rows:
        status = "ok" if row["ok"] else "MISMATCH"
        if not row["ok"]:
            failures += 1
        print(
            f"{status:8s} {row['label']:55s} "
            f"predicted={row['predicted']} measured={row['measured']}"
        )

    constant_rows: list[dict] = []
    if args.refit:
        try:
            fresh, _ = fit_calibration(args.bench_dir)
        except CalibrationError as exc:
            print(f"refit error: {exc}", file=sys.stderr)
            return 2
        constant_rows = _compare_constants(calibration.constants, fresh.constants)
        print("\n== refit constants vs committed (must stay within 2x) ==")
        for row in constant_rows:
            status = "ok" if row["ok"] else "DRIFT"
            if not row["ok"]:
                failures += 1
            print(
                f"{status:5s} {row['constant']:30s} "
                f"committed={row['committed']:<12.5g} "
                f"refit={row['refit']:<12.5g} ratio={row['ratio']:.3f}"
            )

    if args.report:
        Path(args.report).write_text(
            json.dumps(
                {
                    "drift_factor": DRIFT_FACTOR,
                    "failures": failures,
                    "predictions": prediction_rows,
                    "byte_checks": byte_rows,
                    "refit_constants": constant_rows,
                },
                indent=1,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"\nreport written to {args.report}")

    if failures:
        print(f"\nFAIL: {failures} gated check(s) drifted beyond 2x")
        return 1
    print("\nall gated cost-model checks within 2x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
