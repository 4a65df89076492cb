"""Shared helpers for the legacy perf benches that feed the cost model.

Each ``bench_*.py`` times one layer and merges its numbers into a root
``BENCH_*.json`` through :func:`write_bench_json`; ``cost/calibration.json``
is fitted from those files (docs/cost_model.md).  The paper's figures are
``python -m repro figure NAME``, asserted in ``tests/test_paper_claims.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cost.bench_schema import BENCH_SCHEMA, validate_bench_tree

#: Machine-readable benchmark results land next to the repo root so the
#: perf trajectory can be diffed across PRs (`BENCH_engine.json`,
#: `BENCH_protocol.json`, `BENCH_sim.json`).
RESULTS_DIR = Path(__file__).resolve().parent.parent


def write_bench_json(filename: str, updates: dict) -> Path:
    """Merge ``updates`` into the machine-readable results file.

    Each bench test contributes its own top-level keys, so partial runs
    (one test, one figure) refresh only their section.  Every write
    (re)stamps the schema tag and the host that produced the numbers, so
    a BENCH file is never compared across machines by accident.  The
    merged tree must conform to the bench schema -- these files are the
    cost model's calibration corpus (docs/cost_model.md), so a NaN or a
    mistyped leaf is rejected at write time, not at fit time.
    """
    path = RESULTS_DIR / filename
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update(updates)
    data["schema"] = BENCH_SCHEMA
    data["host"] = host_info()
    problems = validate_bench_tree(data, name=filename)
    if problems:
        raise ValueError(
            f"{filename} would violate {BENCH_SCHEMA}:\n  "
            + "\n  ".join(problems)
        )
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def host_info() -> dict:
    """Host context recorded alongside throughput numbers (cores, platform)."""
    import datetime
    import os
    import platform

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def print_header(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")
