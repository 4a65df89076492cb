#!/usr/bin/env python
"""Fail when a networked run's trace leaves a silo out of its per-silo view.

``repro trace summary`` renders the per-silo table from the ``kind="silo"``
spans the server's round emits, one ``silo_compute`` per silo and round,
each with the deadline margin the silo's ``update`` arrived with.  This
gate exits 1 when a silo of the spec's roster has no such span, or has
spans but never a margin (it never delivered an ``update``), and prints
one line per problem.

Usage::

    python tools/check_trace_silos.py SPEC TRACE
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.spec import RunSpec  # noqa: E402
from repro.obs.summary import load_trace, summarize  # noqa: E402
from repro.sim.scenarios import scenario_recipe  # noqa: E402


def problems(spec: RunSpec, trace: str) -> list[str]:
    """What the per-silo view of ``trace`` lacks for ``spec``'s roster."""
    sizes, _ = scenario_recipe(spec.sim.scenario, spec.sim.scale, spec.rounds)
    silos = summarize(load_trace(trace))["silos"]
    found = []
    for s in range(sizes["n_silos"]):
        entry = silos.get(str(s))
        if entry is None:
            found.append(f"silo {s}: no silo span in the trace")
        elif entry["min_deadline_margin"] is None:
            found.append(f"silo {s}: no span with a deadline margin")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    spec_path, trace = argv
    found = problems(RunSpec.from_file(spec_path), trace)
    for line in found:
        print(f"{trace}: {line}")
    if not found:
        print(f"{trace}: every silo has spans with a deadline margin")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
