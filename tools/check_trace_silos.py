#!/usr/bin/env python
"""Fail when a networked run's trace leaves a silo out of its live view.

The server's round emits one ``silo_compute`` span per silo and round,
each with the deadline margin the silo's ``update`` arrived with;
``GET /metrics`` renders their fold as ``net_silo_*_bytes_total{silo=}``
and ``net_deadline_margin_seconds{silo=}``.  This gate renders that
exposition from the trace file, as the endpoint would, and exits 1 when
a silo of the spec's roster has no sample there, or has samples but no
deadline margin (it never delivered an ``update``), printing one line
per problem.

Usage::

    python tools/check_trace_silos.py SPEC TRACE
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.spec import RunSpec  # noqa: E402
from repro.obs.summary import TraceFold, load_trace, render_prometheus  # noqa: E402
from repro.sim.scenarios import scenario_recipe  # noqa: E402


def problems(spec: RunSpec, trace: str) -> list[str]:
    """What the exposition rendered from ``trace`` lacks for ``spec``'s
    roster."""
    sizes, _ = scenario_recipe(spec.sim.scenario, spec.sim.scale, spec.rounds)
    text = render_prometheus(TraceFold().update(load_trace(trace)).state)
    samples = dict(line.rsplit(" ", 1) for line in text.splitlines()
                   if line and not line.startswith("#"))
    found = []
    for s in range(sizes["n_silos"]):
        label = f'{{silo="{s}"}}'
        if "net_silo_uplink_bytes_total" + label not in samples:
            found.append(f"silo {s}: no silo span in the trace")
        elif float(samples.get("net_deadline_margin_seconds_count" + label, 0)) < 1:
            found.append(f"silo {s}: no deadline-margin sample")
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
        print(f"{trace}: every silo has a deadline-margin sample")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
