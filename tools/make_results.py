"""Regenerate ``docs/results.md`` (``make results``): per experiment, its
description, the shape the paper reports (the ``Paper:`` paragraph of its
spec file's header, or of its function's docstring when analytic), the hash
of the spec ``repro figure NAME --scale smoke`` runs and the table it prints.
"""

from __future__ import annotations

import inspect
import logging
import re
from pathlib import Path

from repro.api.registries import EXPERIMENTS
from repro.experiments import (
    available_experiments,
    describe_experiment,
    run_experiment,
    spec_for_experiment,
)
from repro.experiments.registry import SPEC_DIR

RESULTS = Path(__file__).resolve().parent.parent / "docs" / "results.md"

HEADER = """\
Data are synthetic stand-ins, so the claim is ordering and slope, never absolute accuracy.

# Results: every experiment at the smoke tier

Generated by `make results` (`tools/make_results.py`) -- do not edit.  One
section per experiment of `python -m repro figure --list`: what the paper
reports, then what `--scale smoke` prints (`small` / `paper` are the sizes
worth reading for utility).  `tests/test_paper_claims.py` asserts the
findings; `tests/test_docs.py` fails once a spec hash or the experiment list
moves on.  fig10 / fig11 are wall-clock seconds on the regenerating host.
"""


def paper_shape(name: str) -> str:
    """The ``Paper:`` paragraph of ``name``'s spec header or docstring."""
    path = SPEC_DIR / f"{name}.toml"
    if path.exists():
        comment = re.match(r"(?:#.*\n)+", path.read_text(encoding="utf-8")).group()
        text = re.sub(r"^# ?", "", comment, flags=re.MULTILINE)
    else:
        text = inspect.getdoc(EXPERIMENTS.get(name))
    for paragraph in text.split("\n\n"):
        if paragraph.startswith("Paper:"):
            return " ".join(paragraph.split())
    return "(an example spec, not a figure of the paper)"


def spec_line(name: str) -> str:
    try:
        return f"spec `{spec_for_experiment(name, 'smoke').hash()}`"
    except ValueError:
        return "analytic, no spec"


def section(name: str) -> str:
    table = run_experiment(name, scale="smoke").table()
    return (
        f"## {name}\n\n{describe_experiment(name)}.\n\n{paper_shape(name)}\n\n"
        f"`python -m repro figure {name} --scale smoke` ({spec_line(name)}):\n\n"
        f"```text\n{table}\n```\n"
    )


if __name__ == "__main__":
    logging.disable(logging.WARNING)  # the secure specs' expected toy-key line
    sections = [section(name) for name in available_experiments()]
    RESULTS.write_text("\n".join([HEADER, *sections]), encoding="utf-8")
    print(f"wrote {RESULTS} ({len(sections)} experiments)")
