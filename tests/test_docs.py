"""Documentation health: worked examples run, docstring coverage holds.

- The epsilon values in ``docs/privacy_accounting.md`` are executable
  doctests; this cross-checks every number printed in the document
  against the accounting implementation.
- Every public module under ``src/repro`` must carry a module docstring
  (the ``make docs-check`` gate, enforced here so tier-1 catches it).
- The README and architecture docs must exist and mention the load-bearing
  entry points they document.
- Every ``repro <subcommand>`` the docs, Makefile, example specs and the
  verify skill mention must be a subcommand the CLI actually has.
"""

import doctest
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"


def test_privacy_accounting_doc_examples():
    results = doctest.testfile(
        str(DOCS / "privacy_accounting.md"),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert results.attempted > 0, "document lost its doctest examples"
    assert results.failed == 0


def test_public_modules_have_docstrings():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from check_docstrings import modules_missing_docstrings
    finally:
        sys.path.pop(0)
    missing = modules_missing_docstrings()
    assert not missing, f"modules missing docstrings: {missing}"


def test_docs_exist_and_reference_entry_points():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    architecture = (DOCS / "architecture.md").read_text(encoding="utf-8")
    assert "UldpAvg" in readme and "quickstart" in readme.lower()
    assert "engine" in readme
    assert "repro.core" in architecture and "Protocol 1" in architecture
    assert "bench_engine_speedup" in architecture


def test_every_mentioned_subcommand_exists():
    from repro.cli import build_parser

    subparsers = next(
        a for a in build_parser()._actions if a.dest == "command"
    )
    known = set(subparsers.choices)
    files = [
        REPO_ROOT / "README.md",
        REPO_ROOT / "Makefile",
        REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
        *sorted(DOCS.glob("*.md")),
        *sorted((REPO_ROOT / "examples" / "specs").glob("*.toml")),
    ]
    # `repro run ...` in prose, `python -m repro run ...` in command lines.
    mention = re.compile(r"(?:`|-m )repro ([a-z][a-z-]*)")
    stale = {
        f"{path.relative_to(REPO_ROOT)}: repro {word}"
        for path in files
        for word in mention.findall(path.read_text(encoding="utf-8"))
        if word not in known
    }
    assert not stale, f"docs mention subcommands that do not exist: {sorted(stale)}"
