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
- The method x capability table in ``docs/api.md`` is regenerated from the
  registry and the ``FLMethod`` contract and must match the file verbatim.
- Every ``UldpAvg.<name>`` / ``SecureUldpAvg.<name>`` the README and docs
  mention must be an attribute of that class, and every bare private or
  ``silo_*`` identifier they put in backticks (or in a call tree about
  those classes) must still exist somewhere in the code.
- ``docs/results.md`` (generated by ``make results``) must hold one section
  per experiment, each at the hash of the spec ``repro figure NAME --scale
  smoke`` runs today -- stale by experiment list or by spec, never by the
  numbers in its tables.
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


def capability_table() -> str:
    """docs/api.md's "what composes with what" table, from what each
    registered method declares (``FLMethod``'s contract) -- never from a
    list kept by hand."""
    import numpy as np

    from repro.api import builtin  # (importing it populates METHODS)
    from repro.api.registries import METHODS
    from repro.api.spec import MethodSpec
    from repro.compress import CompressionSpec
    from repro.core import UldpAvg, default_model_for
    from repro.data import build_creditcard_benchmark

    # State is checkpointed once bound: prepare builds the server's part.
    fed = build_creditcard_benchmark(n_users=8, n_silos=2, n_records=120, seed=0)

    def admits(method, sparsify):
        try:
            method.check_compression(CompressionSpec(sparsify=sparsify, fraction=0.1))
        except (ValueError, NotImplementedError):
            return False
        return True

    lines = [
        "| `method.name` | class | roster honoured | lossy compression "
        "| buffered-async | `[net]` | comm ledger | checkpointed state |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name in METHODS.names():
        factory = METHODS.get(name)
        if factory.__module__ != builtin.__name__:
            continue  # registered by another test, not by the package
        method = factory(MethodSpec(name=name), None)
        rng = np.random.default_rng(0)
        method.prepare(fed, default_model_for(fed, rng), rng)
        algorithm3 = isinstance(method, UldpAvg)  # the roster-aware round
        lossy = ("yes" if admits(method, "topk")
                 else "rand-k only" if admits(method, "randk") else "no")
        step = "yes" if method.has_silo_step else "no"
        state = [key for key in method.state_dict()
                 if key != "accountant" or method.accountant is not None]
        lines.append(
            f"| `{name}` | `{type(method).__name__}` "
            f"| {'silos + users' if algorithm3 else 'silos only'} | {lossy} "
            f"| {step} | {step} | {'its own' if algorithm3 else 'dense default'} "
            f"| {', '.join(f'`{key}`' for key in state)} |"
        )
    return "\n".join(lines)


def test_capability_table_matches_the_declared_contract():
    api = (DOCS / "api.md").read_text(encoding="utf-8")
    assert capability_table() in api, (
        "docs/api.md's method x capability table drifted from what the "
        "methods declare; paste this in:\n" + capability_table()
    )
    # ... and the pages that send readers to it still do.
    for page in (REPO_ROOT / "README.md", DOCS / "scenarios.md"):
        assert "api.md#what-composes-with-what" in page.read_text(encoding="utf-8")


def test_every_mentioned_method_exists():
    """The twin of the subcommand check for the round's call trees: PR 18
    deleted five ``UldpAvg`` methods the docs named twelve times."""
    sys.path.insert(0, str(REPO_ROOT / "tests"))
    try:
        from toy_crypto import TOY_DH_GROUP
    finally:
        sys.path.pop(0)
    from repro.core import UldpAvg
    from repro.protocol import SecureUldpAvg

    # Instances, so attributes assigned in __init__ count.
    owners = {
        "UldpAvg": UldpAvg(),
        "SecureUldpAvg": SecureUldpAvg(dh_group=TOY_DH_GROUP),
    }
    code = "\n".join(
        path.read_text(encoding="utf-8")
        for root in ("src", "tests")
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
        if path != Path(__file__).resolve()
    )
    qualified = re.compile(r"\b(SecureUldpAvg|UldpAvg)\.([A-Za-z_]\w*)")
    bare = r"(?<![\w.])(_[a-z][a-z0-9_]*|silo_[a-z0-9_]+)\b"
    backticked = re.compile(rf"`{bare}(?:\(\))?`")

    def exists(word: str) -> bool:
        if any(hasattr(owner, word) for owner in owners.values()):
            return True
        # Not theirs: a name some other code defines, or a literal it
        # emits (metric suffixes, event and phase names).
        return re.search(rf"(?<![A-Za-z0-9]){word}(?![A-Za-z0-9_])", code) is not None

    stale = set()
    for path in [REPO_ROOT / "README.md", *sorted(DOCS.glob("*.md"))]:
        text = path.read_text(encoding="utf-8")
        where = path.relative_to(REPO_ROOT)
        for owner, name in qualified.findall(text):
            if not hasattr(owners[owner], name):
                stale.add(f"{where}: {owner}.{name}")
        words = set(backticked.findall(text))
        for block in text.split("```")[1::2]:  # fenced call trees
            if "UldpAvg" in block:
                words.update(re.findall(bare, block))
        stale.update(f"{where}: {word}" for word in words if not exists(word))
    assert not stale, f"docs mention names that do not exist: {sorted(stale)}"


def test_results_page_is_current():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from make_results import spec_line
    finally:
        sys.path.pop(0)
    from repro.experiments import available_experiments

    text = (DOCS / "results.md").read_text(encoding="utf-8")
    assert text.startswith("Data are synthetic stand-ins")
    recorded = dict(re.findall(
        r"^`python -m repro figure (\S+) --scale smoke` \((.*)\):$",
        text, flags=re.MULTILINE,
    ))
    current = {name: spec_line(name) for name in available_experiments()}
    assert recorded == current, "docs/results.md is stale: run `make results`"
