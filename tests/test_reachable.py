"""Nothing in ``src/`` is unreachable.

An AST scan over the caller trees -- ``src/``, ``bench/``, ``tools/``,
``benchmarks/`` and ``examples/``, every place a launch path starts --
finds each ``def`` and ``class`` under ``src/repro`` and asks whether its
name is ever *loaded* (an ``ast.Name`` or ``ast.Attribute`` in a load
context) outside the definition's own body.  Strings do not count, so a
name listed only in a package's lazy-export table or ``__all__`` is not a
caller; neither is a test.  The match is by bare name, so it errs towards
"reached": a helper shadowed by a same-named attribute elsewhere passes.

Exempt by shape, because they are dispatched without a load of the name:

* dunders (``__init__``, ``__call__``, ...), called by the language;
* definitions decorated with a registry's ``@register_*(...)`` call,
  looked up by their registered string;
* ``on_<kind>`` message handlers, dispatched by ``getattr`` on the frame
  kind (``protocol/driver.py``, ``net/silo_client.py``), when ``<kind>``
  is a string literal somewhere in the caller trees -- a handler for a
  kind nothing names is flagged like any other definition;
* ``http.server``'s ``do_GET`` / ``log_message`` overrides.

Anything else a launch path does not reach but that stays on purpose is
in :data:`ALLOWED`, keyed ``path::qualname`` with the reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_TREES = ("src", "bench", "tools", "benchmarks", "examples")
HTTP_HANDLER_HOOKS = frozenset({"do_GET", "log_message"})

#: Definitions no launch path loads that stay on purpose, with the reason.
ALLOWED = {
    "protocol/oblivious.py::transfer":
        "the 1-out-of-n OT the sub-sampling tests run end to end (item 12)",
    "core/methods/uldp_group.py::UldpGroup.record_level_epsilon":
        "documented API (docs/privacy_accounting.md)",
    "compress/spec.py::CompressionSpec.none":
        "documented API, named in the refusal messages",
    "cost/calibrate.py::Calibration.save":
        "the refit step after a benchmark re-record",
    "report.py::load_histories":
        "documented API: reads the histories `repro run --output` writes",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_registry_entry(node: ast.AST) -> bool:
    for deco in getattr(node, "decorator_list", ()):
        func = deco.func if isinstance(deco, ast.Call) else deco
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name.startswith("register"):
            return True
    return False


def _exempt(node: ast.AST, strings: frozenset[str]) -> bool:
    name = node.name
    return (
        (name.startswith("__") and name.endswith("__"))
        or (name.startswith("on_") and name[3:] in strings)
        or name in HTTP_HANDLER_HOOKS
        or _is_registry_entry(node)
    )


def definitions(src: Path = SRC) -> list[tuple[str, Path, ast.AST]]:
    """Every ``def`` / ``class`` under ``src`` as ``(key, path, node)``."""
    found = []

    def visit(body, path, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}{node.name}"
                key = f"{path.relative_to(src).as_posix()}::{qualname}"
                found.append((key, path, node))
                visit(node.body, path, f"{qualname}.")
            elif hasattr(node, "body"):  # if / try / with blocks at any level
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, field, ()), path, prefix)

    for path in sorted(src.rglob("*.py")):
        visit(_parse(path).body, path, "")
    return found


def references(
    root: Path = ROOT,
) -> tuple[dict[str, list[tuple[Path, int]]], frozenset[str]]:
    """Every loaded name in the caller trees, with where it is loaded, and
    every string constant there (the frame kinds)."""
    seen: dict[str, list[tuple[Path, int]]] = {}
    strings = set()
    for tree in CALLER_TREES:
        for path in sorted((root / tree).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    if isinstance(node, ast.Constant) and isinstance(node.value, str):
                        strings.add(node.value)
                    continue
                seen.setdefault(name, []).append((path, node.lineno))
    return seen, frozenset(strings)


def unreachable(root: Path = ROOT) -> list[str]:
    """Keys of the definitions under ``root/src/repro`` that nothing in
    ``root``'s caller trees loads outside their own body."""
    seen, strings = references(root)
    missing = []
    for key, path, node in definitions(root / "src" / "repro"):
        if _exempt(node, strings):
            continue
        own = range(node.lineno, node.end_lineno + 1)
        if not any(p != path or line not in own for p, line in seen.get(node.name, ())):
            missing.append(key)
    return missing


def test_every_src_definition_is_reached_or_allowed():
    stray = sorted(set(unreachable()) - set(ALLOWED))
    assert not stray, (
        "no launch path (src/, bench/, tools/, benchmarks/, examples/) loads "
        "these definitions; delete them, call them, or add them to ALLOWED "
        "with a reason:\n  " + "\n  ".join(stray)
    )


def test_allow_list_is_live():
    """Every allowed entry names its reason; one that something now
    reaches, or that is gone, leaves."""
    assert all(reason.strip() for reason in ALLOWED.values())
    keys = {key for key, _, _ in definitions()}
    stale = sorted(set(ALLOWED) - keys)
    assert not stale, f"ALLOWED names definitions that no longer exist: {stale}"
    reached = sorted(set(ALLOWED) - set(unreachable()))
    assert not reached, f"ALLOWED names definitions a launch path now reaches: {reached}"


# -- the scan's own rules, on a made-up tree -------------------------------


def _scan(tmp_path: Path, files: dict[str, str]) -> list[str]:
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return unreachable(tmp_path)


def test_scan_flags_a_definition_only_strings_and_exports_name(tmp_path):
    stray = _scan(tmp_path, {
        "src/repro/__init__.py":
            '__all__ = ["stray"]\n_LAZY_EXPORTS = {"stray": "repro.mod"}\n',
        "src/repro/mod.py": 'def stray():\n    """stray"""\n\nNAME = "stray"\n',
    })
    assert stray == ["mod.py::stray"]


def test_a_load_inside_its_own_body_does_not_count(tmp_path):
    stray = _scan(tmp_path, {
        "src/repro/mod.py": (
            "def spin(n):\n    return spin(n - 1) if n else 0\n\n"
            "def used():\n    return 1\n\nVALUE = used()\n"
        ),
    })
    assert stray == ["mod.py::spin"]


def test_only_the_caller_trees_reach(tmp_path):
    stray = _scan(tmp_path, {
        "src/repro/mod.py": "def benched():\n    pass\n\ndef tested():\n    pass\n",
        "bench/probe.py": "from repro import mod\nmod.benched()\n",
        "tests/test_mod.py": "from repro.mod import tested\ntested()\n",
    })
    assert stray == ["mod.py::tested"]


def test_exempt_shapes_are_not_flagged(tmp_path):
    stray = _scan(tmp_path, {
        "src/repro/mod.py": (
            "from repro.reg import register_method\n\n"
            "class Handler:\n"
            "    def __init__(self):\n        pass\n\n"
            "    def on_hello(self, frame):\n        pass\n\n"
            "    def on_unsent(self, frame):\n        pass\n\n"
            "    def do_GET(self):\n        pass\n\n"
            "    def log_message(self, *args):\n        pass\n\n"
            "@register_method('x')\n"
            "class Entry:\n    pass\n\n"
            "HANDLER = Handler()\n"
            "HANDLER.dispatch({'type': 'hello'})\n"
        ),
        "src/repro/reg.py": "def register_method(name):\n    return lambda cls: cls\n",
    })
    # ``on_unsent`` is a handler in shape only: no string names its kind.
    assert stray == ["mod.py::Handler.on_unsent"]


def test_nested_and_guarded_definitions_are_keyed_by_qualname(tmp_path):
    stray = _scan(tmp_path, {
        "src/repro/pkg/mod.py": (
            "class Box:\n"
            "    def kept(self):\n        pass\n\n"
            "    def dropped(self):\n        pass\n\n"
            "try:\n"
            "    def guarded():\n        pass\n"
            "except ImportError:\n    pass\n\n"
            "Box().kept()\n"
        ),
    })
    assert stray == ["pkg/mod.py::Box.dropped", "pkg/mod.py::guarded"]
