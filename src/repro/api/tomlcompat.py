"""TOML writer for :class:`repro.api.RunSpec` trees.

The stdlib reads TOML (:mod:`tomllib`, which ``load_spec_tree`` calls
directly) but does not write it.  :func:`dumps` serialises a plain dict
tree (str/int/float/bool keys and values, lists, nested dicts): nested
dicts become ``[section]`` tables, dicts inside lists become inline
tables.

``None`` values are omitted (TOML has no null); every optional spec
field defaults to ``None``, so omission round-trips exactly.
"""

from __future__ import annotations

import json
import re

_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")


def _format_key(key: str) -> str:
    return key if _BARE_KEY.match(key) else json.dumps(key)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # repr keeps the shortest float round-tripping to the same IEEE-754
        # value; TOML requires a decimal point or exponent.
        text = repr(value)
        if "." not in text and "e" not in text and "inf" not in text and "nan" not in text:
            text += ".0"
        return text
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    if isinstance(value, dict):
        items = ", ".join(
            f"{_format_key(k)} = {_format_value(v)}"
            for k, v in value.items()
            if v is not None
        )
        return "{" + items + "}"
    raise TypeError(f"cannot serialise {type(value).__name__} to TOML")


def dumps(tree: dict, header: str | None = None) -> str:
    """Serialise a dict tree to TOML text (``None`` values omitted)."""
    lines: list[str] = []
    if header:
        lines.extend(f"# {line}".rstrip() for line in header.splitlines())
        lines.append("")
    _dump_table(tree, prefix=(), lines=lines)
    return "\n".join(lines).strip("\n") + "\n"


def _dump_table(table: dict, prefix: tuple[str, ...], lines: list[str]) -> None:
    scalars = {
        k: v for k, v in table.items() if v is not None and not isinstance(v, dict)
    }
    subtables = {k: v for k, v in table.items() if isinstance(v, dict)}
    if prefix and (scalars or not subtables):
        if lines and lines[-1] != "":
            lines.append("")
        lines.append("[" + ".".join(_format_key(p) for p in prefix) + "]")
    for key, value in scalars.items():
        lines.append(f"{_format_key(key)} = {_format_value(value)}")
    for key, value in subtables.items():
        _dump_table(value, prefix + (key,), lines)
