"""Reading ``[tool.repro.<name>]`` tables out of ``pyproject.toml``.

The project rules are configured by three tables — ``layers`` (RA601),
``determinism`` (RA7xx) and ``durability`` (RA804).  All three are
found the same way: walk up from the first analyzed path to the
nearest ``pyproject.toml`` that carries the table, so the nearest
table wins and an *empty* table stops the walk (fixture trees rely on
that to shadow the repo's own contracts).  This module is that one
lookup; validating a table's keys stays with the rule it configures
(:func:`~repro.analysis.layers.layers_from_table`,
:func:`~repro.analysis.dataflow.determinism_from_table`,
:func:`~repro.analysis.durability.durability_from_table`).

``tomllib`` is 3.11+ and the CI matrix still runs 3.9, where a small
line-based reader stands in.  The tables only use ``key = "str"`` and
``key = ["a", "b"]`` forms plus one level of sub-tables, which is all
the fallback handles; a test asserts it agrees with ``tomllib`` on
every table in the repo.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Optional

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised on py3.9 CI
    tomllib = None  # type: ignore[assignment]


class Table(NamedTuple):
    """One ``[tool.repro.<name>]`` table and the file it came from."""

    values: Mapping[str, object]
    source: str


# -- minimal TOML fallback ----------------------------------------------------

_SECTION_RE = re.compile(r"^\[(?P<name>[^\]]+)\]\s*$")
_KV_RE = re.compile(r"^(?P<key>[A-Za-z0-9_.\-\"']+)\s*=\s*(?P<value>.+)$")


def _parse_toml_value(text: str, source: str, section: str) -> object:
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_toml_value(part, source, section)
                for part in _split_toml_list(inner)]
    if (text.startswith('"') and text.endswith('"')) or (
            text.startswith("'") and text.endswith("'")):
        return text[1:-1]
    raise ValueError(
        f"{source}: unsupported TOML value {text!r} in [{section}] "
        "(fallback parser handles strings and string lists only)")


def _split_toml_list(inner: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    quote = ""
    current = ""
    for char in inner:
        if quote:
            current += char
            if char == quote:
                quote = ""
            continue
        if char in "\"'":
            quote = char
            current += char
        elif char == "[":
            depth += 1
            current += char
        elif char == "]":
            depth -= 1
            current += char
        elif char == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += char
    if current.strip():
        parts.append(current)
    return parts


def _strip_toml_comment(line: str) -> str:
    out: List[str] = []
    quote = ""
    for char in line:
        if quote:
            out.append(char)
            if char == quote:
                quote = ""
        elif char in "\"'":
            quote = char
            out.append(char)
        elif char == "#":
            break
        else:
            out.append(char)
    return "".join(out).rstrip()


def _fallback_read_table(text: str, source: str,
                         section: str) -> Optional[Mapping[str, object]]:
    """Read ``[section]`` and its ``[section.sub]`` tables line by line."""
    table: Dict[str, Any] = {}
    current: Optional[Dict[str, Any]] = None
    found = False
    buffer = ""
    for raw_line in text.splitlines():
        line = _strip_toml_comment(raw_line).strip()
        if not line:
            continue
        header = _SECTION_RE.match(line)
        if header and not buffer:
            name = header.group("name").strip()
            if name == section or name.startswith(section + "."):
                current = table
                for part in filter(None, name[len(section) + 1:].split(".")):
                    current = current.setdefault(part, {})
                found = True
            else:
                current = None
            continue
        if current is None:
            continue
        buffer = f"{buffer} {line}" if buffer else line
        # multi-line arrays: keep buffering until brackets balance
        if buffer.count("[") > buffer.count("]") or buffer.endswith(","):
            continue
        match = _KV_RE.match(buffer)
        buffer = ""
        if not match:
            continue
        key = match.group("key").strip("\"'")
        current[key] = _parse_toml_value(match.group("value"), source,
                                         section)
    return table if found else None


# -- the lookup ---------------------------------------------------------------

def read_table(pyproject: Path, name: str) -> Optional[Table]:
    """``[tool.repro.<name>]`` of one pyproject file, or None if absent."""
    source = str(pyproject)
    text = pyproject.read_text(encoding="utf-8")
    values: Optional[Mapping[str, object]]
    if tomllib is not None:
        node: object = tomllib.loads(text)
        for key in ("tool", "repro", name):
            node = node.get(key) if isinstance(node, dict) else None
        values = node if isinstance(node, dict) else None
    else:  # pragma: no cover - py<3.11 only
        values = _fallback_read_table(text, source, f"tool.repro.{name}")
    return None if values is None else Table(values, source)


def find_table(start: Path, name: str) -> Optional[Table]:
    """Walk up from ``start`` to the nearest ``[tool.repro.<name>]``."""
    cursor = start.resolve()
    if cursor.is_file():
        cursor = cursor.parent
    while True:
        candidate = cursor / "pyproject.toml"
        if candidate.is_file():
            table = read_table(candidate, name)
            if table is not None:
                return table
        parent = cursor.parent
        if parent == cursor:
            return None
        cursor = parent
