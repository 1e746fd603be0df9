"""Deterministic JSON reading and writing shared by all pipeline stages.

Keys are always sorted and files end with a newline so that identical
inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import BadInput, MissingArtifact


def write_json(obj, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_text(path: str | Path) -> str:
    """A file's text; a missing file is MissingArtifact, one not in UTF-8 BadInput naming path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise MissingArtifact(f"missing artifact: {path}") from None
    except UnicodeDecodeError as exc:
        raise BadInput(f"{path}: not UTF-8 text: {exc}") from None


def read_json(path: str | Path):
    """Parse a JSON file; one that is not UTF-8 JSON raises BadInput naming path."""
    try:
        return json.loads(_read_text(path))
    except ValueError as exc:
        raise BadInput(f"{path}: not valid JSON: {exc}") from None


def write_jsonl(rows, path: str | Path) -> None:
    lines = [json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_jsonl(path: str | Path) -> list[tuple[int, object]]:
    """Parse one JSON value per non-blank line, as (line number, value)
    pairs, so callers can name the line of a row they reject. A line that
    is not JSON raises BadInput naming path:line.
    """
    text = _read_text(path)
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BadInput(f"{path}:{lineno}: not valid JSON: {exc}") from None
        rows.append((lineno, row))
    return rows
