"""Deterministic JSON reading and writing shared by all pipeline stages.

Keys are always sorted and files end with a newline so that identical
inputs produce byte-identical artifacts. The writers refuse NaN and the
infinities, which are not JSON, and then remove the file they would have
replaced.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import BadInput, MissingArtifact, ScriptweaveError


def _dumps(objs, path: str | Path, **layout) -> list[str]:
    """Each of objs as JSON; a non-finite number in one is a ScriptweaveError
    naming path, and removes any earlier file at path so none stays in its place."""
    encode = json.JSONEncoder(sort_keys=True, allow_nan=False, **layout).encode
    try:
        return [encode(obj) for obj in objs]
    except ValueError as exc:
        Path(path).unlink(missing_ok=True)
        raise ScriptweaveError(f"{path}: not written: {exc}") from None


def write_json(obj, path: str | Path) -> None:
    Path(path).write_text(_dumps([obj], path, indent=2)[0] + "\n", encoding="utf-8")


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
    lines = _dumps(rows, path, separators=(",", ":"))
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
