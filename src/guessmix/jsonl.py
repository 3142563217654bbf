"""JSON-lines record files: one JSON object per line, blank lines skipped.
Each record type supplies how it maps to and from a decoded line."""

from __future__ import annotations

import json
from pathlib import Path


def write_jsonl(path: str | Path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def checked(value, *types):
    """`value` if its type is one of `types`; a bool is not an int here."""
    if type(value) not in types:
        raise TypeError(f"{value!r} is not {' or '.join(t.__name__ for t in types)}")
    return value


def expect_keys(rec: dict, keys: tuple[str, ...]) -> None:
    """Refuse a decoded record that holds other keys than exactly `keys`."""
    if set(rec) != set(keys):
        raise ValueError(f"keys {sorted(rec)} are not {', '.join(keys)}")


def read_jsonl(path: str | Path, build, kind: str) -> list:
    """`build` each decoded line into a record. The file comes from outside
    the program, so whatever `json.loads` or `build` raises on a line makes
    it a malformed `kind` record: a ValueError naming the file and line. A
    file that cannot be opened, such as a directory, is a ValueError too."""
    try:
        f = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {kind} file {path}: {exc}") from exc
    out = []
    with f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(build(json.loads(line)))
            except Exception as exc:  # noqa: BLE001 - any failure is a bad record
                raise ValueError(f"{path}:{lineno}: malformed {kind} record: {exc}") from exc
    return out
