"""Canonical JSON / line-record IO.

Every file the pipeline writes goes through :func:`canonical_dumps` so that
equal in-memory records always serialize to identical bytes (sorted keys,
compact separators, UTF-8, one record per line).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable

from .errors import ValidationFailure


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def read_jsonl(
    path: str | Path, validate: Callable[[dict], list[str]] | None = None
) -> list[dict]:
    """The JSON objects of ``path``, one per non-blank line. A line that is
    not a JSON object, or whose object ``validate`` finds problems in,
    raises ValidationFailure located at ``path:line``."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationFailure(f"{path}:{line_no}: bad JSON line: {exc}") from exc
            if not isinstance(record, dict):
                raise ValidationFailure(f"{path}:{line_no}: line is not a JSON object")
            problems = validate(record) if validate is not None else ()
            if problems:
                raise ValidationFailure(f"{path}:{line_no}: {'; '.join(problems)}")
            records.append(record)
    return records


def parse_problems(parse: Callable[[dict], Any]) -> Callable[[dict], list[str]]:
    """A ``read_jsonl`` validator: why ``parse(row)`` cannot build a record."""

    def validate(row: dict) -> list[str]:
        try:
            parse(row)
        except KeyError as exc:
            return [f"missing key {exc}"]
        except (TypeError, ValueError, AttributeError) as exc:
            return [str(exc)]
        return []

    return validate


def write_jsonl(path: str | Path, records: Iterable[dict]) -> int:
    """Atomically write records, one canonical JSON object per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    count = 0
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(canonical_dumps(rec))
            fh.write("\n")
            count += 1
    os.replace(tmp, path)
    return count


def write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
