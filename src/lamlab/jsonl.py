"""Canonical JSON / line-record IO.

Every file the pipeline writes holds :func:`canonical_dumps` text, so that
equal in-memory records always serialize to identical bytes (sorted keys,
compact separators, UTF-8, one record per line). Oracle prompts embed
control trees in a second form, :func:`prompt_dumps` (sorted keys, default
separators, ASCII escapes): that is the text the prompts have always carried,
and a prompt is part of an oracle cache key, so it must not change with the
file format.

Some values carry their own encodings, computed at most once: a control
tree's flattened control list and its tree dict (``env_sim/snapshot.py``)
keep their canonical text in a ``canonical_json`` attribute, and the tree
dict its prompt text in ``prompt_json``. :func:`canonical_json` and
:func:`prompt_json` return that text when a value has it and encode the value
otherwise, as they do for records read back from a file. The record types'
line writers (``dataflow/records.py``) splice the cached text into their
lines, and :func:`write_jsonl` takes such ready lines as well as records.

Every line-record file is read through :func:`read_jsonl`, which parses each
non-blank line once: ``read_jsonl(path, parse)`` returns ``parse(row)`` for
each JSON object ``row``, or the objects themselves without ``parse``. A file
that cannot be opened raises :class:`EmptyCorpus` naming the path. A line that
is not UTF-8, is not JSON, is not an object, or that ``parse`` rejects with
``KeyError``, ``TypeError``, ``ValueError`` or ``AttributeError`` raises
:class:`ValidationFailure` located at ``path:line``. The file is read in
binary mode and decoded line by line, so a decoding error names its own line.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, TextIO, TypeVar

from .errors import EmptyCorpus, ValidationFailure

T = TypeVar("T")

_CANONICAL = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def canonical_dumps(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))``
    through one shared encoder."""
    return _CANONICAL.encode(obj)


def prompt_dumps(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True)``: the form oracle prompts carry."""
    return json.dumps(obj, sort_keys=True)


def canonical_json(value: Any) -> str:
    """``canonical_dumps(value)``, or the ``canonical_json`` text ``value`` carries."""
    text = getattr(value, "canonical_json", None)
    return canonical_dumps(value) if text is None else text


def prompt_json(value: Any) -> str:
    """``prompt_dumps(value)``, or the ``prompt_json`` text ``value`` carries."""
    text = getattr(value, "prompt_json", None)
    return prompt_dumps(value) if text is None else text


def read_jsonl(path: str | Path, parse: Callable[[dict], Any] | None = None) -> list:
    """``parse`` of each JSON object in ``path``, one per non-blank line."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise EmptyCorpus(f"cannot read {path}: {exc.strerror}") from exc
    records = []
    with fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValidationFailure(f"{path}:{line_no}: line is not UTF-8: {exc}") from exc
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationFailure(f"{path}:{line_no}: bad JSON line: {exc}") from exc
            if not isinstance(record, dict):
                raise ValidationFailure(f"{path}:{line_no}: line is not a JSON object")
            if parse is not None:
                try:
                    record = parse(record)
                except KeyError as exc:
                    raise ValidationFailure(f"{path}:{line_no}: missing key {exc}") from exc
                except (TypeError, ValueError, AttributeError) as exc:
                    raise ValidationFailure(f"{path}:{line_no}: {exc}") from exc
            records.append(record)
    return records


_TEMP_IDS = itertools.count()


def _replace_with(path: str | Path, write: Callable[[TextIO], T]) -> T:
    """Run ``write`` on a new temp file next to ``path``, named by pid, thread
    id and a counter, then replace ``path`` with it, so overlapping writers
    each install one whole file. A write that raises leaves ``path`` as it was
    and no temp file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.{next(_TEMP_IDS)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            result = write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return result


def write_jsonl(path: str | Path, records: Iterable[dict | str]) -> int:
    """Atomically write records, one canonical JSON object per line; a
    ``str`` is taken as that line, ready encoded."""

    def write(fh: TextIO) -> int:
        count = 0
        for rec in records:
            fh.write(rec if isinstance(rec, str) else canonical_dumps(rec))
            fh.write("\n")
            count += 1
        return count

    return _replace_with(path, write)


def write_text(path: str | Path, text: str) -> None:
    _replace_with(path, lambda fh: fh.write(text))


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
