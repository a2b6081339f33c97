"""Attribute-level canvas diffing.

A canvas flattens to a path -> scalar map; the diff of two canvases is the
path-sorted list of entries whose values differ (``before``/``after`` are
None for added/removed paths). Applying a diff to its ``before`` state
reconstructs the ``after`` state exactly.

The paths come from the block table in ``canvas``, the one description of
what each kind holds: a block's ``kind`` is its markup tag, and its scalar
paths, like a run's and the selection's, are the names ``attributes``
gives; ``build`` makes the values back from them. Only a paragraph's runs
and a table's cells are nested paths.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from ..errors import ValidationFailure
from .canvas import (
    BLOCK_CLASSES,
    BLOCK_TAGS,
    Block,
    CanvasState,
    Paragraph,
    Run,
    Selection,
    Table,
    attributes,
    build,
)

__all__ = ["CanvasDiffEntry", "flatten_canvas", "diff_canvas", "apply_diff"]

Scalar = str | int | bool | None


@dataclass(frozen=True)
class CanvasDiffEntry:
    path: str
    before: Scalar
    after: Scalar

    def to_dict(self) -> dict:
        return {"path": self.path, "before": self.before, "after": self.after}

    @classmethod
    def from_dict(cls, obj: dict) -> "CanvasDiffEntry":
        return cls(path=obj["path"], before=obj.get("before"), after=obj.get("after"))


def _put(flat: dict[str, Scalar], prefix: str, obj: Run | Selection | Block) -> None:
    for name, value in attributes(obj).items():
        flat[prefix + name] = value


def flatten_canvas(state: CanvasState) -> dict[str, Scalar]:
    flat: dict[str, Scalar] = {}
    if state.page_border is not None:
        flat["page_border"] = state.page_border
    if state.selection is not None:
        _put(flat, "selection.", state.selection)
    for i, block in enumerate(state.blocks):
        base = f"blocks[{i}]."
        flat[base + "kind"] = BLOCK_TAGS[type(block)]
        if type(block) is Paragraph:
            for j, run in enumerate(block.runs):
                _put(flat, f"{base}runs[{j}].", run)
            continue
        _put(flat, base, block)
        if type(block) is Table:
            for r, row in enumerate(block.cells):
                for c, cell in enumerate(row):
                    flat[f"{base}cells[{r}][{c}]"] = cell
    return flat


_PATH_TOKEN_RE = re.compile(r"([A-Za-z_]+)|\[(\d+)\]")


def _path_key(path: str) -> tuple:
    key: list[object] = []
    for name, index in _PATH_TOKEN_RE.findall(path):
        if name:
            key.append((0, name))
        else:
            key.append((1, int(index)))
    return tuple(key)


def diff_canvas(
    before: CanvasState | Mapping[str, Scalar], after: CanvasState | Mapping[str, Scalar]
) -> list[CanvasDiffEntry]:
    """Minimal attribute-level diff; empty iff canonical markups are equal.
    Either side may be given as its ``flatten_canvas`` map, which is only
    read."""
    fb, fa = _flat(before), _flat(after)
    entries = [
        CanvasDiffEntry(path=path, before=fb.get(path), after=fa.get(path))
        for path in set(fb) | set(fa)
        if fb.get(path) != fa.get(path) or (path in fb) != (path in fa)
    ]
    entries.sort(key=lambda e: _path_key(e.path))
    return entries


def _flat(canvas: CanvasState | Mapping[str, Scalar]) -> Mapping[str, Scalar]:
    return flatten_canvas(canvas) if isinstance(canvas, CanvasState) else canvas


def apply_diff(before: CanvasState, entries: Iterable[CanvasDiffEntry]) -> CanvasState:
    """The canvas ``entries`` make of ``before``; entries that make no valid
    canvas (a bad path, a gap in the block or run indices, a block without
    its kind or a required attribute, a value of the wrong type, a cell
    outside its table) are a ``ValidationFailure``."""
    # Flattened values are never None, so after=None always means "path removed".
    flat = flatten_canvas(before)
    for entry in entries:
        if entry.after is None:
            flat.pop(entry.path, None)
        else:
            flat[entry.path] = entry.after
    try:
        return _unflatten(flat)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValidationFailure(f"canvas diff does not apply: {exc}") from exc


def _unflatten(flat: dict[str, Scalar]) -> CanvasState:
    block_data: dict[int, dict] = {}
    selection: dict[str, Scalar] = {}
    for path, value in flat.items():
        if path.startswith("selection."):
            selection[path[len("selection."):]] = value
        elif path.startswith("blocks["):
            m = re.match(r"blocks\[(\d+)\]\.(.+)$", path)
            if not m:
                raise ValueError(f"bad diff path {path!r}")
            block_data.setdefault(int(m.group(1)), {})[m.group(2)] = value

    blocks = []
    for idx in sorted(block_data):
        data = block_data[idx]
        if idx != len(blocks):
            raise ValueError(f"non-contiguous block index {idx}")
        blocks.append(_build_block(data))
    return CanvasState(
        blocks=tuple(blocks),
        selection=build(Selection, selection) if selection else None,
        page_border=flat.get("page_border"),
    )


def _build_block(data: dict):
    kind = data.pop("kind")
    cls = BLOCK_CLASSES.get(kind)
    if cls is None:
        raise ValueError(f"unknown block kind {kind!r}")
    if cls is Paragraph:
        runs_data: dict[int, dict] = {}
        for key, value in data.items():
            m = re.match(r"runs\[(\d+)\]\.(\w+)$", key)
            if not m:
                raise ValueError(f"bad paragraph path {key!r}")
            runs_data.setdefault(int(m.group(1)), {})[m.group(2)] = value
        runs = []
        for j in sorted(runs_data):
            if j != len(runs):
                raise ValueError(f"non-contiguous run index {j}")
            runs.append(build(Run, runs_data[j]))
        return Paragraph(runs=tuple(runs))
    block = build(cls, data)
    if cls is Table:
        grid = [list(row) for row in block.cells]
        for key, value in data.items():
            m = re.match(r"cells\[(\d+)\]\[(\d+)\]$", key)
            if m:
                grid[int(m.group(1))][int(m.group(2))] = str(value)
        block = replace(block, cells=tuple(map(tuple, grid)))
    return block
