"""Attribute-level canvas diffing.

A canvas flattens to a path -> scalar map; the diff of two canvases is the
path-sorted list of entries whose values differ (``before``/``after`` are
None for added/removed paths). The program only reads diffs; the tests hold
their inverse, which rebuilds the ``after`` state from ``before`` exactly.

The paths come from the block table in ``canvas``, the one description of
what each kind holds: a block's ``kind`` is its markup tag, and its scalar
paths, like a run's and the selection's, are the names ``attributes``
gives. Only a paragraph's runs and a table's cells are nested paths.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .canvas import BLOCK_TAGS, Block, CanvasState, Paragraph, Run, Selection, Table, attributes

__all__ = ["CanvasDiffEntry", "flatten_canvas", "diff_canvas"]

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
