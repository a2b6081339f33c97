"""The inverse of ``env_sim.diff_canvas``, kept as a test reference: the
program only reads diffs, and the tests check with ``apply_diff`` that a diff
says everything that changed (``apply_diff(before, diff_canvas(before,
after)) == after``) and that entries which make no valid canvas are refused.
"""

import re
from dataclasses import replace
from typing import Iterable

from lamlab.env_sim import CanvasDiffEntry, CanvasState, Paragraph, Run, Selection, Table
from lamlab.env_sim.canvas import BLOCK_CLASSES, build
from lamlab.env_sim.diffs import Scalar, flatten_canvas
from lamlab.errors import ValidationFailure


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
        if isinstance(value, bool):  # ``build`` reads booleans as markup
            value = "true" if value else "false"
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
