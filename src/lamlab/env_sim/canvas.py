"""Document canvas model, its block table and its canonical markup.

The canvas is the simulated application's document content: an ordered list
of blocks (paragraph / table / figure / shape / chart / comment), an optional
single selection span, and an optional page border. All values are immutable;
actions produce new :class:`CanvasState` objects.

The block table is the one description of what each kind holds: for a run,
the selection and each block kind, its markup tag, its scalar attributes
(its dataclass fields, sorted by name, minus the nested runs and cells) and
its rendered-view line. ``attributes`` reads the scalars, ``build`` makes a
value from them and ``render_block`` draws a block's view line; the markup
codec here, the diff paths of ``diffs`` and the snapshot's rendered view all
go through these three, so a new attribute is one new dataclass field.

The canonical markup is the golden wire format: UTF-8, element attributes
sorted lexicographically, 2-space indentation, one element per line. Two
canvases are equal iff their markups are byte-identical, and
``parse_canvas(serialize_canvas(c)) == c`` for every canvas.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, fields, replace
from typing import Callable, Mapping, NamedTuple
from xml.etree import ElementTree

from ..errors import ValidationFailure

__all__ = [
    "Run",
    "Paragraph",
    "Table",
    "Figure",
    "Shape",
    "Chart",
    "Comment",
    "Selection",
    "CanvasState",
    "BLOCK_TAGS",
    "BLOCK_CLASSES",
    "attributes",
    "build",
    "render_block",
    "serialize_canvas",
    "parse_canvas",
    "paragraph_text",
    "find_text",
    "run_span_index",
]

DEFAULT_COLOR = "#000000"
DEFAULT_FONT_SIZE = 24  # half-points (12pt)

_HEX_RE = re.compile(r"^#[0-9A-F]{6}$")


@dataclass(frozen=True)
class Run:
    """One formatted text run inside a paragraph. font_size is in half-points."""

    text: str = ""
    color: str = DEFAULT_COLOR
    highlight: str | None = None
    font_size: int = DEFAULT_FONT_SIZE
    bold: bool = False

    def __post_init__(self) -> None:
        if not _HEX_RE.match(self.color):
            raise ValueError(f"run color must be #RRGGBB, got {self.color!r}")
        if self.font_size <= 0:
            raise ValueError("font_size must be positive half-points")


@dataclass(frozen=True)
class Paragraph:
    runs: tuple[Run, ...] = ()


@dataclass(frozen=True)
class Table:
    rows: int
    cols: int
    cells: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("table must have at least one row and column")
        if not self.cells:
            blank = tuple(tuple("" for _ in range(self.cols)) for _ in range(self.rows))
            object.__setattr__(self, "cells", blank)
        if len(self.cells) != self.rows or any(len(r) != self.cols for r in self.cells):
            raise ValueError("cell grid does not match rows x cols")


@dataclass(frozen=True)
class Figure:
    name: str
    caption: str = ""


@dataclass(frozen=True)
class Shape:
    shape_type: str
    width: int = 100
    height: int = 100


@dataclass(frozen=True)
class Chart:
    chart_type: str
    title: str = ""


@dataclass(frozen=True)
class Comment:
    author: str
    text: str = ""


Block = Paragraph | Table | Figure | Shape | Chart | Comment


@dataclass(frozen=True)
class Selection:
    """Character span [start, end) inside the text of one paragraph block."""

    block: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.block < 0 or self.start < 0 or self.end < self.start:
            raise ValueError(f"bad selection span ({self.block}, {self.start}, {self.end})")


@dataclass(frozen=True)
class CanvasState:
    blocks: tuple[Block, ...] = ()
    selection: Selection | None = None
    page_border: str | None = None

    def __post_init__(self) -> None:
        if self.selection is not None:
            _check_selection(self.blocks, self.selection)

    def with_selection(self, selection: Selection | None) -> "CanvasState":
        return replace(self, selection=selection)

    def with_block(self, index: int, block: Block) -> "CanvasState":
        blocks = list(self.blocks)
        blocks[index] = block
        return replace(self, blocks=tuple(blocks))

    def append_block(self, block: Block) -> "CanvasState":
        return replace(self, blocks=self.blocks + (block,))


def _check_selection(blocks: tuple[Block, ...], sel: Selection) -> None:
    if sel.block >= len(blocks) or not isinstance(blocks[sel.block], Paragraph):
        raise ValueError(f"selection references non-paragraph block {sel.block}")
    para = blocks[sel.block]
    if run_span_index(para, sel.start, sel.end) is None:
        raise ValueError("selection span does not lie inside a single run")


def paragraph_text(para: Paragraph) -> str:
    return "".join(run.text for run in para.runs)


def run_span_index(para: Paragraph, start: int, end: int) -> int | None:
    """Index of the run that fully contains [start, end), or None."""
    offset = 0
    for i, run in enumerate(para.runs):
        run_end = offset + len(run.text)
        if start >= offset and end <= run_end:
            return i
        offset = run_end
    return None


def find_text(state: CanvasState, needle: str) -> Selection | None:
    """First exact case-sensitive substring match across paragraph blocks."""
    if not needle:
        return None
    for idx, block in enumerate(state.blocks):
        if not isinstance(block, Paragraph):
            continue
        pos = paragraph_text(block).find(needle)
        if pos >= 0:
            return Selection(block=idx, start=pos, end=pos + len(needle))
    return None


# --- the block table --------------------------------------------------------

def _to_bool(value: str) -> bool:
    """A markup ``"true"``/``"false"``."""
    if value not in ("true", "false"):
        raise ValueError(f"bad boolean attribute {value!r}")
    return value == "true"


# Field annotations are strings here (``from __future__ import annotations``);
# every other scalar field holds text.
_CONVERTERS: dict[str, Callable] = {"int": int, "bool": _to_bool}


class _Kind(NamedTuple):
    tag: str
    names: tuple[str, ...]
    values: Callable[[object], tuple]
    converters: tuple[tuple[str, Callable], ...]
    view: str


def _kind(cls: type, tag: str, view: str = "") -> _Kind:
    scalars = sorted((f.name, f.type) for f in fields(cls) if not f.type.startswith("tuple"))
    names = tuple(name for name, _ in scalars)
    return _Kind(
        tag=tag,
        names=names,
        values=operator.attrgetter(*names) if names else lambda obj: (),
        converters=tuple((name, _CONVERTERS.get(type_, str)) for name, type_ in scalars),
        view=view,
    )


# Each kind's tag and view line (``str.format`` over its fields). A paragraph's
# view line is its runs with their marks (``render_block``).
_KINDS: dict[type, _Kind] = {
    Run: _kind(Run, "run"),
    Selection: _kind(Selection, "selection"),
    Paragraph: _kind(Paragraph, "paragraph"),
    Table: _kind(Table, "table", "table: {rows} x {cols}"),
    Figure: _kind(Figure, "figure", "figure: {name}"),
    Shape: _kind(Shape, "shape", "shape: {shape_type} {width}x{height}"),
    Chart: _kind(Chart, "chart", "chart: {chart_type} {title!r}"),
    Comment: _kind(Comment, "comment", "comment[{author}]: {text}"),
}

BLOCK_TAGS: dict[type, str] = {cls: _KINDS[cls].tag for cls in Block.__args__}
BLOCK_CLASSES: dict[str, type] = {tag: cls for cls, tag in BLOCK_TAGS.items()}


def attributes(obj: Run | Selection | Block) -> dict[str, object]:
    """The scalar attributes of a run, the selection or a block, sorted by
    name, with ``None`` values left out."""
    kind = _KINDS[type(obj)]
    return {name: value for name, value in zip(kind.names, kind.values(obj)) if value is not None}


def build(cls: type, attrs: Mapping[str, object]):
    """A ``cls`` (run, selection or block) from its markup attributes; a
    missing attribute takes the field's default and other keys are ignored.
    A table gets blank cells."""
    return cls(
        **{name: convert(attrs[name]) for name, convert in _KINDS[cls].converters if name in attrs}
    )


def _render_run(run: Run) -> str:
    marks = []
    if run.bold:
        marks.append("bold")
    if run.highlight:
        marks.append(f"highlight={run.highlight}")
    if run.color != DEFAULT_COLOR:
        marks.append(f"color={run.color}")
    if run.font_size != DEFAULT_FONT_SIZE:
        marks.append(f"size={run.font_size / 2:g}pt")
    return run.text + ("{" + ",".join(marks) + "}" if marks else "")


def render_block(block: Block) -> str:
    """The block's line in a snapshot's rendered view."""
    if type(block) is Paragraph:
        return "para: " + "".join(map(_render_run, block.runs))
    return _KINDS[type(block)].view.format_map(vars(block))


# --- canonical markup -------------------------------------------------------

def _escape(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
    )


def _markup(value: object) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return _escape(str(value))


def _element(obj: Run | Selection | Block, indent: str, close: str = "/>") -> str:
    attrs = "".join([f' {name}="{_markup(value)}"' for name, value in attributes(obj).items()])
    return f"{indent}<{_KINDS[type(obj)].tag}{attrs}{close}"


def serialize_canvas(state: CanvasState) -> str:
    lines = []
    root_attrs = ""
    if state.page_border is not None:
        root_attrs = f' page_border="{_escape(state.page_border)}"'
    lines.append(f"<canvas{root_attrs}>")
    for block in state.blocks:
        if type(block) is Paragraph:
            if block.runs:
                lines.append("  <paragraph>")
                lines.extend([_element(run, "    ") for run in block.runs])
                lines.append("  </paragraph>")
            else:
                lines.append("  <paragraph/>")
        elif type(block) is Table:
            lines.append(_element(block, "  ", ">"))
            for r, row in enumerate(block.cells):
                for c, cell in enumerate(row):
                    lines.append(f'    <cell col="{c}" row="{r}" text="{_escape(cell)}"/>')
            lines.append("  </table>")
        else:
            lines.append(_element(block, "  "))
    if state.selection is not None:
        lines.append(_element(state.selection, "  "))
    lines.append("</canvas>")
    return "\n".join(lines) + "\n"


def parse_canvas(text: str) -> CanvasState:
    """The canvas of a markup text; malformed markup (not XML, an unknown
    element, a missing or unconvertible attribute, a cell outside its table)
    is a ``ValidationFailure``."""
    try:
        return _parse_canvas(text)
    except (ElementTree.ParseError, KeyError, TypeError, ValueError) as exc:
        raise ValidationFailure(f"malformed canvas markup: {exc}") from exc


def _parse_canvas(text: str) -> CanvasState:
    root = ElementTree.fromstring(text)
    if root.tag != "canvas":
        raise ValueError(f"expected <canvas> root, got <{root.tag}>")
    page_border = root.attrib.get("page_border")
    blocks: list[Block] = []
    selection: Selection | None = None
    for el in root:
        cls = BLOCK_CLASSES.get(el.tag)
        if cls is Paragraph:
            runs = []
            for run_el in el:
                if run_el.tag != "run":
                    raise ValueError(f"unexpected <{run_el.tag}> inside paragraph")
                runs.append(build(Run, run_el.attrib))
            blocks.append(Paragraph(runs=tuple(runs)))
        elif cls is Table:
            table = build(Table, el.attrib)
            grid = [list(row) for row in table.cells]
            for cell_el in el:
                if cell_el.tag != "cell":
                    raise ValueError(f"unexpected <{cell_el.tag}> inside table")
                row, col = int(cell_el.attrib["row"]), int(cell_el.attrib["col"])
                if not (0 <= row < table.rows and 0 <= col < table.cols):
                    raise ValueError(
                        f"cell ({row}, {col}) outside a {table.rows} x {table.cols} table"
                    )
                grid[row][col] = cell_el.attrib.get("text", "")
            blocks.append(replace(table, cells=tuple(map(tuple, grid))))
        elif cls is not None:
            blocks.append(build(cls, el.attrib))
        elif el.tag == "selection":
            selection = build(Selection, el.attrib)
        else:
            raise ValueError(f"unknown canvas element <{el.tag}>")
    return CanvasState(blocks=tuple(blocks), selection=selection, page_border=page_border)
