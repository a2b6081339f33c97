"""Canvas model: canonical markup, selection rules, and diffing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from lamlab.env_sim import (
    CanvasDiffEntry,
    CanvasState,
    Chart,
    Comment,
    EnvSnapshot,
    Figure,
    Paragraph,
    Run,
    Selection,
    Shape,
    Table,
    diff_canvas,
    find_text,
    list_templates,
    load_template,
    paragraph_text,
    parse_canvas,
    serialize_canvas,
)
from lamlab.env_sim.diffs import flatten_canvas
from lamlab.errors import ValidationFailure

from canvas_inverse import apply_diff

TEXTS = ["", "hello world", "Test For Fun", 'quote " and & amp < > done', "line\nbreak"]

# Markup-special characters, newlines and non-ASCII text (all of which the
# markup must carry through a parse unchanged).
text_strategy = st.one_of(
    st.sampled_from(TEXTS), st.text(alphabet="aZ 9\"&<>'\néß日本€🙂", max_size=12)
)


def runs_strategy():
    return st.builds(
        Run,
        text=text_strategy,
        color=st.sampled_from(["#000000", "#FF0000", "#00B050"]),
        highlight=st.sampled_from([None, "", "yellow", "green"]),
        font_size=st.integers(min_value=1, max_value=96),
        bold=st.booleans(),
    )


@st.composite
def tables_strategy(draw):
    rows = draw(st.integers(min_value=1, max_value=3))
    cols = draw(st.integers(min_value=1, max_value=3))
    cells = tuple(tuple(draw(text_strategy) for _ in range(cols)) for _ in range(rows))
    return Table(rows=rows, cols=cols, cells=cells)


def blocks_strategy():
    return st.one_of(
        st.builds(Paragraph, runs=st.lists(runs_strategy(), max_size=3).map(tuple)),
        tables_strategy(),
        st.builds(Figure, name=text_strategy, caption=text_strategy),
        st.builds(
            Shape,
            shape_type=st.sampled_from(["rectangle", "oval", "a<b"]),
            width=st.integers(min_value=-5, max_value=500),
            height=st.integers(min_value=-5, max_value=500),
        ),
        st.builds(Chart, chart_type=st.sampled_from(["bar", "line"]), title=text_strategy),
        st.builds(Comment, author=text_strategy, text=text_strategy),
    )


@st.composite
def canvases(draw):
    """Any mix of the six block kinds, a page border or none, and a selection
    inside one run of a paragraph or none."""
    blocks = tuple(draw(st.lists(blocks_strategy(), max_size=5)))
    spans = []
    for index, block in enumerate(blocks):
        if isinstance(block, Paragraph):
            offset = 0
            for run in block.runs:
                spans.append((index, offset, offset + len(run.text)))
                offset += len(run.text)
    selection = None
    if spans and draw(st.booleans()):
        index, low, high = draw(st.sampled_from(spans))
        start = draw(st.integers(min_value=low, max_value=high))
        end = draw(st.integers(min_value=start, max_value=high))
        selection = Selection(block=index, start=start, end=end)
    page_border = draw(st.sampled_from([None, "box", "shadow", 'a "b" & <c>']))
    return CanvasState(blocks=blocks, selection=selection, page_border=page_border)


def canvas_strategy():
    return canvases()


@given(canvas_strategy())
@settings(max_examples=150, deadline=None)
def test_serialize_parse_round_trip(canvas):
    assert parse_canvas(serialize_canvas(canvas)) == canvas


@given(canvas_strategy())
@settings(max_examples=50, deadline=None)
def test_serialize_is_stable_fixed_point(canvas):
    text = serialize_canvas(canvas)
    assert serialize_canvas(parse_canvas(text)) == text


def test_canonical_markup_golden():
    canvas = CanvasState(
        blocks=(
            Paragraph(runs=(Run(text="hello world", highlight="yellow"),)),
            Table(rows=1, cols=2),
        ),
        selection=Selection(block=0, start=0, end=5),
        page_border="box",
    )
    assert serialize_canvas(canvas) == (
        '<canvas page_border="box">\n'
        "  <paragraph>\n"
        '    <run bold="false" color="#000000" font_size="24" highlight="yellow" text="hello world"/>\n'
        "  </paragraph>\n"
        '  <table cols="2" rows="1">\n'
        '    <cell col="0" row="0" text=""/>\n'
        '    <cell col="1" row="0" text=""/>\n'
        "  </table>\n"
        '  <selection block="0" end="5" start="0"/>\n'
        "</canvas>\n"
    )


def test_attributes_sorted_lexicographically():
    text = serialize_canvas(CanvasState(blocks=(Shape(shape_type="rectangle", width=9, height=7),)))
    line = [l for l in text.splitlines() if "shape" in l][0]
    keys = [part.split("=")[0] for part in line.strip().strip("<>/").split()[1:]]
    assert keys == sorted(keys)


def test_selection_must_sit_inside_one_run():
    para = Paragraph(runs=(Run(text="abc"), Run(text="def")))
    with pytest.raises(ValueError):
        CanvasState(blocks=(para,), selection=Selection(block=0, start=2, end=4))
    # Within the second run is fine.
    CanvasState(blocks=(para,), selection=Selection(block=0, start=3, end=5))


def test_selection_on_non_paragraph_rejected():
    with pytest.raises(ValueError):
        CanvasState(blocks=(Table(rows=1, cols=1),), selection=Selection(block=0, start=0, end=0))


def test_find_text_first_exact_match():
    canvas = CanvasState(
        blocks=(
            Paragraph(runs=(Run(text="hello world"),)),
            Paragraph(runs=(Run(text="hello again"),)),
        )
    )
    sel = find_text(canvas, "hello")
    assert (sel.block, sel.start, sel.end) == (0, 0, 5)
    assert find_text(canvas, "HELLO") is None  # case-sensitive
    assert find_text(canvas, "absent") is None


# --- diffing -------------------------------------------------------------


def test_diff_identical_is_empty():
    canvas = CanvasState(blocks=(Paragraph(runs=(Run(text="x"),)),))
    assert diff_canvas(canvas, canvas) == []


def _independent_line_diff(before, after):
    """Oracle: compare canonical markups line by line, then recover the
    changed attribute paths via the flattened maps."""
    import difflib

    before_lines = serialize_canvas(before).splitlines()
    after_lines = serialize_canvas(after).splitlines()
    changed = any(True for _ in difflib.unified_diff(before_lines, after_lines, lineterm=""))
    fb, fa = flatten_canvas(before), flatten_canvas(after)
    paths = {p for p in set(fb) | set(fa) if fb.get(p) != fa.get(p) or (p in fb) != (p in fa)}
    return changed, paths


def test_diff_highlight_single_entry_matches_line_oracle():
    before = CanvasState(blocks=(Paragraph(runs=(Run(text="hello world"),)),))
    after = CanvasState(blocks=(Paragraph(runs=(Run(text="hello world", highlight="yellow"),)),))
    entries = diff_canvas(before, after)
    assert len(entries) == 1
    entry = entries[0]
    assert entry.path == "blocks[0].runs[0].highlight"
    assert entry.before is None
    assert entry.after == "yellow"
    changed, oracle_paths = _independent_line_diff(before, after)
    assert changed
    assert {e.path for e in entries} == oracle_paths


def test_diff_font_size_change():
    before = CanvasState(blocks=(Paragraph(runs=(Run(text="x", font_size=24),)),))
    after = CanvasState(blocks=(Paragraph(runs=(Run(text="x", font_size=28),)),))
    entries = diff_canvas(before, after)
    assert [(e.path, e.before, e.after) for e in entries] == [
        ("blocks[0].runs[0].font_size", 24, 28)
    ]


def test_diff_paths_sorted():
    before = CanvasState()
    after = CanvasState(
        blocks=(Paragraph(runs=(Run(text="a"),)), Table(rows=1, cols=1)),
        page_border="box",
    )
    entries = diff_canvas(before, after)
    keys = [e.path for e in entries]
    assert keys == sorted(keys, key=lambda p: [t for t in p.replace("]", "").split("[")])
    assert all(e.before is None for e in entries)


def test_diff_empty_iff_serializations_equal():
    rng = random.Random(7)
    canvases = [_random_canvas(rng) for _ in range(30)]
    for a in canvases:
        for b in canvases[:10]:
            empty = diff_canvas(a, b) == []
            assert empty == (serialize_canvas(a) == serialize_canvas(b))


def _random_canvas(rng):
    blocks = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.randint(0, 5)
        if kind == 0:
            blocks.append(
                Paragraph(
                    runs=tuple(
                        Run(
                            text=rng.choice(TEXTS),
                            highlight=rng.choice([None, "yellow"]),
                            bold=rng.random() < 0.5,
                            font_size=rng.choice([20, 24, 28]),
                        )
                        for _ in range(rng.randint(0, 2))
                    )
                )
            )
        elif kind == 1:
            blocks.append(Table(rows=rng.randint(1, 3), cols=rng.randint(1, 3)))
        elif kind == 2:
            blocks.append(Figure(name="f.png", caption=rng.choice(TEXTS)))
        elif kind == 3:
            blocks.append(Shape(shape_type="rectangle", width=rng.randint(1, 300), height=10))
        elif kind == 4:
            blocks.append(Chart(chart_type="bar", title=rng.choice(TEXTS)))
        else:
            blocks.append(Comment(author="Reviewer", text=rng.choice(TEXTS)))
    return CanvasState(blocks=tuple(blocks), page_border=rng.choice([None, "box"]))


def test_apply_diff_reconstructs_after():
    rng = random.Random(21)
    for _ in range(60):
        before = _random_canvas(rng)
        after = _random_canvas(rng)
        entries = diff_canvas(before, after)
        assert apply_diff(before, entries) == after


@given(canvas_strategy(), canvas_strategy())
@settings(max_examples=150, deadline=None)
def test_apply_diff_inverts_diff(before, after):
    assert apply_diff(before, diff_canvas(before, after)) == after


def _markup(*blocks: str) -> str:
    return "<canvas>\n" + "".join(f"  {b}\n" for b in blocks) + "</canvas>\n"


_ONE_CELL = '<table cols="1" rows="1">{}</table>'


@pytest.mark.parametrize(
    "markup",
    [
        _markup('<figure caption="x"/>'),
        _markup("<paragraph>"),
        "not markup at all",
        _markup(_ONE_CELL.format('<cell col="0" row="5" text="x"/>')),
        _markup(_ONE_CELL.format('<cell col="0" row="-1" text="x"/>')),
        _markup(_ONE_CELL.format('<cell col="0" text="x"/>')),
        _markup('<table cols="1" rows="two"/>'),
        _markup('<paragraph><run bold="maybe" text="x"/></paragraph>'),
        _markup('<paragraph><run color="red" text="x"/></paragraph>'),
        _markup("<video/>"),
        "<document/>",
    ],
    ids=[
        "missing_required_attribute",
        "truncated",
        "not_xml",
        "cell_outside_grid",
        "negative_cell_index",
        "cell_without_row",
        "non_integer_rows",
        "bad_boolean",
        "bad_color",
        "unknown_element",
        "wrong_root",
    ],
)
def test_malformed_markup_is_a_validation_failure(markup):
    with pytest.raises(ValidationFailure, match="malformed canvas markup"):
        parse_canvas(markup)


_TABLE_DOC = CanvasState(blocks=(Paragraph(runs=(Run(text="hi"),)), Table(rows=1, cols=1)))


@pytest.mark.parametrize(
    "path, after",
    [
        ("blocks[1].cells[5][0]", "x"),
        ("blocks[1].rows", "two"),
        ("blocks[1].rows", [2]),
        ("blocks[0].runs[0].bold", "maybe"),
        ("blocks[0].runs[0].color", "red"),
        ("blocks[0].runs[3].text", "gap"),
        ("blocks[0].heading", "x"),
        ("blocks[2].rows", 1),
        ("blocks[1].kind", "video"),
        ("blocks[1].kind", None),
        ("blocks[1]", "x"),
        ("selection.block", 1),
    ],
    ids=[
        "cell_outside_grid",
        "non_integer_rows",
        "list_rows",
        "bad_boolean",
        "bad_color",
        "run_index_gap",
        "bad_paragraph_path",
        "block_without_kind",
        "unknown_kind",
        "kind_removed",
        "bad_block_path",
        "incomplete_selection",
    ],
)
def test_diff_that_does_not_apply_is_a_validation_failure(path, after):
    entry = CanvasDiffEntry(path=path, before=None, after=after)
    with pytest.raises(ValidationFailure, match="canvas diff does not apply"):
        apply_diff(_TABLE_DOC, [entry])


# --- the block table against the codecs it replaced --------------------------
# The serializer, the flattener and the rendered view as they were written out
# per block kind before the block table described every kind once; the table's
# codecs must give the same bytes and the same paths.

_REF_BLOCK_TAGS: dict[type, str] = {
    Paragraph: "paragraph",
    Table: "table",
    Figure: "figure",
    Shape: "shape",
    Chart: "chart",
    Comment: "comment",
}


def _ref_escape(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
    )


def _ref_attr_str(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _ref_element(tag: str, attrs: dict[str, object], indent: int) -> str:
    parts = [f'{k}="{_ref_escape(_ref_attr_str(v))}"' for k, v in sorted(attrs.items())]
    body = (" " + " ".join(parts)) if parts else ""
    return f'{"  " * indent}<{tag}{body}/>'


def reference_serialize_canvas(state: CanvasState) -> str:
    lines = []
    root_attrs = ""
    if state.page_border is not None:
        root_attrs = f' page_border="{_ref_escape(state.page_border)}"'
    lines.append(f"<canvas{root_attrs}>")
    for block in state.blocks:
        tag = _REF_BLOCK_TAGS[type(block)]
        if isinstance(block, Paragraph):
            if block.runs:
                lines.append(f"  <{tag}>")
                for run in block.runs:
                    attrs: dict[str, object] = {
                        "bold": run.bold,
                        "color": run.color,
                        "font_size": run.font_size,
                        "text": run.text,
                    }
                    if run.highlight is not None:
                        attrs["highlight"] = run.highlight
                    lines.append(_ref_element("run", attrs, 2))
                lines.append(f"  </{tag}>")
            else:
                lines.append(f"  <{tag}/>")
        elif isinstance(block, Table):
            lines.append(f'  <{tag} cols="{block.cols}" rows="{block.rows}">')
            for r, row in enumerate(block.cells):
                for c, cell in enumerate(row):
                    lines.append(_ref_element("cell", {"col": c, "row": r, "text": cell}, 2))
            lines.append(f"  </{tag}>")
        elif isinstance(block, Figure):
            lines.append(_ref_element(tag, {"caption": block.caption, "name": block.name}, 1))
        elif isinstance(block, Shape):
            lines.append(
                _ref_element(
                    tag,
                    {"height": block.height, "shape_type": block.shape_type, "width": block.width},
                    1,
                )
            )
        elif isinstance(block, Chart):
            lines.append(_ref_element(tag, {"chart_type": block.chart_type, "title": block.title}, 1))
        elif isinstance(block, Comment):
            lines.append(_ref_element(tag, {"author": block.author, "text": block.text}, 1))
    if state.selection is not None:
        sel = state.selection
        lines.append(
            _ref_element("selection", {"block": sel.block, "end": sel.end, "start": sel.start}, 1)
        )
    lines.append("</canvas>")
    return "\n".join(lines) + "\n"


def reference_flatten_canvas(state: CanvasState) -> dict:
    flat: dict = {}
    if state.page_border is not None:
        flat["page_border"] = state.page_border
    if state.selection is not None:
        flat["selection.block"] = state.selection.block
        flat["selection.start"] = state.selection.start
        flat["selection.end"] = state.selection.end
    for i, block in enumerate(state.blocks):
        base = f"blocks[{i}]"
        if isinstance(block, Paragraph):
            flat[f"{base}.kind"] = "paragraph"
            for j, run in enumerate(block.runs):
                rb = f"{base}.runs[{j}]"
                flat[f"{rb}.text"] = run.text
                flat[f"{rb}.color"] = run.color
                flat[f"{rb}.font_size"] = run.font_size
                flat[f"{rb}.bold"] = run.bold
                if run.highlight is not None:
                    flat[f"{rb}.highlight"] = run.highlight
        elif isinstance(block, Table):
            flat[f"{base}.kind"] = "table"
            flat[f"{base}.rows"] = block.rows
            flat[f"{base}.cols"] = block.cols
            for r, row in enumerate(block.cells):
                for c, cell in enumerate(row):
                    flat[f"{base}.cells[{r}][{c}]"] = cell
        elif isinstance(block, Figure):
            flat[f"{base}.kind"] = "figure"
            flat[f"{base}.name"] = block.name
            flat[f"{base}.caption"] = block.caption
        elif isinstance(block, Shape):
            flat[f"{base}.kind"] = "shape"
            flat[f"{base}.shape_type"] = block.shape_type
            flat[f"{base}.width"] = block.width
            flat[f"{base}.height"] = block.height
        elif isinstance(block, Chart):
            flat[f"{base}.kind"] = "chart"
            flat[f"{base}.chart_type"] = block.chart_type
            flat[f"{base}.title"] = block.title
        elif isinstance(block, Comment):
            flat[f"{base}.kind"] = "comment"
            flat[f"{base}.author"] = block.author
            flat[f"{base}.text"] = block.text
    return flat


def reference_rendered_view(snapshot) -> str:
    lines = ["=== window ==="]
    for item in snapshot.control_list:
        lines.append(
            f"[{item['label']}] {item['control_type']} {item['control_text']!r}"
        )
    lines.append("=== document ===")
    for block in snapshot.canvas.blocks:
        if isinstance(block, Paragraph):
            decorated = []
            for run in block.runs:
                marks = []
                if run.bold:
                    marks.append("bold")
                if run.highlight:
                    marks.append(f"highlight={run.highlight}")
                if run.color != "#000000":
                    marks.append(f"color={run.color}")
                if run.font_size != 24:
                    marks.append(f"size={run.font_size / 2:g}pt")
                suffix = "{" + ",".join(marks) + "}" if marks else ""
                decorated.append(run.text + suffix)
            lines.append("para: " + "".join(decorated))
        elif isinstance(block, Table):
            lines.append(f"table: {block.rows} x {block.cols}")
        elif isinstance(block, Figure):
            lines.append(f"figure: {block.name}")
        elif isinstance(block, Shape):
            lines.append(f"shape: {block.shape_type} {block.width}x{block.height}")
        elif isinstance(block, Chart):
            lines.append(f"chart: {block.chart_type} {block.title!r}")
        elif isinstance(block, Comment):
            lines.append(f"comment[{block.author}]: {block.text}")
    if snapshot.canvas.page_border:
        lines.append(f"page border: {snapshot.canvas.page_border}")
    if snapshot.canvas.selection:
        sel = snapshot.canvas.selection
        para = snapshot.canvas.blocks[sel.block]
        lines.append(f"selection: {paragraph_text(para)[sel.start:sel.end]!r}")
    return "\n".join(lines) + "\n"


@given(canvas_strategy())
@settings(max_examples=200, deadline=None)
def test_serialize_equals_reference(canvas):
    assert serialize_canvas(canvas) == reference_serialize_canvas(canvas)


def _typed(flat: dict) -> list:
    return sorted((path, type(value).__name__, value) for path, value in flat.items())


@given(canvas_strategy())
@settings(max_examples=200, deadline=None)
def test_flatten_equals_reference(canvas):
    assert _typed(flatten_canvas(canvas)) == _typed(reference_flatten_canvas(canvas))


@given(st.sampled_from(list_templates()), canvas_strategy())
@settings(max_examples=200, deadline=None)
def test_rendered_view_equals_reference(template_id, canvas):
    snapshot = EnvSnapshot(controls=load_template(template_id).controls, canvas=canvas)
    assert snapshot.rendered_view() == reference_rendered_view(snapshot)


def test_strategy_covers_every_kind_and_mark():
    """The canvases above reach every block kind, a selection, non-ASCII and
    markup-special text, and both set and unset highlights."""
    seen = set()

    @given(canvas_strategy())
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    def collect(canvas):
        seen.update(type(block).__name__ for block in canvas.blocks)
        runs = [run for block in canvas.blocks if isinstance(block, Paragraph) for run in block.runs]
        seen.update("highlight" if run.highlight else "no highlight" for run in runs)
        seen.update("color" for run in runs if run.color != "#000000")
        seen.update("size" for run in runs if run.font_size != 24)
        markup = serialize_canvas(canvas)
        seen.update(mark for mark in ("&amp;", "&lt;", "&quot;", "&#10;", "é") if mark in markup)
        if canvas.selection is not None:
            seen.add("selection")

    collect()
    assert seen >= {
        "Paragraph", "Table", "Figure", "Shape", "Chart", "Comment", "selection",
        "highlight", "no highlight", "color", "size", "&amp;", "&lt;", "&quot;", "&#10;", "é",
    }
