"""Simulated application: templates, control listing/resolution, execution."""

import json
import operator

import pytest
from hypothesis import given, settings, strategies as st

from lamlab.env_sim import (
    REGISTRY,
    ActionCall,
    CanvasState,
    ControlNode,
    EnvSnapshot,
    Paragraph,
    Run,
    apply_action,
    assign_labels,
    control_tree_dict,
    diff_canvas,
    flatten_controls,
    get_template,
    list_controls,
    list_templates,
    load_template,
    needs_selection,
    resolve_in_tree,
    serialize_canvas,
)
from lamlab.errors import AmbiguousControl, UnknownControl, UnknownTemplate
from lamlab.jsonl import canonical_dumps, sha256_text


def snap(controls: ControlNode, blocks=()) -> EnvSnapshot:
    return EnvSnapshot(controls=assign_labels(controls), canvas=CanvasState(blocks=tuple(blocks)))


def assert_views_recomputed(s: EnvSnapshot) -> None:
    """The memoized views of ``s`` equal the same views computed from scratch."""
    assert s.digest() == sha256_text(s.serialize())[:16]
    assert list_controls(s) == flatten_controls(s.controls)
    twin = EnvSnapshot(controls=s.controls, canvas=s.canvas, step_index=s.step_index)
    assert s.rendered_view() == twin.rendered_view()


def simple_tree(**kwargs) -> ControlNode:
    return ControlNode(
        "Root",
        "Document",
        children=(
            ControlNode("Alpha", "Button"),
            ControlNode("Beta", "Button", **kwargs),
        ),
    )


# --- templates -----------------------------------------------------------


def test_bundle_has_at_least_six_templates():
    templates = list_templates()
    assert len(templates) >= 6


def test_bundle_covers_all_block_kinds():
    kinds = set()
    for template_id in list_templates():
        canvas = load_template(template_id).canvas
        kinds.update(type(b).__name__ for b in canvas.blocks)
    assert kinds >= {"Paragraph", "Table", "Figure", "Shape", "Chart", "Comment"}


def test_load_template_rect_shape_contains_shape_block():
    snapshot = load_template("rect_shape")
    assert any(type(b).__name__ == "Shape" for b in snapshot.canvas.blocks)
    assert snapshot.step_index == 0


def test_load_template_unknown():
    with pytest.raises(UnknownTemplate):
        load_template("missing")


def test_load_template_twice_identical():
    a, b = load_template("plain_text"), load_template("plain_text")
    assert a.serialize() == b.serialize()


# --- list_controls ---------------------------------------------------------


def test_labels_assigned_in_visit_order():
    s = snap(simple_tree())
    listed = list_controls(s)
    assert [c["label"] for c in listed] == ["1", "2", "3"]
    assert [c["control_text"] for c in listed] == ["Root", "Alpha", "Beta"]


def test_disabled_control_absent():
    s = snap(simple_tree(enabled=False))
    listed = list_controls(s)
    assert all(c["control_text"] != "Beta" for c in listed)
    assert [c["label"] for c in listed] == ["1", "2"]


def _recursive_flatten(node, out):
    """Independent flattener used as the ordering oracle."""
    if not node.enabled:
        return out
    out.append(node.control_text)
    for child in node.children:
        _recursive_flatten(child, out)
    return out


def test_nested_order_matches_independent_flattener():
    tree = ControlNode(
        "Root",
        "Document",
        children=(
            ControlNode(
                "Tabs",
                "TabItem",
                children=(ControlNode("Inner", "Button"), ControlNode("Deep", "TabItem")),
            ),
            ControlNode("Late", "Button"),
        ),
    )
    s = snap(tree)
    expected = _recursive_flatten(tree, [])
    assert [c["control_text"] for c in list_controls(s)] == expected
    # Parent precedes child.
    texts = [c["control_text"] for c in list_controls(s)]
    assert texts.index("Tabs") < texts.index("Inner")


# --- resolve_in_tree ---------------------------------------------------------


def test_resolve_by_label_has_priority():
    s = snap(simple_tree())
    node = resolve_in_tree(s.controls, label="2", text="Beta")
    assert node.control_text == "Alpha"


def test_resolve_alias_highlight():
    s = load_template("plain_text")
    node = resolve_in_tree(s.controls, text="Highlight")
    assert node.control_text == "Text Highlight Color"


def test_resolve_whitespace_normalized():
    s = load_template("plain_text")
    node = resolve_in_tree(s.controls, text="  text   highlight   color ")
    assert node.control_text == "Text Highlight Color"


def test_resolve_ambiguous():
    tree = ControlNode(
        "Root",
        "Document",
        children=(ControlNode("Copy", "Button"), ControlNode("Copy", "Button")),
    )
    with pytest.raises(AmbiguousControl):
        resolve_in_tree(snap(tree).controls, text="Copy")


def test_resolve_unknown():
    with pytest.raises(UnknownControl):
        resolve_in_tree(snap(simple_tree()).controls, text="Nope")


# --- apply_action --------------------------------------------------------------


def para_snapshot(text="hello world"):
    return snap(load_template("plain_text").controls, blocks=(Paragraph(runs=(Run(text=text),)),))


def test_select_text_sets_span():
    s = para_snapshot("hello world")
    s2, result = apply_action(s, ActionCall(function="select_text", args={"text": "hello"}))
    assert result.ok
    sel = s2.canvas.selection
    assert (sel.block, sel.start, sel.end) == (0, 0, 5)
    assert s2.step_index == s.step_index + 1


def test_click_highlight_with_selection_applies_yellow():
    s = para_snapshot("hello world")
    s, _ = apply_action(s, ActionCall(function="select_text", args={"text": "hello world"}))
    s2, result = apply_action(
        s,
        ActionCall(
            function="click_input",
            control_text="Text Highlight Color",
            args={"button": "left", "double": False},
        ),
    )
    assert result.ok
    assert s2.canvas.blocks[0].runs[0].highlight == "yellow"


def test_unknown_function_leaves_snapshot_unchanged():
    s = para_snapshot()
    s2, result = apply_action(s, ActionCall(function="fly", args={}))
    assert not result.ok
    assert result.error == "UnknownFunction"
    assert s2 is s


def test_disabled_control_click():
    s = load_template("table_doc")  # Delete Comment disabled in this template
    s2, result = apply_action(
        s, ActionCall(function="click_input", control_text="Delete Comment", args={})
    )
    assert result.error == "DisabledControl"
    assert s2 is s


def test_missing_selection_is_bad_args():
    s = para_snapshot()
    _, result = apply_action(s, ActionCall(function="toggle_bold", args={}))
    assert result.error == "BadArgs"


def test_set_font_size_half_points():
    s = para_snapshot("resize me")
    s, _ = apply_action(s, ActionCall(function="select_text", args={"text": "resize"}))
    s2, result = apply_action(s, ActionCall(function="set_font_size", args={"size": 14}))
    assert result.ok
    assert s2.canvas.blocks[0].runs[0].font_size == 28


@pytest.mark.parametrize(
    "action",
    [
        ActionCall(function="set_font_size", args={"size": float("inf")}),
        ActionCall(function="set_font_size", args={"size": float("nan")}),
        ActionCall(function="set_edit_text", control_text="Font Size", args={"text": "inf"}),
        ActionCall(function="set_edit_text", control_text="Font Size", args={"text": "nan"}),
    ],
    ids=["size_inf", "size_nan", "edit_inf", "edit_nan"],
)
def test_non_finite_font_size_is_bad_args(action):
    s = para_snapshot("resize me")
    s, _ = apply_action(s, ActionCall(function="select_text", args={"text": "resize"}))
    s2, result = apply_action(s, action)
    assert result.error == "BadArgs"
    assert s2 is s


def test_insert_table_and_border():
    s = para_snapshot()
    s, r1 = apply_action(s, ActionCall(function="insert_table", args={"rows": 2, "cols": 3}))
    s, r2 = apply_action(s, ActionCall(function="insert_page_border", args={}))
    assert r1.ok and r2.ok
    assert s.canvas.blocks[-1].rows == 2
    assert s.canvas.page_border == "box"


def test_type_keys_appends_run():
    s = para_snapshot("start")
    s2, result = apply_action(s, ActionCall(function="type_keys", args={"text": " end"}))
    assert result.ok
    assert [r.text for r in s2.canvas.blocks[0].runs] == ["start", " end"]


def test_select_option_in_combo():
    s = load_template("plain_text")
    s2, result = apply_action(
        s,
        ActionCall(function="select_option", control_text="Styles", args={"option": "Heading 1"}),
    )
    assert result.ok
    styles = resolve_in_tree(s2.controls, text="Styles")
    selected = [c.control_text for c in styles.children if c.selected]
    assert selected == ["Heading 1"]


def test_purity_same_inputs_same_outputs():
    s = para_snapshot("hello world")
    action = ActionCall(function="select_text", args={"text": "world"})
    out1, res1 = apply_action(s, action)
    out2, res2 = apply_action(s, action)
    assert out1.serialize() == out2.serialize()
    assert res1 == res2


# Arguments each registry function accepts; a new function needs an entry.
_VALID_ARGS = {
    "click_input": {"button": "left", "double": False},
    "set_edit_text": {"text": "14"},
    "type_keys": {"text": "more"},
    "select_text": {"text": "Report"},
    "select_option": {"option": "Quote"},
    "scroll": {"direction": "down", "amount": 2},
    "toggle_highlight": {"color": "green"},
    "set_font_size": {"size": 14},
    "set_font_color": {"color": "red"},
    "insert_page_border": {"style": "box"},
    "insert_table": {"rows": 2, "cols": 3},
    "toggle_bold": {},
}


@pytest.mark.parametrize("template_id", list_templates())
def test_call_without_selection_fails_iff_needs_selection(template_id):
    s = load_template(template_id)
    assert s.canvas.selection is None
    for control in list_controls(s):
        for function in REGISTRY:
            action = ActionCall(
                control_label=control["label"],
                control_text=control["control_text"],
                function=function,
                args=_VALID_ARGS[function],
            )
            _, result = apply_action(s, action)
            failed = result.error == "BadArgs" and result.observation == "no active text selection"
            assert failed == needs_selection(function, control["control_text"]), (control, function)


@pytest.mark.parametrize(
    "control_text, control_call, function, args",
    [
        ("Bold", ("click_input", {}), "toggle_bold", {}),
        ("Font Color", ("click_input", {}), "set_font_color", {"color": "red"}),
        ("Page Borders", ("click_input", {}), "insert_page_border", {}),
        ("Font Size", ("set_edit_text", {"text": "14"}), "set_font_size", {"size": 14}),
    ],
    ids=["bold", "font_color", "page_borders", "font_size"],
)
@pytest.mark.parametrize("template_id", list_templates())
def test_ribbon_call_equals_the_function_it_runs(template_id, control_text, control_call, function, args):
    s = load_template(template_id)
    first_run = next(b.runs[0].text for b in s.canvas.blocks if isinstance(b, Paragraph))
    s, result = apply_action(s, ActionCall(function="select_text", args={"text": first_run}))
    assert result.ok
    control_function, control_args = control_call
    via_control = apply_action(
        s, ActionCall(control_text=control_text, function=control_function, args=control_args)
    )
    direct = apply_action(s, ActionCall(function=function, args=args))
    assert via_control[1].ok
    assert via_control[1] == direct[1]
    assert via_control[0].digest() == direct[0].digest()


_FUNCTIONS = st.sampled_from(
    [
        "click_input",
        "set_edit_text",
        "type_keys",
        "select_text",
        "select_option",
        "scroll",
        "toggle_highlight",
        "set_font_size",
        "set_font_color",
        "insert_page_border",
        "insert_table",
        "toggle_bold",
        "fly",
        "",
    ]
)

_ARGS = st.fixed_dictionaries(
    {},
    optional={
        "text": st.sampled_from(["hello", "", "zz"]),
        "option": st.sampled_from(["Normal", "bogus"]),
        "size": st.sampled_from([0, 12, -3]),
        "rows": st.sampled_from([1, 2, 0]),
        "cols": st.sampled_from([2, 99]),
        "color": st.sampled_from(["red", "nope"]),
        "button": st.sampled_from(["left", "middle"]),
        "double": st.booleans(),
    },
)


_ACTIONS = st.builds(
    lambda function, args, label, text: ActionCall(
        function=function, control_label=label, control_text=text, args=args
    ),
    function=_FUNCTIONS,
    args=_ARGS,
    label=st.sampled_from(["", "1", "2", "8", "99"]),
    text=st.sampled_from(["", "Bold", "Styles", "Nope", "Vertical Scroll Bar"]),
)


@given(
    template_id=st.sampled_from(list_templates()),
    actions=st.lists(_ACTIONS, min_size=1, max_size=6),
)
@settings(max_examples=250, deadline=None)
def test_error_totality(template_id, actions):
    """Along any action sequence on any template, every action yields either
    a successor snapshot or exactly one typed error with the input snapshot
    returned as it was; never both, never neither. The memoized views of
    every snapshot along the way equal a from-scratch computation."""
    s = load_template(template_id)
    assert_views_recomputed(s)
    for action in actions:
        before = s.serialize()
        s2, result = apply_action(s, action)
        if result.ok:
            assert result.error is None
            assert s2 is not s
            assert s2.step_index == s.step_index + 1
        else:
            assert result.error in (
                "UnknownFunction",
                "UnknownControl",
                "AmbiguousControl",
                "BadArgs",
                "DisabledControl",
            )
            assert s2 is s
        assert s.serialize() == before
        assert_views_recomputed(s2)
        s = s2


def test_diff_soundness_over_action_transitions():
    from canvas_inverse import apply_diff

    s = load_template("plain_text")
    actions = [
        ActionCall(function="select_text", args={"text": "Test For Fun"}),
        ActionCall(function="toggle_highlight", args={}),
        ActionCall(function="toggle_bold", args={}),
        ActionCall(function="insert_table", args={"rows": 2, "cols": 2}),
        ActionCall(function="type_keys", args={"text": "more"}),
        ActionCall(function="insert_page_border", args={"style": "shadow"}),
    ]
    for action in actions:
        before = s.canvas
        s, result = apply_action(s, action)
        assert result.ok, result
        entries = diff_canvas(before, s.canvas)
        assert apply_diff(before, entries) == s.canvas


def test_rendered_view_pure_function_of_state():
    a = load_template("chart_doc")
    b = load_template("chart_doc")
    assert a.rendered_view() == b.rendered_view()
    s2, _ = apply_action(a, ActionCall(function="insert_page_border", args={}))
    assert s2.rendered_view() != a.rendered_view()


# The initial digest of every template, in id order. A change to a template
# builder shows here, and would change every corpus and checkpoint built on it.
TEMPLATE_DIGESTS = {
    "chart_doc": "d622a0ff6fef0d9b",
    "comments_doc": "b1db9df5a979e464",
    "figure_doc": "9cef4006e06a4470",
    "plain_text": "0219de6def4ec7f5",
    "rect_shape": "867d5c0f71a548f5",
    "report_doc": "ea6b546163c2ea1d",
    "table_doc": "4a4203ca0e9557c6",
}


def test_templates_are_pinned():
    assert list_templates() == list(TEMPLATE_DIGESTS)
    for template_id, digest in TEMPLATE_DIGESTS.items():
        assert load_template(template_id).digest() == digest


# The document part of every template's initial rendered view (one line per
# block, as ``canvas.render_block`` draws it), and a digest of the whole view.
TEMPLATE_VIEWS = {
    "chart_doc": ("2029199e0b6c3bdf", "para: Sales overview text\nchart: bar 'Sales by region'\n"),
    "comments_doc": (
        "70a2b8fdbcb2cb1b",
        "para: Reviewed draft paragraph\ncomment[Reviewer]: Please check this section.\n",
    ),
    "figure_doc": ("7e729329787966e0", "para: Figure caption text\nfigure: diagram.png\n"),
    "plain_text": ("db48d7c1391c4dce", "para: Test For Fun\npara: hello world and more words here\n"),
    "rect_shape": ("b2cd99c6717e9960", "para: Shape demo text\nshape: rectangle 200x100\n"),
    "report_doc": (
        "f1fdc1fbae6be03e",
        "para: Quarterly Report\npara: The project is on track this quarter.\n"
        "para: Key sentence about the budget.\n",
    ),
    "table_doc": ("1729392db0430409", "para: Quarterly data overview\ntable: 2 x 3\n"),
}


def test_template_rendered_views_are_pinned():
    assert list_templates() == list(TEMPLATE_VIEWS)
    for template_id, (digest, document) in TEMPLATE_VIEWS.items():
        view = load_template(template_id).rendered_view()
        assert view.split("=== document ===\n")[1] == document
        assert sha256_text(view)[:16] == digest


# --- memoized views and the shared templates ---------------------------------


def canonical_serialization(s: EnvSnapshot) -> str:
    return canonical_dumps(
        {
            "canvas": serialize_canvas(s.canvas),
            "controls": control_tree_dict(s.controls),
            "step_index": s.step_index,
        }
    )


@given(template_id=st.sampled_from(list_templates()), data=st.data())
@settings(max_examples=150, deadline=None)
def test_serialize_equals_canonical_dumps_along_action_sequences(template_id, data):
    """Along any action sequence on any template, ``serialize`` is byte-equal
    to ``canonical_dumps`` of the snapshot's parts, and a successor that kept
    its predecessor's control tree shares its control dicts."""
    s = load_template(template_id)
    assert s.serialize() == canonical_serialization(s)
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        labels = [c["label"] for c in list_controls(s)]
        action = ActionCall(
            function=data.draw(_FUNCTIONS, label="function"),
            control_label=data.draw(st.sampled_from(labels + [""]), label="label"),
            args=data.draw(_ARGS, label="args"),
        )
        s2, result = apply_action(s, action)
        assert s2.serialize() == canonical_serialization(s2)
        if result.ok and s2.controls is s.controls:
            assert all(map(operator.is_, list_controls(s2), list_controls(s)))
        assert list_controls(s2) == flatten_controls(s2.controls)
        s = s2


def test_kept_control_tree_is_flattened_and_encoded_once():
    s = load_template("plain_text")
    selected, result = apply_action(s, ActionCall(function="select_text", args={"text": "Test For Fun"}))
    assert result.ok and selected.controls is s.controls
    assert all(map(operator.is_, list_controls(selected), list_controls(s)))
    assert selected.serialize() == canonical_serialization(selected)

    tab = next(c for c in list_controls(s) if c["control_type"] == "TabItem" and c["label"] != "1")
    clicked, result = apply_action(s, ActionCall(function="click_input", control_label=tab["label"]))
    assert result.ok and clicked.controls is not s.controls
    assert list_controls(clicked) == flatten_controls(clicked.controls)
    assert not any(map(operator.is_, list_controls(clicked), list_controls(s)))
    assert clicked.serialize() == canonical_serialization(clicked)


def test_views_match_recomputation_on_every_template():
    for template_id in list_templates():
        s = load_template(template_id)
        assert_views_recomputed(s)
        assert_views_recomputed(s)
        assert s.rendered_view() == get_template(template_id).fresh_snapshot().rendered_view()


def test_views_match_recomputation_along_suite_agent_runs():
    from lamlab.agent import ScriptedPolicy, run_task
    from lamlab.fixtures import load_suite

    runs = 0
    for task in load_suite():
        if not task["expert"]:
            continue
        policy = ScriptedPolicy(tuple(ActionCall.from_call_dict(a) for a in task["expert"]))
        record = run_task(policy, task["template_id"], task["task"])
        s = load_template(task["template_id"])
        for step in record.trajectory.steps:
            assert step.pre_digest == sha256_text(s.serialize())[:16]
            assert list(step.controls) == flatten_controls(s.controls)
            s, result = apply_action(s, step.action)
            assert result == step.result
            assert step.post_digest == sha256_text(s.serialize())[:16]
            assert_views_recomputed(s)
        twin = EnvSnapshot(controls=s.controls, canvas=s.canvas, step_index=s.step_index)
        assert record.trajectory.final_rendered == twin.rendered_view()
        runs += 1
    assert runs >= 30


def test_list_controls_returns_a_new_list_each_call():
    s = load_template("plain_text")
    listed = list_controls(s)
    listed.pop()
    listed.append({"label": "x", "control_text": "x", "control_type": "Button"})
    listed.reverse()
    assert list_controls(s) == flatten_controls(s.controls)
    assert list_controls(s) is not list_controls(s)


def test_run_task_never_parses_a_template(monkeypatch):
    import sys

    from lamlab.agent import ScriptedPolicy, run_task
    from lamlab.env_sim import canvas as canvas_module

    parses = []
    original = canvas_module.parse_canvas

    def counting_parse(text):
        parses.append(text)
        return original(text)

    for module in list(sys.modules.values()):
        if getattr(module, "parse_canvas", None) is original:
            monkeypatch.setattr(module, "parse_canvas", counting_parse)
    action = ActionCall(function="select_text", args={"text": "Test For Fun"})
    records = [
        run_task(ScriptedPolicy((action,)), "plain_text", "Select it.") for _ in range(5)
    ]
    assert parses == []
    assert all(r.trajectory.steps[0].result.ok for r in records)
    assert load_template("plain_text") is load_template("plain_text")


def test_a_template_canvas_is_flattened_once_across_runs(monkeypatch):
    import sys

    from lamlab.agent import ScriptedPolicy, run_task
    from lamlab.env_sim import diffs, parse_canvas

    flattened = []
    original = diffs.flatten_canvas

    def counting_flatten(canvas):
        flattened.append(canvas)
        return original(canvas)

    for module in list(sys.modules.values()):
        if getattr(module, "flatten_canvas", None) is original:
            monkeypatch.setattr(module, "flatten_canvas", counting_flatten)
    initial = load_template("plain_text")
    action = ActionCall(function="select_text", args={"text": "Test For Fun"})
    records = [
        run_task(ScriptedPolicy((action,)), "plain_text", "Select it.") for _ in range(5)
    ]
    assert sum(canvas is initial.canvas for canvas in flattened) <= 1
    final = parse_canvas(records[0].trajectory.final_canvas)
    expected = tuple(diff_canvas(initial.canvas, final))
    assert all(r.trajectory.canvas_diff == expected for r in records)
    assert records[0].trajectory.canvas_diff
    assert initial.flat_canvas == original(initial.canvas)
    with pytest.raises(TypeError):
        initial.flat_canvas["page_border"] = "box"
