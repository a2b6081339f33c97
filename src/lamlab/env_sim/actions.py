"""Structured actions: the closed registry of callable functions and their
execution semantics against a snapshot.

Each registry entry (``FunctionSpec``) is the one description of its function:
prompt text, target and argument rules, whether it needs an active text
selection, and its handler. Some ribbon clicks are registry calls: clicking
Bold, Font Color or Page Borders, and editing Font Size, run the handler of
the function they stand for.

Execution never mutates its input; it returns either a successor snapshot
with an ok result, or the unchanged snapshot with exactly one typed error
recorded in the result.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, TYPE_CHECKING

from ..errors import BadArgs, DisabledControl, LamLabError, UnknownFunction
from ..jsonl import object_field, text_field
from ..textutil import COLOR_HEX
from .canvas import (
    CanvasState,
    Comment,
    Paragraph,
    Run,
    Selection,
    Table,
    find_text,
    paragraph_text,
    run_span_index,
)
from .controls import ControlNode, map_tree, resolve_in_tree

if TYPE_CHECKING:
    from .snapshot import EnvSnapshot

__all__ = [
    "ActionCall",
    "ExecutionResult",
    "FunctionSpec",
    "REGISTRY",
    "registry_help",
    "needs_selection",
    "apply_action",
    "STATUS_CONTINUE",
    "STATUS_FINISH",
    "CALL_KEYS",
]

STATUS_CONTINUE = "CONTINUE"
STATUS_FINISH = "FINISH"

_HEX_RE = re.compile(r"^#[0-9A-Fa-f]{6}$")

# The keys of ``ActionCall.to_call_dict``, the form an instantiated actions
# plan and a training record's step history hold a call in; every one but
# ``args`` holds a string.
CALL_KEYS = frozenset({"step", "controlLabel", "controlText", "function", "args"})


@dataclass(frozen=True)
class ActionCall:
    """One grounded action: a target control plus a registry function call."""

    step: str = ""
    control_label: str = ""
    control_text: str = ""
    function: str = ""
    args: Mapping[str, object] = field(default_factory=dict)
    status: str = STATUS_CONTINUE

    def to_call_dict(self) -> dict:
        return {
            "step": self.step,
            "controlLabel": self.control_label,
            "controlText": self.control_text,
            "function": self.function,
            "args": dict(self.args),
        }

    @classmethod
    def from_call_dict(cls, obj: Mapping) -> "ActionCall":
        """The call of ``to_call_dict``, plus an optional ``status``; a field
        of the wrong type is a ``TypeError`` naming it."""
        return cls(
            step=text_field(obj, "step", ""),
            control_label=text_field(obj, "controlLabel", ""),
            control_text=text_field(obj, "controlText", ""),
            function=text_field(obj, "function", ""),
            args=dict(object_field(obj, "args", {})),
            status=text_field(obj, "status", STATUS_CONTINUE),
        )


@dataclass(frozen=True)
class ExecutionResult:
    ok: bool
    observation: str = ""
    error: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"ok": self.ok, "observation": self.observation}
        if self.error is not None:
            out["error"] = self.error
        return out

    @classmethod
    def from_dict(cls, obj: Mapping) -> "ExecutionResult":
        return cls(ok=bool(obj["ok"]), observation=obj.get("observation", ""), error=obj.get("error"))


@dataclass(frozen=True, kw_only=True)
class FunctionSpec:
    """One registry function, described once: its prompt text, its target
    and argument rules, whether it needs an active text selection, and its
    handler ``run(snapshot, target, args)`` -> (canvas, control root,
    observation)."""

    name: str
    summary: str
    run: Callable[..., tuple[CanvasState, ControlNode, str]]
    requires_control: bool = False
    control_types: tuple[str, ...] = ()  # empty = any / no target
    required_args: tuple[str, ...] = ()
    optional_args: tuple[str, ...] = ()
    selection: bool = False


# Closed registry, filled by ``_function`` in handler definition order. Order
# matters: it is the tie-break order for policies.
REGISTRY: dict[str, FunctionSpec] = {}

# Ribbon buttons whose click is a registry call: control text -> (function, args).
_BUTTON_CALLS: dict[str, tuple[str, Mapping[str, object]]] = {
    "Bold": ("toggle_bold", {}),
    "Font Color": ("set_font_color", {"color": "red"}),
    "Page Borders": ("insert_page_border", {}),
}


def _function(name: str, summary: str, **spec):
    """Register the decorated handler as the registry function ``name``."""

    def register(run):
        REGISTRY[name] = FunctionSpec(name=name, summary=summary, run=run, **spec)
        return run

    return register


def needs_selection(function: str, control_text: str = "") -> bool:
    """True when the call only succeeds with an active text selection: its
    function needs one, or the control runs a registry function that does."""
    if function == "click_input":
        if control_text == "Text Highlight Color":
            return True
        if control_text in _BUTTON_CALLS:
            function = _BUTTON_CALLS[control_text][0]
    elif function == "set_edit_text" and control_text == "Font Size":
        function = "set_font_size"
    spec = REGISTRY.get(function)
    return spec is not None and spec.selection


def registry_help() -> str:
    """Human-readable API list, substituted into prompt templates."""
    lines = []
    for spec in REGISTRY.values():
        target = "target control required" if spec.requires_control else "no target control"
        lines.append(f"- {spec.name}: {spec.summary} ({target})")
    return "\n".join(lines)


def apply_action(
    snapshot: "EnvSnapshot", action: ActionCall
) -> tuple["EnvSnapshot", ExecutionResult]:
    """Execute one action. On failure the input snapshot is returned unchanged
    together with exactly one typed error name in the result."""
    try:
        new_snapshot, observation = _execute(snapshot, action)
    except LamLabError as exc:
        return snapshot, ExecutionResult(ok=False, observation=str(exc), error=type(exc).__name__)
    return new_snapshot, ExecutionResult(ok=True, observation=observation)


def _execute(snapshot: "EnvSnapshot", action: ActionCall) -> tuple["EnvSnapshot", str]:
    spec = REGISTRY.get(action.function)
    if spec is None:
        raise UnknownFunction(f"function {action.function!r} is not registered")

    args = _check_args(spec, action.args)

    target: ControlNode | None = None
    if action.control_label or action.control_text:
        target = resolve_in_tree(
            snapshot.controls, action.control_label or None, action.control_text or None
        )
    if spec.requires_control:
        if target is None:
            raise BadArgs(f"{spec.name} requires a target control")
        if not target.enabled:
            raise DisabledControl(f"control {target.control_text!r} is disabled")
        if spec.control_types and target.control_type not in spec.control_types:
            raise BadArgs(
                f"{spec.name} cannot target a {target.control_type} control"
            )

    canvas, controls, observation = spec.run(snapshot, target, args)
    return snapshot.advance(canvas, controls), observation


def _check_args(spec: FunctionSpec, args: Mapping[str, object]) -> dict:
    known = set(spec.required_args) | set(spec.optional_args) | {"control_id"}
    unknown = [k for k in args if k not in known]
    if unknown:
        raise BadArgs(f"{spec.name} got unknown args {sorted(unknown)}")
    missing = [k for k in spec.required_args if k not in args]
    if missing:
        raise BadArgs(f"{spec.name} missing required args {missing}")
    return {k: v for k, v in args.items() if k != "control_id"}


# --- selection helpers -------------------------------------------------------

def _require_selection(canvas: CanvasState) -> tuple[Selection, Paragraph, int]:
    sel = canvas.selection
    if sel is None:
        raise BadArgs("no active text selection")
    para = canvas.blocks[sel.block]
    idx = run_span_index(para, sel.start, sel.end)
    if idx is None:
        raise BadArgs("selection no longer maps to a single run")
    return sel, para, idx


def _update_selected_run(canvas: CanvasState, **changes: object) -> tuple[CanvasState, Run]:
    sel, para, idx = _require_selection(canvas)
    run = para.runs[idx]
    new_run = replace(run, **changes)
    runs = list(para.runs)
    runs[idx] = new_run
    return canvas.with_block(sel.block, Paragraph(runs=tuple(runs))), new_run


def _selected_text(canvas: CanvasState) -> str:
    sel, para, _ = _require_selection(canvas)
    return paragraph_text(para)[sel.start : sel.end]


# --- per-function semantics ---------------------------------------------------
# Each handler returns (new canvas, new control root, observation text).

@_function(
    "click_input",
    "Click the target control with the mouse. Args: button ('left'|'right'), double (bool).",
    requires_control=True,
    control_types=("Button", "TabItem", "ListItem", "MenuItem", "TreeItem", "Hyperlink", "ComboBox"),
    optional_args=("button", "double"),
)
def _fn_click_input(snapshot, target, args):
    button = args.get("button", "left")
    double = args.get("double", False)
    if button not in ("left", "right"):
        raise BadArgs(f"bad mouse button {button!r}")
    if not isinstance(double, bool):
        raise BadArgs("double must be a boolean")
    canvas, controls = snapshot.canvas, snapshot.controls

    if target.control_type in ("TabItem", "ListItem", "MenuItem", "TreeItem"):
        controls = _select_node(controls, target)
        return canvas, controls, f"Selected {target.control_text}"

    if target.control_type == "Button":
        if target.control_text in _BUTTON_CALLS:
            function, call_args = _BUTTON_CALLS[target.control_text]
            return REGISTRY[function].run(snapshot, target, call_args)
        if target.control_text == "Text Highlight Color":
            # Not toggle_highlight: the click always sets yellow, and says so.
            canvas, run = _update_selected_run(canvas, highlight="yellow")
            return canvas, controls, f"Applied yellow highlight to {run.text!r}"
        if target.control_text == "New Comment":
            sel_text = _selected_text(canvas) if canvas.selection else ""
            canvas = canvas.append_block(Comment(author="Reviewer", text=sel_text or "Comment"))
            return canvas, controls, "Inserted a new comment"

    return canvas, controls, f"Clicked {target.control_text}"


def _select_node(root: ControlNode, target: ControlNode) -> ControlNode:
    """Mark the target selected; deselect same-typed siblings."""

    def rebuild(node: ControlNode) -> ControlNode:
        if any(c.label == target.label for c in node.children):
            children = []
            for c in node.children:
                if c.label == target.label:
                    children.append(replace(c, selected=True))
                elif c.control_type == target.control_type and c.selected:
                    children.append(replace(c, selected=False))
                else:
                    children.append(c)
            return replace(node, children=tuple(children))
        return node

    if root.label == target.label:
        return replace(root, selected=True)
    return map_tree(root, rebuild)


@_function(
    "set_edit_text",
    "Replace the text content of an editable control. Args: text (str).",
    requires_control=True,
    control_types=("Edit", "ComboBox", "Document"),
    required_args=("text",),
)
def _fn_set_edit_text(snapshot, target, args):
    text = args["text"]
    if not isinstance(text, str):
        raise BadArgs("text must be a string")
    canvas, controls = snapshot.canvas, snapshot.controls

    if target.control_type == "Document":
        para = Paragraph(runs=(Run(text=text),))
        sel = canvas.selection
        block_idx = None
        for i, block in enumerate(canvas.blocks):
            if isinstance(block, Paragraph):
                block_idx = i
                break
        if block_idx is None:
            canvas = canvas.append_block(para)
        else:
            if sel is not None and sel.block == block_idx:
                canvas = canvas.with_selection(None)
            canvas = canvas.with_block(block_idx, para)
        return canvas, controls, f"Replaced document text with {text!r}"

    if target.control_text == "Font Size":
        try:
            points = float(text)
        except ValueError:
            raise BadArgs(f"font size {text!r} is not a number") from None
        if points <= 0:
            raise BadArgs("font size must be positive")
        return _fn_set_font_size(snapshot, target, {"size": points})

    return canvas, controls, f"Entered {text!r} into {target.control_text}"


@_function(
    "type_keys",
    "Type the given text at the end of the document. Args: text (str).",
    required_args=("text",),
)
def _fn_type_keys(snapshot, target, args):
    text = args["text"]
    if not isinstance(text, str) or not text:
        raise BadArgs("text must be a non-empty string")
    canvas = snapshot.canvas
    last_para = None
    for i in range(len(canvas.blocks) - 1, -1, -1):
        if isinstance(canvas.blocks[i], Paragraph):
            last_para = i
            break
    if last_para is None:
        canvas = canvas.append_block(Paragraph(runs=(Run(text=text),)))
    else:
        para = canvas.blocks[last_para]
        canvas = canvas.with_block(last_para, Paragraph(runs=para.runs + (Run(text=text),)))
    return canvas, snapshot.controls, f"Typed {text!r}"


@_function(
    "select_text",
    "Select the first exact occurrence of the given text in the document. Args: text (str).",
    required_args=("text",),
)
def _fn_select_text(snapshot, target, args):
    text = args["text"]
    if not isinstance(text, str) or not text:
        raise BadArgs("text must be a non-empty string")
    sel = find_text(snapshot.canvas, text)
    if sel is None:
        raise BadArgs(f"text {text!r} not found in the document")
    para = snapshot.canvas.blocks[sel.block]
    if run_span_index(para, sel.start, sel.end) is None:
        raise BadArgs(f"text {text!r} spans more than one run")
    return snapshot.canvas.with_selection(sel), snapshot.controls, f"Selected {text!r}"


@_function(
    "select_option",
    "Select a named option in a combo box, list, or menu. Args: option (str).",
    requires_control=True,
    control_types=("ComboBox", "ListItem", "MenuItem"),
    required_args=("option",),
)
def _fn_select_option(snapshot, target, args):
    option = args["option"]
    if not isinstance(option, str) or not option:
        raise BadArgs("option must be a non-empty string")
    controls = snapshot.controls
    if target.control_type == "ComboBox":
        matches = [
            c
            for c in target.children
            if c.control_type == "ListItem" and c.control_text.casefold() == option.casefold()
        ]
        if not matches:
            raise BadArgs(f"combo box {target.control_text!r} has no option {option!r}")
        controls = _select_node(controls, matches[0])
        return snapshot.canvas, controls, f"Selected option {matches[0].control_text}"
    controls = _select_node(controls, target)
    return snapshot.canvas, controls, f"Selected option {target.control_text}"


@_function(
    "scroll",
    "Scroll the view. Args: direction ('up'|'down'), amount (positive int).",
    requires_control=True,
    control_types=("ScrollBar",),
    optional_args=("direction", "amount"),
)
def _fn_scroll(snapshot, target, args):
    direction = args.get("direction", "down")
    amount = args.get("amount", 1)
    if direction not in ("up", "down"):
        raise BadArgs(f"bad scroll direction {direction!r}")
    if not isinstance(amount, int) or amount < 1:
        raise BadArgs("amount must be a positive integer")
    return snapshot.canvas, snapshot.controls, f"Scrolled {direction} by {amount}"


@_function(
    "toggle_highlight",
    "Toggle a highlight color on the selected text. Args: color (name, default 'yellow').",
    optional_args=("color",),
    selection=True,
)
def _fn_toggle_highlight(snapshot, target, args):
    color = args.get("color", "yellow")
    if not isinstance(color, str) or not color:
        raise BadArgs("color must be a non-empty string")
    color = color.lower()
    _, para, idx = _require_selection(snapshot.canvas)
    current = para.runs[idx].highlight
    new_value = None if current == color else color
    canvas, run = _update_selected_run(snapshot.canvas, highlight=new_value)
    verb = "Applied" if new_value else "Removed"
    return canvas, snapshot.controls, f"{verb} {color} highlight on {run.text!r}"


@_function(
    "set_font_size",
    "Set the font size of the selected text. Args: size (points, positive number).",
    required_args=("size",),
    selection=True,
)
def _fn_set_font_size(snapshot, target, args):
    size = args["size"]
    if not isinstance(size, (int, float)) or isinstance(size, bool) or not 0 < size < math.inf:
        raise BadArgs(f"size must be a positive number, got {size!r}")
    canvas, run = _update_selected_run(snapshot.canvas, font_size=int(round(size * 2)))
    return canvas, snapshot.controls, f"Set font size of {run.text!r} to {size:g}"


@_function(
    "set_font_color",
    "Set the font color of the selected text. Args: color (name or #RRGGBB).",
    required_args=("color",),
    selection=True,
)
def _fn_set_font_color(snapshot, target, args):
    color = args["color"]
    if not isinstance(color, str) or not color:
        raise BadArgs("color must be a non-empty string")
    hex_value = COLOR_HEX.get(color.lower())
    if hex_value is None:
        if not _HEX_RE.match(color):
            raise BadArgs(f"unknown color {color!r}")
        hex_value = color.upper()
    canvas, run = _update_selected_run(snapshot.canvas, color=hex_value)
    return canvas, snapshot.controls, f"Set font color of {run.text!r} to {color}"


@_function(
    "insert_page_border",
    "Add a page border to the document. Args: style (default 'box').",
    optional_args=("style",),
)
def _fn_insert_page_border(snapshot, target, args):
    style = args.get("style", "box")
    if not isinstance(style, str) or not style:
        raise BadArgs("style must be a non-empty string")
    canvas = replace(snapshot.canvas, page_border=style)
    return canvas, snapshot.controls, f"Added a {style} page border"


@_function(
    "insert_table",
    "Insert a table at the end of the document. Args: rows (int), cols (int).",
    required_args=("rows", "cols"),
)
def _fn_insert_table(snapshot, target, args):
    rows, cols = args["rows"], args["cols"]
    for name, value in (("rows", rows), ("cols", cols)):
        if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= 50:
            raise BadArgs(f"{name} must be an integer in 1..50, got {value!r}")
    canvas = snapshot.canvas.append_block(Table(rows=rows, cols=cols))
    return canvas, snapshot.controls, f"Inserted a {rows} x {cols} table"


@_function("toggle_bold", "Toggle bold on the selected text. No args.", selection=True)
def _fn_toggle_bold(snapshot, target, args):
    _, para, idx = _require_selection(snapshot.canvas)
    canvas, run = _update_selected_run(snapshot.canvas, bold=not para.runs[idx].bold)
    state = "bold" if run.bold else "not bold"
    return canvas, snapshot.controls, f"Toggled {run.text!r} to {state}"
