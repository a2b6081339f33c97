"""Deterministic simulated document application.

Provides the control tree, the canvas document model, a closed action
registry with execution semantics, state diffing, and a built-in template set.
"""

from .actions import (
    CALL_KEYS,
    REGISTRY,
    STATUS_CONTINUE,
    STATUS_FINISH,
    ActionCall,
    ExecutionResult,
    apply_action,
    needs_selection,
    registry_help,
    registry_order,
)
from .canvas import (
    CanvasState,
    Chart,
    Comment,
    Figure,
    Paragraph,
    Run,
    Selection,
    Shape,
    Table,
    find_text,
    paragraph_text,
    parse_canvas,
    serialize_canvas,
)
from .controls import (
    CONTROL_TYPES,
    DEFAULT_ALIASES,
    ControlNode,
    assign_labels,
    control_tree_dict,
    control_tree_from_dict,
    flatten_controls,
    resolve_in_tree,
)
from .diffs import CanvasDiffEntry, apply_diff, diff_canvas, flatten_canvas
from .snapshot import (
    AppTemplate,
    ControlList,
    ControlTreeDict,
    EnvSession,
    EnvSnapshot,
    ListedControls,
    get_template,
    list_controls,
    list_templates,
    load_template,
)


def resolve_control(snapshot: EnvSnapshot, label: str | None = None, text: str | None = None):
    """Resolve a control within a snapshot by label, then by text (with aliases)."""
    return resolve_in_tree(snapshot.controls, label, text)


__all__ = [
    "CALL_KEYS",
    "REGISTRY",
    "STATUS_CONTINUE",
    "STATUS_FINISH",
    "ActionCall",
    "ExecutionResult",
    "apply_action",
    "needs_selection",
    "registry_help",
    "registry_order",
    "CanvasState",
    "Chart",
    "Comment",
    "Figure",
    "Paragraph",
    "Run",
    "Selection",
    "Shape",
    "Table",
    "find_text",
    "paragraph_text",
    "parse_canvas",
    "serialize_canvas",
    "CONTROL_TYPES",
    "DEFAULT_ALIASES",
    "ControlNode",
    "assign_labels",
    "control_tree_dict",
    "control_tree_from_dict",
    "flatten_controls",
    "resolve_in_tree",
    "resolve_control",
    "CanvasDiffEntry",
    "apply_diff",
    "diff_canvas",
    "flatten_canvas",
    "AppTemplate",
    "ControlList",
    "ControlTreeDict",
    "EnvSession",
    "EnvSnapshot",
    "ListedControls",
    "get_template",
    "list_controls",
    "list_templates",
    "load_template",
]
