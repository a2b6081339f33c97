"""Control tree: the observable UI surface of the simulated application.

Mirrors what an accessibility API exposes for a desktop window: a finite
acyclic tree of typed controls. Labels are string numeric indices assigned
depth-first over *enabled* controls when a snapshot is built; a disabled
control (and its whole subtree) carries no label and is not listed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter, itemgetter
from typing import Callable, Iterator, Mapping, Sequence

from ..errors import AmbiguousControl, UnknownControl

__all__ = [
    "CONTROL_TYPES",
    "ControlNode",
    "DEFAULT_ALIASES",
    "assign_labels",
    "iter_enabled",
    "flatten_controls",
    "control_tree_dict",
    "resolve_in_tree",
    "resolve_listed",
    "map_tree",
]

CONTROL_TYPES = (
    "Button",
    "Edit",
    "TabItem",
    "ListItem",
    "MenuItem",
    "ScrollBar",
    "TreeItem",
    "Document",
    "Hyperlink",
    "ComboBox",
)

# Action-verb aliases resolved against control names when no direct text
# match exists (keys are whitespace-normalized, case-insensitive).
DEFAULT_ALIASES: Mapping[str, str] = {
    "highlight": "Text Highlight Color",
    "border": "Page Borders",
    "borders": "Page Borders",
    "comment": "New Comment",
    "style": "Styles",
}


@dataclass(frozen=True)
class ControlNode:
    control_text: str
    control_type: str
    enabled: bool = True
    selected: bool | None = None
    label: str = ""
    children: tuple["ControlNode", ...] = ()

    def __post_init__(self) -> None:
        if self.control_type not in CONTROL_TYPES:
            raise ValueError(f"unknown control type {self.control_type!r}")


def assign_labels(root: ControlNode) -> ControlNode:
    """Relabel the tree: enabled controls get "1", "2", ... in DFS preorder.

    A disabled control and everything below it get empty labels.
    """
    counter = [0]

    def visit(node: ControlNode, parent_enabled: bool) -> ControlNode:
        effective = parent_enabled and node.enabled
        if effective:
            counter[0] += 1
            label = str(counter[0])
        else:
            label = ""
        children = tuple(visit(c, effective) for c in node.children)
        return replace(node, label=label, children=children)

    return visit(root, True)


def iter_enabled(root: ControlNode) -> Iterator[ControlNode]:
    """DFS preorder over enabled controls; disabled subtrees are skipped."""
    if not root.enabled:
        return
    yield root
    for child in root.children:
        yield from iter_enabled(child)


def flatten_controls(root: ControlNode) -> list[dict]:
    """The observation format fed to models: label, text, and type per control."""
    return [
        {"label": n.label, "control_text": n.control_text, "control_type": n.control_type}
        for n in iter_enabled(root)
    ]


def _iter_all(root: ControlNode) -> Iterator[ControlNode]:
    yield root
    for child in root.children:
        yield from _iter_all(child)


def control_tree_dict(root: ControlNode) -> dict:
    return {
        "control_label": root.label,
        "control_text": root.control_text,
        "control_type": root.control_type,
        "selected": root.selected,
        "enabled": root.enabled,
        "children": [control_tree_dict(c) for c in root.children],
    }


def _norm(text: str) -> str:
    return " ".join(text.casefold().split())


def resolve_in_tree(
    root: ControlNode,
    label: str | None = None,
    text: str | None = None,
) -> ControlNode:
    """Resolve a control by label first, then by text.

    Tiers, in order: exact label match; case-insensitive exact text match;
    whitespace-normalized text match; the same two text tiers again after the
    alias table rewrites the query. Two or more survivors at any tier is an
    ambiguity error. Disabled controls are resolvable (execution reports
    DisabledControl separately).
    """
    return _resolve(list(_iter_all(root)), label, text, _node_label, _node_text)


def resolve_listed(controls: Sequence[Mapping], label: str, text: str) -> Mapping | None:
    """The entry of a control list (``flatten_controls``) that
    :func:`resolve_in_tree`'s tiers pick for ``label`` and ``text``, or None
    when no entry or more than one does."""
    try:
        return _resolve(controls, label, text, _item_label, _item_text)
    except (UnknownControl, AmbiguousControl):
        return None


_node_label, _node_text = attrgetter("label"), attrgetter("control_text")
_item_label, _item_text = itemgetter("label"), itemgetter("control_text")


def _resolve(items: Sequence, label, text, label_of: Callable, text_of: Callable):
    """The one item of ``items`` that the first deciding tier matches."""
    if not label and not text:
        raise UnknownControl("no label or text given to resolve")
    if label:
        hits = [n for n in items if label_of(n) == label]
        if len(hits) == 1:
            return hits[0]
        if len(hits) > 1:
            raise AmbiguousControl(f"label {label!r} matches {len(hits)} controls")

    if text:
        for query in _alias_queries(text):
            folded = query.casefold()
            hits = [n for n in items if text_of(n).casefold() == folded]
            if len(hits) == 1:
                return hits[0]
            if len(hits) > 1:
                raise AmbiguousControl(f"text {query!r} matches {len(hits)} controls")
            normed = _norm(query)
            hits = [n for n in items if _norm(text_of(n)) == normed]
            if len(hits) == 1:
                return hits[0]
            if len(hits) > 1:
                raise AmbiguousControl(f"text {query!r} matches {len(hits)} controls")

    raise UnknownControl(f"no control matches label={label!r} text={text!r}")


def _alias_queries(text: str) -> list[str]:
    queries = [text]
    alias = DEFAULT_ALIASES.get(_norm(text))
    if alias and alias != text:
        queries.append(alias)
    return queries


def map_tree(root: ControlNode, fn: Callable[[ControlNode], ControlNode]) -> ControlNode:
    """Apply fn to every node, rebuilding the (immutable) tree bottom-up."""
    children = tuple(map_tree(c, fn) for c in root.children)
    return fn(replace(root, children=children))
