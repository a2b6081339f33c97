"""Environment snapshots, the built-in template set, and sessions.

A snapshot is an immutable (control tree, canvas, step index) value. The
rendered view is a deterministic textual screenshot surrogate computed purely
from the tree and the canvas: the window's controls, then one line per block
as ``canvas.render_block`` draws it from the block table (the one
description of what each block kind holds), then the page border and the
selected text. Because a snapshot never changes, the values derived from it
(its canvas encoding and flat form, digest and rendered view) are computed
at most once, on first use, and kept on the instance. The values derived from
the control tree alone are computed at most once per tree and shared by
every snapshot that holds it: an action that leaves the tree as it was, as
most do, hands them to its successor, and one that leaves the canvas as it
was hands on the canvas encoding.

The tree's values are its flattened control list, a :class:`ControlList`
(a tuple), and its tree dict, a :class:`ControlTreeDict` (a dict). Each
caches its own JSON text, again on first use: both their canonical
encodings, the form every file line holds, and the tree dict's prompt
encoding, the form oracle prompts embed (see ``jsonl``). The snapshot digest
reuses the tree dict's canonical text; the pipeline's line writers and the
instantiate and judge prompts reuse the rest, so a tree is encoded at most
once per form however many records and prompts carry it. ``json`` encodes
both types exactly like a plain tuple and dict. Recorded trajectories and
training records hold these values, so they are shared read-only.

The templates (paragraph, table, figure, shape, chart and comment documents)
are built in code by ``builtin_templates``. They are built once per process,
on first use, into one dict keyed by template id; ``get_template`` is a lookup
in it, and a template hands out one shared labelled initial snapshot.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from types import MappingProxyType

from ..errors import UnknownTemplate
from ..jsonl import canonical_dumps, prompt_dumps, sha256_text
from .actions import ActionCall, ExecutionResult, apply_action
from .canvas import CanvasState, paragraph_text, render_block, serialize_canvas
from .controls import ControlNode, assign_labels, control_tree_dict, flatten_controls
from .diffs import Scalar, flatten_canvas

__all__ = [
    "EnvSnapshot",
    "AppTemplate",
    "EnvSession",
    "ControlList",
    "ControlTreeDict",
    "ListedControls",
    "list_controls",
    "load_template",
    "get_template",
    "list_templates",
]


class ControlList(tuple):
    """A control tree's flattened control list, with its canonical
    encoding computed on first use."""

    @functools.cached_property
    def canonical_json(self) -> str:
        return canonical_dumps(self)


class ControlTreeDict(dict):
    """A control tree's ``control_tree_dict``, shared read-only, with its
    canonical and prompt encodings each computed on first use."""

    @functools.cached_property
    def canonical_json(self) -> str:
        return canonical_dumps(self)

    @functools.cached_property
    def prompt_json(self) -> str:
        return prompt_dumps(self)


class ListedControls(list):
    """``list(controls)``, as a training record's ``available_controls``
    holds it. While the list holds exactly the control dicts of
    ``controls``, it carries their cached canonical encoding, if any."""

    __slots__ = ("_source",)

    def __init__(self, controls: tuple[dict, ...]):
        super().__init__(controls)
        self._source = controls

    @property
    def canonical_json(self) -> str | None:
        source = self._source
        if len(self) == len(source) and all(map(operator.is_, self, source)):
            return getattr(source, "canonical_json", None)
        return None


class _ControlTree:
    """The flattened control list and the tree dict of one control tree,
    each computed on first use."""

    def __init__(self, root: ControlNode):
        self.root = root

    @functools.cached_property
    def controls(self) -> ControlList:
        return ControlList(flatten_controls(self.root))

    @functools.cached_property
    def as_dict(self) -> ControlTreeDict:
        return ControlTreeDict(control_tree_dict(self.root))


@dataclass(frozen=True)
class EnvSnapshot:
    controls: ControlNode
    canvas: CanvasState
    step_index: int = 0

    def advance(self, canvas: CanvasState, controls: ControlNode) -> "EnvSnapshot":
        successor = EnvSnapshot(controls=controls, canvas=canvas, step_index=self.step_index + 1)
        if controls is self.controls:
            # Same tree: the successor shares its flattened list and encodings.
            successor.__dict__["_tree"] = self._tree
        if canvas is self.canvas and "canvas_xml" in self.__dict__:
            successor.__dict__["canvas_xml"] = self.canvas_xml
        return successor

    @functools.cached_property
    def canvas_xml(self) -> str:
        """``serialize_canvas`` of the canvas."""
        return serialize_canvas(self.canvas)

    @functools.cached_property
    def flat_canvas(self) -> MappingProxyType[str, Scalar]:
        """``flatten_canvas`` of the canvas, read-only, so a template's shared
        initial snapshot is flattened once however many runs are diffed
        against it."""
        return MappingProxyType(flatten_canvas(self.canvas))

    @property
    def control_list(self) -> ControlList:
        """The enabled controls (see ``list_controls``), shared read-only."""
        return self._tree.controls

    @property
    def control_state(self) -> ControlTreeDict:
        """``control_tree_dict`` of the control tree, shared read-only."""
        return self._tree.as_dict

    def rendered_view(self) -> str:
        """Deterministic textual screenshot surrogate."""
        return self._rendered_view

    @functools.cached_property
    def _rendered_view(self) -> str:
        lines = ["=== window ==="]
        for item in self._tree.controls:
            lines.append(
                f"[{item['label']}] {item['control_type']} {item['control_text']!r}"
            )
        lines.append("=== document ===")
        lines.extend(map(render_block, self.canvas.blocks))
        if self.canvas.page_border:
            lines.append(f"page border: {self.canvas.page_border}")
        if self.canvas.selection:
            sel = self.canvas.selection
            para = self.canvas.blocks[sel.block]
            lines.append(f"selection: {paragraph_text(para)[sel.start:sel.end]!r}")
        return "\n".join(lines) + "\n"

    def serialize(self) -> str:
        """``canonical_dumps`` of the canvas, control tree and step index,
        with the canvas and tree encodings reused."""
        canvas = canonical_dumps(self.canvas_xml)
        return (
            f'{{"canvas":{canvas},"controls":{self._tree.as_dict.canonical_json},'
            f'"step_index":{self.step_index}}}'
        )

    def digest(self) -> str:
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        return sha256_text(self.serialize())[:16]

    @functools.cached_property
    def _tree(self) -> _ControlTree:
        return _ControlTree(self.controls)


def list_controls(snapshot: EnvSnapshot) -> list[dict]:
    """Enabled controls in depth-first order, labels starting at "1".

    The list is new on every call; the control dicts in it are flattened
    once per control tree, shared by every snapshot holding that tree, and
    must not be mutated.
    """
    return list(snapshot.control_list)


@dataclass(frozen=True)
class AppTemplate:
    template_id: str
    description: str
    initial_canvas: CanvasState
    initial_controls: ControlNode

    def __post_init__(self) -> None:
        if not self.description.strip():
            raise ValueError("template description must be non-empty")

    def fresh_snapshot(self) -> EnvSnapshot:
        """The labelled initial snapshot; the same object on every call."""
        return self._fresh

    @functools.cached_property
    def _fresh(self) -> EnvSnapshot:
        return EnvSnapshot(
            controls=assign_labels(self.initial_controls),
            canvas=self.initial_canvas,
            step_index=0,
        )


@functools.cache
def _templates() -> dict[str, AppTemplate]:
    """Every built-in template by id, built on first use (imported here
    because ``builtin_templates`` builds on ``AppTemplate``)."""
    from .builtin_templates import builtin_templates

    return {t.template_id: t for t in builtin_templates()}


def list_templates() -> list[str]:
    return sorted(_templates())


def get_template(template_id: str) -> AppTemplate:
    try:
        return _templates()[template_id]
    except KeyError:
        raise UnknownTemplate(f"no template named {template_id!r}") from None


def load_template(template_id: str) -> EnvSnapshot:
    return get_template(template_id).fresh_snapshot()


class EnvSession:
    """The initial and the current snapshot of one task attempt; each
    successful action advances the current one."""

    def __init__(self, snapshot: EnvSnapshot):
        self.initial = snapshot
        self.current = snapshot

    def apply(self, action: ActionCall) -> ExecutionResult:
        snapshot, result = apply_action(self.current, action)
        if result.ok:
            self.current = snapshot
        return result
