"""Environment snapshots, the bundled template set, and sessions.

A snapshot is an immutable (control tree, canvas, step index) value. The
rendered view is a deterministic textual screenshot surrogate computed purely
from the tree and the canvas. Because a snapshot never changes, the values
derived from it (its digest, its flattened control list and its rendered
view) are computed at most once, on first use, and kept on the instance.

Templates live as one directory per template id containing ``description.txt``,
``canvas.xml`` (canonical canvas markup), and ``controls.json`` (control
manifest). A bundle of templates covering paragraph, table, figure, shape,
chart, and comment content ships inside the package. Templates are immutable
too: ``get_template`` reads the three files on every call but parses each
distinct content once (the parse cache is keyed by the template id and the
content of the files, so a rewritten bundle is parsed afresh), and a template
hands out one shared labelled initial snapshot.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from ..errors import UnknownTemplate
from ..jsonl import canonical_dumps, sha256_text, write_text
from .actions import ActionCall, ExecutionResult, apply_action
from .canvas import (
    CanvasState,
    Chart,
    Comment,
    Figure,
    Paragraph,
    Shape,
    Table,
    paragraph_text,
    parse_canvas,
    serialize_canvas,
)
from .controls import (
    ControlNode,
    assign_labels,
    control_tree_dict,
    control_tree_from_dict,
    flatten_controls,
)

__all__ = [
    "EnvSnapshot",
    "AppTemplate",
    "EnvSession",
    "list_controls",
    "load_template",
    "get_template",
    "list_templates",
    "write_template_bundle",
]


@dataclass(frozen=True)
class EnvSnapshot:
    controls: ControlNode
    canvas: CanvasState
    step_index: int = 0

    def advance(self, canvas: CanvasState, controls: ControlNode) -> "EnvSnapshot":
        return EnvSnapshot(controls=controls, canvas=canvas, step_index=self.step_index + 1)

    def rendered_view(self) -> str:
        """Deterministic textual screenshot surrogate."""
        return self._rendered_view

    @functools.cached_property
    def _rendered_view(self) -> str:
        lines = ["=== window ==="]
        for item in self._controls:
            lines.append(
                f"[{item['label']}] {item['control_type']} {item['control_text']!r}"
            )
        lines.append("=== document ===")
        for block in self.canvas.blocks:
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
        if self.canvas.page_border:
            lines.append(f"page border: {self.canvas.page_border}")
        if self.canvas.selection:
            sel = self.canvas.selection
            para = self.canvas.blocks[sel.block]
            lines.append(f"selection: {paragraph_text(para)[sel.start:sel.end]!r}")
        return "\n".join(lines) + "\n"

    def serialize(self) -> str:
        return canonical_dumps(
            {
                "canvas": serialize_canvas(self.canvas),
                "controls": control_tree_dict(self.controls),
                "step_index": self.step_index,
            }
        )

    def digest(self) -> str:
        return self._digest

    @functools.cached_property
    def _digest(self) -> str:
        return sha256_text(self.serialize())[:16]

    @functools.cached_property
    def _controls(self) -> tuple[dict, ...]:
        return tuple(flatten_controls(self.controls))


def list_controls(snapshot: EnvSnapshot) -> list[dict]:
    """Enabled controls in depth-first order, labels starting at "1".

    The list is new on every call; the control dicts in it are the
    snapshot's own, flattened once, and must not be mutated.
    """
    return list(snapshot._controls)


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
def _package_bundle() -> Path:
    return Path(str(resources.files("lamlab") / "env_sim" / "templates"))


def _bundle_root(bundle_dir: str | Path | None) -> Path:
    if bundle_dir is not None:
        return Path(bundle_dir)
    return _package_bundle()


def list_templates(bundle_dir: str | Path | None = None) -> list[str]:
    root = _bundle_root(bundle_dir)
    if not root.is_dir():
        return []
    return sorted(p.name for p in root.iterdir() if (p / "description.txt").is_file())


def get_template(template_id: str, bundle_dir: str | Path | None = None) -> AppTemplate:
    root = _bundle_root(bundle_dir) / template_id
    desc_file = root / "description.txt"
    if not desc_file.is_file():
        raise UnknownTemplate(f"no template named {template_id!r}")
    return _parse_template(
        template_id,
        desc_file.read_bytes(),
        (root / "canvas.xml").read_bytes(),
        (root / "controls.json").read_bytes(),
    )


@functools.lru_cache(maxsize=64)
def _parse_template(
    template_id: str, description: bytes, canvas_xml: bytes, controls_json: bytes
) -> AppTemplate:
    """One template from the content of its files; keyed by that content, so
    equal files share one immutable template and a changed file is parsed
    anew."""
    return AppTemplate(
        template_id=template_id,
        description=description.decode("utf-8").strip(),
        initial_canvas=parse_canvas(canvas_xml.decode("utf-8")),
        initial_controls=control_tree_from_dict(json.loads(controls_json.decode("utf-8"))),
    )


def load_template(template_id: str, bundle_dir: str | Path | None = None) -> EnvSnapshot:
    return get_template(template_id, bundle_dir).fresh_snapshot()


def write_template_bundle(templates: list[AppTemplate], out_dir: str | Path) -> None:
    """Materialize templates into the on-disk bundle layout."""
    out = Path(out_dir)
    for tpl in templates:
        root = out / tpl.template_id
        root.mkdir(parents=True, exist_ok=True)
        write_text(root / "description.txt", tpl.description + "\n")
        write_text(root / "canvas.xml", serialize_canvas(tpl.initial_canvas))
        labeled = assign_labels(tpl.initial_controls)
        write_text(
            root / "controls.json",
            json.dumps(control_tree_dict(labeled), indent=2, sort_keys=True) + "\n",
        )


class EnvSession:
    """A single-owner sequence of snapshots for one task attempt."""

    def __init__(self, snapshot: EnvSnapshot):
        self._history: list[EnvSnapshot] = [snapshot]
        self._results: list[ExecutionResult] = []

    @property
    def current(self) -> EnvSnapshot:
        return self._history[-1]

    @property
    def initial(self) -> EnvSnapshot:
        return self._history[0]

    @property
    def history(self) -> list[EnvSnapshot]:
        return list(self._history)

    @property
    def results(self) -> list[ExecutionResult]:
        return list(self._results)

    def apply(self, action: ActionCall) -> ExecutionResult:
        snapshot, result = apply_action(self.current, action)
        if result.ok:
            self._history.append(snapshot)
        self._results.append(result)
        return result
