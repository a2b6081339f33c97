"""Deterministic rule-based oracle provider.

Stands in for a remote LLM in tests and offline pipelines: every response is
a pure function of the request, produced by keyword rules over the
substitutions. Responses are emitted as raw JSON text and then strict-parsed
through the same code path as remote responses.
"""

from __future__ import annotations

import functools
import json

from .. import goals
from ..env_sim import parse_canvas
from ..env_sim.canvas import Paragraph
from ..textutil import first_color, first_int, first_quoted, table_dims
from .base import OracleRequest, OracleResponse, parse_response, render_prompt

__all__ = ["MockOracle", "EVOLUTION_CLAUSES"]

EVOLUTION_CLAUSES = (
    "using only the ribbon controls",
    "and keep the rest of the document unchanged",
    "then confirm the change is visible in the document view",
    "and apply the change before saving the document",
    "while preserving the existing paragraph layout",
)


class MockOracle:
    """Keyword-rule provider; complete() is a pure function of the request."""

    # Pure Python under the interpreter lock: the pipeline calls it inline.
    waits_on_io = False

    def complete(self, request: OracleRequest) -> OracleResponse:
        # Render first: an unknown template and substitution mismatches must
        # fail identically to the remote provider.
        render_prompt(request.template_id, request.substitutions)
        handler = _HANDLERS[request.template_id]
        raw = json.dumps(handler(dict(request.substitutions)), ensure_ascii=False)
        parsed, parse_error = parse_response(request.template_id, raw)
        return OracleResponse(raw_text=raw, parsed=parsed, parse_error=parse_error)


def _handle_evolve(subs: dict) -> dict:
    task = subs["task"].strip()
    plan = json.loads(subs["plan"])
    variant = int(subs["variant"])
    clause = EVOLUTION_CLAUSES[variant % len(EVOLUTION_CLAUSES)]
    evolved_task = task.rstrip(".") + ", " + clause + "."
    evolved_plan = list(plan) + ["Verify the result in the document."]
    return {"evolved_task": evolved_task, "evolved_plan": evolved_plan}


# Instantiate prompts embed one of a few template canvases, so each distinct
# markup is parsed once; the result is a string, so nothing mutable is shared.
@functools.lru_cache(maxsize=64)
def _first_paragraph_run(markup: str) -> str:
    canvas = parse_canvas(markup)
    for block in canvas.blocks:
        if isinstance(block, Paragraph) and block.runs:
            return block.runs[0].text
    return ""


def _action(step: str, function: str, args: dict, control_text: str = "") -> dict:
    return {
        "step": step,
        "controlLabel": "",
        "controlText": control_text,
        "function": function,
        "args": args,
    }


def _instantiate_route(task: str, target: str) -> tuple[str, list[dict]]:
    low = task.lower()
    select = _action("select the target text", "select_text", {"text": target})
    if "highlight" in low:
        new_task = f'Highlight the text "{target}" in the document in yellow.'
        return new_task, [
            select,
            _action(
                "apply the yellow highlight",
                "click_input",
                {"button": "left", "double": False},
                "Text Highlight Color",
            ),
        ]
    if "bold" in low:
        return f'Make the text "{target}" bold in the document.', [
            select,
            _action("toggle bold on the selection", "toggle_bold", {}),
        ]
    if "font size" in low or "size" in low:
        points = first_int(task) or 14
        return f'Set the font size of the text "{target}" to {points} in the document.', [
            select,
            _action("set the font size", "set_font_size", {"size": points}),
        ]
    if "color" in low:
        color = first_color(task) or "red"
        return f'Change the font color of the text "{target}" to {color} in the document.', [
            select,
            _action("set the font color", "set_font_color", {"color": color}),
        ]
    if "table" in low:
        rows, cols = table_dims(task) or (3, 2)
        return f"Insert a {rows} x {cols} table at the end of the document.", [
            _action("insert the table", "insert_table", {"rows": rows, "cols": cols}),
        ]
    if "border" in low:
        return "Add a box page border to the document.", [
            _action("add the page border", "insert_page_border", {"style": "box"}),
        ]
    if "comment" in low:
        return f'Add a comment on the text "{target}" in the document.', [
            select,
            _action(
                "insert a new comment",
                "click_input",
                {"button": "left", "double": False},
                "New Comment",
            ),
        ]
    if "type" in low or "write" in low or "append" in low:
        text = first_quoted(task) or "Draft summary"
        return f'Type the text "{text}" at the end of the document.', [
            _action("type the new text", "type_keys", {"text": text}),
        ]
    if "scroll" in low:
        return "Scroll down in the document view.", [
            _action(
                "scroll the view down",
                "scroll",
                {"direction": "down", "amount": 3},
                "Vertical Scroll Bar",
            ),
        ]
    if "picture" in low or "image" in low or "shape" in low or "chart" in low:
        return task, [
            _action(
                "open the insert gallery",
                "click_input",
                {"button": "left", "double": False},
                "Pictures",
            ),
        ]
    return task, [
        _action(
            "open the home tab",
            "click_input",
            {"button": "left", "double": False},
            "Home",
        ),
    ]


def _handle_instantiate(subs: dict) -> dict:
    task = subs["given_task"].strip()
    target = _first_paragraph_run(subs["doc_canvas_state"])
    new_task, actions = _instantiate_route(task, target)
    observation = (
        f"The document canvas shows the text {target!r} and the ribbon controls are available."
        if target
        else "The document canvas has no paragraph text; only ribbon controls are available."
    )
    thought = (
        f"The task {task!r} is grounded on the visible document content, so the actions "
        "target concrete objects from the canvas."
    )
    return {
        "observation": observation,
        "thought": thought,
        "new_task": new_task,
        "actions_plan": "\n".join(json.dumps(a, ensure_ascii=False) for a in actions),
    }


def _handle_judge(subs: dict) -> dict:
    task = subs["request"]
    diff_entries = json.loads(subs["canvas_diff"])
    trajectory = json.loads(subs["trajectory"])
    quality = goals.judge_task_quality(task)

    empty_action = any(not item.get("action", {}).get("function") for item in trajectory)
    if empty_action:
        complete = "no"
        reason = "An action in the execution trajectory is empty, so the task is not completed."
    else:
        verdict = goals.goal_satisfied(task, diff_entries)
        if verdict is True:
            complete = "yes"
            reason = "The canvas diff shows exactly the changes the request asks for."
        elif verdict is False:
            complete = "no"
            reason = "The canvas changes do not match what the request asks for."
        else:
            complete = "unsure"
            reason = "The request matches no checkable change rule, so completion is unclear."
    quality_reason = {
        "ambiguous": "The request wording depends on a selection, which is ambiguous.",
        "over-detailed": "The request reads like step-by-step actions rather than a task.",
        "good": "The request is clear, self-contained, and not over-specified.",
    }[quality]
    return {
        "task_quality": quality,
        "task_complete": complete,
        "complete_judgement": reason,
        "quality_judgement": quality_reason,
    }


_HANDLERS = {
    "evolve": _handle_evolve,
    "instantiate": _handle_instantiate,
    "judge": _handle_judge,
}
