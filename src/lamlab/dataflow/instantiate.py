"""Instantiation: turn an abstract task-plan into concrete executable actions.

A template is picked by keyword overlap between task text and template
descriptions; the oracle is then prompted with the template's canvas and
control state and must answer with a structured new task plus an action
plan. Malformed answers are errors, never repaired.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from ..errors import NoTemplateMatch, OracleFailure, ParseFailure
from ..env_sim import (
    CALL_KEYS,
    REGISTRY,
    ActionCall,
    AppTemplate,
    registry_help,
)
from ..oracle import OracleRequest, Provider
from ..textutil import content_tokens
from .records import InstantiatedTask, TaskPlanRecord

__all__ = ["select_template", "instantiate", "parse_actions_plan", "EXAMPLE_CALLS"]

EXAMPLE_CALLS = """\
{"step": "select the target text", "controlLabel": "", "controlText": "", "function": "select_text", "args": {"text": "Test For Fun"}}
{"step": "apply the yellow highlight", "controlLabel": "", "controlText": "Text Highlight Color", "function": "click_input", "args": {"button": "left", "double": false}}"""


def select_template(task: str, templates: Sequence[AppTemplate]) -> AppTemplate:
    """Highest keyword overlap between task and description; ties go to the
    lexicographically smallest template_id; zero overlap everywhere is an error."""
    task_tokens = content_tokens(task)
    best: tuple[int, str] | None = None
    best_template: AppTemplate | None = None
    for template in sorted(templates, key=lambda t: t.template_id):
        score = len(task_tokens & content_tokens(template.description))
        if score > 0 and (best is None or score > best[0]):
            best = (score, template.template_id)
            best_template = template
    if best_template is None:
        raise NoTemplateMatch(f"no template description overlaps task {task!r}")
    return best_template


def parse_actions_plan(actions_plan: object) -> list[ActionCall]:
    """Parse the newline-separated action-call format (a pre-split list of
    call objects is accepted too). Any malformed call is a parse failure."""
    if isinstance(actions_plan, str):
        items: list[object] = []
        for line in actions_plan.split("\n"):
            line = line.strip()
            if not line:
                continue
            try:
                items.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ParseFailure(f"action call is not valid JSON: {line[:80]!r}") from exc
    elif isinstance(actions_plan, list):
        items = list(actions_plan)
    else:
        raise ParseFailure(f"actions_plan must be text or a list, got {type(actions_plan).__name__}")

    if not items:
        raise ParseFailure("actions_plan contains no action calls")
    actions = []
    for item in items:
        if not isinstance(item, Mapping):
            raise ParseFailure(f"action call must be an object, got {type(item).__name__}")
        missing = CALL_KEYS - set(item)
        if missing:
            raise ParseFailure(f"action call missing keys {sorted(missing)}")
        try:
            # Only the call keys: a status is not part of an instantiated action.
            action = ActionCall.from_call_dict({key: item[key] for key in CALL_KEYS})
        except TypeError as exc:
            raise ParseFailure(f"action call {exc}") from exc
        spec = REGISTRY.get(action.function)
        if spec is None:
            raise ParseFailure(f"action call names unregistered function {action.function!r}")
        if spec.requires_control and not action.control_text:
            raise ParseFailure(f"{action.function} requires a non-empty controlText")
        actions.append(action)
    return actions


def instantiate(
    record: TaskPlanRecord,
    templates: Sequence[AppTemplate],
    oracle: Provider,
) -> InstantiatedTask:
    if not templates:
        raise NoTemplateMatch("template set is empty")
    template = select_template(record.task, templates)
    snapshot = template.fresh_snapshot()
    request = OracleRequest(
        template_id="instantiate",
        substitutions={
            "apis": registry_help(),
            "examples": EXAMPLE_CALLS,
            "given_task": record.task,
            "reference_steps": json.dumps(list(record.plan), ensure_ascii=False),
            "doc_canvas_state": snapshot.canvas_xml,
            "doc_control_state": snapshot.control_state.prompt_json,
        },
    )
    try:
        response = oracle.complete(request)
    except Exception as exc:
        raise OracleFailure(f"instantiation oracle failed for {record.task_id}: {exc}") from exc
    if response.parsed is None:
        raise ParseFailure(f"instantiation response unparseable: {response.parse_error}")
    parsed = response.parsed
    new_task = str(parsed.get("new_task", "")).strip()
    if not new_task:
        raise ParseFailure("instantiation produced an empty new_task")
    actions = parse_actions_plan(parsed.get("actions_plan"))
    return InstantiatedTask(
        origin_task_id=record.task_id,
        instantiated_task=new_task,
        template_id=template.template_id,
        actions=tuple(actions),
        thought=str(parsed.get("thought", "")),
    )
