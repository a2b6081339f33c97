"""Candidate actions: the finite decision space at one state.

A candidate is (control from the observed list) x (applicable registry
function) x (an args template extracted deterministically from the task
text). Functions whose arguments cannot be derived from the task contribute
no candidate. No candidate stops a run: the status head decides whether the
chosen action carries FINISH.

The args template depends only on the task and the function, so the
templates of all registry functions are extracted and sorted once per task
text (a bounded cache: a run's states share one task) and shared by every
candidate of that function. A candidate's control is the state's own control
dict, shared read-only, not a copy.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import ClassVar

from ..env_sim import REGISTRY, STATUS_CONTINUE, ActionCall, registry_order
from ..errors import StepActionNotInCandidateSet
from ..textutil import first_color, first_int, first_quoted, table_dims
from .state import AgentState

__all__ = ["CandidateAction", "extract_args", "enumerate_candidates", "match_expert"]


@dataclass(frozen=True)
class CandidateAction:
    function: str
    control: dict | None
    args: tuple[tuple[str, object], ...]
    # Always False. benchmarks/layers.py still reads it; it goes with the
    # benchmark's next change (ROADMAP item 5), like desk_phase_configs.
    is_finish: ClassVar[bool] = False

    @property
    def control_text(self) -> str:
        return self.control["control_text"] if self.control else ""

    @property
    def control_label(self) -> str:
        return self.control["label"] if self.control else ""

    @property
    def control_type(self) -> str:
        return self.control["control_type"] if self.control else ""

    def args_dict(self) -> dict:
        return dict(self.args)

    def to_action_call(self, status: str | None = None) -> ActionCall:
        target = f" on {self.control_text!r}" if self.control else ""
        return ActionCall(
            step=f"{self.function}{target}",
            control_label=self.control_label,
            control_text=self.control_text,
            function=self.function,
            args=self.args_dict(),
            status=status or STATUS_CONTINUE,
        )

    def sort_key(self) -> tuple:
        label = self.control_label
        label_key = (0, int(label)) if label.isdigit() else (1, 0)
        return (label_key if self.control else (2, 0), registry_order(self.function))


def extract_args(task: str, function: str) -> dict | None:
    """Deterministic args template from the task text; None = no candidate."""
    if function == "click_input":
        return {"button": "left", "double": False}
    if function == "scroll":
        return {"direction": "down", "amount": 3}
    if function in ("select_text", "type_keys", "set_edit_text"):
        quoted = first_quoted(task)
        return {"text": quoted} if quoted else None
    if function == "select_option":
        quoted = first_quoted(task)
        return {"option": quoted} if quoted else None
    if function == "toggle_highlight":
        return {"color": first_color(task) or "yellow"}
    if function == "set_font_size":
        size = first_int(task)
        return {"size": size} if size else None
    if function == "set_font_color":
        color = first_color(task)
        return {"color": color} if color else None
    if function == "insert_page_border":
        return {"style": "box"}
    if function == "insert_table":
        dims = table_dims(task)
        return {"rows": dims[0], "cols": dims[1]} if dims else None
    if function == "toggle_bold":
        return {}
    raise ValueError(f"unknown function {function!r}")


@functools.lru_cache(maxsize=1024)
def _task_templates(task: str) -> tuple[tuple, tuple[CandidateAction, ...]]:
    """The args templates of the task, in registry order: (function, control
    types, sorted args) of every targeted function, and the candidate of
    every target-free function."""
    targeted = []
    free = []
    for name, spec in REGISTRY.items():
        args = extract_args(task, name)
        if args is None:
            continue
        args = tuple(sorted(args.items()))
        if spec.requires_control:
            targeted.append((name, spec.control_types, args))
        else:
            free.append(CandidateAction(function=name, control=None, args=args))
    return tuple(targeted), tuple(free)


def enumerate_candidates(state: AgentState) -> list[CandidateAction]:
    """All materializable actions at this state, in deterministic order:
    targeted functions over the control list, then target-free functions."""
    targeted, free = _task_templates(state.task)
    candidates = [
        CandidateAction(function=name, control=control, args=args)
        for control in state.controls
        for name, control_types, args in targeted
        if not control_types or control["control_type"] in control_types
    ]
    candidates.extend(free)
    return candidates


def _args_key(args: dict) -> str:
    return json.dumps({k: v for k, v in args.items() if k != "control_id"}, sort_keys=True)


def match_expert(candidates: list[CandidateAction], action: ActionCall) -> int:
    """Index of the candidate that materializes the expert action."""
    expert_args = _args_key(dict(action.args))
    for i, c in enumerate(candidates):
        if c.function != action.function:
            continue
        if action.control_label and c.control_label != action.control_label:
            continue
        if action.control_text and c.control_text != action.control_text:
            continue
        if not action.control_text and not action.control_label and c.control is not None:
            continue
        if _args_key(c.args_dict()) == expert_args:
            return i
    raise StepActionNotInCandidateSet(
        f"expert action {action.function} on {action.control_text!r} "
        f"args {dict(action.args)} is not materializable at this state"
    )
