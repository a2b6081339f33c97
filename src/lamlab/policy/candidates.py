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
from types import MappingProxyType
from typing import ClassVar, Mapping

from ..env_sim import REGISTRY, STATUS_CONTINUE, ActionCall
from ..errors import StepActionNotInCandidateSet
from ..textutil import first_color, first_int, first_quoted, table_dims
from .state import AgentState

__all__ = [
    "CandidateAction", "extract_args", "enumerate_candidates", "candidate_at", "match_expert"
]


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
def _task_templates(
    task: str,
) -> tuple[tuple[str, ...], tuple[str, ...], Mapping[str, tuple]]:
    """The args templates of the task, in registry order: the names of the
    targeted functions that have one, the names of the target-free functions
    that have one, and every such function's sorted args by name."""
    targeted: list[str] = []
    free: list[str] = []
    templates: dict[str, tuple] = {}
    for name, spec in REGISTRY.items():
        args = extract_args(task, name)
        if args is None:
            continue
        templates[name] = tuple(sorted(args.items()))
        (targeted if spec.requires_control else free).append(name)
    return tuple(targeted), tuple(free), MappingProxyType(templates)


@functools.lru_cache(maxsize=1024)
def _applicable(functions: tuple[str, ...], control_type: str) -> tuple[str, ...]:
    """The targeted functions, in their order, that act on a control of this
    type. Tasks share a few sets of functions, so the cache stays small."""
    return tuple(
        name
        for name in functions
        if not REGISTRY[name].control_types or control_type in REGISTRY[name].control_types
    )


def enumerate_candidates(state: AgentState) -> list[CandidateAction]:
    """All materializable actions at this state, in deterministic order:
    targeted functions over the control list, then target-free functions."""
    functions, free, args = _task_templates(state.task)
    candidates = [
        CandidateAction(function=name, control=control, args=args[name])
        for control in state.controls
        for name in _applicable(functions, control["control_type"])
    ]
    candidates += (CandidateAction(function=name, control=None, args=args[name]) for name in free)
    return candidates


def candidate_at(state: AgentState, index: int) -> CandidateAction:
    """The candidate at ``index`` of ``enumerate_candidates(state)``, found by
    walking that order without building the others; an IndexError if the
    state has no such candidate."""
    functions, free, args = _task_templates(state.task)
    i = index
    if i >= 0:
        for control in state.controls:
            names = _applicable(functions, control["control_type"])
            if i < len(names):
                return CandidateAction(function=names[i], control=control, args=args[names[i]])
            i -= len(names)
        if i < len(free):
            return CandidateAction(function=free[i], control=None, args=args[free[i]])
    raise IndexError(f"candidate index {index} out of range")


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
