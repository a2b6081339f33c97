"""Agent-visible state: what the model sees before choosing an action.

A state's serialized form is the ``input`` object of an offline training
record (``dataflow.postprocess.record_inputs``), which ``from_record_input``
reads back, so online inference and offline training consume one schema.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .. import env_sim
from ..env_sim import ActionCall
from ..textutil import token_set

__all__ = ["AgentState", "CONTROL_TYPES", "FORMAT_KEYWORDS", "FUNC_TRIGGERS"]

# A task naming any of these asks for formatting, which acts on a selection.
FORMAT_KEYWORDS = ("highlight", "bold", "color", "size", "font", "comment")

# A task or plan step naming any of a function's trigger keywords has an
# affinity for that function.
FUNC_TRIGGERS: dict[str, tuple[str, ...]] = {
    "click_input": (),
    "set_edit_text": ("enter", "edit"),
    "type_keys": ("type", "write", "append"),
    # Formatting acts on a selection, so a formatting task calls for one first.
    "select_text": FORMAT_KEYWORDS,
    "select_option": ("option", "style", "dropdown"),
    "scroll": ("scroll",),
    "toggle_highlight": ("highlight",),
    "set_font_size": ("font size", "size"),
    "set_font_color": ("color",),
    "insert_page_border": ("border",),
    "insert_table": ("table",),
    "toggle_bold": ("bold",),
}


# Control types with a one-hot feature each, then the pseudo-type of a
# candidate without a control (or of a control with an empty type). Any other
# type has no one-hot feature.
CONTROL_TYPES = env_sim.CONTROL_TYPES + ("<none>",)


@functools.lru_cache(maxsize=4096)
def _text_tokens(text: str) -> frozenset[str]:
    """Token set of a control text, task or plan step. A run's states share
    one task and a few plan steps, and control texts come from the
    templates' small vocabulary, so the bounded cache tokenizes each text
    once."""
    return token_set(text)


@functools.lru_cache(maxsize=1024)
def _affinities(low: str) -> Mapping[str, float]:
    """1.0 for each function with a trigger keyword in the lowercased ``low``,
    0.0 for the others; cached per text, so the mapping is read-only."""
    return MappingProxyType({
        function: 1.0 if any(trigger in low for trigger in triggers) else 0.0
        for function, triggers in FUNC_TRIGGERS.items()
    })


@dataclass(frozen=True)
class AgentState:
    """One observed state. The cached properties are the per-state values
    that every candidate's features read; each is computed once per state."""

    task: str
    step_id: int
    controls: tuple[dict, ...]
    previous_actions: tuple[tuple[ActionCall, dict], ...] = ()
    previous_plan: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.step_id < 1:
            raise ValueError("step_id starts at 1")

    @cached_property
    def current_step(self) -> str:
        """The plan step being worked on: the head of the previous plan."""
        return self.previous_plan[0] if self.previous_plan else ""

    @cached_property
    def task_lower(self) -> str:
        return self.task.lower()

    @cached_property
    def task_tokens(self) -> frozenset[str]:
        return _text_tokens(self.task)

    @cached_property
    def step_tokens(self) -> frozenset[str]:
        return _text_tokens(self.current_step)

    @cached_property
    def task_affinity(self) -> Mapping[str, float]:
        """Per registry function: 1.0 if a trigger keyword is in the task."""
        return _affinities(self.task_lower)

    @cached_property
    def step_affinity(self) -> Mapping[str, float]:
        """Per registry function: 1.0 if a trigger keyword is in the current
        plan step."""
        return _affinities(self.current_step.lower())

    @cached_property
    def progress(self) -> float:
        """(step_id - 1) / 20, capped at 1."""
        return min((self.step_id - 1) / 20.0, 1.0)

    @cached_property
    def is_format_task(self) -> bool:
        return any(k in self.task_lower for k in FORMAT_KEYWORDS)

    @cached_property
    def selection_active(self) -> bool:
        """Whether a prior select_text succeeded (and still holds)."""
        for action, result in reversed(self.previous_actions):
            if action.function == "select_text" and result.get("ok"):
                return True
        return False

    def last_action(self) -> ActionCall | None:
        return self.previous_actions[-1][0] if self.previous_actions else None

    @classmethod
    def from_record_input(cls, obj: dict) -> "AgentState":
        history = tuple(
            (
                ActionCall.from_call_dict(item["action"]),
                dict(item["result"]),
            )
            for item in obj["step_history"]
        )
        return cls(
            task=obj["user_request"],
            step_id=len(history) + 1,
            controls=tuple(obj["available_controls"]),
            previous_actions=history,
            previous_plan=tuple(obj["previous_plan"]),
        )
