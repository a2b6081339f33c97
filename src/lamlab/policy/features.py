"""Feature extraction for candidate scoring.

Every (state, candidate) pair maps to a fixed-length vector aligned with
FEATURE_NAMES: a block of hand-designed signals followed by one-hot blocks
for the function and the target control type. All features are deterministic
functions of the pair and lie in [0, 1].
"""

from __future__ import annotations

from ..env_sim import REGISTRY, needs_selection
from ..textutil import set_overlap, token_set
from .candidates import CandidateAction
from .state import FORMAT_KEYWORDS, AgentState

__all__ = [
    "BASE_FEATURES",
    "FEATURE_NAMES",
    "STATUS_FEATURES",
    "FORMAT_KEYWORDS",
    "featurize",
    "status_features",
]

# Base signal block. Definitions:
#   overlap_task      token overlap of candidate control text with the task
#   overlap_plan      token overlap of control text with the current plan step
#   func_task_affinity   1 if a trigger keyword of the function is in the task
#   func_plan_affinity   1 if a trigger keyword is in the current plan step
#   repeat_last       1 if the candidate equals the previously executed action
#   progress          (step_id - 1) / 20
#   selection_ready   candidate needs a selection and one is active
#   selection_missing candidate needs a selection and none is active
#   select_needed     select_text candidate, no selection yet, formatting task
#   position_prior    1 / (1 + index of the control in the observed list)
#   args_present      1 if the candidate carries any arguments
#   is_finish         1 for the pure-FINISH pseudo-candidate
#   finish_plan_done  is_finish and the previous plan is exhausted
BASE_FEATURES = (
    "overlap_task",
    "overlap_plan",
    "func_task_affinity",
    "func_plan_affinity",
    "repeat_last",
    "progress",
    "selection_ready",
    "selection_missing",
    "select_needed",
    "position_prior",
    "args_present",
    "is_finish",
    "finish_plan_done",
)

FUNC_TRIGGERS: dict[str, tuple[str, ...]] = {
    "click_input": (),
    "set_edit_text": ("enter", "edit"),
    "type_keys": ("type", "write", "append"),
    "select_text": ("highlight", "bold", "color", "size", "font", "comment"),
    "select_option": ("option", "style", "dropdown"),
    "scroll": ("scroll",),
    "toggle_highlight": ("highlight",),
    "set_font_size": ("font size", "size"),
    "set_font_color": ("color",),
    "insert_page_border": ("border",),
    "insert_table": ("table",),
    "toggle_bold": ("bold",),
}

_FUNC_BLOCK = tuple(f"func::{name}" for name in REGISTRY) + ("func::<finish>",)
_CTYPE_BLOCK = (
    "ctype::Button",
    "ctype::Edit",
    "ctype::TabItem",
    "ctype::ListItem",
    "ctype::MenuItem",
    "ctype::ScrollBar",
    "ctype::TreeItem",
    "ctype::Document",
    "ctype::Hyperlink",
    "ctype::ComboBox",
    "ctype::<none>",
)

FEATURE_NAMES: tuple[str, ...] = BASE_FEATURES + _FUNC_BLOCK + _CTYPE_BLOCK

# Position of each function / control type within its one-hot block.
_FUNC_INDEX = {name.removeprefix("func::"): i for i, name in enumerate(_FUNC_BLOCK)}
_CTYPE_INDEX = {name.removeprefix("ctype::"): i for i, name in enumerate(_CTYPE_BLOCK)}

STATUS_FEATURES = (
    "bias",
    "progress",
    "is_first_step",
    "plan_remaining",
    "plan_on_last_step",
    "format_task",
)


def _affinity(function: str, low: str) -> float:
    """1.0 if a trigger keyword of ``function`` occurs in the lowercased ``low``."""
    return 1.0 if any(trigger in low for trigger in FUNC_TRIGGERS.get(function, ())) else 0.0


def _one_hot(index: int | None, size: int) -> list[float]:
    row = [0.0] * size
    if index is not None:
        row[index] = 1.0
    return row


def featurize(state: AgentState, candidate: CandidateAction) -> list[float]:
    selection = state.selection_active
    last = state.last_action()

    repeat = 0.0
    if last is not None and not candidate.is_finish:
        if (
            last.function == candidate.function
            and last.control_text == candidate.control_text
            and dict(last.args) == candidate.args_dict()
        ):
            repeat = 1.0

    needs_sel = (not candidate.is_finish) and needs_selection(
        candidate.function, candidate.control_text
    )

    overlap_task = overlap_plan = 0.0
    if candidate.control:
        words = token_set(candidate.control_text)
        overlap_task = set_overlap(words, state.task_tokens)
        overlap_plan = set_overlap(words, state.step_tokens)

    position_prior = 0.0
    if candidate.control is not None:
        label = candidate.control_label
        if label.isdigit():
            position_prior = 1.0 / (1.0 + float(label))

    values = [
        overlap_task,
        overlap_plan,
        0.0 if candidate.is_finish else _affinity(candidate.function, state.task_lower),
        0.0 if candidate.is_finish else _affinity(candidate.function, state.step_lower),
        repeat,
        min((state.step_id - 1) / 20.0, 1.0),
        1.0 if needs_sel and selection else 0.0,
        1.0 if needs_sel and not selection else 0.0,
        1.0
        if candidate.function == "select_text" and not selection and state.is_format_task
        else 0.0,
        position_prior,
        1.0 if candidate.args else 0.0,
        1.0 if candidate.is_finish else 0.0,
        1.0 if candidate.is_finish and not state.previous_plan else 0.0,
    ]
    func_name = "<finish>" if candidate.is_finish else candidate.function
    values.extend(_one_hot(_FUNC_INDEX.get(func_name), len(_FUNC_BLOCK)))
    ctype = candidate.control_type or "<none>"
    values.extend(_one_hot(_CTYPE_INDEX.get(ctype), len(_CTYPE_BLOCK)))
    return values


def status_features(state: AgentState) -> list[float]:
    return [
        1.0,
        min((state.step_id - 1) / 20.0, 1.0),
        1.0 if state.step_id == 1 else 0.0,
        min(len(state.previous_plan) / 20.0, 1.0),
        1.0 if len(state.previous_plan) == 1 else 0.0,
        1.0 if state.is_format_task else 0.0,
    ]
