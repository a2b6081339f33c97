"""Feature extraction for candidate scoring.

Every (state, candidate) pair maps to a fixed-length vector aligned with
FEATURE_NAMES: a block of hand-designed signals followed by one-hot blocks
for the function and the target control type. All features are deterministic
functions of the pair and lie in [0, 1].

``featurize`` is called once per pair, but it recomputes only what depends on
the pair. The function-task and function-plan affinities and the progress
value are computed once per state (``AgentState`` cached properties), the
token set of a control text once per distinct text, and the one-hot blocks
are tuples built once at import.
"""

from __future__ import annotations

import functools

from ..env_sim import REGISTRY, needs_selection
from ..textutil import set_overlap, token_set
from .candidates import CandidateAction
from .state import FORMAT_KEYWORDS, FUNC_TRIGGERS, AgentState

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


def _one_hot_rows(block: tuple[str, ...], prefix: str) -> dict[str, tuple[float, ...]]:
    """The one-hot row of every entry of ``block``, keyed by its name without
    ``prefix``."""
    return {
        name.removeprefix(prefix): tuple(1.0 if j == i else 0.0 for j in range(len(block)))
        for i, name in enumerate(block)
    }


# One-hot rows of each function / control type; an unknown one is all zeros.
_FUNC_ROWS = _one_hot_rows(_FUNC_BLOCK, "func::")
_CTYPE_ROWS = _one_hot_rows(_CTYPE_BLOCK, "ctype::")
_NO_FUNC = (0.0,) * len(_FUNC_BLOCK)
_NO_CTYPE = (0.0,) * len(_CTYPE_BLOCK)

STATUS_FEATURES = (
    "bias",
    "progress",
    "is_first_step",
    "plan_remaining",
    "plan_on_last_step",
    "format_task",
)


@functools.lru_cache(maxsize=4096)
def _text_tokens(text: str) -> frozenset[str]:
    """Token set of a control text. Control texts come from the templates'
    small vocabulary, so the bounded cache tokenizes each one once."""
    return token_set(text)


def featurize(state: AgentState, candidate: CandidateAction) -> list[float]:
    function = candidate.function
    text = candidate.control_text
    is_finish = candidate.is_finish
    selection = state.selection_active
    last = state.last_action()

    repeat = 0.0
    if last is not None and not is_finish:
        if (
            last.function == function
            and last.control_text == text
            and dict(last.args) == candidate.args_dict()
        ):
            repeat = 1.0

    needs_sel = (not is_finish) and needs_selection(function, text)

    overlap_task = overlap_plan = 0.0
    if candidate.control:
        words = _text_tokens(text)
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
        0.0 if is_finish else state.task_affinity.get(function, 0.0),
        0.0 if is_finish else state.step_affinity.get(function, 0.0),
        repeat,
        state.progress,
        1.0 if needs_sel and selection else 0.0,
        1.0 if needs_sel and not selection else 0.0,
        1.0 if function == "select_text" and not selection and state.is_format_task else 0.0,
        position_prior,
        1.0 if candidate.args else 0.0,
        1.0 if is_finish else 0.0,
        1.0 if is_finish and not state.previous_plan else 0.0,
    ]
    values += _FUNC_ROWS.get("<finish>" if is_finish else function, _NO_FUNC)
    values += _CTYPE_ROWS.get(candidate.control_type or "<none>", _NO_CTYPE)
    return values


def status_features(state: AgentState) -> list[float]:
    return [
        1.0,
        state.progress,
        1.0 if state.step_id == 1 else 0.0,
        min(len(state.previous_plan) / 20.0, 1.0),
        1.0 if len(state.previous_plan) == 1 else 0.0,
        1.0 if state.is_format_task else 0.0,
    ]
