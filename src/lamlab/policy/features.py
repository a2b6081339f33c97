"""Feature extraction for candidate scoring.

Every (state, candidate) pair has one feature per entry of FEATURE_NAMES: a
block of hand-designed signals followed by one-hot blocks for the function
and the target control type. All features are deterministic functions of the
pair and lie in [0, 1]. A pair sets only about four of them, so ``featurize``
returns its sparse row: the indices of the non-zero features, strictly
increasing, and their values; ``status_features`` returns the status
head's row the same way. Every head scores sparse rows with
``model.score_rows``; the plan head's rows come from ``model.plan_rows``.

``featurize`` is called once per pair, but it recomputes only what depends on
the pair. The function-task and function-plan affinities, the progress value
and each control's overlaps, position prior and type index are computed once
per state (``AgentState`` cached properties).
"""

from __future__ import annotations

from ..env_sim import REGISTRY, needs_selection
from .candidates import CandidateAction
from .state import CONTROL_TYPES, FORMAT_KEYWORDS, FUNC_TRIGGERS, AgentState

__all__ = [
    "BASE_FEATURES",
    "FEATURE_NAMES",
    "STATUS_FEATURES",
    "FORMAT_KEYWORDS",
    "SparseRow",
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
_CTYPE_BLOCK = tuple(f"ctype::{name}" for name in CONTROL_TYPES)

FEATURE_NAMES: tuple[str, ...] = BASE_FEATURES + _FUNC_BLOCK + _CTYPE_BLOCK

# The non-zero features of one pair: (feature indices, values), indices
# strictly increasing.
SparseRow = tuple[tuple[int, ...], tuple[float, ...]]

# Feature index of every function's one-hot; an unknown function has none.
_FUNC_INDEX = {
    name.removeprefix("func::"): len(BASE_FEATURES) + i for i, name in enumerate(_FUNC_BLOCK)
}
_CTYPE_START = len(BASE_FEATURES) + len(_FUNC_BLOCK)
_NO_CONTROL = CONTROL_TYPES.index("<none>")

STATUS_FEATURES = (
    "bias",
    "progress",
    "is_first_step",
    "plan_remaining",
    "plan_on_last_step",
    "format_task",
)


def featurize(state: AgentState, candidate: CandidateAction) -> SparseRow:
    """The sparse row of one pair. The literal indices are the positions of
    the features in BASE_FEATURES; features are appended in that order."""
    idx: list[int] = []
    xs: list[float] = []
    function = candidate.function
    is_finish = candidate.is_finish
    control = candidate.control
    if control:
        text = control["control_text"]
        key = (control["label"], text, control["control_type"])
        values = state.control_values.get(key) or state.values_of(control)
        overlap_task, overlap_plan, position_prior, ctype = values
        if overlap_task:
            idx.append(0)
            xs.append(overlap_task)
        if overlap_plan:
            idx.append(1)
            xs.append(overlap_plan)
    else:
        text = ""
        position_prior = 0.0
        ctype = _NO_CONTROL
    if not is_finish:
        affinity = state.task_affinity.get(function)
        if affinity:
            idx.append(2)
            xs.append(affinity)
        affinity = state.step_affinity.get(function)
        if affinity:
            idx.append(3)
            xs.append(affinity)
        if state.previous_actions:
            last = state.previous_actions[-1][0]
            if (
                last.function == function
                and last.control_text == text
                and dict(last.args) == candidate.args_dict()
            ):
                idx.append(4)
                xs.append(1.0)
    progress = state.progress
    if progress:
        idx.append(5)
        xs.append(progress)
    selection = state.selection_active
    if not is_finish and needs_selection(function, text):
        idx.append(6 if selection else 7)
        xs.append(1.0)
    if function == "select_text" and not selection and state.is_format_task:
        idx.append(8)
        xs.append(1.0)
    if position_prior:
        idx.append(9)
        xs.append(position_prior)
    if candidate.args:
        idx.append(10)
        xs.append(1.0)
    if is_finish:
        idx.append(11)
        xs.append(1.0)
        if not state.previous_plan:
            idx.append(12)
            xs.append(1.0)
    j = _FUNC_INDEX.get("<finish>" if is_finish else function)
    if j is not None:
        idx.append(j)
        xs.append(1.0)
    if ctype is not None:
        idx.append(_CTYPE_START + ctype)
        xs.append(1.0)
    return tuple(idx), tuple(xs)


def status_features(state: AgentState) -> SparseRow:
    """The sparse row of the status head's features, in STATUS_FEATURES order."""
    plan = len(state.previous_plan)
    dense = (
        1.0,
        state.progress,
        1.0 if state.step_id == 1 else 0.0,
        min(plan / 20.0, 1.0),
        1.0 if plan == 1 else 0.0,
        1.0 if state.is_format_task else 0.0,
    )
    idx = tuple(j for j, x in enumerate(dense) if x)
    return idx, tuple(dense[j] for j in idx)
