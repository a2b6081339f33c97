"""Feature extraction for candidate scoring.

Every (state, candidate) pair has one feature per entry of FEATURE_NAMES: a
block of hand-designed signals followed by one-hot blocks for the registry
function and the target control type; stopping is the status head's decision
alone. All features are deterministic functions of the pair and lie in
[0, 1]. A pair sets only about four of them, so ``featurize`` returns its
sparse row: the indices of the non-zero features, strictly increasing, and
their values; ``status_features`` returns the status head's row the same
way. Training scores sparse rows with ``model.score_rows``, because its
gradients need the rows; inference needs only the action scores, and
``candidate_scores`` computes them for a whole state in one pass, without a
row or a candidate per pair.

Training calls ``featurize`` once per pair. The function-task and
function-plan affinities and the progress value are computed once per state
(``AgentState`` cached properties); a control's overlaps, position prior and
type index come from ``_control_values`` on each call, and
``candidate_scores`` computes them once per control.
"""

from __future__ import annotations

import functools
from typing import Sequence

from ..env_sim import REGISTRY, needs_selection
from .candidates import CandidateAction, _applicable, _task_templates
from .state import CONTROL_TYPES, FORMAT_KEYWORDS, FUNC_TRIGGERS, AgentState, _control_values

__all__ = [
    "BASE_FEATURES",
    "FEATURE_NAMES",
    "STATUS_FEATURES",
    "FORMAT_KEYWORDS",
    "SparseRow",
    "candidate_scores",
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
)

_FUNC_BLOCK = tuple(f"func::{name}" for name in REGISTRY)
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
    control = candidate.control
    if control:
        text = control["control_text"]
        ((overlap_task, overlap_plan, position_prior, ctype),) = _control_values(state, (control,))
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
    if needs_selection(function, text):
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
    j = _FUNC_INDEX.get(function)
    if j is not None:
        idx.append(j)
        xs.append(1.0)
    if ctype is not None:
        idx.append(_CTYPE_START + ctype)
        xs.append(1.0)
    return tuple(idx), tuple(xs)


@functools.lru_cache(maxsize=4096)
def _selection_flags(functions: tuple[str, ...], text: str) -> tuple[bool, ...]:
    """``needs_selection`` of each function on a control with this text."""
    return tuple(needs_selection(function, text) for function in functions)


def candidate_scores(state: AgentState, w: Sequence[float]) -> list[float]:
    """The action head's score under the dense weights ``w`` of every
    candidate of ``enumerate_candidates(state)``, in that order: the targeted
    functions over the controls, then the target-free functions.

    Each score is the float ``score_rows(w, [featurize(state, c)])`` gives,
    but no row and no candidate is built. The overlap prefix, position-prior
    and type terms are computed once per control; the affinity,
    select-needed, args and one-hot terms once per function; a pair adds
    them, in feature-index order, to the running score. ``score_rows`` is a
    left-to-right ``sum()`` started at +0.0 on CPython 3.11, and a term
    w * 0.0 = +-0.0 of a feature that a row skips never changes such a sum,
    so the floats are equal. From CPython 3.12 on ``sum()`` compensates, and
    ``score_rows`` may differ from this pass in the last bits.
    """
    selection = state.selection_active
    select_term = w[6] if selection else w[7]
    format_select = not selection and state.is_format_task
    progress_term = w[5] * state.progress
    last = state.previous_actions[-1][0] if state.previous_actions else None
    task_affinity, step_affinity = state.task_affinity, state.step_affinity

    def function_terms(name: str, args: tuple) -> tuple:
        """The function's terms in feature order, with the function half of
        the repeat test in place of its term."""
        return (
            w[2] * task_affinity.get(name, 0.0),
            w[3] * step_affinity.get(name, 0.0),
            last is not None and last.function == name and dict(last.args) == dict(args),
            w[8] if name == "select_text" and format_select else 0.0,
            w[10] if args else 0.0,
            w[_FUNC_INDEX[name]],
        )

    targeted, args, free = _task_templates(state.task)
    terms = {name: function_terms(name, args[name]) for name in targeted}
    # Per control type: the names and terms of the functions that apply.
    groups: dict[str, tuple[tuple[str, ...], list[tuple]]] = {}
    scores: list[float] = []
    append = scores.append
    controls = state.controls
    for control, values in zip((*controls, None), _control_values(state, controls) + [None]):
        if control is None:
            names = tuple(c.function for c in free)
            functions = [function_terms(c.function, c.args) for c in free]
            text = ""
            head = prior_term = 0.0
            type_term = w[_CTYPE_START + _NO_CONTROL]
        else:
            ctype = control["control_type"]
            group = groups.get(ctype)
            if group is None:
                names = _applicable(targeted, ctype)
                group = groups[ctype] = (names, [terms[name] for name in names])
            names, functions = group
            if not names:
                continue
            text = control["control_text"]
            overlap_task, overlap_plan, prior, type_index = values
            head = 0.0 + w[0] * overlap_task + w[1] * overlap_plan
            prior_term = w[9] * prior
            type_term = 0.0 if type_index is None else w[_CTYPE_START + type_index]
        repeat_text = last is not None and last.control_text == text
        for (task_term, step_term, repeat, select_needed, args_term, one_hot), needs in zip(
            functions, _selection_flags(names, text)
        ):
            score = head + task_term + step_term
            if repeat and repeat_text:
                score += w[4]
            score += progress_term
            if needs:
                score += select_term
            append(score + select_needed + prior_term + args_term + one_hot + type_term)
    return scores


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
