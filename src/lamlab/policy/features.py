"""Feature extraction for candidate scoring.

Every (state, candidate) pair has one feature per entry of FEATURE_NAMES; all
of them are deterministic functions of the pair and lie in [0, 1]. Stopping
is the status head's decision alone. FEATURE_NAMES is four contiguous
blocks, ordered by what their features depend on:

1. ``progress``: the state alone;
2. the function block: the candidate's function and args (the task and
   plan-step affinities, select-needed, args-present, the function one-hot);
3. the control block: the candidate's control (the task and plan-step
   overlaps, the position prior, the control-type one-hot);
4. the pair block: function and control together (repeat-last, selection
   ready or missing).

Each block is built by exactly one function below, which returns its fixed
``(index, value)`` slots in index order; a slot may hold 0.0. The pair
block takes one of eight values (``_PAIR_BLOCKS``), and ``_pair_codes``
picks each pair's. Training and inference both read the features from those
functions:

* ``featurize`` concatenates a pair's non-zero slots into its sparse row
  (indices strictly increasing), which ``model.score_rows`` scores;
* ``candidate_scores`` scores every candidate of a state for the agent,
  without a row or a candidate per pair: once per function the prefix
  ``0.0 + w·slots`` of the first two blocks, once per control its four
  products, and per pair ``prefix + control products + pair products``.

Both add a pair's terms left to right in index order, starting at +0.0. A
zero slot adds w * 0.0 = +-0.0, which never changes such a sum, so the
agent's scores equal ``score_rows`` over the rows float for float.
"""

from __future__ import annotations

import functools
from typing import Mapping, Sequence

from ..env_sim import REGISTRY, needs_selection
from .candidates import CandidateAction, _applicable, _task_templates
from .state import CONTROL_TYPES, FORMAT_KEYWORDS, AgentState, _text_tokens

__all__ = [
    "FEATURE_NAMES",
    "STATUS_FEATURES",
    "FORMAT_KEYWORDS",
    "SparseRow",
    "candidate_scores",
    "featurize",
    "status_features",
]

# The four blocks, in layout order. Definitions:
#   progress             (step_id - 1) / 20, capped at 1
#   func_task_affinity   1 if a trigger keyword of the function is in the task
#   func_plan_affinity   1 if a trigger keyword is in the current plan step
#   select_needed        select_text candidate, no selection yet, formatting task
#   args_present         1 if the candidate carries any arguments
#   func::<name>         one-hot of the registry function
#   overlap_task         token overlap of the control text with the task
#   overlap_plan         token overlap of the control text with the current plan step
#   position_prior       1 / (1 + label) of a numeric control label
#   ctype::<type>        one-hot of the control type; <none>: no control or no type
#   repeat_last          1 if the candidate equals the previously executed action
#   selection_ready      the call needs a selection and one is active
#   selection_missing    the call needs a selection and none is active
PROGRESS_BLOCK = ("progress",)
FUNCTION_BLOCK = ("func_task_affinity", "func_plan_affinity", "select_needed", "args_present")
FUNCTION_BLOCK += tuple(f"func::{name}" for name in REGISTRY)
CONTROL_BLOCK = ("overlap_task", "overlap_plan", "position_prior")
CONTROL_BLOCK += tuple(f"ctype::{name}" for name in CONTROL_TYPES)
PAIR_BLOCK = ("repeat_last", "selection_ready", "selection_missing")

FEATURE_NAMES: tuple[str, ...] = PROGRESS_BLOCK + FUNCTION_BLOCK + CONTROL_BLOCK + PAIR_BLOCK

# The non-zero features of one pair: (feature indices, values), indices
# strictly increasing.
SparseRow = tuple[tuple[int, ...], tuple[float, ...]]

# One feature of a block: (index in FEATURE_NAMES, value).
Slot = tuple[int, float]

_INDEX = {name: j for j, name in enumerate(FEATURE_NAMES)}
_TASK_AFFINITY, _PLAN_AFFINITY = _INDEX["func_task_affinity"], _INDEX["func_plan_affinity"]
_SELECT_NEEDED, _ARGS_PRESENT = _INDEX["select_needed"], _INDEX["args_present"]
_OVERLAP_TASK, _OVERLAP_PLAN = _INDEX["overlap_task"], _INDEX["overlap_plan"]
_POSITION_PRIOR = _INDEX["position_prior"]
_FUNC_INDEX = {name: _INDEX[f"func::{name}"] for name in REGISTRY}
# The type slot of each control type; any other type's is the <none> one at 0.0.
_TYPE_SLOTS = {name: (_INDEX[f"ctype::{name}"], 1.0) for name in CONTROL_TYPES}
_UNKNOWN_TYPE = (_INDEX["ctype::<none>"], 0.0)
_NO_CONTROL = (
    (_OVERLAP_TASK, 0.0), (_OVERLAP_PLAN, 0.0), (_POSITION_PRIOR, 0.0), _TYPE_SLOTS["<none>"]
)

STATUS_FEATURES = (
    "bias",
    "progress",
    "is_first_step",
    "plan_remaining",
    "plan_on_last_step",
    "format_task",
)


def _progress_slots(state: AgentState) -> tuple[Slot]:
    return ((_INDEX["progress"], state.progress),)


def _function_slots(state: AgentState, function: str, args: tuple) -> tuple[Slot, ...]:
    """The function block of a candidate with this function and args. A
    function outside the registry has no one-hot slot."""
    select = function == "select_text" and not state.selection_active and state.is_format_task
    slots = (
        (_TASK_AFFINITY, state.task_affinity.get(function, 0.0)),
        (_PLAN_AFFINITY, state.step_affinity.get(function, 0.0)),
        (_SELECT_NEEDED, 1.0 if select else 0.0),
        (_ARGS_PRESENT, 1.0 if args else 0.0),
    )
    j = _FUNC_INDEX.get(function)
    return slots if j is None else (*slots, (j, 1.0))


def _control_slots(
    state: AgentState, controls: Sequence[dict | None]
) -> list[tuple[Slot, Slot, Slot, Slot]]:
    """The control block of each control, in order; None stands for no
    control. An overlap is ``set_overlap``, with the common disjoint case
    first."""
    task, step = state.task_tokens, state.step_tokens
    blocks = []
    for control in controls:
        if not control:
            blocks.append(_NO_CONTROL)
            continue
        label = control["label"]
        words = _text_tokens(control["control_text"])
        type_slot = _TYPE_SLOTS.get(control["control_type"] or "<none>", _UNKNOWN_TYPE)
        blocks.append((
            (_OVERLAP_TASK, 0.0 if words.isdisjoint(task) else len(words & task) / len(words)),
            (_OVERLAP_PLAN, 0.0 if words.isdisjoint(step) else len(words & step) / len(words)),
            (_POSITION_PRIOR, 1.0 / (1.0 + float(label)) if label.isdigit() else 0.0),
            type_slot,
        ))
    return blocks


# The pair block of every case, by its code 4 * repeat + 2 * needs + selection:
# whether the candidate repeats the last action, whether its call needs a
# selection and whether one is active.
_PAIR_BLOCKS = tuple(
    (
        (_INDEX["repeat_last"], 1.0 if repeat else 0.0),
        (_INDEX["selection_ready"], 1.0 if needs and selection else 0.0),
        (_INDEX["selection_missing"], 1.0 if needs and not selection else 0.0),
    )
    for repeat in (False, True)
    for needs in (False, True)
    for selection in (False, True)
)


def _repeated(state: AgentState, args: Mapping[str, tuple]) -> tuple[str, str] | None:
    """(control text, function) of the candidate, with its args from
    ``args``, that equals the last action: same function, control text and
    args. None if no candidate does."""
    last = state.last_action()
    if last is not None and last.function in args and dict(last.args) == dict(args[last.function]):
        return last.control_text, last.function
    return None


@functools.lru_cache(maxsize=4096)
def _pair_codes(
    functions: tuple[str, ...], text: str, selection: bool, repeated: tuple[str, str] | None
) -> tuple[int, ...]:
    """The code in ``_PAIR_BLOCKS`` of each function's pair block on a
    control with this text ("" for none), at a state with or without an
    active selection whose ``_repeated`` candidate is ``repeated``."""
    return tuple(
        4 * ((text, name) == repeated) + 2 * needs_selection(name, text) + selection
        for name in functions
    )


def featurize(state: AgentState, candidate: CandidateAction) -> SparseRow:
    """The sparse row of one pair: its blocks' non-zero slots."""
    function, control = candidate.function, candidate.control
    text = control["control_text"] if control else ""
    (control_slots,) = _control_slots(state, (control,))
    repeated = _repeated(state, {function: candidate.args})
    (pair,) = _pair_codes((function,), text, state.selection_active, repeated)
    slots = (
        *_progress_slots(state),
        *_function_slots(state, function, candidate.args),
        *control_slots,
        *_PAIR_BLOCKS[pair],
    )
    return tuple(j for j, x in slots if x), tuple(x for _, x in slots if x)


def candidate_scores(state: AgentState, w: Sequence[float]) -> list[float]:
    """The action head's score under the dense weights ``w`` of every
    candidate of ``enumerate_candidates(state)``, in that order: the targeted
    functions over the controls, then the target-free functions. Each score
    is the float ``score_rows(w, [featurize(state, c)])`` gives."""
    targeted, free, args = _task_templates(state.task)
    (progress,) = _progress_slots(state)
    prefixes = {}
    for name, template in args.items():
        prefix = 0.0
        for j, x in (progress, *_function_slots(state, name, template)):
            prefix += w[j] * x
        prefixes[name] = prefix
    selection, repeated = state.selection_active, _repeated(state, args)
    pair_terms = [[w[j] * x for j, x in block] for block in _PAIR_BLOCKS]
    scores: list[float] = []
    append = scores.append
    controls = (*state.controls, None)
    for control, block in zip(controls, _control_slots(state, controls)):
        if control is None:
            names, text = free, ""
        else:
            names, text = _applicable(targeted, control["control_type"]), control["control_text"]
        if not names:
            continue
        (i0, x0), (i1, x1), (i2, x2), (i3, x3) = block
        c0, c1, c2, c3 = w[i0] * x0, w[i1] * x1, w[i2] * x2, w[i3] * x3
        for name, pair in zip(names, _pair_codes(names, text, selection, repeated)):
            p0, p1, p2 = pair_terms[pair]
            append(prefixes[name] + c0 + c1 + c2 + c3 + p0 + p1 + p2)
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
