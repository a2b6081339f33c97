"""Differentiable objectives with exact analytic gradients, and the one
minibatch loop (``train_params``) that trains every head.

All heads are linear in their named weights, so cross-entropy gradients have
the closed form sum((p - y) * x) and match finite differences to numerical
precision. Gradients come back as name -> value dicts over the weights the
loss touches.

Each loss is split in two. Preparation does the weight-independent work once
per corpus and turns every item into sparse rows: ``prepare_imitation``
featurizes the candidates of every step and matches the expert action;
``prepare_plans`` teacher-forces every plan, one step per position whose
candidates are the vocabulary entries' ``model.plan_rows`` and whose expert
is the target; ``prepare_status`` and ``prepare_rewarded`` store one
labelled row per step. A softmax step holds row ids into one table of
distinct rows per preparation call. The loss functions are the kernels and
take prepared items only: each call reads the weights once and scores the
rows with ``model.score_rows``. An action row is ``featurize``'s
concatenation of the feature blocks' slots, the one definition of the
action features that the agent's one-pass scores read too, in the same
order, so training and inference score a pair to the same float. A
training phase prepares its corpus once and hands the prepared items to
every epoch.

Each softmax loss has one weighting. ``sft_plan_loss`` (phase 1) takes one
mean over all the batch's plan targets, so a long plan weighs more than a
short one. ``imitation_loss`` (phases 2-3) takes each trajectory's mean step
loss and then the mean over trajectories, so every demonstration weighs the
same.

Candidate rows repeat heavily (features are indicators and a few quantized
values): the suite corpus has 2,222 candidate rows but 119 distinct ones.
Every softmax kernel therefore scores each distinct row of a batch once with
``distinct_scores``: ``imitation_loss``, ``sft_plan_loss`` and every pass
of ``ppo.ppo_update``. The first two share one step helper,
``_softmax_steps``: softmax over the looked-up scores
(``model.softmax_parts``), cross-entropy against the expert, and every
candidate's gradient coefficient, per imitation step and per plan record
over all its positions. ``imitation_loss`` adds the coefficients column by
column to the batch's running floats with ``model.scatter_columns``.
``sft_plan_loss`` sums each record's columns from 0.0 into a list aligned
with them (``model.column_sums``) and adds each sum, divided once, to the
batch gradient. Every feature's additions keep the (step, candidate) order
of a per-candidate loop, so gradients and trained weights are the same
floats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Sequence

from ..errors import EmptyCorpus, ValidationFailure
from ..env_sim import ActionCall
from ..policy import AgentState, enumerate_candidates, featurize, match_expert, status_features
from ..policy.features import SparseRow
from ..policy.model import (
    ACT_NAMES,
    END_TOKEN,
    STATUS_NAMES,
    Column,
    ModelParams,
    column_sums,
    left_sum,
    plan_names,
    plan_overlaps,
    plan_rows,
    scatter_columns,
    scatter_row,
    score_rows,
    sigmoid,
    softmax_parts,
    to_columns,
)
from .configs import SftConfig

# An optimizer step: (params, grads, step index, total steps) -> new params.
Step = Callable[[Any, dict[str, float], int, int], Any]
__all__ = [
    "sft_plan_loss",
    "imitation_loss",
    "status_loss",
    "ImitationStep",
    "ActionRows",
    "LabelledRow",
    "PlanRows",
    "prepare_imitation",
    "prepare_status",
    "prepare_plans",
    "distinct_scores",
    "train_params",
    "sgd",
    "learning_rate_at",
]

ImitationStep = tuple[AgentState, ActionCall]


@dataclass(frozen=True, eq=False)
class ActionRows:
    """One softmax step, prepared against a table of distinct sparse rows:
    the index of the expert's candidate and the table id of every
    candidate's row. Row ids mean nothing without their table, so steps
    compare by identity."""

    expert: int
    ids: tuple[int, ...]
    table: list[SparseRow] = field(repr=False)

    @property
    def rows(self) -> tuple[SparseRow, ...]:
        return tuple(map(self.table.__getitem__, self.ids))

    @cached_property
    def columns(self) -> tuple[Column, ...]:
        """The candidates' feature columns (``model.to_columns``)."""
        return to_columns(self.rows)


@dataclass(frozen=True)
class LabelledRow:
    """One step of a single-score head, prepared: its sparse feature row and
    its label (the status head's 1.0 for FINISH and 0.0 for CONTINUE, the
    reward model's +1/-1)."""

    row: SparseRow
    label: float


@dataclass(frozen=True, eq=False)
class PlanRows:
    """One task-plan record, prepared against a vocabulary: one step per
    target (the plan steps, then the end token), and the feature columns of
    all the steps' candidates in position order."""

    vocab: tuple[str, ...]
    steps: tuple[ActionRows, ...]
    columns: tuple[Column, ...]


# --- preparation ------------------------------------------------------------------

def _interner(table: list[SparseRow]) -> Callable[[SparseRow], int]:
    """A function giving a row its id in ``table``, appending it if new."""
    ids: dict[SparseRow, int] = {}

    def intern(row: SparseRow) -> int:
        i = ids.setdefault(row, len(table))
        if i == len(table):
            table.append(row)
        return i

    return intern


def prepare_imitation(
    trajectories: Sequence[Sequence[ImitationStep]],
) -> list[list[ActionRows]]:
    """Every (state, expert action) step against one new table of distinct
    rows, grouped as the trajectories are: one ``featurize`` call per (state,
    candidate) pair."""
    table: list[SparseRow] = []
    intern = _interner(table)

    def prepare(state: AgentState, action: ActionCall) -> ActionRows:
        candidates = enumerate_candidates(state)
        expert = match_expert(candidates, action)
        return ActionRows(expert, tuple(intern(featurize(state, c)) for c in candidates), table)

    return [[prepare(*step) for step in trajectory] for trajectory in trajectories]


def prepare_status(steps: Sequence[tuple[AgentState, str]]) -> list[LabelledRow]:
    return [
        LabelledRow(status_features(state), 1.0 if status == "FINISH" else 0.0)
        for state, status in steps
    ]


def prepare_plans(records: Sequence, vocab: tuple[str, ...]) -> list[PlanRows]:
    """Every record (``task`` and ``plan`` attributes) teacher-forced against
    the vocabulary, its positions' rows in one new table of distinct rows."""
    index = {v: i for i, v in enumerate(vocab)}
    table: list[SparseRow] = []
    intern = _interner(table)
    prepared = []
    for record in records:
        overlaps = plan_overlaps(record.task, vocab)
        used: set[str] = set()
        steps = []
        for position, target in enumerate((*record.plan, END_TOKEN), 1):
            if target not in index:
                raise ValidationFailure(f"plan step {target!r} is not in the vocabulary")
            rows = plan_rows(vocab, position, overlaps, used)
            steps.append(ActionRows(index[target], tuple(map(intern, rows)), table))
            used.add(target)
        columns = to_columns([row for step in steps for row in step.rows])
        prepared.append(PlanRows(vocab, tuple(steps), columns))
    return prepared


# --- kernels ------------------------------------------------------------------------

def distinct_scores(w: Sequence[float], steps: Sequence[ActionRows]) -> dict[int, float]:
    """The score of every distinct row of the steps, by row id; the steps must
    share one table."""
    table = steps[0].table
    if any(step.table is not table for step in steps):
        raise ValidationFailure("the batch mixes steps of different preparation calls")
    distinct = set().union(*(step.ids for step in steps))
    return dict(zip(distinct, score_rows(w, map(table.__getitem__, distinct))))


def _softmax_steps(
    scores: dict[int, float],
    steps: Sequence[ActionRows],
    columns: Sequence[Column],
    weight: float,
) -> tuple[float, list[float], Sequence[Column]]:
    """Cross-entropy of each step's softmax (its candidates' scores looked up
    by row id) against its expert, times ``weight``, summed over the steps.
    Also returns every candidate's gradient coefficient, step by step in
    candidate order, and the columns to add them by: the steps' joint
    ``columns``, rebuilt without the candidates whose coefficient is zero if
    there are any."""
    loss = 0.0
    coefs: list[float] = []
    for step in steps:
        shifted, exps, total = softmax_parts(list(map(scores.__getitem__, step.ids)))
        expert = step.expert
        loss += -(shifted[expert] - math.log(total)) * weight
        base = len(coefs)
        coefs += [e / total * weight for e in exps]
        coefs[base + expert] = (exps[expert] / total - 1.0) * weight
    if 0.0 in coefs:
        # A candidate with a zero coefficient adds nothing and must not put
        # its features' keys into the gradient.
        rows = [row for step in steps for row in step.rows]
        columns = to_columns([row if c else ((), ()) for row, c in zip(rows, coefs)])
    return loss, coefs, columns


def sft_plan_loss(
    params: ModelParams, batch: Sequence[PlanRows]
) -> tuple[float, dict[str, float]]:
    """Cross-entropy over the batch's plan-step targets (including the end
    token), one mean over all of them, so every target counts equally
    whatever its plan's length. Each record's loss and gradient are summed
    first and divided once. The records come from one ``prepare_plans`` call.
    """
    if not batch:
        raise EmptyCorpus("sft_plan_loss needs a non-empty batch")
    vocab = params.plan_vocab
    if any(record.vocab != vocab for record in batch):
        raise ValidationFailure("plan record was prepared for another vocabulary")
    names = plan_names(vocab, max(len(record.steps) for record in batch))
    w = tuple(map(params.get, names))
    scores = distinct_scores(w, [step for record in batch for step in record.steps])

    total_targets = left_sum(float(len(record.steps)) for record in batch)
    total_loss = 0.0
    grads: dict[int, float] = {}
    for record in batch:
        record_loss, coefs, columns = _softmax_steps(scores, record.steps, record.columns, 1.0)
        total_loss += record_loss / total_targets
        for (j, _, _), s in zip(columns, column_sums(coefs, columns)):
            grads[j] = grads.get(j, 0.0) + s / total_targets
    return total_loss, {names[j]: g for j, g in grads.items()}


def imitation_loss(
    params: ModelParams, trajectories: Sequence[Sequence[ActionRows]]
) -> tuple[float, dict[str, float]]:
    """Cross-entropy between the action distribution and the expert action,
    averaged per trajectory then across trajectories, so every trajectory
    counts equally whatever its length. The steps come from one
    ``prepare_imitation`` call."""
    if not trajectories or not any(len(t) for t in trajectories):
        raise EmptyCorpus("imitation_loss needs at least one step")
    n_traj = len(trajectories)
    scores = distinct_scores(params.act_weights, [step for t in trajectories for step in t])

    loss = 0.0
    grads: dict[int, float] = {}
    for trajectory in trajectories:
        if not trajectory:
            continue
        weight = 1.0 / (n_traj * len(trajectory))
        for step in trajectory:
            step_loss, coefs, columns = _softmax_steps(scores, (step,), step.columns, weight)
            loss += step_loss
            scatter_columns(grads, coefs, columns)
    return loss, {ACT_NAMES[j]: g for j, g in grads.items()}


def status_loss(
    params: ModelParams, steps: Sequence[LabelledRow]
) -> tuple[float, dict[str, float]]:
    """Binary cross-entropy of the status head against CONTINUE/FINISH labels."""
    if not steps:
        raise EmptyCorpus("status_loss needs at least one step")
    loss = 0.0
    grads: dict[int, float] = {}
    n = len(steps)
    eps = 1e-12
    for step, logit in zip(steps, score_rows(params.status_weights, [s.row for s in steps])):
        target = step.label
        prob = sigmoid(logit)
        loss += -(target * math.log(prob + eps) + (1 - target) * math.log(1 - prob + eps)) / n
        scatter_row(grads, (prob - target) / n, step.row)
    return loss, {STATUS_NAMES[j]: g for j, g in grads.items()}


# --- the minibatch loop and its optimizer steps ------------------------------

def learning_rate_at(step: int, total_steps: int, config: SftConfig) -> float:
    """Linear warmup, then cosine decay."""
    if config.warmup_steps > 0 and step < config.warmup_steps:
        return config.learning_rate * (step + 1) / config.warmup_steps
    if total_steps <= config.warmup_steps:
        return config.learning_rate
    span = total_steps - config.warmup_steps
    t = (step - config.warmup_steps) / span
    return config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * min(t, 1.0)))


def sgd(learning_rate: Callable[[int, int], float]) -> Step:
    """Gradient descent with step size ``learning_rate(step, total_steps)``."""

    def step(params, grads: dict[str, float], t: int, total_steps: int):
        lr = learning_rate(t, total_steps)
        return params.replaced(
            {name: params.weights.get(name, 0.0) - lr * g for name, g in grads.items()}
        )

    return step


def train_params(
    params,
    examples: Sequence,
    loss_fn,
    step: Step,
    batch_size: int,
    epochs: int,
    seed: int = 0,
    end_epoch: Callable[[Any], None] | None = None,
):
    """Minibatch descent on loss_fn(params, batch) -> (loss, grads): each epoch
    is one seeded shuffle cut into batches, each batch's gradient goes to
    ``step``, and ``end_epoch(params)``, if given, runs after each epoch."""
    if not examples:
        raise EmptyCorpus("nothing to train on")
    rng = random.Random(seed)
    order = list(range(len(examples)))
    total_steps = math.ceil(len(examples) / batch_size) * epochs
    t = 0
    for _ in range(epochs):
        rng.shuffle(order)
        for start in range(0, len(order), batch_size):
            batch = [examples[i] for i in order[start : start + batch_size]]
            _, grads = loss_fn(params, batch)
            params = step(params, grads, t, total_steps)
            t += 1
        if end_epoch is not None:
            end_epoch(params)
    return params
