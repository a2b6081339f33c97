"""Differentiable objectives with exact analytic gradients, and the one
minibatch loop (``train_params``) that trains every head.

All heads are linear in their named weights, so cross-entropy gradients have
the closed form sum((p - y) * x) and match finite differences to numerical
precision. Gradients come back as name -> value dicts over the weights the
loss touches.

Each loss is split in two. Preparation does the weight-independent work once
per corpus: ``prepare_imitation`` enumerates the candidates of every step,
matches the expert action and interns each candidate's sparse feature row
(as ``featurize`` returns it) into one table of distinct rows, keeping per
step the expert index, the candidates' row ids and their feature columns
(``model.to_columns``); ``prepare_status`` stores the sparse status row and
label of every step; ``prepare_plans`` stores the target indices of every plan
and the token overlap of each vocabulary entry with the task. The loss
functions are the kernels: each call reads the weights once and scores the
prepared rows with ``model.score_rows``, the kernel inference uses (the plan
head keeps its own). They also accept raw items (state/action pairs,
state/status pairs, records with ``task`` and ``plan``) and prepare those on
the spot, so one call on raw items and one on prepared items give identical
results. A training phase prepares its corpus once and hands the prepared
items to every epoch's batches.

Candidate rows repeat heavily, because features are indicators and a few
quantized values: the suite corpus has 2,278 candidate rows but 121 distinct
ones. ``imitation_loss`` therefore scores each distinct row of a batch once
and looks the scores up per step; it adds each step's gradient column by
column with ``model.scatter_columns``, which keeps every feature's additions
in the (step, candidate) order of a per-candidate loop, so gradients and
trained weights are the same floats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
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
    PlanWeights,
    plan_overlaps,
    scatter_columns,
    scatter_row,
    score_rows,
    softmax,
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
    "train_params",
    "sgd",
    "learning_rate_at",
]

ImitationStep = tuple[AgentState, ActionCall]


@dataclass(frozen=True, eq=False)
class ActionRows:
    """One imitation step, prepared against a table of distinct sparse rows:
    the index of the expert's candidate, the table id of every candidate's
    row, and the candidates' feature columns (``model.to_columns``). Row ids
    mean nothing without their table, so steps compare by identity."""

    expert: int
    ids: tuple[int, ...]
    columns: tuple[Column, ...]
    table: list[SparseRow] = field(repr=False)

    @property
    def rows(self) -> tuple[SparseRow, ...]:
        return tuple(map(self.table.__getitem__, self.ids))


@dataclass(frozen=True)
class LabelledRow:
    """One step of a single-score head, prepared: its sparse feature row and
    its label (the status head's 1.0 for FINISH and 0.0 for CONTINUE, the
    reward model's +1/-1)."""

    row: SparseRow
    label: float


@dataclass(frozen=True)
class PlanRows:
    """One task-plan record, prepared against a vocabulary: the vocabulary
    indices of its targets (the plan steps, then the end token) and the
    token overlap of every vocabulary entry with the task."""

    vocab: tuple[str, ...]
    targets: tuple[int, ...]
    overlaps: tuple[float, ...]


# --- preparation ------------------------------------------------------------------

def prepare_imitation(
    trajectories: Sequence[Sequence[ActionRows | ImitationStep]],
) -> list[list[ActionRows]]:
    """Every step against one new table of distinct rows, grouped as the
    trajectories are. A raw step costs one ``featurize`` call per (state,
    candidate) pair; a step prepared against another table has its rows
    interned into this one."""
    table: list[SparseRow] = []
    ids: dict[SparseRow, int] = {}

    def intern(row: SparseRow) -> int:
        i = ids.get(row)
        if i is None:
            i = ids[row] = len(table)
            table.append(row)
        return i

    def prepare(step: ActionRows | ImitationStep) -> ActionRows:
        if isinstance(step, ActionRows):
            expert, rows = step.expert, step.rows
        else:
            state, action = step
            candidates = enumerate_candidates(state)
            expert = match_expert(candidates, action)
            rows = tuple(featurize(state, c) for c in candidates)
        return ActionRows(expert, tuple(map(intern, rows)), to_columns(rows), table)

    return [[prepare(step) for step in trajectory] for trajectory in trajectories]


def _one_table(
    trajectories: Sequence[Sequence[ActionRows | ImitationStep]],
) -> Sequence[Sequence[ActionRows]]:
    """The steps as given when all were prepared against one table, else
    prepared now against a new one."""
    table = None
    for trajectory in trajectories:
        for step in trajectory:
            if not isinstance(step, ActionRows) or (table is not None and step.table is not table):
                return prepare_imitation(trajectories)
            table = step.table
    return trajectories


def _status_row(step: LabelledRow | tuple[AgentState, str]) -> LabelledRow:
    if isinstance(step, LabelledRow):
        return step
    state, status = step
    return LabelledRow(status_features(state), 1.0 if status == "FINISH" else 0.0)


def prepare_status(steps: Sequence[tuple[AgentState, str]]) -> list[LabelledRow]:
    return [_status_row(step) for step in steps]


def _plan_rows(record, vocab: tuple[str, ...], index: dict[str, int]) -> PlanRows:
    if isinstance(record, PlanRows):
        if record.vocab != vocab:
            raise ValidationFailure("plan record was prepared for another vocabulary")
        return record
    targets = []
    for target in (*record.plan, END_TOKEN):
        if target not in index:
            raise ValidationFailure(f"plan step {target!r} is not in the vocabulary")
        targets.append(index[target])
    return PlanRows(vocab, tuple(targets), plan_overlaps(record.task, vocab))


def prepare_plans(records: Sequence, vocab: tuple[str, ...]) -> list[PlanRows]:
    """Targets and task overlaps of every record (``task`` and ``plan``
    attributes) against the vocabulary."""
    index = {v: i for i, v in enumerate(vocab)}
    return [_plan_rows(record, vocab, index) for record in records]


# --- kernels ------------------------------------------------------------------------

def sft_plan_loss(
    params: ModelParams, batch: Sequence, step_mean: bool = True
) -> tuple[float, dict[str, float]]:
    """Mean cross-entropy over plan-step targets (including the end token).

    Batch items are :class:`PlanRows` or carry ``task`` and ``plan``
    attributes. With step_mean (default) every target counts equally;
    otherwise records are weighted equally regardless of plan length.
    """
    if not batch:
        raise EmptyCorpus("sft_plan_loss needs a non-empty batch")
    vocab = params.plan_vocab
    if not vocab:
        raise ValidationFailure("model has no plan vocabulary")
    rows = prepare_plans(batch, vocab)
    weights = PlanWeights(params, vocab)

    total_loss = 0.0
    grads: dict[str, float] = {}
    contributions: list[tuple[float, float, dict[str, float]]] = []

    for row in rows:
        record_loss = 0.0
        record_grads: dict[str, float] = {}
        used: set[str] = set()
        for position, t in enumerate(row.targets, 1):
            pos_names, _ = weights.position(position)
            probs, log_probs = softmax(weights.scores(position, row.overlaps, used))
            record_loss += -log_probs[t]
            target = vocab[t]
            for i, v in enumerate(vocab):
                coef = probs[i] - (1.0 if v == target else 0.0)
                if coef == 0.0:
                    continue
                _accumulate(record_grads, weights.bias_names[i], coef)
                _accumulate(record_grads, pos_names[i], coef)
                if v != END_TOKEN:
                    _accumulate(record_grads, "plan::overlap", coef * row.overlaps[i])
                    if v in used:
                        _accumulate(record_grads, "plan::used", coef)
            if target != END_TOKEN:
                used.add(target)
        contributions.append((record_loss, float(len(row.targets)), record_grads))

    total_targets = sum(n for _, n, _ in contributions)
    for record_loss, n_targets, record_grads in contributions:
        divisor = total_targets if step_mean else n_targets * len(contributions)
        total_loss += record_loss / divisor
        for name, g in record_grads.items():
            _accumulate(grads, name, g / divisor)
    return total_loss, grads


def imitation_loss(
    params: ModelParams,
    trajectories: Sequence[Sequence[ActionRows | ImitationStep]],
    step_mean: bool = False,
) -> tuple[float, dict[str, float]]:
    """Cross-entropy between the action distribution and the expert action,
    averaged per trajectory then across trajectories (or globally over steps
    with step_mean).

    Each distinct row of the batch is scored once; a step's softmax reads its
    candidates' scores by row id, and its gradient goes in by feature column."""
    if not trajectories or not any(len(t) for t in trajectories):
        raise EmptyCorpus("imitation_loss needs at least one step")
    trajectories = _one_table(trajectories)
    total_steps = sum(len(t) for t in trajectories)
    n_traj = len(trajectories)
    table = next(t[0].table for t in trajectories if t)
    distinct = set().union(*(step.ids for t in trajectories for step in t))
    scores = dict(zip(distinct, score_rows(params.act_weights, map(table.__getitem__, distinct))))

    loss = 0.0
    grads: dict[int, float] = {}
    for trajectory in trajectories:
        if not trajectory:
            continue
        weight = 1.0 / total_steps if step_mean else 1.0 / (n_traj * len(trajectory))
        for step in trajectory:
            probs, log_probs = softmax(list(map(scores.__getitem__, step.ids)))
            expert = step.expert
            loss += -log_probs[expert] * weight
            coefs = [p * weight for p in probs]
            coefs[expert] = (probs[expert] - 1.0) * weight
            columns = step.columns
            if 0.0 in coefs:
                # A candidate with a zero coefficient adds nothing and must
                # not put its features' keys into the gradient.
                columns = to_columns([row if c else ((), ()) for row, c in zip(step.rows, coefs)])
            scatter_columns(grads, coefs, columns)
    return loss, {ACT_NAMES[j]: g for j, g in grads.items()}


def status_loss(
    params: ModelParams, steps: Sequence[LabelledRow | tuple[AgentState, str]]
) -> tuple[float, dict[str, float]]:
    """Binary cross-entropy of the status head against CONTINUE/FINISH labels."""
    if not steps:
        raise EmptyCorpus("status_loss needs at least one step")
    rows = [_status_row(step) for step in steps]
    loss = 0.0
    grads: dict[int, float] = {}
    n = len(rows)
    eps = 1e-12
    for row, logit in zip(rows, score_rows(params.status_weights, [r.row for r in rows])):
        target = row.label
        prob = 1.0 / (1.0 + math.exp(-logit))
        loss += -(target * math.log(prob + eps) + (1 - target) * math.log(1 - prob + eps)) / n
        scatter_row(grads, (prob - target) / n, row.row)
    return loss, {STATUS_NAMES[j]: g for j, g in grads.items()}


def _accumulate(grads: dict[str, float], name: str, value: float) -> None:
    grads[name] = grads.get(name, 0.0) + value


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
