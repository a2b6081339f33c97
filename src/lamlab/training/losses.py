"""Differentiable objectives with exact analytic gradients, and the one
minibatch loop (``train_params``) that trains every head.

All heads are linear in their named weights, so cross-entropy gradients have
the closed form sum((p - y) * x) and match finite differences to numerical
precision. Gradients come back as name -> value dicts over the weights the
loss touches.

Each loss is split in two. Preparation does the weight-independent work once
per corpus: ``prepare_imitation`` enumerates the candidates of every step,
matches the expert action and stores each candidate's features as a sparse
row of (feature index, value) pairs; ``prepare_status`` stores the status
features and label of every step; ``prepare_plans`` stores the target
indices of every plan and the token overlap of each vocabulary entry with the
task. The loss functions are the kernels: each call reads the weights once
and scores the prepared rows. They also accept raw items (state/action
pairs, state/status pairs, records with ``task`` and ``plan``) and prepare
those on the spot, so one call on raw items and one on prepared items give
identical results. A training phase prepares its corpus once and hands the
prepared items to every epoch's batches; PPO scores the same action rows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import mul
from typing import Any, Callable, Sequence

from ..errors import EmptyCorpus, ValidationFailure
from ..env_sim import ActionCall
from ..policy import AgentState, enumerate_candidates, featurize, match_expert, status_features
from ..policy.model import (
    ACT_NAMES,
    END_TOKEN,
    STATUS_NAMES,
    ModelParams,
    PlanWeights,
    plan_overlaps,
    softmax,
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
    "StatusRow",
    "PlanRows",
    "prepare_imitation",
    "prepare_status",
    "prepare_plans",
    "train_params",
    "sgd",
    "learning_rate_at",
]

ImitationStep = tuple[AgentState, ActionCall]
# Non-zero entries of one feature vector: (feature indices, values), in
# feature order.
SparseRow = tuple[tuple[int, ...], tuple[float, ...]]


@dataclass(frozen=True)
class ActionRows:
    """One imitation step, prepared: the sparse feature row of every
    candidate and the index of the expert's candidate."""

    expert: int
    rows: tuple[SparseRow, ...]


@dataclass(frozen=True)
class StatusRow:
    """One status step, prepared: its status features and its label
    (1.0 for FINISH)."""

    features: tuple[float, ...]
    target: float


@dataclass(frozen=True)
class PlanRows:
    """One task-plan record, prepared against a vocabulary: the vocabulary
    indices of its targets (the plan steps, then the end token) and the
    token overlap of every vocabulary entry with the task."""

    vocab: tuple[str, ...]
    targets: tuple[int, ...]
    overlaps: tuple[float, ...]


# --- preparation ------------------------------------------------------------------

def _sparse(vector: Sequence[float]) -> SparseRow:
    nonzero = [(j, x) for j, x in enumerate(vector) if x != 0.0]
    return tuple(j for j, _ in nonzero), tuple(x for _, x in nonzero)


def _action_rows(step: ActionRows | ImitationStep) -> ActionRows:
    if isinstance(step, ActionRows):
        return step
    state, expert = step
    candidates = enumerate_candidates(state)
    expert_idx = match_expert(candidates, expert)
    return ActionRows(expert_idx, tuple(_sparse(featurize(state, c)) for c in candidates))


def prepare_imitation(
    trajectories: Sequence[Sequence[ImitationStep]],
) -> list[list[ActionRows]]:
    """Candidate rows of every step, grouped as the trajectories are; one
    ``featurize`` call per (state, candidate) pair."""
    return [[_action_rows(step) for step in trajectory] for trajectory in trajectories]


def _status_row(step: StatusRow | tuple[AgentState, str]) -> StatusRow:
    if isinstance(step, StatusRow):
        return step
    state, status = step
    return StatusRow(tuple(status_features(state)), 1.0 if status == "FINISH" else 0.0)


def prepare_status(steps: Sequence[tuple[AgentState, str]]) -> list[StatusRow]:
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

def _row_softmax(w: Sequence[float], rows: Sequence[SparseRow]) -> tuple[list[float], list[float]]:
    """(probabilities, log-probabilities) of candidate rows under action weights ``w``."""
    return softmax([sum(map(mul, map(w.__getitem__, idx), xs)) for idx, xs in rows])


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
    with step_mean)."""
    if not trajectories or not any(len(t) for t in trajectories):
        raise EmptyCorpus("imitation_loss needs at least one step")
    total_steps = sum(len(t) for t in trajectories)
    n_traj = len(trajectories)
    w = params.act_weights

    loss = 0.0
    grads: dict[int, float] = {}
    for trajectory in trajectories:
        if not trajectory:
            continue
        weight = 1.0 / total_steps if step_mean else 1.0 / (n_traj * len(trajectory))
        for step in map(_action_rows, trajectory):
            probs, log_probs = _row_softmax(w, step.rows)
            loss += -log_probs[step.expert] * weight
            for i, (idx, xs) in enumerate(step.rows):
                coef = (probs[i] - (1.0 if i == step.expert else 0.0)) * weight
                if coef == 0.0:
                    continue
                for j, x in zip(idx, xs):
                    grads[j] = grads.get(j, 0.0) + coef * x
    return loss, {ACT_NAMES[j]: g for j, g in grads.items()}


def status_loss(
    params: ModelParams, steps: Sequence[StatusRow | tuple[AgentState, str]]
) -> tuple[float, dict[str, float]]:
    """Binary cross-entropy of the status head against CONTINUE/FINISH labels."""
    if not steps:
        raise EmptyCorpus("status_loss needs at least one step")
    w = params.status_weights
    loss = 0.0
    grads: dict[str, float] = {}
    n = len(steps)
    for row in map(_status_row, steps):
        logit = sum(map(mul, w, row.features))
        target = row.target
        prob = 1.0 / (1.0 + math.exp(-logit))
        eps = 1e-12
        loss += -(target * math.log(prob + eps) + (1 - target) * math.log(1 - prob + eps)) / n
        coef = (prob - target) / n
        for name, x in zip(STATUS_NAMES, row.features):
            if x != 0.0:
                _accumulate(grads, name, coef * x)
    return loss, grads


def _accumulate(grads: dict[str, float], name: str, value: float) -> None:
    grads[name] = grads.get(name, 0.0) + value


# --- the minibatch loop and its optimizer steps ------------------------------

def learning_rate_at(step: int, total_steps: int, config: SftConfig) -> float:
    """Warmup then cosine decay (or constant after warmup)."""
    if config.warmup_steps > 0 and step < config.warmup_steps:
        return config.learning_rate * (step + 1) / config.warmup_steps
    if config.schedule == "constant" or total_steps <= config.warmup_steps:
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
