"""Reward model: a linear scorer of (state, action) pairs.

Trained with mean squared error against +1/-1 trajectory outcome labels; at
inference the raw score is squashed through a sigmoid into [0, 1]. A step's
sparse row (``rm_features``) is a bias at index 0, then the action's
``featurize`` row shifted by one. ``train_reward_model`` prepares each row once
(``prepare_rewarded``) and trains with ``losses.train_params`` and AdamW under
a linearly decaying step size; ``rm_mse_loss`` takes prepared rows only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Sequence

from ..errors import EmptyCorpus, ValidationFailure
from ..env_sim import ActionCall
from ..jsonl import write_text
from ..policy import AgentState, CandidateAction, featurize
from ..policy.features import FEATURE_NAMES, SparseRow
from ..policy.model import scatter_row, score_rows
from .configs import RmConfig
from .losses import LabelledRow, Step, train_params

__all__ = [
    "RewardedStep",
    "RewardModelParams",
    "prepare_rewarded",
    "rm_features",
    "rm_mse_loss",
    "train_reward_model",
]

RM_FEATURE_NAMES = ("bias",) + FEATURE_NAMES


@dataclass(frozen=True)
class RewardedStep:
    state: AgentState
    action: ActionCall
    reward: int  # +1 or -1

    def __post_init__(self) -> None:
        if self.reward not in (1, -1):
            raise ValidationFailure("training rewards are exactly +1 or -1")


def _candidate_of_action(state: AgentState, action: ActionCall) -> CandidateAction:
    """Featurization shim: wrap an arbitrary action as a candidate, resolving
    its control against the state's list when possible (failure-trajectory
    actions may reference controls that do not exist)."""
    control = None
    for item in state.controls:
        if action.control_label and item["label"] == action.control_label:
            control = dict(item)
            break
        if action.control_text and item["control_text"] == action.control_text:
            control = dict(item)
            break
    return CandidateAction(
        function=action.function,
        control=control,
        args=tuple(sorted(dict(action.args).items())),
    )


def rm_features(state: AgentState, action: ActionCall) -> SparseRow:
    """The sparse row over RM_FEATURE_NAMES."""
    idx, xs = featurize(state, _candidate_of_action(state, action))
    return (0, *(j + 1 for j in idx)), (1.0, *xs)


def prepare_rewarded(steps: Sequence[RewardedStep]) -> list[LabelledRow]:
    return [LabelledRow(rm_features(step.state, step.action), step.reward) for step in steps]


@dataclass(frozen=True)
class RewardModelParams:
    weights: dict[str, float] = field(default_factory=dict)

    @classmethod
    def zeros(cls) -> "RewardModelParams":
        return cls(weights={name: 0.0 for name in RM_FEATURE_NAMES})

    # Dense weights in RM_FEATURE_NAMES order, read once per instance.
    @cached_property
    def vector(self) -> tuple[float, ...]:
        return tuple(self.weights.get(name, 0.0) for name in RM_FEATURE_NAMES)

    def raw(self, state: AgentState, action: ActionCall) -> float:
        return score_rows(self.vector, [rm_features(state, action)])[0]

    def normalized(self, state: AgentState, action: ActionCall) -> float:
        return 1.0 / (1.0 + math.exp(-self.raw(state, action)))

    def replaced(self, updates: dict[str, float]) -> "RewardModelParams":
        merged = dict(self.weights)
        merged.update(updates)
        return RewardModelParams(weights=merged)

    def save(self, path: str | Path) -> None:
        payload = {
            "format_version": 1,
            "kind": "reward",
            "weights": dict(sorted(self.weights.items())),
        }
        write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def rm_mse_loss(
    params: RewardModelParams, steps: Sequence[LabelledRow]
) -> tuple[float, dict[str, float]]:
    """MSE between the raw output and the +1/-1 labels of prepared steps
    (``prepare_rewarded``), with its gradient."""
    if not steps:
        raise EmptyCorpus("rm_mse_loss needs at least one step")
    n = len(steps)
    loss = 0.0
    grads: dict[int, float] = {}
    for step, score in zip(steps, score_rows(params.vector, [s.row for s in steps])):
        err = score - step.label
        loss += err * err / n
        scatter_row(grads, 2.0 * err / n, step.row)
    return loss, {RM_FEATURE_NAMES[j]: g for j, g in grads.items()}


def _adamw(learning_rate: Callable[[int, int], float]) -> Step:
    """AdamW with bias correction; the moment estimates live in the step."""
    beta1, beta2, eps, weight_decay = 0.9, 0.999, 1e-8, 0.01
    m: dict[str, float] = {}
    v: dict[str, float] = {}

    def step(params, grads: dict[str, float], t: int, total_steps: int):
        lr = learning_rate(t, total_steps)
        updates = {}
        for name, g in grads.items():
            m[name] = beta1 * m.get(name, 0.0) + (1 - beta1) * g
            v[name] = beta2 * v.get(name, 0.0) + (1 - beta2) * g * g
            m_hat = m[name] / (1 - beta1 ** (t + 1))
            v_hat = v[name] / (1 - beta2 ** (t + 1))
            current = params.weights.get(name, 0.0)
            updates[name] = current - lr * (
                m_hat / (math.sqrt(v_hat) + eps) + weight_decay * current
            )
        return params.replaced(updates)

    return step


def train_reward_model(
    params: RewardModelParams,
    steps: Sequence[RewardedStep],
    config: RmConfig = RmConfig(),
    seed: int = 0,
) -> tuple[RewardModelParams, float]:
    """Minibatch MSE minimization; returns the new params and final train MSE."""
    if not steps:
        raise EmptyCorpus("no rewarded steps to train on")
    rows = prepare_rewarded(steps)

    def learning_rate(t: int, total_steps: int) -> float:
        return config.learning_rate * max(1.0 - t / total_steps, 1.0 / total_steps)

    params = train_params(
        params, rows, rm_mse_loss, _adamw(learning_rate), config.batch_size, config.epochs, seed
    )
    final_mse, _ = rm_mse_loss(params, rows)
    return params, final_mse
