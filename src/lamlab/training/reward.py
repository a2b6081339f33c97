"""Reward model: a linear scorer of (state, action) pairs.

Trained with mean squared error against +1/-1 trajectory outcome labels; at
inference the raw score is squashed through a sigmoid into [0, 1].
``train_reward_model`` computes each step's dense feature vector (a bias,
then the densified row of ``featurize``) once (``prepare_rewarded``) and
trains on those rows with ``losses.train_params`` and AdamW or plain gradient
descent; ``rm_mse_loss`` takes prepared rows or raw steps alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from pathlib import Path
from typing import Callable, Sequence

from ..errors import EmptyCorpus, ValidationFailure
from ..env_sim import ActionCall
from ..jsonl import write_text
from ..policy import AgentState, CandidateAction, featurize
from ..policy.features import FEATURE_NAMES, densify
from .configs import RmConfig
from .losses import Step, sgd, train_params

__all__ = [
    "RewardedStep",
    "RewardRow",
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
    if not action.function:
        return CandidateAction(function="", control=None, args=(), is_finish=True)
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


def rm_features(state: AgentState, action: ActionCall) -> list[float]:
    return [1.0] + densify(featurize(state, _candidate_of_action(state, action)))


@dataclass(frozen=True)
class RewardRow:
    """One rewarded step, prepared: its features in ``RM_FEATURE_NAMES``
    order and its label."""

    features: tuple[float, ...]
    reward: int


def _reward_row(step: RewardRow | RewardedStep) -> RewardRow:
    if isinstance(step, RewardRow):
        return step
    return RewardRow(tuple(rm_features(step.state, step.action)), step.reward)


def prepare_rewarded(steps: Sequence[RewardedStep]) -> list[RewardRow]:
    return [_reward_row(step) for step in steps]


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

    def score(self, features: Sequence[float]) -> float:
        return sum(map(mul, self.vector, features))

    def raw(self, state: AgentState, action: ActionCall) -> float:
        return self.score(rm_features(state, action))

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
    params: RewardModelParams, steps: Sequence[RewardRow | RewardedStep]
) -> tuple[float, dict[str, float]]:
    """MSE between the raw output and the +1/-1 labels, with its gradient."""
    if not steps:
        raise EmptyCorpus("rm_mse_loss needs at least one step")
    n = len(steps)
    loss = 0.0
    grads: dict[str, float] = {}
    for row in map(_reward_row, steps):
        err = params.score(row.features) - row.reward
        loss += err * err / n
        coef = 2.0 * err / n
        for name, x in zip(RM_FEATURE_NAMES, row.features):
            if x != 0.0:
                grads[name] = grads.get(name, 0.0) + coef * x
    return loss, grads


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
        if config.schedule == "linear":
            return config.learning_rate * max(1.0 - t / total_steps, 1.0 / total_steps)
        return config.learning_rate

    step = _adamw(learning_rate) if config.optimizer == "adamw" else sgd(learning_rate)
    params = train_params(params, rows, rm_mse_loss, step, config.batch_size, config.epochs, seed)
    final_mse, _ = rm_mse_loss(params, rows)
    return params, final_mse
