"""Reward model: a linear scorer of (state, action) pairs.

Trained with mean squared error against +1/-1 trajectory outcome labels; at
inference the raw score is squashed through a sigmoid into [0, 1].
``train_reward_model`` computes each step's feature vector once
(``prepare_rewarded``) and scores those rows on every batch of every epoch;
``rm_mse_loss`` takes prepared rows or raw steps alike.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from operator import mul
from pathlib import Path
from typing import Sequence

from ..errors import CheckpointError, EmptyCorpus, ValidationFailure
from ..env_sim import ActionCall
from ..policy import AgentState, CandidateAction, featurize
from ..policy.features import FEATURE_NAMES
from .configs import RmConfig

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
    return [1.0] + featurize(state, _candidate_of_action(state, action))


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

    def raw(self, state: AgentState, action: ActionCall) -> float:
        vector = rm_features(state, action)
        return sum(self.weights.get(n, 0.0) * x for n, x in zip(RM_FEATURE_NAMES, vector))

    def normalized(self, state: AgentState, action: ActionCall) -> float:
        return 1.0 / (1.0 + math.exp(-self.raw(state, action)))

    def replaced(self, updates: dict[str, float]) -> "RewardModelParams":
        merged = dict(self.weights)
        merged.update(updates)
        return RewardModelParams(weights=merged)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format_version": 1,
            "kind": "reward",
            "weights": dict(sorted(self.weights.items())),
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str | Path) -> "RewardModelParams":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        if payload.get("kind") != "reward":
            raise CheckpointError(f"checkpoint {path} is not a reward checkpoint")
        weights = {k: float(v) for k, v in payload.get("weights", {}).items()}
        for name in weights:
            if name not in RM_FEATURE_NAMES:
                raise CheckpointError(f"unknown feature name {name!r}")
        return cls(weights=weights)


def rm_mse_loss(
    params: RewardModelParams, steps: Sequence[RewardRow | RewardedStep]
) -> tuple[float, dict[str, float]]:
    """MSE between the raw output and the +1/-1 labels, with its gradient."""
    if not steps:
        raise EmptyCorpus("rm_mse_loss needs at least one step")
    n = len(steps)
    w = [params.weights.get(name, 0.0) for name in RM_FEATURE_NAMES]
    loss = 0.0
    grads: dict[str, float] = {}
    for row in map(_reward_row, steps):
        err = sum(map(mul, w, row.features)) - row.reward
        loss += err * err / n
        coef = 2.0 * err / n
        for name, x in zip(RM_FEATURE_NAMES, row.features):
            if x != 0.0:
                grads[name] = grads.get(name, 0.0) + coef * x
    return loss, grads


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
    rng = random.Random(seed)
    order = list(range(len(steps)))
    batches_per_epoch = max(1, math.ceil(len(steps) / config.batch_size))
    total_steps = batches_per_epoch * config.epochs
    # AdamW state
    m: dict[str, float] = {}
    v: dict[str, float] = {}
    t = 0
    beta1, beta2, adam_eps, weight_decay = 0.9, 0.999, 1e-8, 0.01
    for _ in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = [rows[i] for i in order[start : start + config.batch_size]]
            _, grads = rm_mse_loss(params, batch)
            t += 1
            lr = config.learning_rate
            if config.schedule == "linear":
                lr *= max(1.0 - (t - 1) / total_steps, 1.0 / total_steps)
            updates = {}
            if config.optimizer == "adamw":
                for name, g in grads.items():
                    m[name] = beta1 * m.get(name, 0.0) + (1 - beta1) * g
                    v[name] = beta2 * v.get(name, 0.0) + (1 - beta2) * g * g
                    m_hat = m[name] / (1 - beta1**t)
                    v_hat = v[name] / (1 - beta2**t)
                    current = params.weights.get(name, 0.0)
                    updates[name] = current - lr * (
                        m_hat / (math.sqrt(v_hat) + adam_eps) + weight_decay * current
                    )
            elif config.optimizer == "gd":
                for name, g in grads.items():
                    updates[name] = params.weights.get(name, 0.0) - lr * g
            else:
                raise ValidationFailure(f"unknown optimizer {config.optimizer!r}")
            params = params.replaced(updates)
    final_mse, _ = rm_mse_loss(params, rows)
    return params, final_mse
