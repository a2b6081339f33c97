"""Offline clipped-surrogate policy optimization.

Works entirely from previously collected steps: no environment rollouts. The
objective is the clipped probability-ratio surrogate minus an adaptive KL
penalty whose coefficient doubles/halves as the measured KL strays from its
target band.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from ..errors import DegenerateRatio, EmptyCorpus
from ..policy import AgentState, enumerate_candidates, featurize, match_expert
from ..policy.features import FEATURE_NAMES
from ..policy.model import ACT_NAMES, ModelParams, softmax
from ..env_sim import ActionCall
from .configs import PpoConfig

__all__ = [
    "scale_reward",
    "compute_advantage",
    "clipped_term",
    "surrogate_value",
    "ppo_update",
    "PpoDiagnostics",
]

_MIN_OLD_PROB = 1e-12


def scale_reward(reward: float, config: PpoConfig = PpoConfig()) -> float:
    """Affine map of a normalized reward in [0, 1] onto the configured range."""
    return config.reward_low + reward * (config.reward_high - config.reward_low)


def compute_advantage(rewards: Sequence[float], config: PpoConfig = PpoConfig()) -> list[float]:
    """Scaled rewards centered on their batch mean (mean-baseline estimator)."""
    if not rewards:
        return []
    scaled = [scale_reward(r, config) for r in rewards]
    baseline = sum(scaled) / len(scaled)
    return [s - baseline for s in scaled]


def clipped_term(ratio: float, advantage: float, epsilon: float) -> float:
    """One step's surrogate contribution: min(ratio*A, clip(ratio)*A)."""
    clipped = min(max(ratio, 1.0 - epsilon), 1.0 + epsilon)
    return min(ratio * advantage, clipped * advantage)


@dataclass(frozen=True)
class _PreparedStep:
    state: AgentState
    action_index: int
    vectors: tuple[tuple[float, ...], ...]
    old_log_prob: float
    old_probs: tuple[float, ...]
    old_expected: tuple[float, ...]  # E_old[x], fixed for the whole update
    advantage: float


@dataclass
class PpoDiagnostics:
    surrogate_before: float
    surrogate_after: float
    kl_final: float
    kl_coef_final: float
    updates: int


def _prepare_steps(
    steps: Sequence[tuple[AgentState, ActionCall]],
    advantages: Sequence[float],
    old_params: ModelParams,
) -> list[_PreparedStep]:
    prepared = []
    for (state, action), advantage in zip(steps, advantages):
        candidates = enumerate_candidates(state)
        idx = match_expert(candidates, action)
        vectors = tuple(tuple(featurize(state, c)) for c in candidates)
        old_scores = [_score(old_params, vec) for vec in vectors]
        old_probs, old_log_probs = softmax(old_scores)
        if old_probs[idx] < _MIN_OLD_PROB:
            raise DegenerateRatio(
                f"old policy assigns ~zero probability ({old_probs[idx]:.2e}) to a step action"
            )
        old_expected = [0.0] * len(FEATURE_NAMES)
        for p_old, vec in zip(old_probs, vectors):
            for j, x in enumerate(vec):
                if x != 0.0:
                    old_expected[j] += p_old * x
        prepared.append(
            _PreparedStep(
                state=state,
                action_index=idx,
                vectors=vectors,
                old_log_prob=old_log_probs[idx],
                old_probs=tuple(old_probs),
                old_expected=tuple(old_expected),
                advantage=advantage,
            )
        )
    return prepared


def _score(params: ModelParams, vector: Sequence[float]) -> float:
    return sum(map(mul, params.act_weights, vector))


def _step_terms(params: ModelParams, step: _PreparedStep, epsilon: float):
    scores = [_score(params, vec) for vec in step.vectors]
    probs, log_probs = softmax(scores)
    ratio = math.exp(log_probs[step.action_index] - step.old_log_prob)
    term = clipped_term(ratio, step.advantage, epsilon)
    kl = sum(
        p_old * (math.log(max(p_old, 1e-300)) - lp)
        for p_old, lp in zip(step.old_probs, log_probs)
    )
    return probs, log_probs, ratio, term, kl


def surrogate_value(
    params: ModelParams,
    old_params: ModelParams,
    steps: Sequence[tuple[AgentState, ActionCall]],
    advantages: Sequence[float],
    config: PpoConfig = PpoConfig(),
) -> float:
    """Mean clipped surrogate of the given steps under params vs old_params."""
    prepared = _prepare_steps(steps, advantages, old_params)
    if not prepared:
        raise EmptyCorpus("no steps to evaluate")
    total = 0.0
    for step in prepared:
        _, _, _, term, _ = _step_terms(params, step, config.clip_epsilon)
        total += term
    return total / len(prepared)


def ppo_update(
    params: ModelParams,
    old_params: ModelParams,
    steps: Sequence[tuple[AgentState, ActionCall]],
    advantages: Sequence[float],
    config: PpoConfig = PpoConfig(),
    seed: int = 0,
) -> tuple[ModelParams, PpoDiagnostics]:
    """Maximize the clipped surrogate minus the adaptive KL penalty over
    ppo_epochs passes of seeded minibatches."""
    if len(steps) != len(advantages):
        raise ValueError("steps and advantages must align")
    prepared = _prepare_steps(steps, advantages, old_params)
    if not prepared:
        raise EmptyCorpus("no steps to optimize")
    epsilon = config.clip_epsilon
    kl_coef = config.kl_coef_init
    rng = random.Random(seed)

    surrogate_before = sum(
        _step_terms(params, s, epsilon)[3] for s in prepared
    ) / len(prepared)

    updates = 0
    kl_measured = 0.0
    order = list(range(len(prepared)))
    for _ in range(config.ppo_epochs):
        rng.shuffle(order)
        for start in range(0, len(order), config.minibatch_size):
            batch = [prepared[i] for i in order[start : start + config.minibatch_size]]
            grads: dict[int, float] = {}

            def add(feature_idx: int, value: float) -> None:
                grads[feature_idx] = grads.get(feature_idx, 0.0) + value

            for step in batch:
                probs, log_probs, ratio, _, _ = _step_terms(params, step, epsilon)
                expected = [0.0] * len(FEATURE_NAMES)
                for p, vec in zip(probs, step.vectors):
                    for j, x in enumerate(vec):
                        if x != 0.0:
                            expected[j] += p * x
                chosen = step.vectors[step.action_index]
                # d ratio / d theta = ratio * (x_chosen - E_new[x])
                unclipped = ratio * step.advantage
                clipped = clipped_term(ratio, step.advantage, epsilon)
                clip_active = unclipped > clipped
                for j in range(len(FEATURE_NAMES)):
                    dlogp = chosen[j] - expected[j]
                    surr_grad = 0.0 if clip_active else ratio * step.advantage * dlogp
                    # d KL(old||new) / d theta = E_new[x] - E_old[x]
                    kl_grad = expected[j] - step.old_expected[j]
                    # Ascend the surrogate, descend the KL penalty.
                    add(j, (-surr_grad + kl_coef * kl_grad) / len(batch))
            lr = config.learning_rate
            new_weights = {}
            for j, g in grads.items():
                name = ACT_NAMES[j]
                new_weights[name] = params.get(name) - lr * g
            params = params.replaced(new_weights)
            updates += 1
        kl_measured = sum(_step_terms(params, s, epsilon)[4] for s in prepared) / len(prepared)
        if kl_measured > config.kl_target * 1.5:
            kl_coef *= 2.0
        elif kl_measured < config.kl_target / 1.5:
            kl_coef /= 2.0

    surrogate_after = sum(
        _step_terms(params, s, epsilon)[3] for s in prepared
    ) / len(prepared)
    return params, PpoDiagnostics(
        surrogate_before=surrogate_before,
        surrogate_after=surrogate_after,
        kl_final=kl_measured,
        kl_coef_final=kl_coef,
        updates=updates,
    )
