"""Offline clipped-surrogate policy optimization.

Works entirely from previously collected steps: no environment rollouts. The
objective is the clipped probability-ratio surrogate minus an adaptive KL
penalty whose coefficient doubles/halves as the measured KL strays from its
target band. Steps are prepared as the imitation kernel's action rows. Each
pass over them (old probabilities, a minibatch's loss, an epoch's KL, the
surrogate) scores each distinct row once with ``losses.distinct_scores``,
and E[x] is ``model.column_sums`` over the step's ``ActionRows.columns``.
``ppo_loss`` is the objective as a ``(params, batch) -> (loss, grads)``
kernel, trained by ``losses.train_params`` with constant-rate SGD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..errors import DegenerateRatio, EmptyCorpus
from ..policy import AgentState
from ..policy.model import ACT_NAMES, ModelParams, column_sums, left_sum, softmax
from ..env_sim import ActionCall
from .configs import PpoConfig
from .losses import ActionRows, distinct_scores, prepare_imitation, sgd, train_params

__all__ = [
    "scale_reward",
    "compute_advantage",
    "clipped_term",
    "PpoRow",
    "prepare_ppo",
    "ppo_loss",
    "ppo_update",
    "PpoDiagnostics",
]

_MIN_OLD_PROB = 1e-12


def scale_reward(reward: float, config: PpoConfig = PpoConfig()) -> float:
    """Affine map of a normalized reward in [0, 1] onto [-reward_high, reward_high]."""
    high = config.reward_high
    return -high + reward * (high + high)


def compute_advantage(rewards: Sequence[float], config: PpoConfig = PpoConfig()) -> list[float]:
    """Scaled rewards centered on their batch mean (mean-baseline estimator)."""
    if not rewards:
        return []
    scaled = [scale_reward(r, config) for r in rewards]
    baseline = left_sum(scaled) / len(scaled)
    return [s - baseline for s in scaled]


def clipped_term(ratio: float, advantage: float, epsilon: float) -> float:
    """One step's surrogate contribution: min(ratio*A, clip(ratio)*A)."""
    clipped = min(max(ratio, 1.0 - epsilon), 1.0 + epsilon)
    return min(ratio * advantage, clipped * advantage)


@dataclass(frozen=True)
class PpoRow:
    """One PPO step, prepared: its candidate rows (the taken action is
    ``action.expert``), its advantage and the old policy's probabilities."""

    action: ActionRows
    advantage: float
    old_probs: tuple[float, ...]
    old_log_prob: float  # of the taken action
    old_expected: tuple[float, ...]  # E_old[x], aligned with action.columns


@dataclass
class PpoDiagnostics:
    surrogate_before: float
    surrogate_after: float
    kl_final: float
    kl_coef_final: float
    updates: int


def _softmaxes(w: Sequence[float], actions: Sequence[ActionRows]):
    """Every step's ``softmax`` under action weights ``w``, each distinct row scored once."""
    scores = distinct_scores(w, actions)
    return [softmax(list(map(scores.__getitem__, action.ids))) for action in actions]


def prepare_ppo(
    steps: Sequence[tuple[AgentState, ActionCall]],
    advantages: Sequence[float],
    old_params: ModelParams,
) -> list[PpoRow]:
    if not steps:
        raise EmptyCorpus("no steps to optimize")
    (actions,) = prepare_imitation([steps])
    prepared = []
    for action, advantage, (old_probs, old_log_probs) in zip(
        actions, advantages, _softmaxes(old_params.act_weights, actions)
    ):
        p_old = old_probs[action.expert]
        if p_old < _MIN_OLD_PROB:
            raise DegenerateRatio(f"old policy assigns ~zero probability ({p_old:.2e}) to a step action")
        prepared.append(
            PpoRow(
                action=action,
                advantage=advantage,
                old_probs=tuple(old_probs),
                old_log_prob=old_log_probs[action.expert],
                old_expected=tuple(column_sums(old_probs, action.columns)),
            )
        )
    return prepared


def _pass_terms(w: Sequence[float], rows: Sequence[PpoRow], epsilon: float) -> list[tuple]:
    """Per step: new probabilities, ratio, clipped surrogate term and
    KL(old || new), from one pass that scores each distinct row once."""
    terms = []
    for row, (probs, log_probs) in zip(rows, _softmaxes(w, [row.action for row in rows])):
        ratio = math.exp(log_probs[row.action.expert] - row.old_log_prob)
        kl = left_sum(
            p_old * (math.log(max(p_old, 1e-300)) - lp)
            for p_old, lp in zip(row.old_probs, log_probs)
        )
        terms.append((probs, ratio, clipped_term(ratio, row.advantage, epsilon), kl))
    return terms


def ppo_loss(
    params: ModelParams, batch: Sequence[PpoRow], kl_coef: float, clip_epsilon: float
) -> tuple[float, dict[str, float]]:
    """Mean over the batch of -(clipped surrogate) + kl_coef * KL(old || new),
    with its gradient over the action weights."""
    if not batch:
        raise EmptyCorpus("ppo_loss needs at least one step")
    n = len(batch)
    loss = 0.0
    grads: dict[int, float] = {}
    for row, (probs, ratio, term, kl) in zip(
        batch, _pass_terms(params.act_weights, batch, clip_epsilon)
    ):
        loss += (-term + kl_coef * kl) / n
        columns = row.action.columns
        chosen = dict(zip(*row.action.rows[row.action.expert]))
        clip_active = ratio * row.advantage > term
        # d ratio / d theta = ratio * (x_chosen - E_new[x]) and
        # d KL(old||new) / d theta = E_new[x] - E_old[x]; both are 0 elsewhere.
        for (j, _, _), e, e_old in zip(columns, column_sums(probs, columns), row.old_expected):
            dlogp = chosen.get(j, 0.0) - e
            surr_grad = 0.0 if clip_active else ratio * row.advantage * dlogp
            grads[j] = grads.get(j, 0.0) + (-surr_grad + kl_coef * (e - e_old)) / n
    return loss, {ACT_NAMES[j]: g for j, g in grads.items()}


def _mean_surrogate(params: ModelParams, rows: Sequence[PpoRow], epsilon: float) -> float:
    return left_sum(t[2] for t in _pass_terms(params.act_weights, rows, epsilon)) / len(rows)


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
    prepared = prepare_ppo(steps, advantages, old_params)
    epsilon = config.clip_epsilon
    kl_coef = config.kl_coef_init
    kl_measured = 0.0
    surrogate_before = _mean_surrogate(params, prepared, epsilon)

    def adapt_kl_coef(params: ModelParams) -> None:
        nonlocal kl_coef, kl_measured
        kl = left_sum(t[3] for t in _pass_terms(params.act_weights, prepared, epsilon))
        kl_measured = kl / len(prepared)
        if kl_measured > config.kl_target * 1.5:
            kl_coef *= 2.0
        elif kl_measured < config.kl_target / 1.5:
            kl_coef /= 2.0

    params = train_params(
        params,
        prepared,
        lambda p, batch: ppo_loss(p, batch, kl_coef, epsilon),
        sgd(lambda t, total_steps: config.learning_rate),
        config.minibatch_size,
        config.ppo_epochs,
        seed,
        end_epoch=adapt_kl_coef,
    )
    return params, PpoDiagnostics(
        surrogate_before=surrogate_before,
        surrogate_after=_mean_surrogate(params, prepared, epsilon),
        kl_final=kl_measured,
        kl_coef_final=kl_coef,
        updates=config.ppo_epochs * math.ceil(len(prepared) / config.minibatch_size),
    )
