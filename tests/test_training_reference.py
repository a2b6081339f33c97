"""PPO and reward-model training through the shared minibatch loop against
the dedicated loops they replaced.

The reference functions below are the previous implementations: PPO
featurized every candidate into a dense ``FEATURE_NAMES``-wide vector, scored
it weight by weight and ran its own shuffle/minibatch loop; the reward model
ran a third loop over dense vectors (a bias, then the action's features) with
AdamW and its linearly decaying step size inline. The dense vectors come from
the reference featurizers of ``test_feature_cache``, not from the package.
The kernels and ``train_params`` must give exactly equal weights, diagnostics
and losses.
"""

import dataclasses
import math
import random
from operator import mul
from typing import Sequence

import pytest

from lamlab.env_sim import ActionCall
from lamlab.errors import DegenerateRatio, EmptyCorpus
from lamlab.policy import AgentState, ModelParams, enumerate_candidates, match_expert
from lamlab.policy.features import FEATURE_NAMES
from lamlab.policy.model import ACT_NAMES, softmax
from lamlab.training import (
    PpoConfig,
    PpoDiagnostics,
    RewardModelParams,
    RmConfig,
    clipped_term,
    ppo_update,
    train_reward_model,
)
from lamlab.training.reward import RM_FEATURE_NAMES, RewardedStep

from test_feature_cache import reference_featurize, reference_rm_features
from test_training import ppo_steps, random_params, rewarded_toy_set

# --- reference: the previous PPO update ---------------------------------------------

_MIN_OLD_PROB = 1e-12


@dataclasses.dataclass(frozen=True)
class _PreparedStep:
    state: AgentState
    action_index: int
    vectors: tuple[tuple[float, ...], ...]
    old_log_prob: float
    old_probs: tuple[float, ...]
    old_expected: tuple[float, ...]  # E_old[x], fixed for the whole update
    advantage: float


def _prepare_steps(
    steps: Sequence[tuple[AgentState, ActionCall]],
    advantages: Sequence[float],
    old_params: ModelParams,
) -> list[_PreparedStep]:
    prepared = []
    for (state, action), advantage in zip(steps, advantages):
        candidates = enumerate_candidates(state)
        idx = match_expert(candidates, action)
        vectors = tuple(tuple(reference_featurize(state, c)) for c in candidates)
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


def reference_surrogate_value(
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


def reference_ppo_update(
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


# --- reference: the previous reward-model loop ----------------------------------------


def reference_rm_mse_loss(
    params: RewardModelParams, rows: Sequence[tuple[list[float], int]]
) -> tuple[float, dict[str, float]]:
    """MSE between the raw output and the +1/-1 labels of (dense vector,
    label) rows, with its gradient."""
    if not rows:
        raise EmptyCorpus("rm_mse_loss needs at least one step")
    n = len(rows)
    w = [params.weights.get(name, 0.0) for name in RM_FEATURE_NAMES]
    loss = 0.0
    grads: dict[str, float] = {}
    for vector, reward in rows:
        err = sum(map(mul, w, vector)) - reward
        loss += err * err / n
        coef = 2.0 * err / n
        for name, x in zip(RM_FEATURE_NAMES, vector):
            if x != 0.0:
                grads[name] = grads.get(name, 0.0) + coef * x
    return loss, grads


def reference_train_reward_model(
    params: RewardModelParams,
    steps: Sequence[RewardedStep],
    config: RmConfig = RmConfig(),
    seed: int = 0,
) -> tuple[RewardModelParams, float]:
    """Minibatch MSE minimization; returns the new params and final train MSE."""
    if not steps:
        raise EmptyCorpus("no rewarded steps to train on")
    rows = [(reference_rm_features(s.state, s.action), s.reward) for s in steps]
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
            _, grads = reference_rm_mse_loss(params, batch)
            t += 1
            lr = config.learning_rate * max(1.0 - (t - 1) / total_steps, 1.0 / total_steps)
            updates = {}
            for name, g in grads.items():
                m[name] = beta1 * m.get(name, 0.0) + (1 - beta1) * g
                v[name] = beta2 * v.get(name, 0.0) + (1 - beta2) * g * g
                m_hat = m[name] / (1 - beta1**t)
                v_hat = v[name] / (1 - beta2**t)
                current = params.weights.get(name, 0.0)
                updates[name] = current - lr * (
                    m_hat / (math.sqrt(v_hat) + adam_eps) + weight_decay * current
                )
            params = params.replaced(updates)
    final_mse, _ = reference_rm_mse_loss(params, rows)
    return params, final_mse


# --- exact equality with the reference --------------------------------------------------


PPO_CONFIGS = [
    PpoConfig(learning_rate=0.05, ppo_epochs=4),
    # A large step and a tiny KL target: ratios leave the clip band and the
    # KL coefficient doubles.
    PpoConfig(learning_rate=2.0, ppo_epochs=3, kl_target=1e-6, kl_coef_init=0.3),
    # A KL target far above the measured KL: the coefficient halves.
    PpoConfig(learning_rate=0.5, ppo_epochs=3, kl_target=10.0, clip_epsilon=0.1),
]


def ppo_case(seed, copies):
    """Random non-zero current and old parameters (old != current) and
    non-zero advantages over ``copies`` copies of the toy steps."""
    rng = random.Random(seed)
    params = random_params(rng)
    old_params = random_params(rng)
    steps = ppo_steps() * copies
    advantages = [rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.6) for _ in steps]
    return params, old_params, steps, advantages


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("minibatch_size", [1, 2])
def test_ppo_update_equals_reference(minibatch_size, copies):
    clip_seen = set()
    for seed in range(4):
        params, old_params, steps, advantages = ppo_case(seed, copies)
        assert old_params != params
        for config in PPO_CONFIGS:
            config = dataclasses.replace(config, minibatch_size=minibatch_size)
            expected, expected_diag = reference_ppo_update(
                params, old_params, steps, advantages, config, seed=seed
            )
            got, diag = ppo_update(params, old_params, steps, advantages, config, seed=seed)
            assert list(got.weights.items()) == list(expected.weights.items())
            assert got.plan_vocab == expected.plan_vocab
            assert dataclasses.asdict(diag) == dataclasses.asdict(expected_diag)
            for step in _prepare_steps(steps, advantages, old_params):
                _, _, ratio, term, _ = _step_terms(expected, step, config.clip_epsilon)
                clip_seen.add(ratio * step.advantage > term)
    # Both branches of the surrogate gradient were exercised.
    assert clip_seen == {True, False}


def test_surrogate_value_equals_reference():
    for seed in range(4):
        params, old_params, steps, advantages = ppo_case(seed, 2)
        for config in PPO_CONFIGS:
            _, diagnostics = ppo_update(params, old_params, steps, advantages, config)
            assert diagnostics.surrogate_before == (
                reference_surrogate_value(params, old_params, steps, advantages, config)
            )


def test_train_reward_model_equals_reference():
    steps = rewarded_toy_set()
    for seed in range(3):
        rng = random.Random(seed)
        start = RewardModelParams({n: rng.uniform(-0.5, 0.5) for n in RM_FEATURE_NAMES})
        for batch_size in (2, 3, 16):
            config = RmConfig(learning_rate=0.05, epochs=3, batch_size=batch_size)
            for params in (RewardModelParams.zeros(), start):
                expected, expected_mse = reference_train_reward_model(params, steps, config, seed)
                got, mse = train_reward_model(params, steps, config, seed)
                assert list(got.weights.items()) == list(expected.weights.items())
                assert mse == expected_mse
