"""The imitation kernel's row table and column gradient against the
per-candidate loops they replaced.

The ``parent_*`` functions below are the previous kernels, copied as they
were: a prepared step kept every candidate's sparse row, every call scored
every row of every step, and each candidate's gradient (and each expected
feature vector in PPO) went in with one ``scatter_row`` call. On the suite's
steps with random weights, the row-table kernels must give equal losses,
gradients, trained weights and PPO diagnostics, compared with ``==``.
"""

import dataclasses
import math
from dataclasses import dataclass

import pytest

from lamlab.errors import DegenerateRatio, EmptyCorpus, ValidationFailure
from lamlab.policy import (
    ModelParams,
    build_plan_vocab,
    enumerate_candidates,
    featurize,
    match_expert,
    softmax,
)
from lamlab.policy.model import ACT_NAMES, scatter_columns, scatter_row, score_rows, to_columns
from lamlab.training import (
    SftConfig,
    imitation_loss,
    learning_rate_at,
    ppo_update,
    prepare_imitation,
    prepare_plans,
    sft_plan_loss,
)
from lamlab.training import losses, ppo
from lamlab.training.losses import sgd, train_params

from test_feature_cache import (  # noqa: F401
    batches,
    nonzero_params,
    plan_records,
    suite_steps,
    suite_ws,
)
from test_training_reference import PPO_CONFIGS

# --- the previous kernels, verbatim ---------------------------------------------------


@dataclass(frozen=True)
class ParentActionRows:
    expert: int
    rows: tuple


def parent_action_rows(step):
    if isinstance(step, ParentActionRows):
        return step
    state, expert = step
    candidates = enumerate_candidates(state)
    expert_idx = match_expert(candidates, expert)
    return ParentActionRows(expert_idx, tuple(featurize(state, c) for c in candidates))


def parent_row_softmax(w, rows):
    return softmax(score_rows(w, rows))


def parent_imitation_loss(params, trajectories, step_mean=False):
    if not trajectories or not any(len(t) for t in trajectories):
        raise EmptyCorpus("imitation_loss needs at least one step")
    total_steps = sum(len(t) for t in trajectories)
    n_traj = len(trajectories)
    w = params.act_weights

    loss = 0.0
    grads = {}
    for trajectory in trajectories:
        if not trajectory:
            continue
        weight = 1.0 / total_steps if step_mean else 1.0 / (n_traj * len(trajectory))
        for step in map(parent_action_rows, trajectory):
            probs, log_probs = parent_row_softmax(w, step.rows)
            loss += -log_probs[step.expert] * weight
            for i, row in enumerate(step.rows):
                coef = (probs[i] - (1.0 if i == step.expert else 0.0)) * weight
                if coef == 0.0:
                    continue
                scatter_row(grads, coef, row)
    return loss, {ACT_NAMES[j]: g for j, g in grads.items()}


@dataclass(frozen=True)
class ParentPpoRow:
    action: ParentActionRows
    advantage: float
    old_probs: tuple
    old_log_prob: float
    old_expected: dict


def parent_expected(probs, rows):
    expected = {}
    for p, row in zip(probs, rows):
        scatter_row(expected, p, row)
    return expected


def parent_prepare_ppo(steps, advantages, old_params):
    w_old = old_params.act_weights
    prepared = []
    for step, advantage in zip(steps, advantages):
        action = parent_action_rows(step)
        old_probs, old_log_probs = parent_row_softmax(w_old, action.rows)
        p_old = old_probs[action.expert]
        if p_old < 1e-12:
            raise DegenerateRatio(f"old policy assigns ~zero probability ({p_old:.2e}) to a step action")
        prepared.append(
            ParentPpoRow(
                action=action,
                advantage=advantage,
                old_probs=tuple(old_probs),
                old_log_prob=old_log_probs[action.expert],
                old_expected=parent_expected(old_probs, action.rows),
            )
        )
    return prepared


def parent_step_terms(w, row, epsilon):
    probs, log_probs = parent_row_softmax(w, row.action.rows)
    ratio = math.exp(log_probs[row.action.expert] - row.old_log_prob)
    term = ppo.clipped_term(ratio, row.advantage, epsilon)
    kl = sum(
        p_old * (math.log(max(p_old, 1e-300)) - lp)
        for p_old, lp in zip(row.old_probs, log_probs)
    )
    return probs, ratio, term, kl


def parent_ppo_loss(params, batch, kl_coef, clip_epsilon):
    if not batch:
        raise EmptyCorpus("ppo_loss needs at least one step")
    w = params.act_weights
    n = len(batch)
    loss = 0.0
    grads = {}
    for row in batch:
        probs, ratio, term, kl = parent_step_terms(w, row, clip_epsilon)
        loss += (-term + kl_coef * kl) / n
        expected = parent_expected(probs, row.action.rows)
        chosen = dict(zip(*row.action.rows[row.action.expert]))
        clip_active = ratio * row.advantage > term
        for j, e in expected.items():
            dlogp = chosen.get(j, 0.0) - e
            surr_grad = 0.0 if clip_active else ratio * row.advantage * dlogp
            kl_grad = e - row.old_expected[j]
            grads[j] = grads.get(j, 0.0) + (-surr_grad + kl_coef * kl_grad) / n
    return loss, {ACT_NAMES[j]: g for j, g in grads.items()}


# --- equality with the previous kernels -------------------------------------------------


def _equal(got, expected):
    """Equal losses and gradients, the gradient keys in the same order."""
    return got == expected and list(got[1]) == list(expected[1])


def test_imitation_loss_equals_parent_kernel(suite_steps):
    trajectories, _ = suite_steps
    prepared = prepare_imitation(trajectories)
    parent = [[parent_action_rows(step) for step in t] for t in trajectories]
    # Weights scaled by 1000 drive some probabilities to exactly 0.0, so the
    # zero-coefficient candidates the per-candidate loop skips occur too.
    cases = [nonzero_params(0), nonzero_params(1), nonzero_params(2).scaled(1000.0)]
    zero_probs = sum(
        softmax(score_rows(cases[-1].act_weights, step.rows))[0].count(0.0)
        for t in parent for step in t
    )
    assert zero_probs > 0
    for params in cases:
        for step_mean in (False, True):
            for size in (1, 4, 8, len(trajectories)):
                for rows, old in zip(batches(prepared, size), batches(parent, size)):
                    expected = parent_imitation_loss(params, old, step_mean)
                    assert _equal(imitation_loss(params, rows, step_mean), expected)


def test_trained_imitation_weights_equal_parent_kernel(suite_steps):
    """Desk phase-2 descent (learning rate 0.5) from random weights."""
    trajectories, _ = suite_steps
    prepared = prepare_imitation(trajectories)
    parent = [[parent_action_rows(step) for step in t] for t in trajectories]
    config = SftConfig(learning_rate=0.5, epochs=3, batch_size=4, warmup_steps=2)
    step = sgd(lambda t, total: learning_rate_at(t, total, config))
    for step_mean in (False, True):
        for seed in range(2):
            start = nonzero_params(seed)
            got = train_params(
                start, prepared, lambda p, b: imitation_loss(p, b, step_mean), step, 4, 3, seed
            )
            expected = train_params(
                start, parent, lambda p, b: parent_imitation_loss(p, b, step_mean), step, 4, 3, seed
            )
            assert got.weights == expected.weights


def test_ppo_update_equals_parent_kernel(suite_steps, monkeypatch):
    trajectories, _ = suite_steps
    steps = [step for t in trajectories for step in t][:60]
    advantages = [((i * 7) % 11 - 5) / 10.0 for i in range(len(steps))]
    for seed in range(2):
        params, old_params = nonzero_params(seed), nonzero_params(seed + 10)
        for config in PPO_CONFIGS:
            config = dataclasses.replace(config, minibatch_size=4)
            got = ppo_update(params, old_params, steps, advantages, config, seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr(ppo, "prepare_ppo", parent_prepare_ppo)
                patch.setattr(ppo, "ppo_loss", parent_ppo_loss)
                patch.setattr(ppo, "_step_terms", parent_step_terms)
                expected = ppo_update(params, old_params, steps, advantages, config, seed=seed)
            assert got[0].weights == expected[0].weights
            assert got[1] == expected[1]
            assert got[1].updates > 0


# --- the row table ---------------------------------------------------------------------


def test_each_distinct_row_is_scored_once_per_call(suite_steps, monkeypatch):
    trajectories, _ = suite_steps
    prepared = prepare_imitation(trajectories)
    steps = [step for t in prepared for step in t]
    table = steps[0].table
    assert all(step.table is table for step in steps)
    assert sum(len(step.ids) for step in steps) == 2222
    assert len(table) == 119 == len(set(table))

    calls = []

    def counting(w, rows):
        rows = list(rows)
        calls.append(rows)
        return score_rows(w, rows)

    monkeypatch.setattr(losses, "score_rows", counting)
    params = nonzero_params(0)
    for batch in batches(prepared, 4) + [prepared]:
        distinct = {table[i] for t in batch for step in t for i in step.ids}
        calls.clear()
        imitation_loss(params, batch)
        (rows,) = calls
        assert len(rows) == len(distinct) == len(set(rows))
        assert set(rows) == distinct
    assert len(distinct) == 119


def test_prepared_step_keeps_its_rows_and_columns(suite_steps):
    trajectories, _ = suite_steps
    prepared = prepare_imitation(trajectories)
    for raw, rows in zip(trajectories, prepared):
        for (state, expert), step in zip(raw, rows):
            candidates = enumerate_candidates(state)
            assert step.expert == match_expert(candidates, expert)
            assert step.rows == tuple(featurize(state, c) for c in candidates)
            assert step.columns == to_columns(step.rows)


def test_a_batch_from_two_preparations_is_refused(suite_steps, plan_records):
    trajectories, _ = suite_steps
    mixed = prepare_imitation(trajectories[:3]) + prepare_imitation(trajectories[3:6])
    with pytest.raises(ValidationFailure, match="different preparation calls"):
        imitation_loss(nonzero_params(0), mixed)
    vocab = build_plan_vocab([list(r.plan) for r in plan_records])
    plans = prepare_plans(plan_records[:2], vocab) + prepare_plans(plan_records[2:4], vocab)
    with pytest.raises(ValidationFailure, match="different preparation calls"):
        sft_plan_loss(ModelParams.zeros(plan_vocab=vocab), plans)


def test_scatter_columns_adds_each_feature_in_sequence():
    # Sequential addition loses both 1.0 terms against 1e16; compensated
    # summation (sum() from CPython 3.12) and math.fsum keep them.
    assert math.fsum([1e16, 1.0, 1.0]) != 1e16
    grads = {3: 1e16}
    scatter_columns(grads, [1.0, 0.5, 1.0], [(3, (0, 2), (1.0, 1.0)), (5, (1,), (0.25,))])
    expected = {3: 1e16}
    for coef, row in ((1.0, ((3,), (1.0,))), (0.5, ((5,), (0.25,))), (1.0, ((3,), (1.0,)))):
        scatter_row(expected, coef, row)
    assert grads == expected == {3: 1e16, 5: 0.125}


def test_columns_follow_first_use():
    rows = [((2, 7), (0.5, 1.0)), ((0, 7), (0.25, 1.0)), ((), ()), ((2,), (1.0,))]
    assert to_columns(rows) == (
        (2, (0, 3), (0.5, 1.0)),
        (7, (0, 1), (1.0, 1.0)),
        (0, (1,), (0.25,)),
    )
