"""The imitation kernel's row table and column gradient against the
per-candidate loops they replaced.

The ``parent_*`` functions below are the previous kernels, copied as they
were: a prepared step kept every candidate's sparse row, every call scored
every row of every step, and each candidate's gradient (and each expected
feature vector in PPO) went in with one ``scatter_row`` call. On the suite's
steps with random weights, the row-table kernels must give equal losses,
gradients, trained weights and PPO diagnostics, compared with ``==``. The
parent kernels use ``parent_softmax``, the previous plain-loop softmax, which
the package's ``softmax`` must match float for float.
"""

import dataclasses
import math
import random
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
from lamlab.policy.model import (
    ACT_NAMES,
    column_sums,
    scatter_columns,
    scatter_row,
    score_rows,
    to_columns,
)
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


def parent_left_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def parent_softmax(scores):
    """Returns (probabilities, log-probabilities), numerically stable."""
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    total = parent_left_sum(exps)
    log_total = math.log(total)
    probs = [e / total for e in exps]
    log_probs = [(s - m) - log_total for s in scores]
    return probs, log_probs


def parent_row_softmax(w, rows):
    return parent_softmax(score_rows(w, rows))


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


def _bits(values):
    """The floats as exact hex strings, so that -0.0 differs from 0.0."""
    return [float(v).hex() for v in values]


def _softmax_cases():
    rng = random.Random(7)
    random_scores = [
        [rng.uniform(-scale, scale) for _ in range(rng.randint(2, 40))]
        for scale in (0.1, 1.0, 5.0, 40.0)
        for _ in range(50)
    ]
    ties = [[1.0, 1.0, 1.0], [0.0, 2.5, 2.5, -1.0], [-3.0] * 9]
    # e^-1000 underflows to 0.0: those candidates get probability 0.0.
    apart = [[0.0, -1000.0, -1000.0], [-1000.0, 0.0, 1000.0], [5.0, -995.0]]
    single = [[0.0], [3.7], [-1e300]]
    return random_scores + ties + apart + single


def test_softmax_equals_parent_softmax():
    cases = _softmax_cases()
    assert any(0.0 in parent_softmax(scores)[0] for scores in cases)
    for scores in cases:
        probs, log_probs = softmax(scores)
        expected_probs, expected_log_probs = parent_softmax(scores)
        assert _bits(probs) == _bits(expected_probs)
        assert _bits(log_probs) == _bits(expected_log_probs)


def test_imitation_loss_equals_parent_kernel(suite_steps):
    trajectories, _ = suite_steps
    prepared = prepare_imitation(trajectories)
    parent = [[parent_action_rows(step) for step in t] for t in trajectories]
    # Weights scaled by 1000 drive some probabilities to exactly 0.0, so the
    # zero-coefficient candidates the per-candidate loop skips occur too.
    big = nonzero_params(2)
    scaled = ModelParams({k: v * 1000.0 for k, v in big.weights.items()}, big.plan_vocab)
    cases = [nonzero_params(0), nonzero_params(1), scaled]
    zero_probs = sum(
        parent_row_softmax(cases[-1].act_weights, step.rows)[0].count(0.0)
        for t in parent for step in t
    )
    assert zero_probs > 0
    for params in cases:
        for size in (1, 4, 8, len(trajectories)):
            for rows, old in zip(batches(prepared, size), batches(parent, size)):
                expected = parent_imitation_loss(params, old, step_mean=False)
                assert _equal(imitation_loss(params, rows), expected)


def test_trained_imitation_weights_equal_parent_kernel(suite_steps):
    """Desk phase-2 descent (learning rate 0.5) from random weights."""
    trajectories, _ = suite_steps
    prepared = prepare_imitation(trajectories)
    parent = [[parent_action_rows(step) for step in t] for t in trajectories]
    config = SftConfig(learning_rate=0.5, epochs=3, batch_size=4, warmup_steps=2)
    step = sgd(lambda t, total: learning_rate_at(t, total, config))
    for seed in range(2):
        start = nonzero_params(seed)
        got = train_params(start, prepared, imitation_loss, step, 4, 3, seed)
        expected = train_params(start, parent, parent_imitation_loss, step, 4, 3, seed)
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
                patch.setattr(
                    ppo,
                    "_pass_terms",
                    lambda w, rows, epsilon: [parent_step_terms(w, r, epsilon) for r in rows],
                )
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


def test_ppo_scores_each_distinct_row_once_per_pass(suite_steps, monkeypatch):
    """One scoring call per pass: the old policy's probabilities, each
    minibatch's loss, each epoch's KL and the surrogate before and after;
    every call gets each distinct row of its steps once."""
    trajectories, _ = suite_steps
    steps = [step for t in trajectories for step in t][:60]
    advantages = [((i * 7) % 11 - 5) / 10.0 for i in range(len(steps))]
    calls = []

    def counting(w, rows):
        rows = list(rows)
        calls.append(rows)
        return score_rows(w, rows)

    monkeypatch.setattr(losses, "score_rows", counting)
    params = nonzero_params(0)
    rows = ppo.prepare_ppo(steps, advantages, nonzero_params(10))
    table = rows[0].action.table
    every = {table[i] for row in rows for i in row.action.ids}
    assert len(calls) == 1 and len(calls[0]) == len(every) == len(set(calls[0]))
    assert set(calls[0]) == every

    for batch in batches(rows, 7) + [rows]:
        distinct = {table[i] for row in batch for i in row.action.ids}
        calls.clear()
        ppo.ppo_loss(params, batch, 0.3, 0.2)
        (scored,) = calls
        assert len(scored) == len(distinct) == len(set(scored))
        assert set(scored) == distinct

    config = dataclasses.replace(PPO_CONFIGS[0], minibatch_size=8)
    calls.clear()
    ppo_update(params, nonzero_params(10), steps, advantages, config, seed=0)
    batches_per_epoch = math.ceil(len(steps) / config.minibatch_size)
    # prepare, surrogate before, the minibatches and KL of each epoch, surrogate after
    assert len(calls) == 3 + config.ppo_epochs * (batches_per_epoch + 1)
    assert all(len(scored) == len(set(scored)) for scored in calls)
    assert all(set(scored) <= every for scored in calls)
    passes = [calls[0], calls[1], calls[-1]] + [
        calls[1 + epoch * (batches_per_epoch + 1) + batches_per_epoch + 1]
        for epoch in range(config.ppo_epochs)
    ]
    assert all(set(scored) == every for scored in passes)


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
        (7, (0, 1), None),
        (0, (1,), (0.25,)),
    )


def test_only_columns_of_exact_ones_are_unit():
    rows = [
        ((0, 1, 2, 3, 4), (1.0, 1.0, -1.0, 1.0000000000000002, 1.0)),
        ((0, 1, 4), (1.0, 0.5, 1.0)),
    ]
    assert to_columns(rows) == (
        (0, (0, 1), None),
        (1, (0, 1), (1.0, 0.5)),
        (2, (0,), (-1.0,)),
        (3, (0,), (1.0000000000000002,)),
        (4, (0, 1), None),
    )


def test_mixed_columns_equal_the_row_loop():
    """Unit and valued columns give the floats of one ``scatter_row`` call per
    candidate, from running floats that already hold values, with a -0.0
    coefficient among them; ``column_sums`` gives the same floats from 0.0."""
    rows = [
        ((3, 5, 9), (1.0, 0.25, 1.0)),
        ((5, 3), (1.0000000000000002, 1.0)),
        ((9, 6), (1.0, -1.0)),
        ((3, 6, 5), (1.0, 1.0, 3.0)),
    ]
    columns = to_columns(rows)
    assert [values for _, _, values in columns] == [
        None,
        (0.25, 1.0000000000000002, 3.0),
        None,
        (-1.0, 1.0),
    ]
    cases = [
        [1.0, 0.5, -0.0, 1.0],
        [-0.0, -0.0, 0.75, -2.5],
        [0.1, 0.2, 0.3, 0.4],
        [1e16, 1.0, 0.3, 1.0],
    ]
    for coefs in cases:
        for start in ({3: 1e16, 9: -0.0}, {}):
            grads, expected = dict(start), dict(start)
            scatter_columns(grads, coefs, columns)
            for coef, row in zip(coefs, rows):
                scatter_row(expected, coef, row)
            assert list(grads) == list(expected)
            assert _bits(grads.values()) == _bits(expected.values())
        fresh = {}
        for coef, row in zip(coefs, rows):
            scatter_row(fresh, coef, row)
        assert _bits(column_sums(coefs, columns)) == _bits(fresh.values())
    # Added one at a time, 0.5 and 1.0 are lost against 1e16 (math.fsum keeps
    # them), and -0.0 coefficients keep a -0.0 running float at -0.0.
    grads = {3: 1e16, 9: -0.0}
    scatter_columns(grads, [-0.0, 0.5, -0.0, 1.0], columns)
    assert grads[3] == 1e16 != math.fsum([1e16, 0.5, 1.0])
    assert _bits([grads[9]]) == _bits([-0.0])
