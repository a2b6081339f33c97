"""Prepared training rows and dense weight vectors against the per-call loops.

The reference functions below are the straightforward loops: featurize every
(state, candidate) pair on every call and look every weight up by name. The
prepared kernels and the inference path must give exactly equal losses,
gradients and scores on the suite's training records.
"""

import math
import random
from pathlib import Path

import pytest

from lamlab import harness
from lamlab.dataflow.records import TaskPlanRecord
from lamlab.env_sim import STATUS_CONTINUE, STATUS_FINISH, needs_selection
from lamlab.errors import ValidationFailure
from lamlab.jsonl import read_jsonl
from lamlab.oracle import MockOracle
from lamlab.policy import (
    FEATURE_NAMES,
    FORMAT_KEYWORDS,
    STATUS_FEATURES,
    ModelParams,
    action_distribution,
    build_plan_vocab,
    enumerate_candidates,
    featurize,
    generate_plan,
    match_expert,
    select_action,
    softmax,
    status_features,
)
from lamlab.policy.features import _CTYPE_BLOCK, _FUNC_BLOCK, FUNC_TRIGGERS
from lamlab.policy.model import END_TOKEN
from lamlab.textutil import token_overlap
from lamlab.training import (
    PhaseConfigs,
    RewardedStep,
    RewardModelParams,
    RmConfig,
    SftConfig,
    imitation_loss,
    prepare_imitation,
    prepare_plans,
    prepare_rewarded,
    prepare_status,
    records_to_imitation,
    rm_features,
    rm_mse_loss,
    run_phase,
    sft_plan_loss,
    status_loss,
    train_reward_model,
)
from lamlab.training import losses, reward
from lamlab.training.reward import RM_FEATURE_NAMES


# --- reference loops ------------------------------------------------------------


def reference_featurize(state, candidate):
    current_step = state.previous_plan[0] if state.previous_plan else ""
    selection = any(
        action.function == "select_text" and result.get("ok")
        for action, result in state.previous_actions
    )
    last = state.last_action()

    def affinity(function, text):
        low = text.lower()
        return 1.0 if any(t in low for t in FUNC_TRIGGERS.get(function, ())) else 0.0

    repeat = 0.0
    if last is not None and not candidate.is_finish:
        if (
            last.function == candidate.function
            and last.control_text == candidate.control_text
            and dict(last.args) == candidate.args_dict()
        ):
            repeat = 1.0
    needs_sel = (not candidate.is_finish) and needs_selection(
        candidate.function, candidate.control_text
    )
    task_has_format = any(k in state.task.lower() for k in FORMAT_KEYWORDS)
    position_prior = 0.0
    if candidate.control is not None and candidate.control_label.isdigit():
        position_prior = 1.0 / (1.0 + float(candidate.control_label))
    values = [
        token_overlap(candidate.control_text, state.task) if candidate.control else 0.0,
        token_overlap(candidate.control_text, current_step) if candidate.control else 0.0,
        0.0 if candidate.is_finish else affinity(candidate.function, state.task),
        0.0 if candidate.is_finish else affinity(candidate.function, current_step),
        repeat,
        min((state.step_id - 1) / 20.0, 1.0),
        1.0 if needs_sel and selection else 0.0,
        1.0 if needs_sel and not selection else 0.0,
        1.0
        if candidate.function == "select_text" and not selection and task_has_format
        else 0.0,
        position_prior,
        1.0 if candidate.args else 0.0,
        1.0 if candidate.is_finish else 0.0,
        1.0 if candidate.is_finish and not state.previous_plan else 0.0,
    ]
    func_name = "<finish>" if candidate.is_finish else candidate.function
    values.extend(1.0 if name == f"func::{func_name}" else 0.0 for name in _FUNC_BLOCK)
    ctype = candidate.control_type or "<none>"
    values.extend(1.0 if name == f"ctype::{ctype}" else 0.0 for name in _CTYPE_BLOCK)
    return values


class _NegKey:
    """Inverts comparison so max() breaks score ties by the *lowest* sort key."""

    __slots__ = ("key",)

    def __init__(self, key: tuple):
        self.key = key

    def __lt__(self, other: "_NegKey") -> bool:
        return self.key > other.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NegKey) and self.key == other.key


def _neg_sort_key(candidate):
    return _NegKey(candidate.sort_key())


def reference_select_action(state, params):
    """Argmax action selection that builds a sort key for every candidate."""
    dist = action_distribution(state, params)
    best = max(
        range(len(dist.candidates)),
        key=lambda i: (dist.scores[i], _neg_sort_key(dist.candidates[i])),
    )
    finish = dist.finish_prob > 0.5
    candidate = dist.candidates[best]
    if candidate.is_finish:
        return candidate.to_action_call()
    return candidate.to_action_call(STATUS_FINISH if finish else STATUS_CONTINUE)


def _add(grads, name, value):
    grads[name] = grads.get(name, 0.0) + value


def reference_scores(state, params, candidates):
    return [
        sum(params.get(f"act::{n}") * x for n, x in zip(FEATURE_NAMES, featurize(state, c)))
        for c in candidates
    ]


def reference_status_logit(state, params):
    return sum(
        params.get(f"status::{n}") * x for n, x in zip(STATUS_FEATURES, status_features(state))
    )


def reference_imitation_loss(params, trajectories, step_mean=False):
    total_steps = sum(len(t) for t in trajectories)
    n_traj = len(trajectories)
    loss = 0.0
    grads = {}
    for trajectory in trajectories:
        if not trajectory:
            continue
        weight = 1.0 / total_steps if step_mean else 1.0 / (n_traj * len(trajectory))
        for state, expert in trajectory:
            candidates = enumerate_candidates(state)
            expert_idx = match_expert(candidates, expert)
            vectors = [featurize(state, c) for c in candidates]
            scores = [
                sum(params.get(f"act::{n}") * x for n, x in zip(FEATURE_NAMES, vec))
                for vec in vectors
            ]
            probs, log_probs = softmax(scores)
            loss += -log_probs[expert_idx] * weight
            for i, vec in enumerate(vectors):
                coef = (probs[i] - (1.0 if i == expert_idx else 0.0)) * weight
                if coef == 0.0:
                    continue
                for name, x in zip(FEATURE_NAMES, vec):
                    if x != 0.0:
                        _add(grads, f"act::{name}", coef * x)
    return loss, grads


def reference_status_loss(params, steps):
    loss = 0.0
    grads = {}
    n = len(steps)
    for state, status in steps:
        features = status_features(state)
        logit = sum(
            params.get(f"status::{name}") * x for name, x in zip(STATUS_FEATURES, features)
        )
        target = 1.0 if status == "FINISH" else 0.0
        prob = 1.0 / (1.0 + math.exp(-logit))
        eps = 1e-12
        loss += -(target * math.log(prob + eps) + (1 - target) * math.log(1 - prob + eps)) / n
        coef = (prob - target) / n
        for name, x in zip(STATUS_FEATURES, features):
            if x != 0.0:
                _add(grads, f"status::{name}", coef * x)
    return loss, grads


def reference_rm_mse_loss(params, steps):
    n = len(steps)
    loss = 0.0
    grads = {}
    for step in steps:
        vector = rm_features(step.state, step.action)
        raw = sum(params.weights.get(nme, 0.0) * x for nme, x in zip(RM_FEATURE_NAMES, vector))
        err = raw - step.reward
        loss += err * err / n
        coef = 2.0 * err / n
        for name, x in zip(RM_FEATURE_NAMES, vector):
            if x != 0.0:
                _add(grads, name, coef * x)
    return loss, grads


def reference_plan_scores(task, params, position, used, vocab):
    scores = []
    for v in vocab:
        score = params.get(f"plan::bias::{v}")
        score += params.get(f"plan::pos::{position}::{v}")
        if v != END_TOKEN:
            score += params.get("plan::overlap") * token_overlap(v, task)
            if v in used:
                score += params.get("plan::used")
        scores.append(score)
    return scores


def reference_sft_plan_loss(params, batch, step_mean=True):
    vocab = params.plan_vocab
    index = {v: i for i, v in enumerate(vocab)}
    contributions = []
    for record in batch:
        targets = list(record.plan) + [END_TOKEN]
        record_loss = 0.0
        record_grads = {}
        used = set()
        for position, target in enumerate(targets, 1):
            scores = reference_plan_scores(record.task, params, position, used, vocab)
            probs, log_probs = softmax(scores)
            record_loss += -log_probs[index[target]]
            for i, v in enumerate(vocab):
                coef = probs[i] - (1.0 if v == target else 0.0)
                if coef == 0.0:
                    continue
                _add(record_grads, f"plan::bias::{v}", coef)
                _add(record_grads, f"plan::pos::{position}::{v}", coef)
                if v != END_TOKEN:
                    _add(record_grads, "plan::overlap", coef * token_overlap(v, record.task))
                    if v in used:
                        _add(record_grads, "plan::used", coef)
            if target != END_TOKEN:
                used.add(target)
        contributions.append((record_loss, float(len(targets)), record_grads))
    total_loss = 0.0
    grads = {}
    if step_mean:
        total_targets = sum(n for _, n, _ in contributions)
        for record_loss, _, record_grads in contributions:
            total_loss += record_loss / total_targets
            for name, g in record_grads.items():
                _add(grads, name, g / total_targets)
    else:
        n_records = len(contributions)
        for record_loss, n_targets, record_grads in contributions:
            total_loss += record_loss / (n_targets * n_records)
            for name, g in record_grads.items():
                _add(grads, name, g / (n_targets * n_records))
    return total_loss, grads


def reference_generate_plan(task, params, max_steps=20):
    plan, used = [], set()
    for position in range(1, max_steps + 1):
        scores = reference_plan_scores(task, params, position, used, params.plan_vocab)
        best, best_score = None, None
        for v, score in zip(params.plan_vocab, scores):
            if v == END_TOKEN and position == 1:
                continue
            if best_score is None or score > best_score:
                best, best_score = v, score
        if best == END_TOKEN or best is None:
            break
        plan.append(best)
        used.add(best)
    return plan


# --- fixtures ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_ws(tmp_path_factory):
    return harness.build_suite_workspace(tmp_path_factory.mktemp("cache_ws") / "ws", MockOracle())


@pytest.fixture(scope="module")
def suite_steps(suite_ws):
    return records_to_imitation(read_jsonl(suite_ws / "corpus" / "training.jsonl"))


@pytest.fixture(scope="module")
def plan_records(suite_ws):
    return [TaskPlanRecord.from_dict(o) for o in read_jsonl(suite_ws / "corpus" / "evolved.jsonl")]


def nonzero_params(seed, vocab=(), positions=0):
    """Every weight drawn from U(-1, 1), plan position weights included."""
    rng = random.Random(seed)
    params = ModelParams.zeros(plan_vocab=vocab)
    names = list(params.weights)
    names += [f"plan::pos::{p}::{v}" for p in range(1, positions + 1) for v in params.plan_vocab]
    return params.replaced({name: rng.uniform(-1.0, 1.0) for name in names})


def batches(items, size):
    return [items[i : i + size] for i in range(0, len(items), size)]


# --- exact equality with the reference --------------------------------------------


def test_featurize_matches_reference_on_suite_states(suite_steps):
    trajectories, _ = suite_steps
    pairs = 0
    for trajectory in trajectories:
        for state, _ in trajectory:
            for candidate in enumerate_candidates(state):
                assert featurize(state, candidate) == reference_featurize(state, candidate)
                pairs += 1
    assert pairs > 1000


@pytest.mark.parametrize("step_mean", [False, True])
def test_imitation_loss_equals_reference(suite_steps, step_mean):
    trajectories, _ = suite_steps
    prepared = prepare_imitation(trajectories)
    for seed in range(3):
        params = nonzero_params(seed)
        for raw, rows in zip(batches(trajectories, 8) + [trajectories],
                             batches(prepared, 8) + [prepared]):
            expected = reference_imitation_loss(params, raw, step_mean)
            for got in (imitation_loss(params, rows, step_mean),
                        imitation_loss(params, raw, step_mean)):
                assert got[0] == expected[0]
                assert list(got[1].items()) == list(expected[1].items())


def test_status_loss_equals_reference(suite_steps):
    _, statuses = suite_steps
    prepared = prepare_status(statuses)
    for seed in range(3):
        params = nonzero_params(seed)
        for raw, rows in zip(batches(statuses, 8) + [statuses], batches(prepared, 8) + [prepared]):
            expected = reference_status_loss(params, raw)
            for got in (status_loss(params, rows), status_loss(params, raw)):
                assert got[0] == expected[0]
                assert list(got[1].items()) == list(expected[1].items())


@pytest.mark.parametrize("step_mean", [True, False])
def test_sft_plan_loss_equals_reference(plan_records, step_mean):
    vocab = build_plan_vocab([list(r.plan) for r in plan_records])
    longest = max(len(r.plan) for r in plan_records) + 1
    prepared = prepare_plans(plan_records, vocab)
    for seed in range(2):
        params = nonzero_params(seed, vocab, positions=longest)
        for raw, rows in zip(batches(plan_records, 16) + [plan_records],
                             batches(prepared, 16) + [prepared]):
            expected = reference_sft_plan_loss(params, raw, step_mean)
            for got in (sft_plan_loss(params, rows, step_mean),
                        sft_plan_loss(params, raw, step_mean)):
                assert got[0] == expected[0]
                assert list(got[1].items()) == list(expected[1].items())


def rewarded_suite_steps(suite_steps, seed=0):
    trajectories, _ = suite_steps
    rng = random.Random(seed)
    return [
        RewardedStep(state=state, action=action, reward=rng.choice((1, -1)))
        for trajectory in trajectories
        for state, action in trajectory
    ]


def test_rm_mse_loss_equals_reference(suite_steps):
    steps = rewarded_suite_steps(suite_steps)
    prepared = prepare_rewarded(steps)
    for seed in range(3):
        rng = random.Random(seed)
        params = RewardModelParams({n: rng.uniform(-1.0, 1.0) for n in RM_FEATURE_NAMES})
        for raw, rows in zip(batches(steps, 8) + [steps], batches(prepared, 8) + [prepared]):
            expected = reference_rm_mse_loss(params, raw)
            for got in (rm_mse_loss(params, rows), rm_mse_loss(params, raw)):
                assert got[0] == expected[0]
                assert list(got[1].items()) == list(expected[1].items())


def test_prepared_plans_refuse_another_vocabulary(plan_records):
    vocab = build_plan_vocab([list(r.plan) for r in plan_records])
    prepared = prepare_plans(plan_records[:2], vocab)
    other = ModelParams.zeros(plan_vocab=vocab[1:])
    with pytest.raises(ValidationFailure):
        sft_plan_loss(other, prepared)


def test_inference_scores_equal_reference(suite_steps, plan_records):
    trajectories, _ = suite_steps
    vocab = build_plan_vocab([list(r.plan) for r in plan_records])
    for seed in range(3):
        params = nonzero_params(seed, vocab, positions=8)
        for trajectory in trajectories:
            for state, _ in trajectory:
                candidates = enumerate_candidates(state)
                dist = action_distribution(state, params, candidates)
                assert list(dist.scores) == reference_scores(state, params, candidates)
                logit = reference_status_logit(state, params)
                assert dist.finish_prob == 1.0 / (1.0 + math.exp(-logit))
        for record in plan_records:
            assert generate_plan(record.task, params) == reference_generate_plan(
                record.task, params
            )


def coarse_params(seed):
    """Every action and status weight drawn from {-1, 0, 1}, so that many
    candidates tie at the top score and the tie-break decides among them."""
    rng = random.Random(seed)
    params = ModelParams.zeros()
    return params.replaced({name: rng.choice((-1.0, 0.0, 1.0)) for name in params.weights})


@pytest.mark.parametrize(
    "make_params",
    [
        ModelParams.zeros,
        lambda: nonzero_params(0),
        lambda: nonzero_params(1),
        lambda: nonzero_params(2),
        lambda: coarse_params(0),
        lambda: coarse_params(1),
    ],
    ids=["zeros", "nonzero0", "nonzero1", "nonzero2", "coarse0", "coarse1"],
)
def test_argmax_select_action_equals_reference(suite_steps, make_params):
    trajectories, _ = suite_steps
    params = make_params()
    states = 0
    for trajectory in trajectories:
        for state, _ in trajectory:
            assert select_action(state, params) == reference_select_action(state, params)
            states += 1
    assert states >= 50


# --- featurize once per phase -----------------------------------------------------------


def test_imitation_phase_featurizes_each_pair_once(tmp_path, monkeypatch):
    ws = harness.build_suite_workspace(tmp_path / "ws", MockOracle())
    configs = PhaseConfigs(
        sft=SftConfig(learning_rate=0.8, epochs=1),
        imitation=SftConfig(learning_rate=0.5, batch_size=8, epochs=3),
    )
    run_phase(1, ws, MockOracle(), configs)
    trajectories, _ = records_to_imitation(read_jsonl(ws / "corpus" / "training.jsonl"))
    pairs = sum(len(enumerate_candidates(s)) for t in trajectories for s, _ in t)

    calls = {"n": 0}
    original = losses.featurize

    def counting(state, candidate):
        calls["n"] += 1
        return original(state, candidate)

    monkeypatch.setattr(losses, "featurize", counting)
    run_phase(2, ws, MockOracle(), configs)
    assert pairs > 0
    assert calls["n"] == pairs
    assert Path(ws / "checkpoints" / "lam2" / "weights.json").is_file()


def test_reward_model_featurizes_each_step_once(suite_steps, monkeypatch):
    steps = rewarded_suite_steps(suite_steps)
    calls = {"n": 0}
    original = reward.rm_features

    def counting(state, action):
        calls["n"] += 1
        return original(state, action)

    monkeypatch.setattr(reward, "rm_features", counting)
    params, final_mse = train_reward_model(
        RewardModelParams.zeros(), steps, RmConfig(learning_rate=0.01, epochs=3, batch_size=8)
    )
    assert calls["n"] == len(steps)
    assert math.isfinite(final_mse)
    assert any(params.weights.values())
