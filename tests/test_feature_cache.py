"""Sparse feature rows, prepared training rows and the per-state caches
against the per-call loops.

The reference functions below are the straightforward loops: build the
dense action, status and reward-model vectors of every step from their
definitions on every call (``densify`` widens a production row only where a
test checks that row) and look every weight up by name. The sparse rows, the
prepared kernels and the inference path must give exactly equal features,
losses, gradients and scores on the suite's training records and on drawn
states; the per-task and per-snapshot caches must do their work once and
leave shared values unchanged.
"""

import copy
import json
import math
import random
import sys
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lamlab import harness
from lamlab.agent import AgentConfig, ModelPolicy, run_task
from lamlab.dataflow.records import InstantiatedTask, TaskPlanRecord, record_step, record_trajectory
from lamlab.env_sim import canvas as canvas_module
from lamlab.env_sim import controls as controls_module
from lamlab.env_sim import (
    REGISTRY,
    STATUS_CONTINUE,
    STATUS_FINISH,
    ActionCall,
    EnvSession,
    EnvSnapshot,
    control_tree_dict,
    get_template,
    list_controls,
    list_templates,
    load_template,
    needs_selection,
    serialize_canvas,
)
from lamlab.errors import ValidationFailure
from lamlab.jsonl import read_jsonl
from lamlab.oracle import MockOracle
from lamlab.policy import (
    AgentState,
    CandidateAction,
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
)
from lamlab.policy import candidates as candidates_module
from lamlab.policy.features import _CTYPE_BLOCK, _FUNC_BLOCK, FUNC_TRIGGERS
from lamlab.policy.model import END_TOKEN, plan_overlaps
from lamlab.textutil import set_overlap, token_set
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
    rm_mse_loss,
    run_phase,
    sft_plan_loss,
    status_loss,
    train_reward_model,
)
from lamlab.training import losses, reward
from lamlab.training.reward import RM_FEATURE_NAMES


# --- reference loops ------------------------------------------------------------


def densify(row):
    """The full FEATURE_NAMES-wide vector of a sparse row."""
    vector = [0.0] * len(FEATURE_NAMES)
    for j, x in zip(*row):
        vector[j] = x
    return vector


def token_overlap(a, b):
    """|tokens(a) ∩ tokens(b)| / |tokens(a)|, 0.0 when a has no tokens."""
    return set_overlap(token_set(a), token_set(b))


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
    if last is not None:
        if (
            last.function == candidate.function
            and last.control_text == candidate.control_text
            and dict(last.args) == candidate.args_dict()
        ):
            repeat = 1.0
    needs_sel = needs_selection(candidate.function, candidate.control_text)
    task_has_format = any(k in state.task.lower() for k in FORMAT_KEYWORDS)
    position_prior = 0.0
    if candidate.control is not None and candidate.control_label.isdigit():
        position_prior = 1.0 / (1.0 + float(candidate.control_label))
    values = [
        token_overlap(candidate.control_text, state.task) if candidate.control else 0.0,
        token_overlap(candidate.control_text, current_step) if candidate.control else 0.0,
        affinity(candidate.function, state.task),
        affinity(candidate.function, current_step),
        repeat,
        min((state.step_id - 1) / 20.0, 1.0),
        1.0 if needs_sel and selection else 0.0,
        1.0 if needs_sel and not selection else 0.0,
        1.0
        if candidate.function == "select_text" and not selection and task_has_format
        else 0.0,
        position_prior,
        1.0 if candidate.args else 0.0,
    ]
    values.extend(1.0 if name == f"func::{candidate.function}" else 0.0 for name in _FUNC_BLOCK)
    ctype = candidate.control_type or "<none>"
    values.extend(1.0 if name == f"ctype::{ctype}" else 0.0 for name in _CTYPE_BLOCK)
    return values


def reference_status_features(state):
    """The status head's dense vector, in STATUS_FEATURES order."""
    return [
        1.0,
        min((state.step_id - 1) / 20.0, 1.0),
        1.0 if state.step_id == 1 else 0.0,
        min(len(state.previous_plan) / 20.0, 1.0),
        1.0 if len(state.previous_plan) == 1 else 0.0,
        1.0 if any(k in state.task.lower() for k in FORMAT_KEYWORDS) else 0.0,
    ]


def reference_candidate(state, action):
    """An action as a candidate: its control is the first observed one whose
    label, or else whose text, matches."""
    control = next(
        (
            c
            for c in state.controls
            if (action.control_label and c["label"] == action.control_label)
            or (action.control_text and c["control_text"] == action.control_text)
        ),
        None,
    )
    return CandidateAction(
        function=action.function, control=control, args=tuple(sorted(dict(action.args).items()))
    )


def reference_rm_features(state, action):
    """The reward model's dense vector: a bias, then the action's features."""
    return [1.0] + reference_featurize(state, reference_candidate(state, action))


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
    return dist.candidates[best].to_action_call(STATUS_FINISH if finish else STATUS_CONTINUE)


def _add(grads, name, value):
    grads[name] = grads.get(name, 0.0) + value


def reference_scores(state, params, candidates):
    return [
        sum(
            params.get(f"act::{n}") * x
            for n, x in zip(FEATURE_NAMES, reference_featurize(state, c))
        )
        for c in candidates
    ]


def reference_status_logit(state, params):
    return sum(
        params.get(f"status::{n}") * x
        for n, x in zip(STATUS_FEATURES, reference_status_features(state))
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
            vectors = [reference_featurize(state, c) for c in candidates]
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
        features = reference_status_features(state)
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
        vector = reference_rm_features(step.state, step.action)
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


def reference_plan_overlaps(task, vocab):
    return tuple(0.0 if v == END_TOKEN else token_overlap(v, task) for v in vocab)


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
    """The suite's imitation trajectories and their (state, status) pairs."""
    trajectories = records_to_imitation(read_jsonl(suite_ws / "corpus" / "training.jsonl"))
    return trajectories, [(s, a.status) for steps in trajectories for s, a in steps]


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
                assert densify(featurize(state, candidate)) == reference_featurize(
                    state, candidate
                )
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
            got = imitation_loss(params, rows, step_mean)
            assert got[0] == expected[0]
            assert list(got[1].items()) == list(expected[1].items())


def test_status_loss_equals_reference(suite_steps):
    _, statuses = suite_steps
    prepared = prepare_status(statuses)
    for seed in range(3):
        params = nonzero_params(seed)
        for raw, rows in zip(batches(statuses, 8) + [statuses], batches(prepared, 8) + [prepared]):
            expected = reference_status_loss(params, raw)
            got = status_loss(params, rows)
            assert got[0] == expected[0]
            assert list(got[1].items()) == list(expected[1].items())


def saturated_plan_params(seed, vocab, positions, magnitude):
    """Every plan weight drawn from {-magnitude, +magnitude}, so that most
    plan softmax steps put all their mass on one entry."""
    rng = random.Random(seed)
    params = nonzero_params(seed, vocab, positions)
    plan = [name for name in params.weights if name.startswith("plan::")]
    return params.replaced({name: rng.choice((-magnitude, magnitude)) for name in plan})


def reference_plan_softmaxes(params, records):
    """(probabilities, target index) of every teacher-forced plan position."""
    index = {v: i for i, v in enumerate(params.plan_vocab)}
    for record in records:
        used = set()
        for position, target in enumerate((*record.plan, END_TOKEN), 1):
            scores = reference_plan_scores(record.task, params, position, used, params.plan_vocab)
            yield softmax(scores)[0], index[target]
            used.add(target)


@pytest.mark.parametrize("step_mean", [True, False])
def test_sft_plan_loss_equals_reference(plan_records, step_mean):
    vocab = build_plan_vocab([list(r.plan) for r in plan_records])
    longest = max(len(r.plan) for r in plan_records) + 1
    prepared = prepare_plans(plan_records, vocab)
    saturated = saturated_plan_params(0, vocab, longest, 200.0)
    underflowing = saturated_plan_params(1, vocab, longest, 1000.0)
    # At +-200 some targets take probability exactly 1.0, a zero coefficient;
    # at +-1000 some other entries' probabilities underflow to 0.0.
    assert any(probs[t] == 1.0 for probs, t in reference_plan_softmaxes(saturated, plan_records))
    assert any(
        p == 0.0
        for probs, t in reference_plan_softmaxes(underflowing, plan_records)
        for i, p in enumerate(probs)
        if i != t
    )
    cases = [nonzero_params(0, vocab, longest), nonzero_params(1, vocab, longest)]
    for params in cases + [saturated, underflowing]:
        for raw, rows in zip(batches(plan_records, 16) + [plan_records],
                             batches(prepared, 16) + [prepared]):
            expected = reference_sft_plan_loss(params, raw, step_mean)
            got = sft_plan_loss(params, rows, step_mean)
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
            got = rm_mse_loss(params, rows)
            assert got[0] == expected[0]
            assert list(got[1].items()) == list(expected[1].items())


def test_reward_model_scores_equal_dense_reference(suite_steps):
    odd_actions = [
        ActionCall(),
        ActionCall(function="click_input", control_text="No Such Control", args={"button": "left"}),
        ActionCall(function="frobnicate", control_label="1"),
    ]
    steps = rewarded_suite_steps(suite_steps)
    steps += [RewardedStep(s.state, a, 1) for s in steps[:5] for a in odd_actions]
    for seed in range(3):
        rng = random.Random(seed)
        params = RewardModelParams({n: rng.uniform(-1.0, 1.0) for n in RM_FEATURE_NAMES})
        w = [params.weights[n] for n in RM_FEATURE_NAMES]
        for step in steps:
            raw = sum(map(mul, w, reference_rm_features(step.state, step.action)))
            assert params.raw(step.state, step.action) == raw
            assert params.normalized(step.state, step.action) == 1.0 / (1.0 + math.exp(-raw))


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


def test_plan_overlaps_equal_reference_on_suite_tasks(plan_records):
    vocab = build_plan_vocab([list(r.plan) for r in plan_records])
    tasks = [t.task for t in harness.load_suite_tasks()] + [r.task for r in plan_records]
    for task in tasks:
        assert plan_overlaps(task, vocab) == reference_plan_overlaps(task, vocab)


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
    trajectories = records_to_imitation(read_jsonl(ws / "corpus" / "training.jsonl"))
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


# --- sparse rows -------------------------------------------------------------------------


def assert_row_is_reference(state, candidate):
    """The row's indices increase strictly, its values are non-zero and it
    densifies to the reference vector."""
    idx, xs = featurize(state, candidate)
    assert len(idx) == len(xs)
    assert all(a < b for a, b in zip(idx, idx[1:]))
    assert all(0 <= j < len(FEATURE_NAMES) for j in idx)
    assert all(x != 0.0 for x in xs)
    assert densify((idx, xs)) == reference_featurize(state, candidate)


def test_rows_are_sparse_and_match_reference_on_suite_states(suite_steps):
    trajectories, _ = suite_steps
    rows = 0
    for trajectory in trajectories:
        for state, _ in trajectory:
            for candidate in enumerate_candidates(state):
                assert_row_is_reference(state, candidate)
                rows += 1
    assert rows > 1000


_WORDS = ("highlight", "bold", "font", "size", "color", "table", "border", "type", "enter",
          "scroll", "option", "style", "the", "text", "Save", "Home", "Insert", "red", "12")
_CONTROL_TYPES = ("Button", "Edit", "MenuItem", "ComboBox", "Pane", "")


@st.composite
def drawn_states(draw):
    """A template's controls, perhaps with extra hand-made ones (duplicate,
    non-numeric or empty labels, unknown or empty types), a task and plan
    from trigger-rich words, and a history that may repeat a candidate."""
    words = st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join)
    controls = list(list_controls(load_template(draw(st.sampled_from(list_templates())))))
    extra = st.fixed_dictionaries({
        "label": st.sampled_from(("1", "2", "40", "x", "")),
        "control_text": words,
        "control_type": st.sampled_from(_CONTROL_TYPES),
    })
    controls += draw(st.lists(extra, max_size=3))
    task = draw(words)
    if draw(st.booleans()):
        task += ' "' + draw(words) + '"'
    state = AgentState(
        task=task,
        step_id=draw(st.integers(1, 30)),
        controls=tuple(controls),
        previous_plan=tuple(draw(st.lists(words, max_size=3))),
    )
    history = []
    for _ in range(draw(st.integers(0, 3))):
        candidates = enumerate_candidates(state)
        chosen = candidates[draw(st.integers(0, len(candidates) - 1))]
        history.append((chosen.to_action_call(), {"ok": draw(st.booleans())}))
    return AgentState(
        task=state.task,
        step_id=state.step_id,
        controls=state.controls,
        previous_actions=tuple(history),
        previous_plan=state.previous_plan,
    )


@settings(max_examples=60, deadline=None)
@given(drawn_states())
def test_rows_are_sparse_and_match_reference_on_drawn_states(state):
    for candidate in enumerate_candidates(state):
        assert_row_is_reference(state, candidate)


@settings(max_examples=60, deadline=None)
@given(drawn_states(), st.data())
def test_rows_match_reference_on_drawn_candidates(state, data):
    """Candidates that enumeration never makes: unknown or empty functions,
    a control that is not an observed one."""
    foreign = {"label": "7", "control_text": "Font Color", "control_type": "Button"}
    candidate = CandidateAction(
        function=data.draw(st.sampled_from(("", "frobnicate", "select_text", *REGISTRY))),
        control=data.draw(st.sampled_from((None, foreign, *state.controls))),
        args=data.draw(st.sampled_from(((), (("text", "bold"),)))),
    )
    assert_row_is_reference(state, candidate)


@pytest.mark.parametrize(
    "make_params",
    [ModelParams.zeros, lambda: nonzero_params(0), lambda: coarse_params(0)],
    ids=["zeros", "random", "coarse"],
)
def test_scores_equal_dense_reference_dot_product(suite_steps, make_params):
    trajectories, _ = suite_steps
    params = make_params()
    for trajectory in trajectories:
        for state, _ in trajectory:
            candidates = enumerate_candidates(state)
            dense = [
                sum(map(mul, params.act_weights, reference_featurize(state, c)))
                for c in candidates
            ]
            assert list(action_distribution(state, params, candidates).scores) == dense


def test_equal_labels_keep_their_own_control_values():
    task = 'Make the "Bold" text bold'
    state = AgentState(
        task=task,
        step_id=2,
        controls=(
            {"label": "1", "control_text": "Bold", "control_type": "Button"},
            {"label": "1", "control_text": "Font Size", "control_type": "ComboBox"},
        ),
        previous_plan=("Choose the font size.",),
    )
    clicks = [c for c in enumerate_candidates(state) if c.function == "click_input"]
    assert [c.control_text for c in clicks] == ["Bold", "Font Size"]
    rows = [densify(featurize(state, c)) for c in clicks]
    for candidate, row in zip(clicks, rows):
        assert_row_is_reference(state, candidate)
    overlaps = [FEATURE_NAMES.index("overlap_task"), FEATURE_NAMES.index("overlap_plan")]
    assert [rows[0][j] for j in overlaps] == [1.0, 0.0]
    assert [rows[1][j] for j in overlaps] == [0.0, 1.0]
    assert rows[0][FEATURE_NAMES.index("ctype::Button")] == 1.0
    assert rows[1][FEATURE_NAMES.index("ctype::ComboBox")] == 1.0


# --- work done once per task and per snapshot ------------------------------------------


def _count_calls(monkeypatch, module, name):
    """Counts the calls of a function through every lamlab module that binds
    it; returns the list the calls are appended to."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("lamlab") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_run_extracts_args_once_per_registry_function(monkeypatch):
    candidates_module._task_templates.cache_clear()
    calls = _count_calls(monkeypatch, candidates_module, "extract_args")
    task = 'Highlight the text "extract args probe" in yellow in the document.'
    record = run_task(
        ModelPolicy(params=ModelParams.zeros()), "plain_text", task, AgentConfig(max_steps=4)
    )
    assert len(record.trajectory.steps) > 1
    assert 0 < len(calls) <= len(REGISTRY)
    assert {args[0] for args in calls} == {task}


def test_record_trajectory_reuses_the_snapshot_encodings(monkeypatch):
    session = EnvSession(load_template("plain_text"))
    actions = (
        ActionCall(function="select_text", args={"text": "Test For Fun"}),
        ActionCall(control_text="Bold", function="click_input", args={"button": "left"}),
        ActionCall(function="toggle_bold", args={}),
    )
    steps = []
    for step_no, action in enumerate(actions, 1):
        pre = session.current
        result = session.apply(action)
        steps.append(record_step(step_no, action, result, pre, session.current))
    assert all(step.result.ok for step in steps)
    origin = InstantiatedTask("o", "Bold the text.", "plain_text", actions)

    canvas_calls = _count_calls(monkeypatch, canvas_module, "serialize_canvas")
    tree_calls = _count_calls(monkeypatch, controls_module, "control_tree_dict")
    trajectory = record_trajectory("t", origin, steps, "success", session.initial, session.current)
    assert canvas_calls == [] and tree_calls == []
    monkeypatch.undo()
    assert trajectory.initial_canvas == serialize_canvas(session.initial.canvas)
    assert trajectory.final_canvas == serialize_canvas(session.current.canvas)
    assert trajectory.initial_canvas != trajectory.final_canvas
    assert trajectory.init_control_state == control_tree_dict(session.initial.controls)
    assert trajectory.final_control_state == control_tree_dict(session.current.controls)


def test_runs_leave_the_template_snapshot_unchanged():
    template = get_template("plain_text")
    fresh = template.fresh_snapshot()
    digest = fresh.digest()
    tree = copy.deepcopy(control_tree_dict(fresh.controls))
    params = coarse_params(1)
    for task in ('Highlight the text "Test For Fun" in yellow.', "Insert a 2 x 3 table."):
        record = run_task(ModelPolicy(params=params), "plain_text", task, AgentConfig(max_steps=3))
        assert record.trajectory.init_control_state == tree
        json.dumps(record.trajectory.to_dict(), sort_keys=True)
    again = get_template("plain_text").fresh_snapshot()
    assert again is fresh
    assert again.digest() == digest
    assert again.control_state == tree
    assert EnvSnapshot(again.controls, again.canvas, again.step_index).digest() == digest
