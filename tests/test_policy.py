"""Policy: features, distributions, action selection, plan generation."""

import math
import random
from dataclasses import replace

import pytest

from lamlab.env_sim import (
    REGISTRY,
    STATUS_CONTINUE,
    ActionCall,
    list_controls,
    list_templates,
    load_template,
)
from lamlab.errors import CheckpointError, StepActionNotInCandidateSet
from lamlab.policy import (
    AgentState,
    FEATURE_NAMES,
    ModelParams,
    action_distribution,
    build_plan_vocab,
    enumerate_candidates,
    featurize,
    generate_plan,
    match_expert,
    select_action,
)
from lamlab.policy import candidates as candidates_module
from lamlab.policy import features
from lamlab.policy.model import left_sum, score_rows, sigmoid, softmax
from lamlab.policy.state import CONTROL_TYPES
from lamlab.training import prepare_plans, sft_plan_loss, train_params
from lamlab.training.losses import sgd

from test_feature_cache import densify


def make_state(
    task='Highlight the text "Test For Fun" in yellow in the document.',
    step_id=1,
    template="plain_text",
    previous_actions=(),
    previous_plan=(),
):
    snapshot = load_template(template)
    return AgentState(
        task=task,
        step_id=step_id,
        controls=tuple(list_controls(snapshot)),
        previous_actions=tuple(previous_actions),
        previous_plan=tuple(previous_plan),
    )


def feature(state, candidate, name):
    return densify(featurize(state, candidate))[FEATURE_NAMES.index(name)]


# --- featurize ---------------------------------------------------------------


def test_feature_vector_length_and_floor():
    state = make_state()
    candidates = enumerate_candidates(state)
    for candidate in candidates:
        vec = densify(featurize(state, candidate))
        assert len(vec) == len(FEATURE_NAMES)


def test_overlap_feature_full_containment():
    state = make_state(task="Press the Bold button in the document")
    candidates = enumerate_candidates(state)
    bold_click = next(c for c in candidates if c.control_text == "Bold")
    assert feature(state, bold_click, "overlap_task") == 1.0


def test_repeat_flag_set_when_candidate_equals_last_action():
    last = ActionCall(function="select_text", args={"text": "Test For Fun"})
    state = make_state(previous_actions=((last, {"ok": True}),), step_id=2)
    candidates = enumerate_candidates(state)
    select = next(c for c in candidates if c.function == "select_text")
    assert feature(state, select, "repeat_last") == 1.0
    other = next(c for c in candidates if c.function == "toggle_highlight")
    assert feature(state, other, "repeat_last") == 0.0


def test_featurize_deterministic():
    a, b = make_state(), make_state()
    ca, cb = enumerate_candidates(a), enumerate_candidates(b)
    assert ca == cb
    for x, y in zip(ca, cb):
        assert featurize(a, x) == featurize(b, y)


def test_selection_features_follow_history():
    ok_select = (ActionCall(function="select_text", args={"text": "T"}), {"ok": True})
    with_sel = make_state(previous_actions=(ok_select,), step_id=2)
    without = make_state(step_id=2)
    highlight = next(
        c for c in enumerate_candidates(with_sel) if c.function == "toggle_highlight"
    )
    assert feature(with_sel, highlight, "selection_ready") == 1.0
    assert feature(with_sel, highlight, "selection_missing") == 0.0
    assert feature(without, highlight, "selection_ready") == 0.0
    assert feature(without, highlight, "selection_missing") == 1.0


# --- action distribution ---------------------------------------------------------


def test_zero_params_uniform():
    state = make_state()
    dist = action_distribution(state, ModelParams.zeros())
    n = len(dist.scores)
    for p in dist.probs:
        assert abs(p - 1.0 / n) < 1e-12


def test_shift_invariance():
    state = make_state()
    params = ModelParams.zeros().replaced({"act::func_task_affinity": 0.7})
    dist = action_distribution(state, params)
    # Adding a constant to every score must leave probabilities unchanged.
    import lamlab.policy.model as model_mod

    scores = [s + 5.0 for s in dist.scores]
    probs, _ = model_mod.softmax(scores)
    assert all(abs(p - q) < 1e-12 for p, q in zip(probs, dist.probs))


def test_distribution_matches_brute_force():
    state = make_state()
    rng = random.Random(3)
    updates = {f"act::{name}": rng.uniform(-1, 1) for name in FEATURE_NAMES}
    params = ModelParams.zeros().replaced(updates)
    dist = action_distribution(state, params)
    exps = [math.exp(s) for s in dist.scores]
    total = sum(exps)
    for p, e in zip(dist.probs, exps):
        assert abs(p - e / total) < 1e-12


def test_distribution_validity_random_states():
    rng = random.Random(11)
    tasks = [
        'Highlight the text "Test For Fun" in yellow in the document.',
        "Insert a 3 x 2 table at the end of the document.",
        'Type the text "notes" at the end of the document.',
        "Add a box page border to the document.",
    ]
    templates = ["plain_text", "report_doc", "chart_doc"]
    for _ in range(1000):
        state = make_state(
            task=rng.choice(tasks),
            template=rng.choice(templates),
            step_id=rng.randint(1, 20),
        )
        updates = {
            f"act::{name}": rng.uniform(-2, 2)
            for name in rng.sample(FEATURE_NAMES, 5)
        }
        dist = action_distribution(state, ModelParams.zeros().replaced(updates))
        assert all(p >= 0 for p in dist.probs)
        assert abs(sum(dist.probs) - 1.0) < 1e-9


def test_log_prob_consistency():
    state = make_state()
    rng = random.Random(5)
    params = ModelParams.zeros().replaced(
        {f"act::{name}": rng.uniform(-1, 1) for name in FEATURE_NAMES}
    )
    dist = action_distribution(state, params)
    for p, lp in zip(dist.probs, dist.log_probs):
        assert abs(math.exp(lp) - p) < 1e-12


# --- select_action ------------------------------------------------------------


def test_argmax_ties_break_to_lowest_label():
    state = make_state(task="Click something plain")
    # All scores zero: the first candidate in enumeration order wins, which
    # is the lowest label's first applicable function in registry order.
    action = select_action(state, ModelParams.zeros())
    candidates = enumerate_candidates(state)
    assert action == candidates[0].to_action_call()
    labeled = [c for c in candidates if c.control is not None]
    lowest = min(int(c.control_label) for c in labeled)
    assert int(action.control_label) == lowest


def test_sigmoid_is_zero_where_the_exponential_overflows():
    for logit in (-709.0, -30.0, -1.5, 0.0, 0.25, 40.0, 800.0):
        assert sigmoid(logit) == 1.0 / (1.0 + math.exp(-logit))
    assert sigmoid(-709.0) > 0.0
    assert sigmoid(-710.0) == sigmoid(-800.0) == sigmoid(-1e300) == 0.0


def test_very_negative_status_logit_never_finishes():
    state = make_state()
    params = ModelParams.zeros().replaced({"status::bias": -800.0})
    assert action_distribution(state, params).finish_prob == 0.0
    assert select_action(state, params).status == STATUS_CONTINUE
    for seed in range(5):
        assert select_action(state, params, mode="sample", seed=seed).status == STATUS_CONTINUE


def test_sampling_is_seed_deterministic():
    state = make_state()
    params = ModelParams.zeros()
    a = select_action(state, params, mode="sample", seed=42)
    b = select_action(state, params, mode="sample", seed=42)
    c = select_action(state, params, mode="sample", seed=43)
    assert a == b
    assert (a != c) or True  # different seeds may coincide; equality is not an error


def test_argmax_action_has_max_probability():
    state = make_state()
    rng = random.Random(9)
    params = ModelParams.zeros().replaced(
        {f"act::{name}": rng.uniform(-1, 1) for name in FEATURE_NAMES}
    )
    action = select_action(state, params)
    dist = action_distribution(state, params)
    best = max(dist.probs)
    chosen = [
        i
        for i, c in enumerate(enumerate_candidates(state))
        if c.to_action_call().function == action.function
        and c.to_action_call().control_text == action.control_text
        and dict(c.args_dict()) == dict(action.args)
    ]
    assert any(abs(dist.probs[i] - best) < 1e-12 for i in chosen)


def test_argmax_invariant_under_positive_scaling():
    state = make_state()
    rng = random.Random(13)
    params = ModelParams.zeros().replaced(
        {f"act::{name}": rng.uniform(-1, 1) for name in FEATURE_NAMES}
    )
    a = select_action(state, params)
    scaled = ModelParams(
        weights={k: 3.7 * v for k, v in params.weights.items()}, plan_vocab=params.plan_vocab
    )
    b = select_action(state, scaled)
    assert (a.function, a.control_text, dict(a.args)) == (
        b.function,
        b.control_text,
        dict(b.args),
    )


def test_match_expert_absent_action_raises():
    state = make_state()
    candidates = enumerate_candidates(state)
    ghost = ActionCall(function="click_input", control_text="Ghost Button",
                       args={"button": "left", "double": False})
    with pytest.raises(StepActionNotInCandidateSet):
        match_expert(candidates, ghost)


@pytest.mark.parametrize("copies", [0, 1, 3])
def test_enumerate_candidates_extracts_args_once_per_function(monkeypatch, copies):
    calls = []
    original = candidates_module.extract_args

    def counting(task, function):
        calls.append(function)
        return original(task, function)

    monkeypatch.setattr(candidates_module, "extract_args", counting)
    base = make_state(task='Make "Test For Fun" bold and set its font size to 14.')
    state = replace(base, controls=base.controls * copies)
    found = enumerate_candidates(state)
    assert len(calls) <= len(REGISTRY)
    assert len(found) > copies * len(base.controls)


@pytest.mark.parametrize("template", list_templates())
def test_every_state_has_candidates_and_each_names_a_function(template):
    # The task has no quoted text, colour or number: the target-free
    # functions whose arguments never come from the task remain.
    base = make_state(task="Tidy up the document.", template=template)
    for state in (base, replace(base, controls=())):
        found = enumerate_candidates(state)
        assert found
        assert all(c.function in REGISTRY for c in found)


# --- plan head ----------------------------------------------------------------


def test_plan_overfits_single_pair():
    class Rec:
        task = "Add a box page border to the document."
        plan = ("Open the design view.", "Add the border.")

    vocab = build_plan_vocab([list(Rec.plan), ["Unrelated step."]])
    params = ModelParams.zeros(plan_vocab=vocab)
    params = train_params(
        params,
        prepare_plans([Rec()], vocab),
        lambda p, b: sft_plan_loss(p, b),
        sgd(lambda t, total_steps: 1.0),
        batch_size=4,
        epochs=60,
    )
    assert generate_plan(Rec.task, params) == list(Rec.plan)


def test_generated_plan_has_at_least_one_step():
    vocab = build_plan_vocab([["Only step."]])
    params = ModelParams.zeros(plan_vocab=vocab)
    # Push the end token as hard as possible; one step must still be emitted.
    params = params.replaced({"plan::bias::<END>": 100.0})
    plan = generate_plan("anything", params)
    assert len(plan) >= 1


def test_generate_plan_deterministic():
    vocab = build_plan_vocab([["A step.", "B step."]])
    params = ModelParams.zeros(plan_vocab=vocab).replaced({"plan::overlap": 1.0})
    assert generate_plan("A step. task", params) == generate_plan("A step. task", params)


def test_plan_capped_at_twenty_steps():
    vocab = build_plan_vocab([[f"Step number {i}." for i in range(30)]])
    params = ModelParams.zeros(plan_vocab=vocab).replaced({"plan::bias::<END>": -100.0})
    assert len(generate_plan("task", params)) <= 20


def test_float_sums_add_left_to_right():
    """At each step of a left-to-right sum, 1e16 + 1.0 rounds back to 1e16;
    ``sum()`` compensates from CPython 3.12 on and gives 1e16 + 2. Likewise
    1.0 + e^-37 rounds to 1.0, so the softmax's first probability is 1.0."""
    assert left_sum([1e16, 1.0, 1.0]) == 1e16
    assert left_sum([]) == 0.0
    assert score_rows([1e16, 1.0, 1.0], [((0, 1, 2), (1.0, 1.0, 1.0))]) == [1e16]
    assert softmax([0.0, -37.0, -37.0])[0][0] == 1.0


# The action features a checkpoint written before the block layout names, in
# the order that layout had.
_PREVIOUS_FEATURE_NAMES = (
    "overlap_task",
    "overlap_plan",
    "func_task_affinity",
    "func_plan_affinity",
    "repeat_last",
    "progress",
    "selection_ready",
    "selection_missing",
    "select_needed",
    "position_prior",
    "args_present",
    *(f"func::{name}" for name in REGISTRY),
    *(f"ctype::{name}" for name in CONTROL_TYPES),
)


def test_feature_layout_is_four_blocks_of_the_previous_names():
    assert features.PROGRESS_BLOCK == ("progress",)
    assert features.PAIR_BLOCK == ("repeat_last", "selection_ready", "selection_missing")
    assert FEATURE_NAMES == (
        features.PROGRESS_BLOCK
        + features.FUNCTION_BLOCK
        + features.CONTROL_BLOCK
        + features.PAIR_BLOCK
    )
    assert sorted(FEATURE_NAMES) == sorted(_PREVIOUS_FEATURE_NAMES)


def test_checkpoint_of_the_previous_layout_loads_by_name(tmp_path):
    import json

    weights = {f"act::{name}": float(i + 1) for i, name in enumerate(_PREVIOUS_FEATURE_NAMES)}
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({
        "format_version": 1,
        "kind": "policy",
        "plan_vocab": [],
        "weights": weights,
    }))
    params = ModelParams.load(path)
    assert params.act_weights == tuple(weights[f"act::{name}"] for name in FEATURE_NAMES)


# --- checkpoints ------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    vocab = build_plan_vocab([["One step."]])
    rng = random.Random(17)
    params = ModelParams.zeros(plan_vocab=vocab).replaced(
        {f"act::{name}": rng.uniform(-1, 1) for name in FEATURE_NAMES}
    )
    path = tmp_path / "weights.json"
    params.save(path)
    loaded = ModelParams.load(path)
    assert loaded == params
    # Byte-stable on re-save.
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == path.read_text()


def test_checkpoint_unknown_feature_rejected(tmp_path):
    params = ModelParams.zeros()
    path = tmp_path / "weights.json"
    params.save(path)
    import json

    payload = json.loads(path.read_text())
    payload["weights"]["act::mystery_feature"] = 1.0
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError):
        ModelParams.load(path)


def test_checkpoint_nonfinite_rejected(tmp_path):
    import json

    params = ModelParams.zeros()
    path = tmp_path / "weights.json"
    params.save(path)
    payload = json.loads(path.read_text())
    payload["weights"]["act::overlap_task"] = 1e999
    path.write_text(json.dumps(payload).replace("Infinity", "1e999"))
    with pytest.raises((CheckpointError, ValueError)):
        ModelParams.load(path)


# --- state schema parity ------------------------------------------------------------


def recorded_step_two():
    """The state a scripted run observes at step 2 and that step's record
    input, as post-processing serializes it from the run's trajectory."""
    from lamlab.agent import ScriptedPolicy, run_task
    from lamlab.dataflow import record_inputs

    observed = []

    class RecordingPolicy(ScriptedPolicy):
        def decide(self, state):
            observed.append(state)
            return super().decide(state)

    actions = (
        ActionCall(step="select the text", function="select_text", args={"text": "Test"}),
        ActionCall(step="next", function="toggle_bold", args={}),
    )
    run = run_task(RecordingPolicy(actions=actions), "plain_text", "make the text bold",
                   clock=lambda: 0.0)
    return observed[1], record_inputs(run.trajectory)[1]


def test_state_serializes_to_record_input_schema():
    from lamlab.dataflow import validate_record_input

    state, record_input = recorded_step_two()
    assert state.step_id == 2 and len(state.previous_actions) == 1
    assert state.previous_plan == ("next",)
    assert validate_record_input(record_input) == []


def test_state_round_trips_through_record_input():
    state, record_input = recorded_step_two()
    rebuilt = AgentState.from_record_input(record_input)
    assert rebuilt.task == state.task
    assert rebuilt.step_id == state.step_id
    assert rebuilt.controls == state.controls
    assert rebuilt.previous_plan == state.previous_plan
