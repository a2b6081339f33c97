"""Training: losses with gradient checks, reward model, PPO, phases."""

import math
import random

import pytest

from lamlab.dataflow import InstantiatedTask, judge_trajectory
from lamlab.env_sim import ActionCall, list_controls, load_template
from lamlab.errors import (
    DegenerateRatio,
    EmptyCorpus,
    MissingPredecessor,
    StepActionNotInCandidateSet,
)
from lamlab.oracle import MockOracle
from lamlab.policy import AgentState, ModelParams, build_plan_vocab
from lamlab.training import (
    PhaseConfigs,
    PpoConfig,
    RmConfig,
    RewardModelParams,
    RewardedStep,
    SftConfig,
    clipped_term,
    compute_advantage,
    imitation_loss,
    ppo_update,
    prepare_imitation,
    prepare_plans,
    prepare_rewarded,
    prepare_status,
    rm_mse_loss,
    self_boost,
    sft_plan_loss,
    status_loss,
    surrogate_value,
    train_reward_model,
)
from lamlab.training import ppo
from lamlab.training.ppo import ppo_loss, prepare_ppo
from lamlab.training.reward import RM_FEATURE_NAMES


class PlanRec:
    def __init__(self, task, plan):
        self.task = task
        self.plan = tuple(plan)


def make_state(task, step_id=1, previous_actions=(), previous_plan=(), template="plain_text"):
    snapshot = load_template(template)
    return AgentState(
        task=task,
        step_id=step_id,
        controls=tuple(list_controls(snapshot)),
        previous_actions=tuple(previous_actions),
        previous_plan=tuple(previous_plan),
    )


def random_params(rng, vocab=()):
    params = ModelParams.zeros(plan_vocab=vocab)
    return params.replaced({name: rng.uniform(-0.5, 0.5) for name in params.weights})


def finite_difference_check(loss_fn, params, grads, h=1e-5, tol=1e-4, floor=1e-8):
    """Central finite differences against the analytic gradient; errors are
    relative to the larger of the two values, and at least to ``floor``."""
    checked = 0
    for name, g in grads.items():
        plus = loss_fn(params.replaced({name: params.get(name) + h}))
        minus = loss_fn(params.replaced({name: params.get(name) - h}))
        numeric = (plus - minus) / (2 * h)
        denom = max(abs(g), abs(numeric), floor)
        assert abs(g - numeric) / denom < tol, f"{name}: analytic {g} vs numeric {numeric}"
        checked += 1
    assert checked > 0


# --- sft_plan_loss ------------------------------------------------------------


def test_sft_uniform_model_gives_log_vocab():
    vocab = build_plan_vocab([[f"Step {i}." for i in range(7)]])  # 7 steps + END = 8
    assert len(vocab) == 8
    params = ModelParams.zeros(plan_vocab=vocab)
    loss, _ = sft_plan_loss(params, prepare_plans([PlanRec("task", ["Step 0."])], vocab))
    assert abs(loss - math.log(8)) < 1e-12


def test_sft_perfect_model_gives_zero_loss():
    vocab = build_plan_vocab([["Step A.", "Step B."]])
    params = ModelParams.zeros(plan_vocab=vocab).replaced(
        {
            "plan::pos::1::Step A.": 200.0,
            "plan::pos::2::<END>": 200.0,
        }
    )
    loss, _ = sft_plan_loss(params, prepare_plans([PlanRec("task", ["Step A."])], vocab))
    assert loss < 1e-9


def test_sft_gradient_matches_finite_differences():
    rng = random.Random(0)
    vocab = build_plan_vocab([["Alpha step.", "Beta step.", "Gamma step."]])
    for trial in range(5):
        params = random_params(random.Random(trial), vocab)
        batch = prepare_plans(
            [
                PlanRec("do the alpha thing", ["Alpha step.", "Beta step."]),
                PlanRec("try gamma now", ["Gamma step."]),
            ],
            vocab,
        )
        loss, grads = sft_plan_loss(params, batch)
        finite_difference_check(lambda p: sft_plan_loss(p, batch)[0], params, grads)


# --- imitation_loss ------------------------------------------------------------


def expert_step(task='Highlight the text "Test For Fun" in yellow in the document.'):
    state = make_state(task)
    return state, ActionCall(function="select_text", args={"text": "Test For Fun"})


def test_imitation_uniform_is_log_candidate_count():
    from lamlab.policy import enumerate_candidates

    state, expert = expert_step()
    n = len(enumerate_candidates(state))
    loss, _ = imitation_loss(ModelParams.zeros(), prepare_imitation([[(state, expert)]]))
    assert abs(loss - math.log(n)) < 1e-12


def test_imitation_uniform_over_exactly_three_candidates_is_ln3():
    from lamlab.policy import enumerate_candidates

    # No controls and no extractable args: only the three always-available
    # target-free functions remain.
    state = AgentState(task="tidy up the open file", step_id=1, controls=())
    candidates = enumerate_candidates(state)
    assert len(candidates) == 3
    expert = ActionCall(function="insert_page_border", args={"style": "box"})
    loss, _ = imitation_loss(ModelParams.zeros(), prepare_imitation([[(state, expert)]]))
    assert abs(loss - math.log(3)) < 1e-12


def test_imitation_expert_absent_raises():
    state, _ = expert_step()
    ghost = ActionCall(function="click_input", control_text="Ghost",
                       args={"button": "left", "double": False})
    with pytest.raises(StepActionNotInCandidateSet):
        prepare_imitation([[(state, ghost)]])


def test_imitation_gradient_matches_finite_differences():
    for trial in range(5):
        rng = random.Random(100 + trial)
        params = random_params(rng)
        sel = (ActionCall(function="select_text", args={"text": "Test For Fun"}), {"ok": True})
        trajectories = prepare_imitation(
            [
                [expert_step()],
                [
                    (
                        make_state(
                            'Make the text "Test For Fun" bold in the document.',
                            step_id=2,
                            previous_actions=(sel,),
                            previous_plan=("Toggle bold formatting on the selection.",),
                        ),
                        ActionCall(function="toggle_bold", args={}),
                    )
                ],
            ]
        )
        loss, grads = imitation_loss(params, trajectories)
        finite_difference_check(lambda p: imitation_loss(p, trajectories)[0], params, grads)


def test_imitation_mean_of_means_vs_step_mean():
    state, expert = expert_step()
    one = [(state, expert)]
    two = [(state, expert), (state, expert)]
    params = ModelParams.zeros()
    batch = prepare_imitation([one, two])
    loss_mm, _ = imitation_loss(params, batch)
    loss_sm, _ = imitation_loss(params, batch, step_mean=True)
    # Same per-step CE here, so the two weightings agree; both are finite.
    assert abs(loss_mm - loss_sm) < 1e-12


def test_status_loss_gradient():
    state, _ = expert_step()
    steps = prepare_status([(state, "CONTINUE"), (make_state("task two", step_id=3), "FINISH")])
    for trial in range(3):
        params = random_params(random.Random(trial))
        loss, grads = status_loss(params, steps)
        finite_difference_check(lambda p: status_loss(p, steps)[0], params, grads)


# --- loss descent property --------------------------------------------------------


def test_fifty_full_batch_steps_strictly_decrease_losses():
    rng = random.Random(2)
    vocab = build_plan_vocab([["One step.", "Two step."], ["Three step."]])
    records = [
        PlanRec("first task text", ["One step.", "Two step."]),
        PlanRec("second task text", ["Three step."]),
        PlanRec("third thing to do", ["Two step."]),
        PlanRec("fourth task entry", ["One step."]),
        PlanRec("fifth task item", ["Three step.", "One step."]),
        PlanRec("sixth task", ["Two step.", "Three step."]),
        PlanRec("seventh task", ["One step.", "Three step."]),
        PlanRec("eighth task", ["Three step.", "Two step."]),
    ]
    batch = prepare_plans(records, vocab)
    params = ModelParams.zeros(plan_vocab=vocab)
    lr = 1e-2
    previous, _ = sft_plan_loss(params, batch)
    for _ in range(50):
        _, grads = sft_plan_loss(params, batch)
        params = params.replaced({n: params.get(n) - lr * g for n, g in grads.items()})
        current, _ = sft_plan_loss(params, batch)
        assert current < previous + 1e-12
        previous = current

    trajectories = prepare_imitation(
        [[expert_step()], [expert_step('Make the text "Test For Fun" bold in the document.')]]
    )
    params = ModelParams.zeros()
    previous, _ = imitation_loss(params, trajectories)
    for _ in range(50):
        _, grads = imitation_loss(params, trajectories)
        params = params.replaced({n: params.get(n) - lr * g for n, g in grads.items()})
        current, _ = imitation_loss(params, trajectories)
        assert current < previous + 1e-12
        previous = current


# --- reward model ------------------------------------------------------------------


def rewarded_toy_set():
    """One feature (the function one-hot) perfectly separates the labels."""
    steps = []
    good_task = 'Highlight the text "Test For Fun" in yellow in the document.'
    for i in range(10):
        state = make_state(good_task, step_id=1)
        steps.append(
            RewardedStep(
                state=state,
                action=ActionCall(function="select_text", args={"text": "Test For Fun"}),
                reward=1,
            )
        )
        steps.append(
            RewardedStep(
                state=state,
                action=ActionCall(function="insert_page_border", args={"style": "box"}),
                reward=-1,
            )
        )
    return steps


def test_rm_separable_set_reaches_low_mse():
    steps = rewarded_toy_set()
    config = RmConfig(learning_rate=0.1, epochs=2, batch_size=2)
    _, final_mse = train_reward_model(RewardModelParams.zeros(), steps, config)
    assert final_mse < 0.1


def test_rm_all_success_constant_predictor():
    steps = [s for s in rewarded_toy_set() if s.reward == 1]
    config = RmConfig(learning_rate=0.1, epochs=4, batch_size=2)
    params, final_mse = train_reward_model(RewardModelParams.zeros(), steps, config)
    assert final_mse < 0.05


def test_rm_normalized_output_in_unit_interval():
    rng = random.Random(3)
    params = RewardModelParams(
        weights={name: rng.uniform(-5, 5) for name in RM_FEATURE_NAMES}
    )
    for step in rewarded_toy_set():
        value = params.normalized(step.state, step.action)
        assert 0.0 <= value <= 1.0


def test_rm_gradient_matches_finite_differences():
    steps = prepare_rewarded(rewarded_toy_set()[:6])
    for trial in range(3):
        rng = random.Random(trial)
        params = RewardModelParams(
            weights={name: rng.uniform(-0.5, 0.5) for name in RM_FEATURE_NAMES}
        )
        loss, grads = rm_mse_loss(params, steps)
        checked = 0
        h = 1e-5
        for name, g in grads.items():
            plus, _ = rm_mse_loss(
                RewardModelParams(weights={**params.weights, name: params.weights[name] + h}), steps
            )
            minus, _ = rm_mse_loss(
                RewardModelParams(weights={**params.weights, name: params.weights[name] - h}), steps
            )
            numeric = (plus - minus) / (2 * h)
            denom = max(abs(g), abs(numeric), 1e-8)
            assert abs(g - numeric) / denom < 1e-4
            checked += 1
        assert checked


def test_rm_reward_labels_validated():
    state = make_state("task text here")
    with pytest.raises(Exception):
        RewardedStep(state=state, action=ActionCall(function="toggle_bold"), reward=0)


# --- advantages ---------------------------------------------------------------------


def test_advantage_equal_rewards_are_zero():
    for adv in compute_advantage([0.3, 0.3, 0.3]):
        assert abs(adv) < 1e-15


def test_advantage_affine_map():
    advs = compute_advantage([0.0, 1.0])
    assert abs(advs[0] + 0.5) < 1e-15
    assert abs(advs[1] - 0.5) < 1e-15


def test_advantage_batch_mean_zero():
    rng = random.Random(4)
    rewards = [rng.random() for _ in range(37)]
    advs = compute_advantage(rewards)
    assert abs(sum(advs) / len(advs)) < 1e-12


# --- PPO ---------------------------------------------------------------------------


def ppo_steps():
    sel = (ActionCall(function="select_text", args={"text": "Test For Fun"}), {"ok": True})
    return [
        expert_step(),
        (
            make_state(
                'Make the text "Test For Fun" bold in the document.',
                step_id=2,
                previous_actions=(sel,),
                previous_plan=("Toggle bold formatting on the selection.",),
            ),
            ActionCall(function="toggle_bold", args={}),
        ),
    ]


def test_ppo_ratio_identity():
    rng = random.Random(7)
    params = random_params(rng)
    steps = ppo_steps()
    advantages = [0.31, -0.17]
    value = surrogate_value(params, params, steps, advantages)
    assert abs(value - sum(advantages) / len(advantages)) < 1e-12


def test_ppo_clip_arithmetic():
    assert clipped_term(1.5, 1.0, 0.2) == pytest.approx(1.2, abs=1e-15)
    assert clipped_term(0.5, -1.0, 0.2) == pytest.approx(-0.8, abs=1e-15)


def test_ppo_clip_bound_property():
    rng = random.Random(8)
    eps = 0.2
    for _ in range(500):
        ratio = rng.uniform(0.0, 3.0)
        adv = rng.uniform(-2.0, 2.0)
        term = clipped_term(ratio, adv, eps)
        bounds = [ratio * adv, (1 - eps) * adv, (1 + eps) * adv]
        assert min(bounds) - 1e-12 <= term <= max(bounds) + 1e-12
        if 1 - eps <= ratio <= 1 + eps:
            assert term == pytest.approx(ratio * adv, abs=1e-15)


def test_ppo_update_runs_and_reports():
    params = ModelParams.zeros()
    steps = ppo_steps()
    advantages = [0.4, -0.2]
    new_params, diag = ppo_update(params, params, steps, advantages, PpoConfig(), seed=0)
    assert diag.updates == PpoConfig().ppo_epochs * len(steps)
    assert math.isfinite(diag.kl_final)
    for name, value in new_params.weights.items():
        assert math.isfinite(value)


def test_ppo_improves_surrogate_with_workable_lr():
    params = ModelParams.zeros()
    steps = ppo_steps()
    advantages = [0.4, -0.2]
    config = PpoConfig(learning_rate=0.05, ppo_epochs=4)
    new_params, diag = ppo_update(params, params, steps, advantages, config, seed=0)
    assert diag.surrogate_after > diag.surrogate_before


def test_ppo_degenerate_ratio():
    state, expert = expert_step()
    # Make the old policy assign essentially zero probability to the expert action.
    old = ModelParams.zeros().replaced({"act::func::select_text": -60.0})
    with pytest.raises(DegenerateRatio):
        ppo_update(ModelParams.zeros(), old, [(state, expert)], [0.1], PpoConfig())


def test_ppo_loss_gradient_matches_finite_differences():
    """Central differences of -(clipped surrogate) + kl_coef * KL, with every
    ratio at least 1e-3 away from the clip boundary 1 +- epsilon."""
    epsilon, kl_coef = 0.2, 0.3
    steps = ppo_steps() * 2
    branches = set()
    checked = 0
    for trial in range(12):
        rng = random.Random(trial)
        old = random_params(rng)
        params = old.replaced(
            {n: v + rng.uniform(-0.4, 0.4) for n, v in old.weights.items() if n.startswith("act::")}
        )
        advantages = [rng.uniform(-0.6, 0.6) for _ in steps]
        rows = prepare_ppo(steps, advantages, old)
        terms = [ppo._step_terms(params.act_weights, row, epsilon) for row in rows]
        if any(min(abs(r - 1 + epsilon), abs(r - 1 - epsilon)) < 1e-3 for _, r, _, _ in terms):
            continue
        branches.update(r * row.advantage > t for row, (_, r, t, _) in zip(rows, terms))
        _, grads = ppo_loss(params, rows, kl_coef, epsilon)
        # Features equal on every candidate have zero gradient; on this O(1)
        # objective their central differences read ~1e-12 of rounding noise.
        finite_difference_check(
            lambda p: ppo_loss(p, rows, kl_coef, epsilon)[0], params, grads, floor=1e-6
        )
        checked += 1
    assert checked >= 8
    assert branches == {True, False}  # clipped and unclipped steps both checked


def test_ppo_kl_coefficient_adapts_upward():
    params = ModelParams.zeros()
    steps = ppo_steps()
    config = PpoConfig(learning_rate=2.0, ppo_epochs=4, kl_target=1e-6, kl_coef_init=0.2)
    _, diag = ppo_update(params, params, steps, [1.0, 1.0], config, seed=0)
    assert diag.kl_coef_final > 0.2


# --- self-boost ----------------------------------------------------------------------


def trained_highlight_params():
    """Parameters that reliably solve single-format tasks."""
    params = ModelParams.zeros()
    return params.replaced(
        {
            "act::func_task_affinity": 8.0,
            "act::select_needed": 6.0,
            "act::selection_ready": 6.0,
            "act::selection_missing": -6.0,
            "act::repeat_last": -8.0,
            "act::args_present": 1.0,
            "status::bias": -2.0,
            "status::is_first_step": 5.0,
            "status::format_task": -6.0,
            "status::plan_on_last_step": 8.0,
        }
    )


def test_self_boost_finds_success_for_solvable_task():
    oracle = MockOracle()
    tasks = [
        InstantiatedTask(
            origin_task_id="bz1",
            template_id="plain_text",
            instantiated_task="Add a box page border to the document.",
            actions=(),
        )
    ]
    out = self_boost(
        trained_highlight_params(),
        tasks,
        judge=lambda t: judge_trajectory(t, oracle),
        seed=0,
    )
    [(trajectory, verdict)] = out
    assert trajectory.final_status == "success"
    assert verdict.task_complete == "yes"


def test_self_boost_returns_empty_when_never_judged_yes():
    oracle = MockOracle()
    tasks = [
        InstantiatedTask(
            origin_task_id="bz2",
            template_id="plain_text",
            # No goal rule: never judged "yes".
            instantiated_task="Rearrange the pictures in the document.",
            actions=(),
        )
    ]
    out = self_boost(
        trained_highlight_params(),
        tasks,
        judge=lambda t: judge_trajectory(t, oracle),
        seed=0,
    )
    assert out == []


class JudgeCountingOracle(MockOracle):
    def __init__(self):
        self.judge_calls = 0

    def complete(self, request):
        self.judge_calls += request.template_id == "judge"
        return super().complete(request)


@pytest.fixture(scope="module")
def suite_ws(tmp_path_factory):
    from lamlab.harness import build_suite_workspace

    return build_suite_workspace(tmp_path_factory.mktemp("suite") / "ws")


def test_phase3_trains_on_boost_successes_judged_once(suite_ws, monkeypatch):
    """Phase 3 post-processes the (trajectory, verdict) pairs self_boost
    returns and asks the judge about nothing else."""
    import json

    from lamlab.jsonl import read_jsonl
    from lamlab.training import phases, run_phase

    boosted = []

    def recording_self_boost(*args, **kwargs):
        result = self_boost(*args, **kwargs)
        boosted.extend(result)
        return result

    monkeypatch.setattr(phases, "self_boost", recording_self_boost)
    oracle = JudgeCountingOracle()
    configs = PhaseConfigs()
    for phase in (1, 2):
        run_phase(phase, suite_ws, oracle, configs, seed=0)
    assert oracle.judge_calls == 0
    out = run_phase(3, suite_ws, oracle, configs, seed=0)
    assert oracle.judge_calls == 23

    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["expert_trajectories"], manifest["boost_trajectories"]) == (35, 11)
    assert manifest["data_size"] == 46
    assert len(boosted) == 11
    assert all(t.trajectory_id.startswith("boost_") for t, _ in boosted)
    assert all(v.task_complete == "yes" for _, v in boosted)
    rows = read_jsonl(suite_ws / "corpus" / "boost_training.jsonl")
    assert [(r["trajectory_id"], r["step_no"]) for r in rows] == [
        (t.trajectory_id, k) for t, _ in boosted for k in range(1, len(t.steps) + 1)
    ]


def test_phase3_seeds_each_boost_attempt_from_the_run_seed(suite_ws, tmp_path, monkeypatch):
    import shutil

    from lamlab import agent
    from lamlab.textutil import stable_hash
    from lamlab.training import BoostConfig, collect_failed_tasks, phases, run_phase

    ws = tmp_path / "ws"
    shutil.copytree(suite_ws, ws)
    cheap = SftConfig(epochs=1)
    configs = PhaseConfigs(
        sft=cheap, imitation=cheap, boost=BoostConfig(attempts_per_task=2, max_steps=2)
    )
    for phase in (1, 2):
        run_phase(phase, ws, MockOracle(), configs, seed=7)

    boost_seeds = []
    attempts: dict[str, list[int]] = {}

    def recording_self_boost(*args, seed, **kwargs):
        boost_seeds.append(seed)
        return self_boost(*args, seed=seed, **kwargs)

    def recording_run_task(policy, template_id, task, *args, task_id, **kwargs):
        attempts.setdefault(task_id, []).append(policy.seed)
        return run_task(policy, template_id, task, *args, task_id=task_id, **kwargs)

    run_task = agent.run_task
    monkeypatch.setattr(phases, "self_boost", recording_self_boost)
    monkeypatch.setattr(agent, "run_task", recording_run_task)
    run_phase(3, ws, MockOracle(), configs, seed=7)

    assert boost_seeds == [7]
    assert attempts
    assert sorted(attempts) == sorted(t.origin_task_id for t in collect_failed_tasks(ws))
    for task_id, seeds in attempts.items():
        assert seeds == [stable_hash(task_id, attempt, 7) for attempt in range(len(seeds))]


def test_record_inputs_give_the_states_phase_2_reads(suite_ws):
    from lamlab.dataflow import Trajectory, record_inputs
    from lamlab.dataflow.records import verdict_row
    from lamlab.jsonl import read_jsonl
    from lamlab.training import records_to_imitation

    corpus = suite_ws / "corpus"
    complete = dict(read_jsonl(corpus / "verdicts.jsonl", verdict_row))
    successes = sorted(
        (
            t
            for t in read_jsonl(corpus / "trajectories.jsonl", Trajectory.from_dict)
            if t.final_status == "success" and complete[t.trajectory_id].task_complete == "yes"
        ),
        key=lambda t: t.trajectory_id,
    )
    assert len(successes) == 35
    trajectories = records_to_imitation(read_jsonl(corpus / "training.jsonl"))
    assert [[state for state, _ in steps] for steps in trajectories] == [
        [AgentState.from_record_input(x) for x in record_inputs(t)] for t in successes
    ]


# --- run_phase -----------------------------------------------------------------------


def test_run_phase_missing_predecessor(tmp_path):
    from lamlab.training import run_phase

    with pytest.raises(MissingPredecessor):
        run_phase(4, tmp_path, MockOracle())


def test_run_phase_empty_corpus(tmp_path):
    from lamlab.training import run_phase

    with pytest.raises(EmptyCorpus):
        run_phase(1, tmp_path, MockOracle())


def test_phase_configs_defaults_are_the_desk_recipe():
    configs = PhaseConfigs()
    assert configs.sft == SftConfig(
        learning_rate=0.8, warmup_steps=2, batch_size=16, epochs=40, step_mean=True
    )
    assert configs.imitation == SftConfig(
        learning_rate=0.5, warmup_steps=2, batch_size=8, epochs=60, step_mean=False
    )
    assert configs.rm == RmConfig(learning_rate=0.05, epochs=10, batch_size=16)


def test_phase_manifests_record_corpus_sizes(tmp_path):
    import json

    from lamlab.harness import build_suite_workspace
    from lamlab.jsonl import read_jsonl
    from lamlab.training import run_phase

    ws = tmp_path / "ws"
    build_suite_workspace(ws)
    configs = PhaseConfigs()
    run_phase(1, ws, MockOracle(), configs, seed=0)
    manifest = json.loads((ws / "checkpoints" / "lam1" / "manifest.json").read_text())
    assert manifest["data_size"] == len(read_jsonl(ws / "corpus" / "evolved.jsonl"))
    run_phase(2, ws, MockOracle(), configs, seed=0)
    manifest2 = json.loads((ws / "checkpoints" / "lam2" / "manifest.json").read_text())
    records = read_jsonl(ws / "corpus" / "training.jsonl")
    assert manifest2["data_size"] == len({r["trajectory_id"] for r in records})


def test_phase1_follows_sft_step_mean(tmp_path):
    import dataclasses
    import json

    from lamlab.harness import build_suite_workspace
    from lamlab.training import run_phase

    ws = build_suite_workspace(tmp_path / "ws")
    defaults = PhaseConfigs()
    weights = {}
    for step_mean in (True, False):
        sft = dataclasses.replace(defaults.sft, epochs=2, step_mean=step_mean)
        out = run_phase(1, ws, MockOracle(), dataclasses.replace(defaults, sft=sft), seed=0)
        weights[step_mean] = (out / "weights.json").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["step_mean"] is step_mean
    assert weights[True] != weights[False]
