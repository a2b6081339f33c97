"""Evaluation metrics against independent brute-force recomputations."""

import random

import pytest

from lamlab.errors import MissingGroundTruth
from lamlab.evaluation import (
    GroundTruthStep,
    PredictedStep,
    canvas_predicate_judge,
    eval_actions,
    eval_online,
    eval_plans,
    render_table,
    report_actions,
    report_online,
    report_plans,
)
from lamlab.textutil import match_plan_steps, normalize_line


# --- match_plan_steps ------------------------------------------------------------


def test_match_basic_counts():
    pairs = match_plan_steps(["A", "B"], ["A", "C", "D"])
    assert pairs == [("A", "A")]


def test_match_identical_plans():
    plan = ["one", "two", "three"]
    assert len(match_plan_steps(plan, plan)) == 3


def test_match_normalization_rule():
    pred = "go to DESIGN  > page borders."
    truth = "Go to Design > Page Borders."
    assert match_plan_steps([pred], [truth]) == [(pred, truth)]


def test_match_one_to_one():
    pairs = match_plan_steps(["A", "A"], ["A"])
    assert len(pairs) == 1


def test_matcher_symmetry_self_match():
    rng = random.Random(0)
    for _ in range(20):
        plan = [f"step {rng.randint(0, 5)} text" for _ in range(rng.randint(1, 6))]
        assert len(match_plan_steps(plan, plan)) == len(plan)


# --- eval_plans --------------------------------------------------------------------


def test_eval_plans_spec_arithmetic():
    result = eval_plans([("t", ["A", "B"], ["A", "C", "D"])])
    assert result.step_precision == pytest.approx(1 / 2)
    assert result.step_recall == pytest.approx(1 / 3)
    assert result.tsr == 0.0


def test_eval_plans_identical_all_ones():
    plan = ["go", "stop"]
    result = eval_plans([("t", plan, plan)])
    assert (result.tsr, result.step_precision, result.step_recall) == (1.0, 1.0, 1.0)


def test_eval_plans_empty_prediction_zero_precision():
    result = eval_plans([("t", [], ["A"])])
    assert result.step_precision == 0.0
    assert result.step_recall == 0.0


def _brute_force_plan_metrics(pairs):
    """Second implementation: direct formula evaluation with nested loops."""
    matched_total = 0
    pred_total = 0
    truth_total = 0
    solved = 0
    for _, pred, truth in pairs:
        taken = [False] * len(truth)
        matched = 0
        for p in pred:
            for j, t in enumerate(truth):
                if not taken[j] and normalize_line(p) == normalize_line(t):
                    taken[j] = True
                    matched += 1
                    break
        matched_total += matched
        pred_total += len(pred)
        truth_total += len(truth)
        if truth and matched / len(truth) >= 0.8:
            solved += 1
    return (
        solved / len(pairs),
        matched_total / pred_total if pred_total else 0.0,
        matched_total / truth_total if truth_total else 0.0,
    )


def test_eval_plans_matches_brute_force_on_randomized_pairs():
    rng = random.Random(123)
    steps = [f"step {i}" for i in range(8)]
    pairs = []
    for i in range(100):
        pred = [rng.choice(steps) for _ in range(rng.randint(0, 5))]
        truth = [rng.choice(steps) for _ in range(rng.randint(1, 5))]
        pairs.append((f"task {i}", pred, truth))
    result = eval_plans(pairs)
    tsr, precision, recall = _brute_force_plan_metrics(pairs)
    assert abs(result.tsr - tsr) < 1e-12
    assert abs(result.step_precision - precision) < 1e-12
    assert abs(result.step_recall - recall) < 1e-12


# --- eval_actions ------------------------------------------------------------------


def gt(objects, operation, status="CONTINUE"):
    return GroundTruthStep(acceptable_objects=tuple(objects), operation=operation, status=status)


def ps(control, function, status="CONTINUE"):
    return PredictedStep(control_text=control, function=function, status=status)


def test_eval_actions_all_four_steps_correct():
    truth = {
        "t1": [
            gt([], "select_text"),
            gt(["Bold"], "click_input"),
            gt([], "set_font_size"),
            gt([], "toggle_bold", "FINISH"),
        ],
    }
    pred = {
        "t1": [
            ps("", "select_text"),
            ps("Bold", "click_input"),
            ps("", "set_font_size"),
            ps("", "toggle_bold", "FINISH"),
        ]
    }
    result = eval_actions(pred, truth)
    assert result.ssr == 1.0 and result.tsr == 1.0
    assert result.object_acc == result.operation_acc == result.status_acc == 1.0


def test_eval_actions_tsr_two_of_three():
    truth = {
        "a": [gt([], "select_text", "FINISH")],
        "b": [gt([], "select_text", "FINISH")],
        "c": [gt([], "select_text", "FINISH")],
    }
    pred = {
        "a": [ps("", "select_text", "FINISH")],
        "b": [ps("", "toggle_bold", "FINISH")],
        "c": [ps("", "select_text", "FINISH")],
    }
    assert eval_actions(pred, truth).tsr == pytest.approx(2 / 3)


def test_eval_actions_length_mismatch_fails_task():
    truth = {"a": [gt([], "select_text"), gt([], "toggle_bold", "FINISH")]}
    pred = {"a": [ps("", "select_text")]}
    result = eval_actions(pred, truth)
    assert result.tsr == 0.0
    assert result.operation_acc == pytest.approx(0.5)


def test_eval_actions_missing_ground_truth():
    with pytest.raises(MissingGroundTruth):
        eval_actions({"nope": [ps("", "select_text")]}, {})


def _brute_force_action_metrics(pred, truth):
    obj = op = st_ = step = 0
    total = 0
    task_flags = []
    for task_id in sorted(pred):
        p_steps = pred[task_id]
        t_steps = truth[task_id]
        ok = len(p_steps) == len(t_steps)
        for i in range(len(t_steps)):
            total += 1
            t = t_steps[i]
            if i >= len(p_steps):
                ok = False
                continue
            p = p_steps[i]
            o1 = p.control_text in t.acceptable_objects if t.acceptable_objects else p.control_text == ""
            o2 = p.function == t.operation
            o3 = p.status == t.status
            obj += o1
            op += o2
            st_ += o3
            if o1 and o2 and o3:
                step += 1
            else:
                ok = False
        task_flags.append(ok)
    return (
        obj / total,
        op / total,
        st_ / total,
        step / total,
        sum(task_flags) / len(task_flags),
    )


def _random_action_suite(rng, tasks=50):
    functions = ["click_input", "select_text", "toggle_bold", "set_font_size"]
    controls = ["", "Bold", "Styles", "Table"]
    truth = {}
    pred = {}
    for i in range(tasks):
        n = rng.randint(1, 4)
        t_steps = []
        p_steps = []
        for j in range(n):
            fn = rng.choice(functions)
            ctrl = rng.choice(controls)
            status = "FINISH" if j == n - 1 else "CONTINUE"
            t_steps.append(gt([ctrl] if ctrl else [], fn, status))
            if rng.random() < 0.7:
                p_steps.append(ps(ctrl, fn, status))
            else:
                p_steps.append(ps(rng.choice(controls), rng.choice(functions),
                                  rng.choice(["CONTINUE", "FINISH"])))
        if rng.random() < 0.1:
            p_steps = p_steps[:-1]
        truth[f"task{i}"] = t_steps
        pred[f"task{i}"] = p_steps
    return pred, truth


def test_eval_actions_matches_brute_force_on_random_suite():
    rng = random.Random(7)
    pred, truth = _random_action_suite(rng)
    result = eval_actions(pred, truth)
    obj, op, st_, step, tsr = _brute_force_action_metrics(pred, truth)
    assert result.object_acc == obj
    assert result.operation_acc == op
    assert result.status_acc == st_
    assert result.ssr == step
    assert result.tsr == tsr


def test_boundedness_and_ssr_implication():
    rng = random.Random(9)
    for trial in range(20):
        pred, truth = _random_action_suite(random.Random(trial), tasks=10)
        result = eval_actions(pred, truth)
        for value in (result.object_acc, result.operation_acc, result.status_acc,
                      result.ssr, result.tsr):
            assert 0.0 <= value <= 1.0
        if result.ssr == 1.0:
            assert result.object_acc == result.operation_acc == result.status_acc == 1.0


# --- eval_online -------------------------------------------------------------------


def _run(total_time, steps, task="Add a box page border to the document.", success=True):
    from lamlab.agent import ScriptedPolicy, run_task
    from lamlab.env_sim import ActionCall
    import itertools

    actions = tuple(
        ActionCall(step="add the page border", function="insert_page_border",
                   args={"style": "box"})
        for _ in range(steps)
    ) if success else tuple(
        ActionCall(step="scroll", control_text="Vertical Scroll Bar", function="scroll",
                   args={"direction": "down", "amount": 1})
        for _ in range(steps)
    )
    tick = itertools.count()
    # Each step spans one clock increment between its two reads.
    record = run_task(
        ScriptedPolicy(actions=actions),
        "plain_text",
        task,
        clock=lambda: next(tick) * (total_time / steps),
    )
    return record


def test_eval_online_arithmetic():
    runs = [_run(10.0, 5), _run(20.0, 5)]
    result = eval_online(runs)
    assert result.tsr == 1.0
    assert result.mean_completion_time == pytest.approx(15.0)
    assert result.mean_steps == pytest.approx(5.0)
    assert result.mean_step_latency == pytest.approx(3.0)


def test_eval_online_zero_clock():
    from lamlab.agent import ScriptedPolicy, run_task
    from lamlab.env_sim import ActionCall

    record = run_task(
        ScriptedPolicy(actions=(ActionCall(step="x", function="insert_page_border",
                                           args={}),)),
        "plain_text",
        "Add a box page border to the document.",
        clock=lambda: 0.0,
    )
    result = eval_online([record])
    assert result.mean_step_latency == 0.0
    assert result.mean_completion_time == 0.0


def test_eval_online_predicate_judge_against_oracle():
    good = _run(2.0, 1, success=True)
    bad = _run(2.0, 1, success=False)  # scrolling changes nothing
    result = eval_online([good, bad])
    assert result.tsr == pytest.approx(0.5)
    assert canvas_predicate_judge(good) is True
    assert canvas_predicate_judge(bad) is False


# --- reports -----------------------------------------------------------------------


def test_report_actions_has_table_row_labels():
    result = eval_actions(
        {"t": [ps("", "select_text", "FINISH")]},
        {"t": [gt([], "select_text", "FINISH")]},
    )
    text, csv_text = report_actions({"lam": result})
    for label in (
        "Object Acc (%)",
        "Operation Acc (%)",
        "Status Acc (%)",
        "Step Success Rate (SSR) (%)",
        "Task Success Rate (TSR) (%)",
    ):
        assert label in text
        assert label in csv_text


def test_report_empty_is_no_data():
    assert "(no data)" in render_table("Empty", ["A"], [])


def test_reports_byte_deterministic():
    result = eval_plans([("t", ["a"], ["a"])])
    a = report_plans({"m": result})
    b = report_plans({"m": result})
    assert a == b


def test_report_online_format():
    runs = [_run(4.0, 2)]
    text, csv_text = report_online({"lam": eval_online(runs)})
    assert "Task Completion Time (s)" in text
    assert "Average Step Latency (s)" in text
