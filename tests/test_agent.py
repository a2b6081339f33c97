"""Agent loop: observation, stepping, memory, full runs, cross-module parity."""

import itertools

import pytest

from lamlab.agent import (
    AgentConfig,
    Memory,
    ModelPolicy,
    ScriptedPolicy,
    observe,
    run_task,
    step,
)
from lamlab.dataflow import execute_trajectory, validate_record_input
from lamlab.dataflow.records import InstantiatedTask
from lamlab.env_sim import ActionCall, EnvSession, STATUS_FINISH, list_controls, load_template
from lamlab.policy import ModelParams


class FinishPolicy:
    def decide(self, state):
        return (
            ActionCall(step="select the text", function="select_text",
                       args={"text": "Test For Fun"}, status=STATUS_FINISH),
            (),
        )


class NeverFinishPolicy:
    def decide(self, state):
        return (
            ActionCall(
                step="scroll on",
                control_text="Vertical Scroll Bar",
                function="scroll",
                args={"direction": "down", "amount": 1},
            ),
            ("keep scrolling",),
        )


class BrokenPolicy:
    def decide(self, state):
        return (
            ActionCall(step="ghost", control_text="Ghost", function="click_input",
                       args={"button": "left", "double": False}),
            (),
        )


def session():
    return EnvSession(load_template("plain_text"))


# --- observe -------------------------------------------------------------------


def test_observe_initial_state_is_empty_memory():
    state = observe(session(), "do something in the document", Memory(), 1)
    assert state.step_id == 1
    assert state.previous_actions == ()
    assert state.previous_plan == ()


def test_observe_controls_match_env_listing():
    s = session()
    state = observe(s, "task", Memory(), 1)
    assert list(state.controls) == list_controls(s.current)


def test_observe_state_matches_record_input_schema():
    s = session()
    memory = Memory()
    _, _, memory = step(
        ScriptedPolicy(actions=(ActionCall(function="select_text", args={"text": "Test"}),
                                ActionCall(function="toggle_bold", args={}))),
        s,
        "task for the document",
        memory,
        1,
    )
    state = observe(s, "task for the document", memory, 2)
    assert validate_record_input(state.to_record_input()) == []


# --- step -----------------------------------------------------------------------


def test_finish_status_executes_the_action_and_finishes_the_run():
    s = session()
    before = s.current.serialize()
    action, result, memory = step(FinishPolicy(), s, "task", Memory(), 1)
    assert action.status == STATUS_FINISH
    assert result.ok
    assert s.current.serialize() != before
    assert len(memory.historical_actions) == 1
    record = run_task(FinishPolicy(), "plain_text", "task", clock=lambda: 0.0)
    assert record.outcome == "finished"
    assert record.trajectory.final_status == "success"
    assert record.trajectory.final_canvas == s.current.canvas_xml


def test_error_captured_not_raised():
    s = session()
    action, result, memory = step(BrokenPolicy(), s, "task", Memory(), 1)
    assert not result.ok
    assert result.error == "UnknownControl"
    assert len(memory.historical_actions) == 1
    assert memory.historical_actions[0][1]["error"] == "UnknownControl"


def test_memory_plan_replaced_each_step():
    s = session()
    memory = Memory(previous_plan=("old plan",))
    _, _, memory = step(NeverFinishPolicy(), s, "task", memory, 1)
    assert memory.previous_plan == ("keep scrolling",)


def test_empty_script_is_rejected():
    with pytest.raises(ValueError, match="at least one action"):
        ScriptedPolicy(actions=())


# --- run_task -----------------------------------------------------------------------


def test_trivially_finished_task_single_step():
    record = run_task(FinishPolicy(), "plain_text", "already done", clock=lambda: 0.0)
    assert record.outcome == "finished"
    assert len(record.trajectory.steps) == 1


def test_never_finishing_policy_hits_max_steps():
    record = run_task(
        NeverFinishPolicy(),
        "plain_text",
        "scroll forever",
        config=AgentConfig(max_steps=7),
        clock=lambda: 0.0,
    )
    assert record.outcome == "max_steps_exceeded"
    assert len(record.trajectory.steps) == 7


def test_three_consecutive_errors_abort():
    record = run_task(BrokenPolicy(), "plain_text", "task", clock=lambda: 0.0)
    assert record.outcome == "error"
    assert len(record.trajectory.steps) == 3
    assert record.trajectory.final_status == "exec_error"


def test_memory_monotonicity():
    s = session()
    memory = Memory()
    policy = NeverFinishPolicy()
    for k in range(1, 6):
        _, _, memory = step(policy, s, "task", memory, k)
        assert len(memory.historical_actions) == k


def test_run_deterministic_under_argmax():
    params = ModelParams.zeros()
    a = run_task(ModelPolicy(params=params), "plain_text",
                 'Type the text "zz" in the document.', clock=lambda: 0.0)
    b = run_task(ModelPolicy(params=params), "plain_text",
                 'Type the text "zz" in the document.', clock=lambda: 0.0)
    assert a.trajectory.to_dict() == b.trajectory.to_dict()


def test_timings_non_negative_and_summed():
    ticker = itertools.count()
    record = run_task(
        FinishPolicy(), "plain_text", "task", clock=lambda: float(next(ticker))
    )
    assert record.total_time == sum(record.step_times)
    assert all(t >= 0 for t in record.step_times)


# --- cross-module parity -----------------------------------------------------------


def test_scripted_replay_matches_pipeline_execution():
    inst = InstantiatedTask(
        origin_task_id="xp1",
        instantiated_task='Highlight the text "Test For Fun" in the document in yellow.',
        template_id="plain_text",
        actions=(
            ActionCall(step="select the target text", function="select_text",
                       args={"text": "Test For Fun"}),
            ActionCall(step="apply the yellow highlight", function="click_input",
                       control_text="Text Highlight Color",
                       args={"button": "left", "double": False}),
        ),
    )
    pipeline_traj = execute_trajectory(inst)
    record = run_task(
        ScriptedPolicy(actions=inst.actions),
        inst.template_id,
        inst.instantiated_task,
        task_id=inst.origin_task_id,
        clock=lambda: 0.0,
    )
    assert record.outcome == "finished"
    assert record.trajectory.final_canvas == pipeline_traj.final_canvas
    assert record.trajectory.final_status == "success"
