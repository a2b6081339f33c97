"""Post-processing: verdict-approved trajectories become step-wise training
records, one record per executed step.

Record k's input comes from :func:`record_inputs`; its output is the action
taken plus the remaining plan. The last record carries status FINISH and an
empty plan.
"""

from __future__ import annotations

from ..env_sim import (
    CALL_KEYS,
    CONTROL_TYPES,
    REGISTRY,
    STATUS_CONTINUE,
    STATUS_FINISH,
    ListedControls,
    resolve_listed,
)
from .records import EvaluationVerdict, TrainingRecord, Trajectory, TrajectoryStep

__all__ = [
    "postprocess",
    "record_inputs",
    "make_thought",
    "validate_record_input",
    "validate_record_output",
    "validate_training_record",
]


def make_thought(step_desc: str, function: str, control_text: str) -> str:
    target = f"the {control_text!r} control" if control_text else "the document"
    return f"The next step is to {step_desc}. I will call {function} on {target}."


def record_inputs(traj: Trajectory) -> list[dict]:
    """The ``input`` of each step's training record.

    Record k's input is everything the agent could see before acting: the
    step's controls, the request, the history of steps 1..k-1 and the plan
    emitted at step k-1. It is the serialized form of the agent's state, so
    ``AgentState.from_record_input`` reads it back. Its
    ``available_controls`` lists the step's own control dicts, shared
    read-only, and carries their cached encoding for the line writer.
    """
    step_descs = [s.action.step for s in traj.steps]
    history = [
        {"action": s.action.to_call_dict(), "result": s.result.to_dict()} for s in traj.steps
    ]
    return [
        {
            "available_controls": ListedControls(step.controls),
            "user_request": traj.origin.instantiated_task,
            "step_history": history[: k - 1],
            # The plan emitted at step k-1 covers the then-remaining steps
            # k..T; at k=1 nothing was emitted yet.
            "previous_plan": [] if k == 1 else step_descs[k - 1 :],
        }
        for k, step in enumerate(traj.steps, 1)
    ]


def postprocess(traj: Trajectory, verdict: EvaluationVerdict) -> list[TrainingRecord]:
    if verdict.task_complete != "yes":
        raise ValueError("only verdict-yes trajectories are post-processed")
    records = []
    total = len(traj.steps)
    step_descs = [s.action.step for s in traj.steps]
    for k, (step, record_input) in enumerate(zip(traj.steps, record_inputs(traj)), 1):
        is_last = k == total
        action = step.action
        control_label, control_text = _executed_target(step)
        records.append(
            TrainingRecord(
                record_id=f"{traj.trajectory_id}.s{k}",
                origin_task_id=traj.origin.origin_task_id,
                trajectory_id=traj.trajectory_id,
                step_no=k,
                input=record_input,
                output={
                    "thought": make_thought(action.step, action.function, control_text),
                    "control_label": control_label,
                    "control_name": control_text,
                    "function": action.function,
                    "args": dict(action.args),
                    "status": STATUS_FINISH if is_last else STATUS_CONTINUE,
                    "plan": [] if is_last else step_descs[k:],
                },
            )
        )
    return records


def _executed_target(step: TrajectoryStep) -> tuple[str, str]:
    """Label/text of the control the step acted on: the listed control that
    execution's resolution rule picks, else the action's own label and text."""
    action = step.action
    control = resolve_listed(step.controls, action.control_label, action.control_text)
    if control is None:
        return action.control_label, action.control_text
    return control["label"], control["control_text"]


# --- structured-record validation -------------------------------------------

_INPUT_KEYS = ("available_controls", "user_request", "step_history", "previous_plan")
_OUTPUT_KEYS = ("thought", "control_label", "control_name", "function", "args", "status", "plan")
_CONTROL_KEYS = {"label", "control_text", "control_type"}


def validate_record_input(obj: object) -> list[str]:
    problems = []
    if not isinstance(obj, dict):
        return [f"input must be an object, got {type(obj).__name__}"]
    if set(obj) != set(_INPUT_KEYS):
        problems.append(f"input keys must be exactly {list(_INPUT_KEYS)}, got {sorted(obj)}")
        return problems
    controls = obj["available_controls"]
    if not isinstance(controls, list):
        problems.append("available_controls must be a list")
    else:
        for item in controls:
            if not isinstance(item, dict) or set(item) != _CONTROL_KEYS:
                problems.append(f"bad control entry {item!r}")
                break
            if not all(isinstance(value, str) for value in item.values()):
                problems.append(f"control values must be strings, got {item!r}")
                break
            if item["control_type"] not in CONTROL_TYPES:
                problems.append(f"bad control type {item['control_type']!r}")
                break
    if not isinstance(obj["user_request"], str) or not obj["user_request"].strip():
        problems.append("user_request must be a non-empty string")
    history = obj["step_history"]
    if not isinstance(history, list):
        problems.append("step_history must be a list")
    else:
        for item in history:
            problem = _history_problem(item)
            if problem:
                problems.append(problem)
                break
    plan = obj["previous_plan"]
    if not isinstance(plan, list) or not all(isinstance(s, str) for s in plan):
        problems.append("previous_plan must be a list of strings")
    return problems


def _history_problem(item: object) -> str | None:
    if not isinstance(item, dict) or "action" not in item or "result" not in item:
        return f"bad step_history entry {item!r}"
    action = item["action"]
    if not isinstance(action, dict) or set(action) != CALL_KEYS:
        return f"step_history action must be an object with keys {sorted(CALL_KEYS)}, got {action!r}"
    if not isinstance(action["args"], dict):
        return "step_history action args must be an object"
    if not all(isinstance(action[key], str) for key in CALL_KEYS - {"args"}):
        return "step_history action controlLabel, controlText, function and step must be strings"
    if not isinstance(item["result"], dict):
        return "step_history result must be an object"
    return None


def validate_record_output(obj: object) -> list[str]:
    problems = []
    if not isinstance(obj, dict):
        return [f"output must be an object, got {type(obj).__name__}"]
    if set(obj) != set(_OUTPUT_KEYS):
        problems.append(f"output keys must be exactly {list(_OUTPUT_KEYS)}, got {sorted(obj)}")
        return problems
    for key in ("thought", "control_label", "control_name", "function"):
        if not isinstance(obj[key], str):
            problems.append(f"{key} must be a string")
    if isinstance(obj["function"], str) and obj["function"] not in REGISTRY:
        problems.append(f"function must name a registry function, got {obj['function']!r}")
    if not isinstance(obj["args"], dict):
        problems.append("args must be an object")
    if obj["status"] not in (STATUS_CONTINUE, STATUS_FINISH):
        problems.append(f"status must be CONTINUE or FINISH, got {obj['status']!r}")
    if not isinstance(obj["plan"], list) or not all(isinstance(s, str) for s in obj["plan"]):
        problems.append("plan must be a list of strings")
    elif obj["status"] == STATUS_FINISH and obj["plan"]:
        problems.append("a FINISH record must carry an empty plan")
    return problems


def validate_training_record(obj: object) -> list[str]:
    if not isinstance(obj, dict):
        return [f"record must be an object, got {type(obj).__name__}"]
    problems = []
    for key in ("record_id", "origin_task_id", "trajectory_id", "step_no", "input", "output"):
        if key not in obj:
            problems.append(f"record missing {key}")
    if problems:
        return problems
    if not isinstance(obj["trajectory_id"], str):
        problems.append("trajectory_id must be a string")
    step_no = obj["step_no"]
    if not isinstance(step_no, int) or isinstance(step_no, bool) or step_no < 1:
        problems.append(f"step_no must be a positive integer, got {step_no!r}")
    problems.extend(validate_record_input(obj["input"]))
    if not problems:
        history = len(obj["input"]["step_history"])
        if step_no != history + 1:
            problems.append(f"step_no {step_no} does not follow a step_history of {history} steps")
    problems.extend(validate_record_output(obj["output"]))
    return problems
