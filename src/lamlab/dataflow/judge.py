"""Trajectory judging: prompt an evaluator and parse its structured verdict."""

from __future__ import annotations

import json

from ..errors import OracleFailure, ParseFailure
from ..env_sim import registry_help
from ..jsonl import prompt_json
from ..oracle import OracleRequest, Provider
from .records import EvaluationVerdict, Trajectory

__all__ = ["judge_trajectory", "build_judge_substitutions"]


def build_judge_substitutions(traj: Trajectory) -> dict[str, str]:
    trajectory_items = [
        {
            "number": step.step_no,
            "action": step.action.to_call_dict(),
            "observation": step.result.observation,
        }
        for step in traj.steps
    ]
    final_status = json.dumps(
        {"final_canvas": traj.final_canvas, "final_rendered": traj.final_rendered},
        sort_keys=True,
        ensure_ascii=False,
    )
    return {
        "apis": registry_help(),
        "request": traj.origin.instantiated_task,
        "thought": traj.origin.thought,
        "trajectory": json.dumps(trajectory_items, sort_keys=True, ensure_ascii=False),
        "canvas_diff": json.dumps(
            [e.to_dict() for e in traj.canvas_diff], sort_keys=True, ensure_ascii=False
        ),
        "init_control_state": prompt_json(traj.init_control_state),
        "final_control_state": prompt_json(traj.final_control_state),
        "final_status": final_status,
    }


def judge_trajectory(traj: Trajectory, oracle: Provider) -> EvaluationVerdict:
    if traj.final_status != "success":
        raise ValueError("only success trajectories are judged")
    request = OracleRequest(template_id="judge", substitutions=build_judge_substitutions(traj))
    try:
        response = oracle.complete(request)
    except Exception as exc:
        raise OracleFailure(f"judge oracle failed for {traj.trajectory_id}: {exc}") from exc
    if response.parsed is None:
        raise ParseFailure(f"judge response unparseable: {response.parse_error}")
    try:
        return EvaluationVerdict.from_dict(response.parsed)
    except (KeyError, ValueError) as exc:
        raise ParseFailure(f"judge verdict malformed: {exc}") from exc
