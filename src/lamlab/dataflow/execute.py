"""Execution: run an instantiated action sequence in a fresh environment.

Each step and the finished trajectory are recorded by ``record_step`` and
``record_trajectory``. The first typed error ends the trajectory as
exec_error; a clean run yields a success trajectory.
"""

from __future__ import annotations

from ..env_sim import apply_action, load_template
from .records import InstantiatedTask, Trajectory, record_step, record_trajectory

__all__ = ["execute_trajectory"]


def execute_trajectory(inst: InstantiatedTask) -> Trajectory:
    initial = snapshot = load_template(inst.template_id)
    steps = []
    final_status = "success"
    for step_no, action in enumerate(inst.actions, 1):
        pre = snapshot
        snapshot, result = apply_action(pre, action)
        steps.append(record_step(step_no, action, result, pre, snapshot))
        if not result.ok:
            final_status = "exec_error"
            break
    return record_trajectory(
        f"traj_{inst.origin_task_id}", inst, steps, final_status, initial, snapshot
    )
