"""Execution: run an instantiated action sequence in a fresh environment.

Every step records the pre-action control list and pre/post snapshot digests.
The first typed error ends the trajectory as exec_error; a clean run yields a
success trajectory with the initial-to-final canvas diff attached.
"""

from __future__ import annotations

from ..env_sim import (
    apply_action,
    control_tree_dict,
    diff_canvas,
    list_controls,
    load_template,
    serialize_canvas,
)
from .records import InstantiatedTask, Trajectory, TrajectoryStep

__all__ = ["execute_trajectory"]


def execute_trajectory(inst: InstantiatedTask) -> Trajectory:
    snapshot = load_template(inst.template_id)
    initial = snapshot
    steps: list[TrajectoryStep] = []
    final_status = "success"
    for step_no, action in enumerate(inst.actions, 1):
        pre = snapshot
        snapshot, result = apply_action(pre, action)
        steps.append(
            TrajectoryStep(
                step_no=step_no,
                action=action,
                result=result,
                controls=tuple(list_controls(pre)),
                pre_digest=pre.digest(),
                post_digest=snapshot.digest(),
            )
        )
        if not result.ok:
            final_status = "exec_error"
            break
    return Trajectory(
        trajectory_id=f"traj_{inst.origin_task_id}",
        origin=inst,
        steps=tuple(steps),
        final_status=final_status,
        canvas_diff=tuple(diff_canvas(initial.canvas, snapshot.canvas)),
        initial_canvas=serialize_canvas(initial.canvas),
        final_canvas=serialize_canvas(snapshot.canvas),
        init_control_state=control_tree_dict(initial.controls),
        final_control_state=control_tree_dict(snapshot.controls),
        init_rendered=initial.rendered_view(),
        final_rendered=snapshot.rendered_view(),
    )
