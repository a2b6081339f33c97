"""Self-boosting exploration: retry failed tasks with the current policy.

Each failed task gets a bounded number of sampled attempts through the agent
loop, each attempt's policy seeded from the task, the attempt number and the
run's seed. The first attempt that executes to success and that the judge
accepts comes back with its verdict, in the same trajectory schema the data
pipeline produces, so phase 3 post-processes it straight into training
records.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from .. import agent as agent_mod
from ..dataflow.records import EvaluationVerdict, InstantiatedTask, Trajectory
from ..policy.model import ModelParams
from ..textutil import stable_hash
from .configs import BoostConfig

__all__ = ["self_boost"]


def self_boost(
    params: ModelParams,
    failed_tasks: Sequence[InstantiatedTask],
    judge: Callable[[Trajectory], EvaluationVerdict],
    config: BoostConfig = BoostConfig(),
    *,
    seed: int,
) -> list[tuple[Trajectory, EvaluationVerdict]]:
    """New success trajectories, each with its judge-yes verdict; possibly
    empty."""
    successes: list[tuple[Trajectory, EvaluationVerdict]] = []
    for task in sorted(failed_tasks, key=lambda t: t.origin_task_id):
        task_id = task.origin_task_id
        for attempt in range(config.attempts_per_task):
            policy = agent_mod.ModelPolicy(
                params=params, mode="sample", seed=stable_hash(task_id, attempt, seed)
            )
            record = agent_mod.run_task(
                policy,
                task.template_id,
                task.instantiated_task,
                config=agent_mod.AgentConfig(max_steps=config.max_steps, mode="sample"),
                task_id=task_id,
            )
            if record.trajectory.final_status != "success":
                continue
            trajectory = replace(record.trajectory, trajectory_id=f"boost_{task_id}_a{attempt}")
            verdict = judge(trajectory)
            if verdict.task_complete == "yes":
                successes.append((trajectory, verdict))
                break
    return successes
