"""Self-boosting exploration: retry failed tasks with the current policy.

Each failed task gets a bounded number of sampled attempts through the agent
loop. The first attempt that executes to success and that the judge accepts
comes back with its verdict, in the same trajectory schema the data pipeline
produces, so phase 3 post-processes it straight into training records.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .. import agent as agent_mod
from ..dataflow.records import EvaluationVerdict, Trajectory
from ..policy.model import ModelParams
from ..textutil import stable_hash
from .configs import BoostConfig

__all__ = ["FailedTask", "self_boost"]


@dataclass(frozen=True)
class FailedTask:
    task_id: str
    template_id: str
    task: str


def self_boost(
    params: ModelParams,
    failed_tasks: Sequence[FailedTask],
    judge: Callable[[Trajectory], EvaluationVerdict],
    config: BoostConfig = BoostConfig(),
) -> list[tuple[Trajectory, EvaluationVerdict]]:
    """New success trajectories, each with its judge-yes verdict; possibly
    empty."""
    successes: list[tuple[Trajectory, EvaluationVerdict]] = []
    for task in sorted(failed_tasks, key=lambda t: t.task_id):
        for attempt in range(config.attempts_per_task):
            seed = stable_hash(task.task_id, attempt, config.base_seed)
            policy = agent_mod.ModelPolicy(params=params, mode="sample", seed=seed)
            record = agent_mod.run_task(
                policy,
                task.template_id,
                task.task,
                config=agent_mod.AgentConfig(max_steps=config.max_steps, mode="sample"),
                task_id=task.task_id,
            )
            if record.trajectory.final_status != "success":
                continue
            trajectory = replace(
                record.trajectory, trajectory_id=f"boost_{task.task_id}_a{attempt}"
            )
            verdict = judge(trajectory)
            if verdict.task_complete == "yes":
                successes.append((trajectory, verdict))
                break
    return successes
