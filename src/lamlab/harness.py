"""Experiment harness for the bundled synthetic task suite.

Builds a pipeline-shaped workspace from the suite (tasks without expert
scripts become empty-action trajectories, i.e. failures available for
self-boosting), runs the four training phases with the ``PhaseConfigs``
defaults, and measures online task success per checkpoint with seed-fixed
argmax runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .agent import AgentConfig, ModelPolicy, RunRecord, run_task
from .dataflow import run_stage, stage_files
from .dataflow.records import InstantiatedTask, TaskPlanRecord
from .env_sim import ActionCall
from .fixtures import load_suite
from .jsonl import write_jsonl
from .oracle import MockOracle
from .policy import ModelParams
from .training import PhaseConfigs, run_phase

__all__ = [
    "SuiteTask",
    "load_suite_tasks",
    "desk_phase_configs",
    "build_suite_workspace",
    "run_suite_phases",
    "suite_runs",
]


@dataclass(frozen=True)
class SuiteTask:
    task_id: str
    family: str
    template_id: str
    task: str
    plan: tuple[str, ...]
    expert: tuple[ActionCall, ...] | None


def load_suite_tasks() -> list[SuiteTask]:
    tasks = []
    for row in load_suite():
        expert = row.get("expert")
        tasks.append(
            SuiteTask(
                task_id=row["task_id"],
                family=row["family"],
                template_id=row["template_id"],
                task=row["task"],
                plan=tuple(row["plan"]),
                expert=None
                if expert is None
                else tuple(ActionCall.from_call_dict(a) for a in expert),
            )
        )
    return tasks


def desk_phase_configs() -> PhaseConfigs:
    """``PhaseConfigs()``; kept for the benchmark's workloads, which call it."""
    return PhaseConfigs()


def build_suite_workspace(workspace: str | Path, oracle=None) -> Path:
    """Materialize corpus files for the suite: task-plan records for all
    tasks, executed trajectories for the scripted demonstrations, and
    empty-action failure trajectories for the rest. Like ``run_all``, the
    build hands each stage's records to the next stage in memory, so it
    decodes none of the files it writes."""
    workspace = Path(workspace)
    oracle = oracle or MockOracle()
    suite = load_suite_tasks()

    plans = [
        TaskPlanRecord(task_id=t.task_id, task=t.task, plan=t.plan, source="doc")
        for t in suite
    ]
    files = stage_files(workspace)
    write_jsonl(files["evolve"], (r.to_dict() for r in plans))

    instantiated = [
        InstantiatedTask(
            origin_task_id=t.task_id,
            instantiated_task=t.task,
            template_id=t.template_id,
            actions=t.expert or (),
            thought=f"Scripted run for {t.task_id}",
        )
        for t in suite
    ]
    write_jsonl(files["instantiate"], (t.to_dict() for t in instantiated))

    produced = {"instantiate": instantiated}
    for stage in ("execute", "judge", "postprocess"):
        run_stage(stage, workspace, oracle, produced=produced)
    return workspace


def run_suite_phases(workspace: str | Path, seed: int = 0) -> dict[int, ModelParams]:
    """Run phases 1..4 in order with the ``PhaseConfigs`` defaults and the
    mock oracle; returns the checkpoint parameters per phase."""
    workspace = Path(workspace)
    oracle = MockOracle()
    checkpoints: dict[int, ModelParams] = {}
    for phase in (1, 2, 3, 4):
        out = run_phase(phase, workspace, oracle, seed=seed)
        checkpoints[phase] = ModelParams.load(out / "weights.json")
    return checkpoints


def suite_runs(params: ModelParams, suite: list[SuiteTask] | None = None) -> list[RunRecord]:
    """One argmax run per suite task, on a clock that always reads 0.0."""
    if suite is None:
        suite = load_suite_tasks()
    runs = []
    for task in suite:
        policy = ModelPolicy(params=params, mode="argmax")
        runs.append(
            run_task(
                policy,
                task.template_id,
                task.task,
                config=AgentConfig(max_steps=20, mode="argmax"),
                task_id=task.task_id,
                clock=lambda: 0.0,
            )
        )
    return runs
