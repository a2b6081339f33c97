"""Stage orchestration over line-record files.

Each stage reads the previous stage's file from ``corpus/`` inside the
workspace and writes its own. Per-task stages fan out over a worker pool and
merge deterministically (sorted by id); records that fail a per-record
validation are skipped with a diagnostic, never aborting the stage.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..env_sim import get_template, list_templates
from ..errors import LamLabError, ValidationFailure
from ..jsonl import read_jsonl, write_jsonl
from ..oracle import Provider
from .evolve import evolve_corpus
from .execute import execute_trajectory
from .instantiate import instantiate
from .judge import judge_trajectory
from .normalize import normalize_sources
from .postprocess import postprocess
from .records import (
    EvolutionConfig,
    InstantiatedTask,
    TaskPlanRecord,
    Trajectory,
    verdict_row,
)

__all__ = ["STAGES", "PipelineConfig", "StageReport", "run_stage", "run_all", "stage_files"]

STAGES = ("normalize", "evolve", "instantiate", "execute", "judge", "postprocess")

_FILES = {
    "raw": "raw_records.jsonl",
    "normalize": "taskplan.jsonl",
    "evolve": "evolved.jsonl",
    "instantiate": "instantiated.jsonl",
    "execute": "trajectories.jsonl",
    "judge": "verdicts.jsonl",
    "postprocess": "training.jsonl",
}


def stage_files(workspace: str | Path) -> dict[str, Path]:
    corpus = Path(workspace) / "corpus"
    return {stage: corpus / name for stage, name in _FILES.items()}


@dataclass
class PipelineConfig:
    workers: int = 6
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)


@dataclass
class StageReport:
    stage: str
    read: int
    written: int
    skipped: list[str] = field(default_factory=list)


def _parallel_map(fn: Callable, items: Sequence, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def run_stage(
    stage: str,
    workspace: str | Path,
    oracle: Provider,
    config: PipelineConfig = PipelineConfig(),
) -> StageReport:
    files = stage_files(workspace)
    if stage == "normalize":
        raw = read_jsonl(files["raw"])
        records = normalize_sources(raw)
        write_jsonl(files["normalize"], (r.to_dict() for r in records))
        return StageReport(stage, read=len(raw), written=len(records))

    if stage == "evolve":
        records = read_jsonl(files["normalize"], TaskPlanRecord.from_dict)
        out = evolve_corpus(records, oracle, config.evolution)
        write_jsonl(files["evolve"], (r.to_dict() for r in out))
        return StageReport(stage, read=len(records), written=len(out))

    if stage == "instantiate":
        source = files["evolve"] if files["evolve"].exists() else files["normalize"]
        records = read_jsonl(source, TaskPlanRecord.from_dict)
        templates = [get_template(tid) for tid in list_templates()]
        results, skipped = _map_skipping(
            lambda r: instantiate(r, templates, oracle), records, config.workers
        )
        results.sort(key=lambda t: t.origin_task_id)
        write_jsonl(files["instantiate"], (t.to_dict() for t in results))
        _report_skips("instantiate", skipped)
        return StageReport(stage, read=len(records), written=len(results), skipped=skipped)

    if stage == "execute":
        tasks = read_jsonl(files["instantiate"], InstantiatedTask.from_dict)
        trajectories = _parallel_map(execute_trajectory, tasks, config.workers)
        trajectories.sort(key=lambda t: t.trajectory_id)
        write_jsonl(files["execute"], (t.to_dict() for t in trajectories))
        return StageReport(stage, read=len(tasks), written=len(trajectories))

    if stage == "judge":
        trajectories = read_jsonl(files["execute"], Trajectory.from_dict)
        successes = [t for t in trajectories if t.final_status == "success"]
        verdicts, skipped = _map_skipping(
            lambda t: (t.trajectory_id, t.origin.origin_task_id, judge_trajectory(t, oracle)),
            successes,
            config.workers,
        )
        verdicts.sort(key=lambda v: v[0])
        write_jsonl(
            files["judge"],
            (
                {"trajectory_id": tid, "origin_task_id": oid, **verdict.to_dict()}
                for tid, oid, verdict in verdicts
            ),
        )
        _report_skips("judge", skipped)
        return StageReport(stage, read=len(trajectories), written=len(verdicts), skipped=skipped)

    if stage == "postprocess":
        trajectories = {
            t.trajectory_id: t for t in read_jsonl(files["execute"], Trajectory.from_dict)
        }
        verdicts = read_jsonl(files["judge"], verdict_row)
        records = []
        for tid, verdict in verdicts:
            if verdict.task_complete != "yes":
                continue
            if tid not in trajectories:
                raise ValidationFailure(f"verdict references unknown {tid}")
            records.extend(postprocess(trajectories[tid], verdict))
        records.sort(key=lambda r: (r.trajectory_id, r.step_no))
        write_jsonl(files["postprocess"], (r.to_dict() for r in records))
        return StageReport(stage, read=len(verdicts), written=len(records))

    raise ValueError(f"unknown stage {stage!r}")


def _map_skipping(fn: Callable, items: Sequence, workers: int) -> tuple[list, list[str]]:
    def safe(item):
        try:
            return fn(item), None
        except LamLabError as exc:
            return None, f"{type(exc).__name__}: {exc}"

    outcomes = _parallel_map(safe, items, workers)
    results = [r for r, err in outcomes if err is None]
    skipped = [err for _, err in outcomes if err is not None]
    return results, skipped


def _report_skips(stage: str, skipped: list[str]) -> None:
    for reason in skipped:
        print(f"{stage}: skipped record: {reason}", file=sys.stderr)


def run_all(
    workspace: str | Path, oracle: Provider, config: PipelineConfig = PipelineConfig()
) -> list[StageReport]:
    return [run_stage(stage, workspace, oracle, config) for stage in STAGES]
