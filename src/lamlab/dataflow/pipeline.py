"""Stage orchestration over line-record files.

Each stage writes its output to its own file in ``corpus/`` inside the
workspace and reads its input from the previous stage's file, or, within one
``run_all``, from the records that stage produced earlier in the same run, so
a run decodes only ``raw_records.jsonl``. The two stages that prompt the
oracle once per record, instantiate and judge, keep up to ``workers`` oracle
requests in flight when the provider waits on the network (its
``waits_on_io``), so a remote provider's latency overlaps. A provider that
computes its answer in this process, like the bundled mock, gains nothing
from threads that share the interpreter lock, so those stages call it inline,
in record order, as every other stage runs. Outputs
are merged deterministically (sorted by id); records that fail a per-record
validation are skipped with a diagnostic, never aborting the stage.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..env_sim import get_template, list_templates
from ..errors import LamLabError, ValidationFailure, check_ints
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

__all__ = [
    "STAGES",
    "PipelineConfig",
    "StageReport",
    "run_stage",
    "run_all",
    "stage_files",
    "task_plan_stage",
]

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


def task_plan_stage(workspace: str | Path) -> str:
    """The stage whose file holds the task-plan corpus: ``evolve`` once its
    file exists, else ``normalize``."""
    return "evolve" if stage_files(workspace)["evolve"].is_file() else "normalize"


@dataclass
class PipelineConfig:
    # Oracle requests in flight in the instantiate and judge stages, for a
    # provider that waits on the network; the mock oracle runs inline.
    workers: int = 6
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)

    def __post_init__(self) -> None:
        check_ints(self, 1, "workers")


@dataclass
class StageReport:
    stage: str
    read: int
    written: int
    skipped: list[str] = field(default_factory=list)


def run_stage(
    stage: str,
    workspace: str | Path,
    oracle: Provider,
    config: PipelineConfig = PipelineConfig(),
    produced: dict[str, list] | None = None,
) -> StageReport:
    """Run one stage and write its file.

    ``produced`` maps a stage to the records it wrote earlier in the same
    run, as its file's reader would return them. The stage takes its input
    from there when present, else from the file; every stage but the last
    adds its own output.
    """
    files = stage_files(workspace)
    produced = {} if produced is None else produced
    in_flight = config.workers if getattr(oracle, "waits_on_io", True) else 1

    def read(source: str, parse: Callable | None = None) -> list:
        if source in produced:
            return produced[source]
        return read_jsonl(files[source], parse)

    if stage == "normalize":
        raw = read("raw")
        records = normalize_sources(raw)
        produced[stage] = records
        write_jsonl(files["normalize"], (r.to_dict() for r in records))
        return StageReport(stage, read=len(raw), written=len(records))

    if stage == "evolve":
        records = read("normalize", TaskPlanRecord.from_dict)
        out = evolve_corpus(records, oracle, config.evolution)
        produced[stage] = out
        write_jsonl(files["evolve"], (r.to_dict() for r in out))
        return StageReport(stage, read=len(records), written=len(out))

    if stage == "instantiate":
        records = read(task_plan_stage(workspace), TaskPlanRecord.from_dict)
        templates = [get_template(tid) for tid in list_templates()]
        results, skipped = _map_skipping(
            lambda r: instantiate(r, templates, oracle), records, in_flight
        )
        results.sort(key=lambda t: t.origin_task_id)
        produced[stage] = results
        write_jsonl(files["instantiate"], (t.to_dict() for t in results))
        _report_skips("instantiate", skipped)
        return StageReport(stage, read=len(records), written=len(results), skipped=skipped)

    if stage == "execute":
        tasks = read("instantiate", InstantiatedTask.from_dict)
        trajectories = [execute_trajectory(t) for t in tasks]
        trajectories.sort(key=lambda t: t.trajectory_id)
        produced[stage] = trajectories
        write_jsonl(files["execute"], (t.to_line() for t in trajectories))
        return StageReport(stage, read=len(tasks), written=len(trajectories))

    if stage == "judge":
        trajectories = read("execute", Trajectory.from_dict)
        successes = [t for t in trajectories if t.final_status == "success"]
        verdicts, skipped = _map_skipping(
            lambda t: (t.trajectory_id, t.origin.origin_task_id, judge_trajectory(t, oracle)),
            successes,
            in_flight,
        )
        verdicts.sort(key=lambda v: v[0])
        produced[stage] = [(tid, verdict) for tid, _, verdict in verdicts]
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
        trajectories = {t.trajectory_id: t for t in read("execute", Trajectory.from_dict)}
        verdicts = read("judge", verdict_row)
        records = []
        for tid, verdict in verdicts:
            if verdict.task_complete != "yes":
                continue
            if tid not in trajectories:
                raise ValidationFailure(f"verdict references unknown {tid}")
            records.extend(postprocess(trajectories[tid], verdict))
        records.sort(key=lambda r: (r.trajectory_id, r.step_no))
        write_jsonl(files["postprocess"], (r.to_line() for r in records))
        return StageReport(stage, read=len(verdicts), written=len(records))

    raise ValueError(f"unknown stage {stage!r}")


def _map_skipping(fn: Callable, items: Sequence, workers: int) -> tuple[list, list[str]]:
    """``fn`` of each item, up to ``workers`` calls at a time, in item order;
    an item whose call raises a ``LamLabError`` is skipped with its reason."""

    def safe(item):
        try:
            return fn(item), None
        except LamLabError as exc:
            return None, f"{type(exc).__name__}: {exc}"

    if workers <= 1 or len(items) <= 1:
        outcomes = [safe(item) for item in items]
    else:
        from concurrent.futures import ThreadPoolExecutor  # local: only a waiting provider pools

        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(safe, items))
    results = [r for r, err in outcomes if err is None]
    skipped = [err for _, err in outcomes if err is not None]
    return results, skipped


def _report_skips(stage: str, skipped: list[str]) -> None:
    for reason in skipped:
        print(f"{stage}: skipped record: {reason}", file=sys.stderr)


def run_all(
    workspace: str | Path, oracle: Provider, config: PipelineConfig = PipelineConfig()
) -> list[StageReport]:
    """Every stage in order; each hands its records to the later stages that
    read them, so only the raw records are read from disk."""
    produced: dict[str, list] = {}
    return [run_stage(stage, workspace, oracle, config, produced) for stage in STAGES]
