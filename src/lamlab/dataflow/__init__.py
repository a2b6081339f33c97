"""Two-phase data pipeline: task-plan records in, step-wise training data out."""

from .evolve import evolve_corpus, evolve_task, validate_evolution
from .execute import execute_trajectory
from .instantiate import EXAMPLE_CALLS, instantiate, parse_actions_plan, select_template
from .judge import build_judge_substitutions, judge_trajectory
from .normalize import DEFAULT_OFF_PLATFORM, normalize_sources
from .pipeline import (
    STAGES,
    PipelineConfig,
    StageReport,
    run_all,
    run_stage,
    stage_files,
    task_plan_stage,
)
from .postprocess import (
    make_thought,
    postprocess,
    record_inputs,
    validate_record_input,
    validate_record_output,
    validate_training_record,
)
from .records import (
    SOURCES,
    EvaluationVerdict,
    EvolutionConfig,
    InstantiatedTask,
    TaskPlanRecord,
    TrainingRecord,
    Trajectory,
    TrajectoryStep,
)

__all__ = [
    "evolve_corpus",
    "evolve_task",
    "validate_evolution",
    "execute_trajectory",
    "EXAMPLE_CALLS",
    "instantiate",
    "parse_actions_plan",
    "select_template",
    "build_judge_substitutions",
    "judge_trajectory",
    "DEFAULT_OFF_PLATFORM",
    "normalize_sources",
    "STAGES",
    "PipelineConfig",
    "StageReport",
    "run_all",
    "run_stage",
    "stage_files",
    "task_plan_stage",
    "make_thought",
    "postprocess",
    "record_inputs",
    "validate_record_input",
    "validate_record_output",
    "validate_training_record",
    "SOURCES",
    "EvaluationVerdict",
    "EvolutionConfig",
    "InstantiatedTask",
    "TaskPlanRecord",
    "TrainingRecord",
    "Trajectory",
    "TrajectoryStep",
]
