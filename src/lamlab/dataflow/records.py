"""Record types flowing through the data pipeline, with line-record codecs.

:func:`record_step` and :func:`record_trajectory` record every executed run,
in the pipeline's execute stage and in the agent loop alike. They read the
digests, canvas encodings, control trees and rendered views the snapshots
have already computed; a trajectory's control-state dicts are the snapshots'
own, shared read-only.

Field names on the wire match the structured samples the models consume:
task records use ``task_id``/``task``/``plan``; training records use
``thought``/``control_label``/``control_name``/``function``/``args``/
``status``/``plan``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..env_sim import (
    ActionCall,
    CanvasDiffEntry,
    EnvSnapshot,
    ExecutionResult,
    diff_canvas,
)
from ..errors import check_ints, check_numbers
from ..jsonl import canonical_dumps, canonical_json, object_field, text_field, texts_field

__all__ = [
    "SOURCES",
    "TaskPlanRecord",
    "EvolutionConfig",
    "InstantiatedTask",
    "TrajectoryStep",
    "Trajectory",
    "record_step",
    "record_trajectory",
    "EvaluationVerdict",
    "verdict_row",
    "TrainingRecord",
]

SOURCES = ("doc", "wikihow", "query", "evolved")

# The string fields of each listed control (``env_sim.flatten_controls``).
_CONTROL_KEYS = ("label", "control_text", "control_type")


def _line(fields: Mapping[str, object], **encoded: str) -> str:
    """``canonical_dumps`` of ``fields`` updated with ``encoded``, whose
    values are given as JSON text; every other value is encoded by
    ``canonical_json``, so its cached text is spliced in where it has one."""
    texts = {key: canonical_json(v) for key, v in fields.items() if key not in encoded} | encoded
    return "{" + ",".join(f"{canonical_dumps(key)}:{texts[key]}" for key in sorted(texts)) + "}"


@dataclass(frozen=True)
class TaskPlanRecord:
    task_id: str
    task: str
    plan: tuple[str, ...]
    source: str
    origin_task_id: str | None = None

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if not self.task or not self.plan or not self.task_id:
            raise ValueError("task_id, task and plan must be non-empty")

    def to_dict(self) -> dict:
        out = {
            "task_id": self.task_id,
            "task": self.task,
            "plan": list(self.plan),
            "source": self.source,
        }
        if self.origin_task_id is not None:
            out["origin_task_id"] = self.origin_task_id
        return out

    @classmethod
    def from_dict(cls, obj: Mapping) -> "TaskPlanRecord":
        return cls(
            task_id=text_field(obj, "task_id"),
            task=text_field(obj, "task"),
            plan=tuple(texts_field(obj, "plan")),
            source=text_field(obj, "source"),
            origin_task_id=text_field(obj, "origin_task_id") if "origin_task_id" in obj else None,
        )


@dataclass(frozen=True)
class EvolutionConfig:
    max_extra_words: int = 20
    target_multiplier: float = 1.5
    max_retries: int = 2

    def __post_init__(self) -> None:
        check_ints(self, 1, "max_extra_words")
        check_ints(self, 0, "max_retries")
        check_numbers(self, "target_multiplier", zero_ok=True)


@dataclass(frozen=True)
class InstantiatedTask:
    origin_task_id: str
    instantiated_task: str
    template_id: str
    actions: tuple[ActionCall, ...]
    thought: str = ""

    def to_dict(self) -> dict:
        return {
            "origin_task_id": self.origin_task_id,
            "instantiated_task": self.instantiated_task,
            "template_id": self.template_id,
            "thought": self.thought,
            "actions": [a.to_call_dict() for a in self.actions],
        }

    @classmethod
    def from_dict(cls, obj: Mapping) -> "InstantiatedTask":
        return cls(
            origin_task_id=text_field(obj, "origin_task_id"),
            instantiated_task=text_field(obj, "instantiated_task"),
            template_id=text_field(obj, "template_id"),
            thought=text_field(obj, "thought", ""),
            actions=tuple(ActionCall.from_call_dict(a) for a in obj["actions"]),
        )


@dataclass(frozen=True)
class TrajectoryStep:
    step_no: int
    action: ActionCall
    result: ExecutionResult
    controls: tuple[dict, ...]  # enabled controls before the action
    pre_digest: str
    post_digest: str

    def to_dict(self) -> dict:
        return {**self._fields(), "controls": [dict(c) for c in self.controls]}

    def to_line(self) -> str:
        """``canonical_dumps(self.to_dict())``."""
        return _line(self._fields())

    def _fields(self) -> dict:
        """``to_dict()`` with the recorded control tuple in place of its copy."""
        action = self.action.to_call_dict()
        action["status"] = self.action.status
        return {
            "step_no": self.step_no,
            "action": action,
            "result": self.result.to_dict(),
            "controls": self.controls,
            "pre_digest": self.pre_digest,
            "post_digest": self.post_digest,
        }

    @classmethod
    def from_dict(cls, obj: Mapping) -> "TrajectoryStep":
        controls = obj["controls"]
        if not isinstance(controls, list) or not all(
            isinstance(c, dict) and all(isinstance(c.get(key), str) for key in _CONTROL_KEYS)
            for c in controls
        ):
            raise TypeError(
                "controls must be a list of objects with string label, control_text and "
                "control_type"
            )
        return cls(
            step_no=obj["step_no"],
            action=ActionCall.from_call_dict(obj["action"]),
            result=ExecutionResult.from_dict(obj["result"]),
            controls=tuple(controls),
            pre_digest=text_field(obj, "pre_digest"),
            post_digest=text_field(obj, "post_digest"),
        )


FINAL_STATUSES = ("success", "exec_error", "discarded")


@dataclass(frozen=True)
class Trajectory:
    trajectory_id: str
    origin: InstantiatedTask
    steps: tuple[TrajectoryStep, ...]
    final_status: str
    canvas_diff: tuple[CanvasDiffEntry, ...]
    initial_canvas: str
    final_canvas: str
    init_control_state: dict
    final_control_state: dict
    init_rendered: str
    final_rendered: str

    def __post_init__(self) -> None:
        if self.final_status not in FINAL_STATUSES:
            raise ValueError(f"bad final_status {self.final_status!r}")
        for i, step in enumerate(self.steps, 1):
            if step.step_no != i:
                raise ValueError("step_no must increase strictly from 1")
        if self.final_status == "exec_error" and self.steps and self.steps[-1].result.ok:
            raise ValueError("exec_error trajectory must end at the failing step")

    def to_dict(self) -> dict:
        return {**self._fields(), "steps": [s.to_dict() for s in self.steps]}

    def to_line(self) -> str:
        """``canonical_dumps(self.to_dict())``."""
        return _line(self._fields(), steps="[" + ",".join(s.to_line() for s in self.steps) + "]")

    def _fields(self) -> dict:
        """``to_dict()`` without its steps."""
        return {
            "trajectory_id": self.trajectory_id,
            "origin": self.origin.to_dict(),
            "final_status": self.final_status,
            "canvas_diff": [e.to_dict() for e in self.canvas_diff],
            "initial_canvas": self.initial_canvas,
            "final_canvas": self.final_canvas,
            "init_control_state": self.init_control_state,
            "final_control_state": self.final_control_state,
            "init_rendered": self.init_rendered,
            "final_rendered": self.final_rendered,
        }

    @classmethod
    def from_dict(cls, obj: Mapping) -> "Trajectory":
        return cls(
            trajectory_id=text_field(obj, "trajectory_id"),
            origin=InstantiatedTask.from_dict(obj["origin"]),
            steps=tuple(TrajectoryStep.from_dict(s) for s in obj["steps"]),
            final_status=text_field(obj, "final_status"),
            canvas_diff=tuple(CanvasDiffEntry.from_dict(e) for e in obj["canvas_diff"]),
            initial_canvas=text_field(obj, "initial_canvas"),
            final_canvas=text_field(obj, "final_canvas"),
            init_control_state=object_field(obj, "init_control_state"),
            final_control_state=object_field(obj, "final_control_state"),
            init_rendered=text_field(obj, "init_rendered"),
            final_rendered=text_field(obj, "final_rendered"),
        )


def record_step(
    step_no: int, action: ActionCall, result: ExecutionResult, pre: EnvSnapshot, post: EnvSnapshot
) -> TrajectoryStep:
    """One executed step: the enabled controls before the action and the
    pre/post snapshot digests."""
    return TrajectoryStep(
        step_no=step_no,
        action=action,
        result=result,
        controls=pre.control_list,
        pre_digest=pre.digest(),
        post_digest=post.digest(),
    )


def record_trajectory(
    trajectory_id: str,
    origin: InstantiatedTask,
    steps: Sequence[TrajectoryStep],
    final_status: str,
    initial: EnvSnapshot,
    final: EnvSnapshot,
) -> Trajectory:
    """An executed run with the initial-to-final canvas diff, both canvases,
    both control trees and both rendered views attached."""
    return Trajectory(
        trajectory_id=trajectory_id,
        origin=origin,
        steps=tuple(steps),
        final_status=final_status,
        canvas_diff=tuple(diff_canvas(initial.flat_canvas, final.canvas)),
        initial_canvas=initial.canvas_xml,
        final_canvas=final.canvas_xml,
        init_control_state=initial.control_state,
        final_control_state=final.control_state,
        init_rendered=initial.rendered_view(),
        final_rendered=final.rendered_view(),
    )


@dataclass(frozen=True)
class EvaluationVerdict:
    task_complete: str
    task_quality: str
    complete_judgement: str
    quality_judgement: str

    def __post_init__(self) -> None:
        if self.task_complete not in ("yes", "no", "unsure"):
            raise ValueError(f"bad task_complete {self.task_complete!r}")
        if self.task_quality not in ("ambiguous", "over-detailed", "good"):
            raise ValueError(f"bad task_quality {self.task_quality!r}")

    def to_dict(self) -> dict:
        return {
            "task_complete": self.task_complete,
            "task_quality": self.task_quality,
            "complete_judgement": self.complete_judgement,
            "quality_judgement": self.quality_judgement,
        }

    @classmethod
    def from_dict(cls, obj: Mapping) -> "EvaluationVerdict":
        return cls(
            task_complete=obj["task_complete"],
            task_quality=obj["task_quality"],
            complete_judgement=obj["complete_judgement"],
            quality_judgement=obj["quality_judgement"],
        )


def verdict_row(obj: Mapping) -> tuple[str, EvaluationVerdict]:
    """(trajectory id, verdict) of one ``verdicts.jsonl`` row."""
    verdict = EvaluationVerdict.from_dict(obj)
    return text_field(obj, "trajectory_id"), verdict


@dataclass(frozen=True)
class TrainingRecord:
    record_id: str
    origin_task_id: str
    trajectory_id: str
    step_no: int
    input: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "origin_task_id": self.origin_task_id,
            "trajectory_id": self.trajectory_id,
            "step_no": self.step_no,
            "input": self.input,
            "output": self.output,
        }

    def to_line(self) -> str:
        """``canonical_dumps(self.to_dict())``."""
        return _line(self.to_dict(), input=_line(self.input))
