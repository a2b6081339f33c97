"""Offline plan metrics, offline decision metrics, online run metrics, and
deterministic report rendering.

Plans are scored by one rule: greedy one-to-one step matching on normalized
text (``textutil.match_plan_steps``) and a recall threshold for task success
(``textutil.plan_solved``). Action metrics compare predicted steps
positionally against ground truth. All fractions are micro-averaged.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .agent import RunRecord
from .errors import EmptyCorpus, MissingGroundTruth
from .goals import goal_satisfied
from .jsonl import text_field, texts_field, write_text
from .policy.model import left_sum
from . import textutil

__all__ = [
    "GroundTruthStep",
    "PredictedStep",
    "PlanEvalResult",
    "ActionEvalResult",
    "OnlineEvalResult",
    "eval_plans",
    "eval_actions",
    "eval_online",
    "canvas_predicate_judge",
    "report_plans",
    "report_actions",
    "report_online",
    "render_table",
    "write_reports",
]


@dataclass(frozen=True)
class GroundTruthStep:
    """One reference step. acceptable_objects is empty only for target-free
    operations, in which case the predicted control text must be empty too."""

    acceptable_objects: tuple[str, ...]
    operation: str
    status: str

    @classmethod
    def from_dict(cls, obj: Mapping) -> "GroundTruthStep":
        return cls(
            acceptable_objects=tuple(texts_field(obj, "acceptable_objects", [])),
            operation=text_field(obj, "operation"),
            status=text_field(obj, "status"),
        )


@dataclass(frozen=True)
class PredictedStep:
    control_text: str
    function: str
    status: str

    @classmethod
    def from_dict(cls, obj: Mapping) -> "PredictedStep":
        return cls(
            control_text=text_field(obj, "control_text", ""),
            function=text_field(obj, "function", ""),
            status=text_field(obj, "status", ""),
        )

    def to_dict(self) -> dict:
        return {
            "control_text": self.control_text,
            "function": self.function,
            "status": self.status,
        }


@dataclass(frozen=True)
class PlanEvalResult:
    tsr: float
    step_precision: float
    step_recall: float


@dataclass(frozen=True)
class ActionEvalResult:
    object_acc: float
    operation_acc: float
    status_acc: float
    ssr: float
    tsr: float
    per_task: dict[str, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class OnlineEvalResult:
    tsr: float
    mean_completion_time: float
    mean_steps: float
    mean_step_latency: float


def eval_plans(pairs: Sequence[tuple[str, Sequence[str], Sequence[str]]]) -> PlanEvalResult:
    """pairs: (task, predicted plan, ground-truth plan) triples.

    Precision/recall are micro-averaged over steps (empty prediction counts
    as precision 0); task success is ``textutil.plan_solved`` on its recall.
    """
    if not pairs:
        raise EmptyCorpus("eval_plans needs at least one pair")
    total_matched = 0
    total_pred = 0
    total_truth = 0
    solved = 0
    for _task, pred, truth in pairs:
        matched = len(textutil.match_plan_steps(pred, truth))
        total_matched += matched
        total_pred += len(pred)
        total_truth += len(truth)
        solved += textutil.plan_solved(matched, len(truth))
    return PlanEvalResult(
        tsr=solved / len(pairs),
        step_precision=total_matched / total_pred if total_pred else 0.0,
        step_recall=total_matched / total_truth if total_truth else 0.0,
    )


def _object_correct(pred: PredictedStep, truth: GroundTruthStep) -> bool:
    if not truth.acceptable_objects:
        return pred.control_text == ""
    return pred.control_text in truth.acceptable_objects


def eval_actions(
    preds: Mapping[str, Sequence[PredictedStep]],
    truths: Mapping[str, Sequence[GroundTruthStep]],
) -> ActionEvalResult:
    """Positional comparison per ground-truth task id. Accuracies are
    micro-averaged over ground-truth steps; a task succeeds iff every step
    succeeds and the predicted step count matches the truth. A task with no
    prediction counts as a prediction with no steps."""
    if not preds:
        raise EmptyCorpus("eval_actions needs at least one predicted task")
    for task_id in sorted(preds):
        if task_id not in truths:
            raise MissingGroundTruth(f"no ground truth for task {task_id!r}")
    object_hits = operation_hits = status_hits = step_hits = 0
    total_steps = 0
    per_task: dict[str, bool] = {}
    for task_id in sorted(truths):
        pred_steps = list(preds.get(task_id, ()))
        truth_steps = list(truths[task_id])
        task_ok = len(pred_steps) == len(truth_steps)
        for i, truth in enumerate(truth_steps):
            total_steps += 1
            pred = pred_steps[i] if i < len(pred_steps) else None
            obj = pred is not None and _object_correct(pred, truth)
            op = pred is not None and pred.function == truth.operation
            st = pred is not None and pred.status == truth.status
            object_hits += obj
            operation_hits += op
            status_hits += st
            step_ok = obj and op and st
            step_hits += step_ok
            task_ok = task_ok and step_ok
        per_task[task_id] = task_ok
    return ActionEvalResult(
        object_acc=object_hits / total_steps if total_steps else 0.0,
        operation_acc=operation_hits / total_steps if total_steps else 0.0,
        status_acc=status_hits / total_steps if total_steps else 0.0,
        ssr=step_hits / total_steps if total_steps else 0.0,
        tsr=sum(per_task.values()) / len(per_task),
        per_task=per_task,
    )


def canvas_predicate_judge(run: RunRecord) -> bool:
    """Success iff the final canvas diff satisfies the task's keyword goal."""
    diff = [e.to_dict() for e in run.trajectory.canvas_diff]
    return goal_satisfied(run.task, diff) is True


def eval_online(runs: Sequence[RunRecord]) -> OnlineEvalResult:
    """TSR by ``canvas_predicate_judge`` and the runs' mean time and steps."""
    if not runs:
        raise EmptyCorpus("eval_online needs at least one run")
    successes = sum(1 for run in runs if canvas_predicate_judge(run))
    total_time = left_sum(run.total_time for run in runs)
    total_steps = sum(len(run.trajectory.steps) for run in runs)
    return OnlineEvalResult(
        tsr=successes / len(runs),
        mean_completion_time=total_time / len(runs),
        mean_steps=total_steps / len(runs),
        mean_step_latency=total_time / total_steps if total_steps else 0.0,
    )


# --- reports --------------------------------------------------------------


def render_table(title: str, headers: list[str], rows: list[list[str]]) -> str:
    if not rows:
        return f"{title}\n(no data)\n"
    widths = [
        max(len(headers[i]), max(len(row[i]) for row in rows)) for i in range(len(headers))
    ]
    lines = [title]
    lines.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def _csv_text(headers: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def _pct(value: float) -> str:
    return f"{value * 100:.1f}"


def report_plans(results: Mapping[str, PlanEvalResult]) -> tuple[str, str]:
    headers = ["Model", "TSR (%)", "Step Precision (%)", "Step Recall (%)"]
    rows = [
        [name, _pct(r.tsr), _pct(r.step_precision), _pct(r.step_recall)]
        for name, r in sorted(results.items())
    ]
    return render_table("Planning performance", headers, rows), _csv_text(headers, rows)


def _metric_table(
    title: str, results: Mapping, metrics: list[tuple[str, Callable]]
) -> tuple[str, str]:
    """A "Metric x model" table: one row per (label, result -> text) metric,
    one column per model in name order."""
    names = sorted(results)
    headers = ["Metric"] + names
    rows = [[label] + [text(results[name]) for name in names] for label, text in metrics]
    return render_table(title, headers, rows), _csv_text(headers, rows)


def report_actions(results: Mapping[str, ActionEvalResult]) -> tuple[str, str]:
    metrics = [
        ("Object Acc (%)", lambda r: _pct(r.object_acc)),
        ("Operation Acc (%)", lambda r: _pct(r.operation_acc)),
        ("Status Acc (%)", lambda r: _pct(r.status_acc)),
        ("Step Success Rate (SSR) (%)", lambda r: _pct(r.ssr)),
        ("Task Success Rate (TSR) (%)", lambda r: _pct(r.tsr)),
    ]
    return _metric_table("Decision-making performance", results, metrics)


def report_online(results: Mapping[str, OnlineEvalResult]) -> tuple[str, str]:
    metrics = [
        ("Task Success Rate (%)", lambda r: _pct(r.tsr)),
        ("Task Completion Time (s)", lambda r: f"{r.mean_completion_time:.2f}"),
        ("Task Completion Steps", lambda r: f"{r.mean_steps:.2f}"),
        ("Average Step Latency (s)", lambda r: f"{r.mean_step_latency:.2f}"),
    ]
    return _metric_table("Online performance", results, metrics)


def write_reports(out_dir, sections: list[tuple[str, str]]) -> tuple[str, str]:
    """Concatenate (text, csv) sections and write report.txt / report.csv."""
    out = Path(out_dir)
    text = "\n".join(t for t, _ in sections)
    csv_text = "\n".join(c for _, c in sections)
    write_text(out / "report.txt", text)
    write_text(out / "report.csv", csv_text)
    return text, csv_text
