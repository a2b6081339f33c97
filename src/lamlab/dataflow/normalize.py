"""Raw record filtering and standardization.

Dropping, never failing: foreign-language text, far too short or long tasks,
empty or bloated plans, off-platform topics, unknown source tags, and
duplicate tasks all silently leave the corpus here.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..textutil import ascii_letter_ratio, normalize_line
from .records import SOURCES, TaskPlanRecord

__all__ = ["DEFAULT_OFF_PLATFORM", "normalize_sources"]

DEFAULT_OFF_PLATFORM = (
    "smartphone",
    "android",
    "iphone",
    "ipad",
    "macos",
    "mac os",
    "chromebook",
)

MIN_TASK_CHARS = 10
MAX_TASK_CHARS = 200
MAX_PLAN_STEPS = 20
MIN_ASCII_LETTER_RATIO = 0.9


def normalize_sources(raw_records: Iterable[Mapping]) -> list[TaskPlanRecord]:
    kept: list[TaskPlanRecord] = []
    seen_tasks: set[str] = set()
    for i, raw in enumerate(raw_records):
        task = str(raw.get("task", "")).strip()
        source = raw.get("source", "")
        task_id = str(raw.get("task_id") or f"rec_{i:04d}")
        plan = [str(step).strip() for step in raw.get("plan", []) if str(step).strip()]

        if source not in SOURCES:
            continue
        if not MIN_TASK_CHARS <= len(task) <= MAX_TASK_CHARS:
            continue
        if not 1 <= len(plan) <= MAX_PLAN_STEPS:
            continue
        if ascii_letter_ratio(task) < MIN_ASCII_LETTER_RATIO:
            continue
        low = task.lower()
        if any(keyword in low for keyword in DEFAULT_OFF_PLATFORM):
            continue
        key = normalize_line(task)
        if key in seen_tasks:
            continue
        seen_tasks.add(key)
        kept.append(TaskPlanRecord(task_id=task_id, task=task, plan=tuple(plan), source=source))
    kept.sort(key=lambda r: r.task_id)
    return kept
