"""Bundled fixture data: a raw task-plan corpus and the synthetic task suite."""

from __future__ import annotations

from importlib import resources

from ..jsonl import read_jsonl

__all__ = ["fixture_path", "load_suite"]


def fixture_path(name: str) -> str:
    return str(resources.files("lamlab") / "fixtures" / name)


def load_suite() -> list[dict]:
    """The 50-task synthetic suite with scripted expert actions for 35 tasks."""
    return read_jsonl(fixture_path("suite_tasks.jsonl"))
