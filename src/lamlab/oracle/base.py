"""Oracle request/response types, prompt template rendering, strict parsing.

Prompt templates are text assets with ``{placeholder}`` substitution (literal
braces doubled). Rendering is strict in both directions: a missing
substitution and an unknown substitution are both template errors. Parsing is
total: every raw response is classified as parsed-ok or malformed, never
partially repaired.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Mapping, Protocol

from ..errors import TemplateError

__all__ = [
    "OracleRequest",
    "OracleResponse",
    "Provider",
    "load_prompt",
    "template_placeholders",
    "render_prompt",
    "split_messages",
    "parse_response",
    "RESPONSE_SCHEMAS",
]


@dataclass(frozen=True)
class OracleRequest:
    template_id: str
    substitutions: Mapping[str, str] = field(default_factory=dict)

    def cache_key(self) -> str:
        return json.dumps(
            {"template": self.template_id, "subs": dict(sorted(self.substitutions.items()))},
            sort_keys=True,
        )


@dataclass
class OracleResponse:
    raw_text: str
    parsed: dict | None
    parse_error: str | None = None
    latency_s: float = 0.0
    attempts: int = 1


class Provider(Protocol):
    """A text-generation backend.

    ``waits_on_io`` says whether a ``complete`` call waits on something
    outside this process, such as the network. Only then do the pipeline's
    oracle stages keep several calls in flight; a provider that computes its
    answer under the interpreter lock is called inline, one request at a
    time. A provider that does not declare it is taken to wait.
    """

    waits_on_io: bool

    def complete(self, request: OracleRequest) -> OracleResponse: ...


# Required top-level keys of each template's structured response.
RESPONSE_SCHEMAS: dict[str, tuple[str, ...]] = {
    "instantiate": ("observation", "thought", "new_task", "actions_plan"),
    "judge": ("task_quality", "task_complete", "complete_judgement", "quality_judgement"),
    "evolve": ("evolved_task", "evolved_plan"),
}


@lru_cache(maxsize=None)
def load_prompt(template_id: str) -> str:
    path = resources.files("lamlab") / "oracle" / "prompts" / f"{template_id}.txt"
    try:
        return path.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise TemplateError(f"no prompt template named {template_id!r}") from exc


@lru_cache(maxsize=None)
def template_placeholders(template_id: str) -> frozenset[str]:
    text = load_prompt(template_id)
    names = set()
    for _, field_name, _, _ in string.Formatter().parse(text):
        if field_name is None:
            continue
        if field_name == "" or field_name.isdigit():
            raise TemplateError(f"template {template_id!r} has a positional placeholder")
        names.add(field_name)
    return frozenset(names)


def render_prompt(template_id: str, substitutions: Mapping[str, str]) -> str:
    expected = template_placeholders(template_id)
    given = set(substitutions)
    missing = expected - given
    if missing:
        raise TemplateError(f"template {template_id!r} missing substitutions {sorted(missing)}")
    unknown = given - expected
    if unknown:
        raise TemplateError(f"template {template_id!r} got unknown substitutions {sorted(unknown)}")
    return load_prompt(template_id).format_map(dict(substitutions))


def split_messages(rendered: str) -> list[dict]:
    """Split a rendered template into chat messages.

    Templates that use the ``system: |-`` / ``user: |-`` / ``assistant: |-``
    layout become one message per section; anything else is a single user
    message.
    """
    markers = ("system: |-", "user: |-", "assistant: |-")
    lines = rendered.splitlines()
    sections: list[tuple[str, list[str]]] = []
    for line in lines:
        if line.rstrip() in markers:
            sections.append((line.split(":", 1)[0], []))
        elif sections:
            sections[-1][1].append(line.removeprefix("  "))
    if not sections:
        return [{"role": "user", "content": rendered}]
    return [
        {"role": role, "content": "\n".join(body).strip("\n")} for role, body in sections
    ]


def parse_response(template_id: str, raw_text: str) -> tuple[dict | None, str | None]:
    """Strict structured parse. Returns (parsed, None) or (None, reason)."""
    try:
        obj = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        return None, f"response is not valid JSON: {exc}"
    if not isinstance(obj, dict):
        return None, f"response must be a JSON object, got {type(obj).__name__}"
    required = RESPONSE_SCHEMAS.get(template_id, ())
    missing = [key for key in required if key not in obj]
    if missing:
        return None, f"response missing required keys {missing}"
    return obj, None
