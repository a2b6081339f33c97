"""Pluggable text-generation providers and prompt template machinery."""

from .base import (
    RESPONSE_SCHEMAS,
    OracleRequest,
    OracleResponse,
    Provider,
    load_prompt,
    parse_response,
    render_prompt,
    split_messages,
    template_placeholders,
)
from .mock import EVOLUTION_CLAUSES, MockOracle
from .remote import MemoizingOracle, RemoteOracle, RemoteOracleConfig

__all__ = [
    "RESPONSE_SCHEMAS",
    "OracleRequest",
    "OracleResponse",
    "Provider",
    "load_prompt",
    "parse_response",
    "render_prompt",
    "split_messages",
    "template_placeholders",
    "EVOLUTION_CLAUSES",
    "MockOracle",
    "MemoizingOracle",
    "RemoteOracle",
    "RemoteOracleConfig",
]
