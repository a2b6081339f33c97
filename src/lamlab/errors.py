"""Exception taxonomy shared across the workbench.

Every raised error is a subclass of :class:`LamLabError`, so callers (most
notably the CLI) can distinguish domain validation failures from plain bugs.
The value checks of the config dataclasses live here too, where every layer
can import them; a rejected value is a ``ValueError``.
"""

from __future__ import annotations

import math


def check_ints(config, minimum: int, *names: str) -> None:
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_numbers(config, *names: str, zero_ok: bool = False) -> None:
    for name in names:
        value = getattr(config, name)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and (0 <= value if zero_ok else 0 < value) and value < math.inf):
            bound = "at least 0" if zero_ok else "above 0"
            raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")


class LamLabError(Exception):
    """Base class for all workbench errors."""


class ConfigError(LamLabError):
    """Bad run configuration (unknown keys, unreadable file, bad values)."""


# --- simulated environment ------------------------------------------------

class UnknownTemplate(LamLabError):
    """Requested template id is not a built-in template."""


class UnknownControl(LamLabError):
    """No control matches the given label/text."""


class AmbiguousControl(LamLabError):
    """Two or more controls match at the same resolution tier."""


class UnknownFunction(LamLabError):
    """Action names a function that is not registered."""


class BadArgs(LamLabError):
    """Action arguments are missing, malformed, or unusable in this state."""


class DisabledControl(LamLabError):
    """Target control resolved but is disabled."""


# --- dataflow ---------------------------------------------------------------

class OracleFailure(LamLabError):
    """The text-generation provider failed to produce a usable response."""


class ValidationFailure(LamLabError):
    """A record violated a hard validator and was rejected."""


class NoTemplateMatch(LamLabError):
    """No template description shares a keyword with the task."""


class ParseFailure(LamLabError):
    """A structured oracle response could not be parsed into the expected shape."""


# --- policy / training ------------------------------------------------------

class StepActionNotInCandidateSet(LamLabError):
    """An expert action cannot be materialized from the state's controls."""


class DegenerateRatio(LamLabError):
    """Old-policy probability of a step action is numerically zero."""


class MissingPredecessor(LamLabError):
    """A training phase requires a checkpoint that does not exist."""


class EmptyCorpus(LamLabError):
    """A line-record file is missing, or a phase or an evaluation has no
    records to work on."""


class CheckpointError(LamLabError):
    """A checkpoint file is malformed or carries unknown feature names."""


# --- evaluation -------------------------------------------------------------

class MissingGroundTruth(LamLabError):
    """A predicted task has no aligned ground-truth trajectory."""


# --- oracle providers -------------------------------------------------------

class TemplateError(LamLabError):
    """Prompt template missing, or substitutions do not match its placeholders."""


class Timeout(LamLabError):
    """Remote provider did not answer within the retry budget."""
