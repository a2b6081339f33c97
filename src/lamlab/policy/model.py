"""Factored linear-softmax policy.

Three heads over named weights:
  * action head (``act::<feature>``): scores every candidate action;
  * status head (``status::<feature>``): CONTINUE vs FINISH for the chosen action;
  * plan head (``plan::*``): autoregressive scoring over a plan-step
    vocabulary with an end token.

Parameters are immutable values during inference; training constructs new
ones. Checkpoints are JSON weight tables keyed by feature name; loading a
checkpoint with unknown names is an error.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from pathlib import Path

from ..errors import CheckpointError
from ..env_sim import ActionCall, STATUS_CONTINUE, STATUS_FINISH
from ..jsonl import write_text
from ..textutil import token_overlap
from .candidates import CandidateAction, enumerate_candidates
from .features import FEATURE_NAMES, STATUS_FEATURES, featurize, status_features
from .state import AgentState

__all__ = [
    "END_TOKEN",
    "ModelParams",
    "ActionDistribution",
    "softmax",
    "action_distribution",
    "select_action",
    "PlanWeights",
    "plan_overlaps",
    "generate_plan",
    "build_plan_vocab",
]

END_TOKEN = "<END>"
MAX_PLAN_STEPS = 20

ACT_NAMES = tuple(f"act::{name}" for name in FEATURE_NAMES)
STATUS_NAMES = tuple(f"status::{name}" for name in STATUS_FEATURES)


def softmax(scores: list[float]) -> tuple[list[float], list[float]]:
    """Returns (probabilities, log-probabilities), numerically stable."""
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    total = sum(exps)
    log_total = math.log(total)
    probs = [e / total for e in exps]
    log_probs = [(s - m) - log_total for s in scores]
    return probs, log_probs


@dataclass(frozen=True)
class ModelParams:
    weights: dict[str, float] = field(default_factory=dict)
    plan_vocab: tuple[str, ...] = ()

    @classmethod
    def zeros(cls, plan_vocab: tuple[str, ...] = ()) -> "ModelParams":
        vocab = tuple(plan_vocab)
        if vocab and END_TOKEN not in vocab:
            vocab = vocab + (END_TOKEN,)
        weights = {f"act::{name}": 0.0 for name in FEATURE_NAMES}
        weights.update({f"status::{name}": 0.0 for name in STATUS_FEATURES})
        weights.update({"plan::overlap": 0.0, "plan::used": 0.0})
        for v in vocab:
            weights[f"plan::bias::{v}"] = 0.0
        return cls(weights=weights, plan_vocab=vocab)

    def get(self, name: str) -> float:
        return self.weights.get(name, 0.0)

    # Dense weight vectors aligned with FEATURE_NAMES / STATUS_FEATURES, read
    # once per instance: parameters are never changed in place.
    @cached_property
    def act_weights(self) -> tuple[float, ...]:
        return tuple(self.weights.get(name, 0.0) for name in ACT_NAMES)

    @cached_property
    def status_weights(self) -> tuple[float, ...]:
        return tuple(self.weights.get(name, 0.0) for name in STATUS_NAMES)

    def replaced(self, updates: dict[str, float]) -> "ModelParams":
        merged = dict(self.weights)
        merged.update(updates)
        return ModelParams(weights=merged, plan_vocab=self.plan_vocab)

    def scaled(self, factor: float) -> "ModelParams":
        return ModelParams(
            weights={k: v * factor for k, v in self.weights.items()},
            plan_vocab=self.plan_vocab,
        )

    def validate(self) -> None:
        vocab = set(self.plan_vocab)
        for name, value in self.weights.items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise CheckpointError(f"weight {name!r} is not finite: {value!r}")
            if not _known_feature(name, vocab):
                raise CheckpointError(f"unknown feature name {name!r}")

    def save(self, path: str | Path) -> None:
        payload = {
            "format_version": 1,
            "kind": "policy",
            "plan_vocab": list(self.plan_vocab),
            "weights": dict(sorted(self.weights.items())),
        }
        write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ModelParams":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        if payload.get("kind") != "policy":
            raise CheckpointError(f"checkpoint {path} is not a policy checkpoint")
        params = cls(
            weights={k: float(v) for k, v in payload.get("weights", {}).items()},
            plan_vocab=tuple(payload.get("plan_vocab", ())),
        )
        params.validate()
        return params


def _known_feature(name: str, vocab: set[str]) -> bool:
    if name.startswith("act::"):
        return name[len("act::") :] in FEATURE_NAMES
    if name.startswith("status::"):
        return name[len("status::") :] in STATUS_FEATURES
    if name in ("plan::overlap", "plan::used"):
        return True
    if name.startswith("plan::bias::"):
        return name[len("plan::bias::") :] in vocab
    if name.startswith("plan::pos::"):
        rest = name[len("plan::pos::") :]
        pos_str, sep, step = rest.partition("::")
        return bool(sep) and pos_str.isdigit() and step in vocab
    return False


@dataclass(frozen=True)
class ActionDistribution:
    candidates: tuple[CandidateAction, ...]
    scores: tuple[float, ...]
    probs: tuple[float, ...]
    log_probs: tuple[float, ...]
    finish_prob: float  # status head: P(FINISH) for a non-finish action


def action_distribution(
    state: AgentState,
    params: ModelParams,
    candidates: list[CandidateAction] | None = None,
) -> ActionDistribution:
    if candidates is None:
        candidates = enumerate_candidates(state)
    weights = params.act_weights
    scores = [sum(map(mul, weights, featurize(state, c))) for c in candidates]
    probs, log_probs = softmax(scores)
    logit = sum(map(mul, params.status_weights, status_features(state)))
    finish_prob = 1.0 / (1.0 + math.exp(-logit))
    return ActionDistribution(
        candidates=tuple(candidates),
        scores=tuple(scores),
        probs=tuple(probs),
        log_probs=tuple(log_probs),
        finish_prob=finish_prob,
    )


def select_action(
    state: AgentState,
    params: ModelParams,
    mode: str = "argmax",
    seed: int | None = None,
) -> ActionCall:
    dist = action_distribution(state, params)
    if mode == "argmax":
        best = max(
            range(len(dist.candidates)),
            key=lambda i: (dist.scores[i], _neg_sort_key(dist.candidates[i])),
        )
        finish = dist.finish_prob > 0.5
    elif mode == "sample":
        rng = random.Random(seed)
        r = rng.random()
        cumulative = 0.0
        best = len(dist.candidates) - 1
        for i, p in enumerate(dist.probs):
            cumulative += p
            if r < cumulative:
                best = i
                break
        finish = rng.random() < dist.finish_prob
    else:
        raise ValueError(f"unknown mode {mode!r}")
    candidate = dist.candidates[best]
    if candidate.is_finish:
        return candidate.to_action_call()
    return candidate.to_action_call(STATUS_FINISH if finish else STATUS_CONTINUE)


class _NegKey:
    """Inverts comparison so max() breaks score ties by the *lowest* sort key."""

    __slots__ = ("key",)

    def __init__(self, key: tuple):
        self.key = key

    def __lt__(self, other: "_NegKey") -> bool:
        return self.key > other.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NegKey) and self.key == other.key


def _neg_sort_key(candidate: CandidateAction) -> _NegKey:
    return _NegKey(candidate.sort_key())


# --- plan head ----------------------------------------------------------------

def build_plan_vocab(plans: list[list[str]]) -> tuple[str, ...]:
    steps = sorted({step for plan in plans for step in plan})
    return tuple(steps) + (END_TOKEN,)


def plan_overlaps(task: str, vocab: tuple[str, ...]) -> tuple[float, ...]:
    """Token overlap of every vocabulary entry with the task (0.0 for the end
    token, whose score has no overlap term)."""
    return tuple(0.0 if v == END_TOKEN else token_overlap(v, task) for v in vocab)


class PlanWeights:
    """The plan head's weights over one vocabulary, read from the parameters
    once; the weights of a position are read when it is first scored."""

    def __init__(self, params: ModelParams, vocab: tuple[str, ...]):
        self.params = params
        self.vocab = vocab
        self.bias_names = [f"plan::bias::{v}" for v in vocab]
        self.bias = [params.get(name) for name in self.bias_names]
        self.overlap_weight = params.get("plan::overlap")
        self.used_weight = params.get("plan::used")
        self._positions: dict[int, tuple[list[str], list[float]]] = {}

    def position(self, position: int) -> tuple[list[str], list[float]]:
        """Names and values of the ``plan::pos::<position>::*`` weights."""
        entry = self._positions.get(position)
        if entry is None:
            names = [f"plan::pos::{position}::{v}" for v in self.vocab]
            entry = self._positions[position] = (names, [self.params.get(n) for n in names])
        return entry

    def scores(self, position: int, overlaps: tuple[float, ...], used: set[str]) -> list[float]:
        _, pos = self.position(position)
        scores = []
        for v, bias, pos_weight, overlap in zip(self.vocab, self.bias, pos, overlaps):
            score = bias
            score += pos_weight
            if v != END_TOKEN:
                score += self.overlap_weight * overlap
                if v in used:
                    score += self.used_weight
            scores.append(score)
        return scores


def generate_plan(task: str, params: ModelParams, max_steps: int = MAX_PLAN_STEPS) -> list[str]:
    """Greedy autoregressive decode; the end token is barred at position 1 so
    every generated plan has at least one step."""
    if not params.plan_vocab:
        return []
    weights = PlanWeights(params, params.plan_vocab)
    overlaps = plan_overlaps(task, params.plan_vocab)
    plan: list[str] = []
    used: set[str] = set()
    for position in range(1, max_steps + 1):
        scores = weights.scores(position, overlaps, used)
        best, best_score = None, None
        for v, score in zip(params.plan_vocab, scores):
            if v == END_TOKEN and position == 1:
                continue
            if best_score is None or score > best_score:
                best, best_score = v, score
        if best == END_TOKEN or best is None:
            break
        plan.append(best)
        used.add(best)
    return plan
