"""Factored linear-softmax policy.

Three heads over named weights:
  * action head (``act::<feature>``): scores every candidate action;
  * status head (``status::<feature>``): CONTINUE vs FINISH for the chosen
    action, the only way a step stops a run;
  * plan head (``plan::*``): autoregressive scoring over a plan-step
    vocabulary with an end token.

In training every head, and the reward model, scores sparse rows against a
dense weight vector with ``score_rows``; the plan head's rows are
``plan_rows`` over the ``plan_names`` layout. In inference the status and
plan heads score their rows the same way, but the action head scores a
state's candidates in one pass (``features.candidate_scores``), without a
row or a candidate object per pair; both read one definition of the
features, its block-ordered slots, and add a score's terms in the same
order, so the floats are equal. Every float sum here and in ``training``
adds left to right on every interpreter: ``left_sum``, or a plain loop in
the kernels. A single-row head (status, reward model) adds each row's
gradient with ``scatter_row``.
The softmax heads' training kernels (imitation, PPO, plan SFT) see whole
candidate sets: ``to_columns`` turns their rows into feature columns once,
a ``Column`` being (feature, candidate positions, values), with None for
the values of a unit column, whose values are all exactly 1.0. The gradient
goes in one feature at a time, each feature's terms in candidate order:
``scatter_columns`` adds them to running floats in a gradient dict,
``column_sums`` to fresh sums aligned with the columns (PPO's E[x] under a
step's probabilities is one such sum per column). A unit column adds
each coefficient as it is, the same float as the coefficient times 1.0, so
the floats equal the per-candidate ``scatter_row`` loop's. The one
``softmax`` is built on ``softmax_parts``, which the training kernels read
directly. Parameters are immutable values during inference; training
constructs new ones. Checkpoints are JSON weight tables keyed by feature
name; loading one with a missing table, an unknown name or a weight that is
not a finite number is an error that names its path.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Container, Iterable, Sequence

from ..errors import CheckpointError
from ..env_sim import ActionCall, STATUS_CONTINUE, STATUS_FINISH
from ..jsonl import write_text
from ..textutil import set_overlap, token_set
from .candidates import CandidateAction, candidate_at
from .features import FEATURE_NAMES, STATUS_FEATURES, SparseRow, candidate_scores, status_features
from .state import AgentState, _text_tokens

__all__ = [
    "END_TOKEN",
    "ModelParams",
    "ActionDistribution",
    "left_sum",
    "softmax_parts",
    "softmax",
    "sigmoid",
    "score_rows",
    "scatter_row",
    "Column",
    "to_columns",
    "column_sums",
    "scatter_columns",
    "action_distribution",
    "select_action",
    "plan_names",
    "plan_rows",
    "plan_overlaps",
    "generate_plan",
    "build_plan_vocab",
]

END_TOKEN = "<END>"
MAX_PLAN_STEPS = 20

ACT_NAMES = tuple(f"act::{name}" for name in FEATURE_NAMES)
STATUS_NAMES = tuple(f"status::{name}" for name in STATUS_FEATURES)


def left_sum(values: Iterable[float]) -> float:
    """0.0 + v0 + v1 + ..., added left to right. Unlike ``sum()``, which
    compensates float sums from CPython 3.12 on, it gives the same float on
    every interpreter, so trained weights do not depend on the version."""
    total = 0.0
    for value in values:
        total += value
    return total


def softmax_parts(scores: list[float]) -> tuple[list[float], list[float], float]:
    """The pieces of a numerically stable softmax: every score minus the
    highest, their exponentials, and the exponentials' ``left_sum``.
    Probability i is ``exps[i] / total`` and log-probability i is
    ``shifted[i] - log(total)``."""
    m = max(scores)
    shifted = [s - m for s in scores]
    exps = list(map(math.exp, shifted))
    return shifted, exps, left_sum(exps)


def softmax(scores: list[float]) -> tuple[list[float], list[float]]:
    """Returns (probabilities, log-probabilities), numerically stable."""
    shifted, exps, total = softmax_parts(scores)
    log_total = math.log(total)
    return [e / total for e in exps], [d - log_total for d in shifted]


def sigmoid(logit: float) -> float:
    """1 / (1 + e^-logit), and 0.0 where e^-logit overflows (a logit below
    about -709)."""
    try:
        return 1.0 / (1.0 + math.exp(-logit))
    except OverflowError:
        return 0.0


def score_rows(w: Sequence[float], rows: Iterable[SparseRow]) -> list[float]:
    """The score of every sparse row under the dense weights ``w``. A feature
    a row skips would add w * 0.0 = +-0.0, which never changes a float sum
    started at +0.0, so the scores equal the dense dot products exactly. Each
    score adds its terms left to right, as ``left_sum`` does."""
    scores = []
    for idx, xs in rows:
        score = 0.0
        for j, x in zip(idx, xs):
            score += w[j] * x
        scores.append(score)
    return scores


def scatter_row(grads: dict[int, float], coef: float, row: SparseRow) -> None:
    """Adds ``coef * x`` to ``grads[j]`` for every feature ``j`` of the row:
    the gradient of ``coef * score`` with respect to the weights it reads."""
    for j, x in zip(*row):
        grads[j] = grads.get(j, 0.0) + coef * x


# One feature of a candidate set: (feature index, candidate positions in
# increasing order, the feature's value at each), where a column whose values
# are all exactly 1.0 holds None for its values: a unit column.
Column = tuple[int, tuple[int, ...], tuple[float, ...] | None]


def to_columns(rows: Sequence[SparseRow]) -> tuple[Column, ...]:
    """The features of candidate rows as columns, in the order the candidates
    first use them (candidate by candidate, each row's features in its own
    order): the order in which a per-candidate loop first touches them. A
    column whose every value is exactly 1.0 is a unit column."""
    columns: dict[int, tuple[list[int], list[float]]] = {}
    for k, (idx, xs) in enumerate(rows):
        for j, x in zip(idx, xs):
            column = columns.get(j)
            if column is None:
                column = columns[j] = ([], [])
            column[0].append(k)
            column[1].append(x)
    return tuple(
        (j, tuple(ks), None if xs.count(1.0) == len(xs) else tuple(xs))
        for j, (ks, xs) in columns.items()
    )


def column_sums(coefs: Sequence[float], columns: Iterable[Column]) -> list[float]:
    """For every column, 0.0 plus ``coefs[k] * x`` for every entry (k, x),
    added one at a time in candidate order: the column's share of the
    gradient of ``sum_k coefs[k] * score_k``. A unit column adds ``coefs[k]``
    itself, the same float as ``coefs[k] * 1.0``. This must stay a plain
    loop: ``sum()`` compensates float sums from CPython 3.12 on, and
    ``math.fsum`` rounds once, so either would change the trained weights."""
    sums = []
    for _, positions, values in columns:
        s = 0.0
        if values is None:
            for k in positions:
                s += coefs[k]
        else:
            for k, x in zip(positions, values):
                s += coefs[k] * x
        sums.append(s)
    return sums


def scatter_columns(
    grads: dict[int, float], coefs: Sequence[float], columns: Iterable[Column]
) -> None:
    """Adds every column's terms to its feature's running float in ``grads``,
    the loop of ``column_sums`` started at ``grads.get(j, 0.0)``, so the
    result equals ``scatter_row(grads, coefs[k], row_k)`` for k = 0, 1, ..."""
    for j, positions, values in columns:
        g = grads.get(j, 0.0)
        if values is None:
            for k in positions:
                g += coefs[k]
        else:
            for k, x in zip(positions, values):
                g += coefs[k] * x
        grads[j] = g


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

    # Dense weight vectors aligned with FEATURE_NAMES / STATUS_FEATURES /
    # plan_names (over the positions generate_plan decodes), read once per
    # instance: parameters are never changed in place.
    @cached_property
    def act_weights(self) -> tuple[float, ...]:
        return tuple(self.weights.get(name, 0.0) for name in ACT_NAMES)

    @cached_property
    def status_weights(self) -> tuple[float, ...]:
        return tuple(self.weights.get(name, 0.0) for name in STATUS_NAMES)

    @cached_property
    def plan_weights(self) -> tuple[float, ...]:
        return tuple(map(self.get, plan_names(self.plan_vocab, MAX_PLAN_STEPS)))

    def replaced(self, updates: dict[str, float]) -> "ModelParams":
        merged = dict(self.weights)
        merged.update(updates)
        return ModelParams(weights=merged, plan_vocab=self.plan_vocab)

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
        """The parameters ``save`` wrote to ``path``; any other content, an
        unknown feature name or a weight that is not a finite number is a
        CheckpointError naming the path."""
        try:
            # Every JSON number as a float, so that a huge integer is inf.
            payload = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=float)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("kind") != "policy":
            raise CheckpointError(f"checkpoint {path} is not a policy checkpoint")
        weights = payload.get("weights")
        if not isinstance(weights, dict):
            raise CheckpointError(f"checkpoint {path}: weights must be an object")
        plan_vocab = payload.get("plan_vocab")
        if not isinstance(plan_vocab, list) or not all(isinstance(v, str) for v in plan_vocab):
            raise CheckpointError(f"checkpoint {path}: plan_vocab must be a list of strings")
        vocab = set(plan_vocab)
        for name, value in weights.items():
            if not isinstance(value, float):
                raise CheckpointError(f"checkpoint {path}: weight {name!r} is not a number")
            if not math.isfinite(value):
                raise CheckpointError(
                    f"checkpoint {path}: weight {name!r} is not finite: {value!r}"
                )
            if not _known_feature(name, vocab):
                raise CheckpointError(f"checkpoint {path}: unknown feature name {name!r}")
        return cls(weights=weights, plan_vocab=tuple(plan_vocab))


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
    """The action head's scores of a state's candidates, in
    ``enumerate_candidates`` order, and the status head's P(FINISH) for the
    chosen action. The softmax is computed on first read, and a candidate is
    built only when it is asked for by index."""

    state: AgentState
    scores: tuple[float, ...]
    finish_prob: float

    @cached_property
    def _softmax(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        probs, log_probs = softmax(list(self.scores))
        return tuple(probs), tuple(log_probs)

    @property
    def probs(self) -> tuple[float, ...]:
        return self._softmax[0]

    @property
    def log_probs(self) -> tuple[float, ...]:
        return self._softmax[1]

    def candidate(self, index: int) -> CandidateAction:
        return candidate_at(self.state, index)


def action_distribution(state: AgentState, params: ModelParams) -> ActionDistribution:
    (logit,) = score_rows(params.status_weights, [status_features(state)])
    return ActionDistribution(
        state=state,
        scores=tuple(candidate_scores(state, params.act_weights)),
        finish_prob=sigmoid(logit),
    )


def select_action(
    state: AgentState,
    params: ModelParams,
    mode: str = "argmax",
    seed: int | None = None,
) -> ActionCall:
    dist = action_distribution(state, params)
    if mode == "argmax":
        # The highest score wins; a tie goes to the first of the tied
        # candidates in enumeration order.
        chosen = dist.candidate(dist.scores.index(max(dist.scores)))
        finish = dist.finish_prob > 0.5
    elif mode == "sample":
        rng = random.Random(seed)
        r = rng.random()
        cumulative = 0.0
        best = len(dist.scores) - 1
        for i, p in enumerate(dist.probs):
            cumulative += p
            if r < cumulative:
                best = i
                break
        chosen = dist.candidate(best)
        finish = rng.random() < dist.finish_prob
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return chosen.to_action_call(STATUS_FINISH if finish else STATUS_CONTINUE)


# --- plan head ----------------------------------------------------------------

def build_plan_vocab(plans: list[list[str]]) -> tuple[str, ...]:
    steps = sorted({step for plan in plans for step in plan})
    return tuple(steps) + (END_TOKEN,)


def plan_overlaps(task: str, vocab: tuple[str, ...]) -> tuple[float, ...]:
    """Token overlap of every vocabulary entry with the task (0.0 for the end
    token, whose score has no overlap term). The task is tokenized once per
    call; the entries' token sets come from the bounded cache that the agent
    state's texts share."""
    task_tokens = token_set(task)
    return tuple(
        0.0 if v == END_TOKEN else set_overlap(_text_tokens(v), task_tokens) for v in vocab
    )


@lru_cache(maxsize=16)
def plan_names(vocab: tuple[str, ...], positions: int) -> tuple[str, ...]:
    """The plan head's weight names in dense order: each entry's bias, then
    ``plan::overlap`` and ``plan::used``, then the entry weights of each
    position 1..positions."""
    return (
        *(f"plan::bias::{v}" for v in vocab),
        "plan::overlap",
        "plan::used",
        *(f"plan::pos::{p}::{v}" for p in range(1, positions + 1) for v in vocab),
    )


def plan_rows(
    vocab: tuple[str, ...], position: int, overlaps: Sequence[float], used: Container[str]
) -> list[SparseRow]:
    """One sparse row per vocabulary entry at a plan position, over the
    ``plan_names`` layout: the entry's bias and its position weight, then,
    for every entry but the end token, its overlap with the task and, if the
    plan already holds it, the used weight. The terms are in the order a score
    adds them."""
    n = len(vocab)
    pos = n + 2 + (position - 1) * n
    rows = []
    for i, (v, overlap) in enumerate(zip(vocab, overlaps)):
        if v == END_TOKEN:
            rows.append(((i, pos + i), (1.0, 1.0)))
        elif v in used:
            rows.append(((i, pos + i, n, n + 1), (1.0, 1.0, overlap, 1.0)))
        else:
            rows.append(((i, pos + i, n), (1.0, 1.0, overlap)))
    return rows


def generate_plan(task: str, params: ModelParams) -> list[str]:
    """Greedy autoregressive decode over MAX_PLAN_STEPS positions; the end
    token is barred at position 1 so every generated plan has at least one
    step."""
    vocab = params.plan_vocab
    if not vocab:
        return []
    overlaps = plan_overlaps(task, vocab)
    plan: list[str] = []
    used: set[str] = set()
    for position in range(1, MAX_PLAN_STEPS + 1):
        scores = score_rows(params.plan_weights, plan_rows(vocab, position, overlaps, used))
        best, best_score = None, None
        for v, score in zip(vocab, scores):
            if v == END_TOKEN and position == 1:
                continue
            if best_score is None or score > best_score:
                best, best_score = v, score
        if best == END_TOKEN or best is None:
            break
        plan.append(best)
        used.add(best)
    return plan
