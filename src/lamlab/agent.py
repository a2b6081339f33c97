"""The application-agent loop: observe, infer, ground, execute, remember.

One agent owns one environment session, where every step executes its action.
Execution errors are captured into the step result and the memory (the loop
continues and the policy can adapt); a run ends when the chosen action carries
FINISH, on the step budget, or after three consecutive errors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Protocol

from .dataflow.records import InstantiatedTask, Trajectory, record_step, record_trajectory
from .env_sim import (
    ActionCall,
    EnvSession,
    ExecutionResult,
    STATUS_FINISH,
    list_controls,
    load_template,
)
from .errors import check_ints
from .policy import AgentState, ModelParams, generate_plan, select_action

__all__ = [
    "Memory",
    "AgentConfig",
    "RunRecord",
    "Policy",
    "ModelPolicy",
    "ScriptedPolicy",
    "observe",
    "step",
    "run_task",
]

CONSECUTIVE_ERROR_LIMIT = 3


@dataclass(frozen=True)
class Memory:
    """Per-run log: executed actions with results, plus the latest plan."""

    historical_actions: tuple[tuple[ActionCall, dict], ...] = ()
    previous_plan: tuple[str, ...] = ()

    def extended(self, action: ActionCall, result: dict, plan: tuple[str, ...]) -> "Memory":
        return Memory(
            historical_actions=self.historical_actions + ((action, result),),
            previous_plan=plan,
        )


@dataclass(frozen=True)
class AgentConfig:
    max_steps: int = 20
    mode: str = "argmax"

    def __post_init__(self) -> None:
        check_ints(self, 1, "max_steps")
        if self.mode not in ("argmax", "sample"):
            raise ValueError(f"mode must be argmax or sample, got {self.mode!r}")


class Policy(Protocol):
    def decide(self, state: AgentState) -> tuple[ActionCall, tuple[str, ...]]:
        """Returns the action to take and the plan for the remaining steps."""
        ...


@dataclass
class ModelPolicy:
    """Wraps model parameters for use in the loop."""

    params: ModelParams
    mode: str = "argmax"
    seed: int = 0

    _plan_cache: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False)

    def decide(self, state: AgentState) -> tuple[ActionCall, tuple[str, ...]]:
        seed = None
        if self.mode == "sample":
            seed = (self.seed * 1_000_003 + state.step_id) & 0x7FFFFFFF
        action = select_action(state, self.params, mode=self.mode, seed=seed)
        if action.status == STATUS_FINISH:
            return action, ()
        if state.step_id == 1:
            full = tuple(generate_plan(state.task, self.params))
            self._plan_cache[state.task] = full
        full = self._plan_cache.get(state.task, state.previous_plan)
        remaining = full[state.step_id :] if len(full) > state.step_id else ()
        return action, remaining


@dataclass
class ScriptedPolicy:
    """Replays a fixed, non-empty action sequence; the last action carries FINISH."""

    actions: tuple[ActionCall, ...]
    _cursor: int = 0

    def __post_init__(self) -> None:
        if not self.actions:
            raise ValueError("a script needs at least one action")

    def decide(self, state: AgentState) -> tuple[ActionCall, tuple[str, ...]]:
        action = self.actions[self._cursor]
        self._cursor += 1
        is_last = self._cursor == len(self.actions)
        action = replace(action, status=STATUS_FINISH if is_last else action.status)
        plan = tuple(a.step for a in self.actions[self._cursor :])
        return action, plan


def observe(session: EnvSession, task: str, memory: Memory, step_id: int) -> AgentState:
    snapshot = session.current
    return AgentState(
        task=task,
        step_id=step_id,
        controls=tuple(list_controls(snapshot)),
        canvas_digest=snapshot.digest(),
        previous_actions=memory.historical_actions,
        previous_plan=memory.previous_plan,
    )


def step(
    policy: Policy, session: EnvSession, task: str, memory: Memory, step_id: int
) -> tuple[ActionCall, ExecutionResult, Memory]:
    state = observe(session, task, memory, step_id)
    action, plan = policy.decide(state)
    result = session.apply(action)
    memory = memory.extended(action, result.to_dict(), plan)
    return action, result, memory


@dataclass(frozen=True)
class RunRecord:
    task: str
    template_id: str
    trajectory: Trajectory
    outcome: str  # "finished" | "max_steps_exceeded" | "error"
    step_times: tuple[float, ...]
    total_time: float

    def __post_init__(self) -> None:
        if self.outcome not in ("finished", "max_steps_exceeded", "error"):
            raise ValueError(f"bad outcome {self.outcome!r}")
        if any(t < 0 for t in self.step_times) or self.total_time < 0:
            raise ValueError("timings must be non-negative")

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "template_id": self.template_id,
            "trajectory": self.trajectory.to_dict(),
            "outcome": self.outcome,
            "step_times": list(self.step_times),
            "total_time": self.total_time,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "RunRecord":
        return cls(
            task=obj["task"],
            template_id=obj["template_id"],
            trajectory=Trajectory.from_dict(obj["trajectory"]),
            outcome=obj["outcome"],
            step_times=tuple(obj["step_times"]),
            total_time=obj["total_time"],
        )


def run_task(
    policy: Policy,
    template_id: str,
    task: str,
    config: AgentConfig = AgentConfig(),
    task_id: str = "run",
    clock=time.perf_counter,
) -> RunRecord:
    session = EnvSession(load_template(template_id))
    memory = Memory()
    steps = []
    step_times: list[float] = []
    outcome = "max_steps_exceeded"
    consecutive_errors = 0

    for step_id in range(1, config.max_steps + 1):
        pre = session.current
        started = clock()
        action, result, memory = step(policy, session, task, memory, step_id)
        step_times.append(max(clock() - started, 0.0))
        steps.append(record_step(step_id, action, result, pre, session.current))
        if action.status == STATUS_FINISH:
            outcome = "finished"
            break
        consecutive_errors = 0 if result.ok else consecutive_errors + 1
        if consecutive_errors >= CONSECUTIVE_ERROR_LIMIT:
            outcome = "error"
            break

    all_ok = all(s.result.ok for s in steps)
    if outcome == "finished" and all_ok:
        final_status = "success"
    elif steps and not steps[-1].result.ok:
        final_status = "exec_error"
    else:
        # Ran out of budget, or recovered from mid-run errors: not a clean
        # success, and not an error-terminated trace either.
        final_status = "discarded"
    origin = InstantiatedTask(
        origin_task_id=task_id,
        instantiated_task=task,
        template_id=template_id,
        actions=tuple(s.action for s in steps),
    )
    trajectory = record_trajectory(
        f"run_{task_id}", origin, steps, final_status, session.initial, session.current
    )
    return RunRecord(
        task=task,
        template_id=template_id,
        trajectory=trajectory,
        outcome=outcome,
        step_times=tuple(step_times),
        total_time=sum(step_times),
    )
