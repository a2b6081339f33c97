"""The four-phase training pipeline.

Phase 1 teaches plan generation from task-plan pairs; phase 2 imitates expert
step records; phase 3 self-boosts on failed tasks and re-trains on the merged
corpus; phase 4 trains the reward model on every judged step (executed
successes and failures, then the boost successes) and runs offline PPO over
the failure steps; only phase 3 asks the oracle, to judge its attempts. Each
phase writes its checkpoints through ``_save``: a weights file and a manifest
(data type, source, in/out format, size, config snapshot, seed, input digests).
"""

from __future__ import annotations

import dataclasses
import json
from functools import partial
from pathlib import Path
from typing import Sequence

from ..dataflow import (
    judge_trajectory,
    postprocess,
    record_inputs,
    stage_files,
    task_plan_stage,
    validate_training_record,
)
from ..dataflow.records import InstantiatedTask, TaskPlanRecord, Trajectory, verdict_row
from ..errors import EmptyCorpus, MissingPredecessor, StepActionNotInCandidateSet, ValidationFailure
from ..env_sim import ActionCall
from ..jsonl import read_jsonl, sha256_file, write_jsonl, write_text
from ..oracle import Provider
from ..policy import AgentState, ModelParams, build_plan_vocab, enumerate_candidates, match_expert
from .boost import self_boost
from .configs import PhaseConfigs, SftConfig
from .losses import (
    imitation_loss,
    learning_rate_at,
    prepare_imitation,
    prepare_plans,
    prepare_status,
    sft_plan_loss,
    sgd,
    status_loss,
    train_params,
)
from .ppo import compute_advantage, ppo_update
from .reward import RewardedStep, RewardModelParams, train_reward_model

__all__ = [
    "run_phase",
    "checkpoint_dir",
    "load_checkpoint",
    "records_to_imitation",
    "collect_failed_tasks",
]


def checkpoint_dir(workspace: str | Path, name: str) -> Path:
    return Path(workspace) / "checkpoints" / name


def load_checkpoint(workspace: str | Path, phase: int) -> ModelParams:
    path = checkpoint_dir(workspace, f"lam{phase}") / "weights.json"
    if not path.is_file():
        raise MissingPredecessor(f"phase {phase} checkpoint missing at {path}")
    return ModelParams.load(path)


def _save(workspace: Path, name: str, params, **manifest) -> Path:
    """Write checkpoint ``name``: the weights of ``params`` and a manifest of
    ``manifest``'s values."""
    out = checkpoint_dir(workspace, name)
    params.save(out / "weights.json")
    text = json.dumps({"model": name, **manifest}, indent=2, sort_keys=True)
    write_text(out / "manifest.json", text + "\n")
    return out


def _input_digests(paths: Sequence[Path]) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in paths if p.is_file()}


# --- record adapters ----------------------------------------------------------

def records_to_imitation(records: Sequence[dict]) -> list[list[tuple[AgentState, ActionCall]]]:
    """Group training records by trajectory into (state, expert action) steps;
    each action carries its record's status. The records must pass
    ``validate_training_record``; the phases check them as they read them. Two
    records for one step of one trajectory, or a trajectory whose steps do not
    run 1..n, are a ValidationFailure."""
    grouped: dict[str, dict[int, dict]] = {}
    for rec in records:
        tid, step_no = rec["trajectory_id"], rec["step_no"]
        first = grouped.setdefault(tid, {}).setdefault(step_no, rec)
        if first is not rec:
            raise ValidationFailure(
                f"trajectory {tid!r} has two records for step {step_no}: "
                f"{first['record_id']!r} and {rec['record_id']!r}"
            )
    trajectories = []
    for tid in sorted(grouped):
        missing = [k for k in range(1, len(grouped[tid]) + 1) if k not in grouped[tid]]
        if missing:
            raise ValidationFailure(f"trajectory {tid!r} has no record for step {missing[0]}")
        steps = []
        for _, row in sorted(grouped[tid].items()):
            out = row["output"]
            action = ActionCall(
                step=out["thought"],
                control_label=out["control_label"],
                control_text=out["control_name"],
                function=out["function"],
                args=dict(out["args"]),
                status=out["status"],
            )
            steps.append((AgentState.from_record_input(row["input"]), action))
        trajectories.append(steps)
    return trajectories


def _training_row(row: dict) -> dict:
    """One ``training.jsonl`` row, checked by ``validate_training_record``."""
    problems = validate_training_record(row)
    if problems:
        raise ValueError("; ".join(problems))
    return row


def _judged_trajectories(workspace: str | Path) -> list[tuple[Trajectory, bool]]:
    """Each executed trajectory with whether it succeeded (executed to success
    and judged complete); a malformed row is a ValidationFailure at path:line."""
    files = stage_files(workspace)
    trajectories = read_jsonl(files["execute"], Trajectory.from_dict)
    verdicts_file = files["judge"]
    verdicts = read_jsonl(verdicts_file, verdict_row) if verdicts_file.is_file() else []
    complete = {tid: verdict.task_complete for tid, verdict in verdicts}
    return [
        (traj, traj.final_status == "success" and complete.get(traj.trajectory_id) == "yes")
        for traj in trajectories
    ]


def collect_failed_tasks(workspace: str | Path) -> list[InstantiatedTask]:
    """The tasks of the trajectories that failed execution or whose verdict
    was not yes."""
    return [traj.origin for traj, success in _judged_trajectories(workspace) if not success]


# --- phases ---------------------------------------------------------------

def run_phase(
    phase: int,
    workspace: str | Path,
    oracle: Provider,
    configs: PhaseConfigs = PhaseConfigs(),
    seed: int = 0,
) -> Path:
    if phase == 3:
        return _phase3(Path(workspace), oracle, configs, seed)
    run = {1: _phase1, 2: _phase2, 4: _phase4}.get(phase)
    if run is None:
        raise ValueError(f"unknown phase {phase!r}")
    return run(Path(workspace), configs, seed)


def _boost_file(workspace: Path) -> Path:
    """Phase 3's self-boosted training records, beside the expert ones."""
    return stage_files(workspace)["postprocess"].with_name("boost_training.jsonl")


def _phase1(workspace: Path, configs: PhaseConfigs, seed: int) -> Path:
    source = stage_files(workspace)[task_plan_stage(workspace)]
    records = read_jsonl(source, TaskPlanRecord.from_dict)
    if not records:
        raise EmptyCorpus("task-plan corpus is empty")
    vocab = build_plan_vocab([list(r.plan) for r in records])
    params = ModelParams.zeros(plan_vocab=vocab)
    params = _descend(
        params, prepare_plans(records, params.plan_vocab), sft_plan_loss, configs.sft, seed
    )
    return _save(
        workspace,
        "lam1",
        params,
        data_type="task-plan pairs",
        data_source="normalized corpus + evolved variants",
        input_to_output="task -> plan",
        data_size=len(records),
        config=configs.sft.__dict__,
        seed=seed,
        inputs=_input_digests([source]),
    )


def _descend(params: ModelParams, examples: Sequence, loss_fn, config: SftConfig, seed: int):
    """Minibatch SGD with the warmup/cosine schedule of ``config``."""
    step = sgd(partial(learning_rate_at, config=config))
    return train_params(params, examples, loss_fn, step, config.batch_size, config.epochs, seed)


def _imitation_phase(
    workspace: Path,
    params: ModelParams,
    records: list[dict],
    name: str,
    configs: PhaseConfigs,
    seed: int,
    **manifest,
) -> Path:
    """Train the action head, then the status head, on ``records``; save the
    result as checkpoint ``name`` with ``manifest``'s values added."""
    trajectories = records_to_imitation(records)
    if not trajectories:
        raise EmptyCorpus(f"{name}: no trajectories to imitate")
    params = _descend(
        params, prepare_imitation(trajectories), imitation_loss, configs.imitation, seed
    )
    statuses = [(state, action.status) for steps in trajectories for state, action in steps]
    params = _descend(params, prepare_status(statuses), status_loss, configs.imitation, seed + 1)
    return _save(
        workspace,
        name,
        params,
        data_type="task-action trajectories",
        input_to_output="state -> action",
        data_size=len(trajectories),
        config=configs.imitation.__dict__,
        seed=seed,
        **manifest,
    )


def _phase2(workspace: Path, configs: PhaseConfigs, seed: int) -> Path:
    params = load_checkpoint(workspace, 1)
    source = stage_files(workspace)["postprocess"]
    records = read_jsonl(source, _training_row)
    if not records:
        raise EmptyCorpus("training record corpus is empty")
    return _imitation_phase(
        workspace,
        params,
        records,
        "lam2",
        configs,
        seed,
        data_source="expert demonstrations",
        inputs=_input_digests([source]),
    )


def _phase3(workspace: Path, oracle: Provider, configs: PhaseConfigs, seed: int) -> Path:
    params = load_checkpoint(workspace, 2)
    source = stage_files(workspace)["postprocess"]
    expert_records = read_jsonl(source, _training_row)
    if not expert_records:
        raise EmptyCorpus("phase 3 needs the expert training records")

    failed = collect_failed_tasks(workspace)
    boosted = self_boost(
        params,
        failed,
        judge=lambda traj: judge_trajectory(traj, oracle),
        config=configs.boost,
        seed=seed,
    )
    boost_records = [r for traj, verdict in boosted for r in postprocess(traj, verdict)]
    boost_file = _boost_file(workspace)
    write_jsonl(boost_file, (r.to_line() for r in boost_records))
    return _imitation_phase(
        workspace,
        params,
        expert_records + [r.to_dict() for r in boost_records],
        "lam3",
        configs,
        seed,
        data_source="expert demonstrations + self-boosted successes",
        inputs=_input_digests([source, boost_file]),
        expert_trajectories=len({r["trajectory_id"] for r in expert_records}),
        boost_trajectories=len(boosted),
        failed_tasks_attempted=len(failed),
    )


def _materializes(state: AgentState, action: ActionCall) -> bool:
    """Whether ``action`` is one of the candidates of ``state``."""
    try:
        match_expert(enumerate_candidates(state), action)
    except StepActionNotInCandidateSet:
        return False
    return True


def _phase4(workspace: Path, configs: PhaseConfigs, seed: int) -> Path:
    params = load_checkpoint(workspace, 3)
    files = stage_files(workspace)
    boost_file = _boost_file(workspace)
    inputs = _input_digests([files["execute"], files["judge"], boost_file])
    # (state, action, succeeded): every executed step in trajectory order,
    # then phase 3's boost successes. The reward model's shuffle follows
    # this order.
    judged = [
        (AgentState.from_record_input(record_input), step.action, success)
        for traj, success in _judged_trajectories(workspace)
        for step, record_input in zip(traj.steps, record_inputs(traj))
    ]
    if boost_file.is_file():
        boosted = records_to_imitation(read_jsonl(boost_file, _training_row))
        judged += [(state, action, True) for steps in boosted for state, action in steps]
    if not judged:
        raise EmptyCorpus("phase 4 has no rewarded steps")

    rewarded = [RewardedStep(state=s, action=a, reward=1 if ok else -1) for s, a, ok in judged]
    rm_params, final_mse = train_reward_model(
        RewardModelParams.zeros(), rewarded, configs.rm, seed=seed
    )
    _save(
        workspace,
        "rm",
        rm_params,
        data_type="task-action-reward trajectories",
        data_source="success and failure trajectories",
        input_to_output="(state, action) -> reward",
        data_size=len(rewarded),
        final_train_mse=final_mse,
        config=configs.rm.__dict__,
        seed=seed,
        inputs=inputs,
    )

    # PPO over the failure steps only; steps whose actions cannot be
    # materialized from their states carry no gradient and are dropped.
    usable = [(s, a) for s, a, ok in judged if not ok and _materializes(s, a)]
    diagnostics = None
    if usable:
        rewards = [rm_params.normalized(state, action) for state, action in usable]
        advantages = compute_advantage(rewards, configs.ppo)
        params, diagnostics = ppo_update(
            params, params, usable, advantages, configs.ppo, seed=seed
        )
    return _save(
        workspace,
        "lam4",
        params,
        data_type="task-action-reward trajectories",
        data_source="reward model + failure trajectories",
        input_to_output="(state, reward) -> action",
        data_size=len(usable),
        config=configs.ppo.__dict__,
        seed=seed,
        inputs=inputs,
        ppo=None if diagnostics is None else dataclasses.asdict(diagnostics),
    )
