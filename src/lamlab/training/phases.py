"""The four-phase training pipeline.

Phase 1 teaches plan generation from task-plan pairs; phase 2 imitates expert
step records; phase 3 self-boosts on failed tasks and re-trains on the merged
corpus; phase 4 trains the reward model on success/failure steps and runs
offline PPO over the failure trajectories. Each phase writes a checkpoint
directory with a weights file and a manifest (data type, source, in/out
format, size, config snapshot, seed, input digests).
"""

from __future__ import annotations

import dataclasses
import json
from functools import partial
from pathlib import Path
from typing import Sequence

from ..dataflow import judge_trajectory, postprocess, validate_training_record
from ..dataflow.records import EvaluationVerdict, TaskPlanRecord, TrainingRecord, Trajectory
from ..errors import EmptyCorpus, MissingPredecessor, StepActionNotInCandidateSet
from ..env_sim import ActionCall
from ..jsonl import parse_problems, read_jsonl, sha256_file, write_jsonl, write_text
from ..oracle import Provider
from ..policy import AgentState, ModelParams, build_plan_vocab, enumerate_candidates, match_expert
from .boost import FailedTask, self_boost
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
    "trajectory_to_imitation",
    "collect_failed_tasks",
]


def checkpoint_dir(workspace: str | Path, name: str) -> Path:
    return Path(workspace) / "checkpoints" / name


def load_checkpoint(workspace: str | Path, phase: int) -> ModelParams:
    path = checkpoint_dir(workspace, f"lam{phase}") / "weights.json"
    if not path.is_file():
        raise MissingPredecessor(f"phase {phase} checkpoint missing at {path}")
    return ModelParams.load(path)


def _write_manifest(directory: Path, manifest: dict) -> None:
    write_text(directory / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _input_digests(paths: Sequence[Path]) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in paths if p.is_file()}


# --- record adapters ----------------------------------------------------------

def _expert_action(output: dict) -> ActionCall:
    return ActionCall(
        step=output.get("thought", ""),
        control_label=output.get("control_label", ""),
        control_text=output.get("control_name", ""),
        function=output.get("function", ""),
        args=dict(output.get("args", {})),
        status=output.get("status", "CONTINUE"),
    )


def records_to_imitation(
    records: Sequence[dict],
) -> tuple[list[list[tuple[AgentState, ActionCall]]], list[tuple[AgentState, str]]]:
    """Group training records by trajectory into (state, expert action) steps,
    plus flat (state, status) pairs for the status head. The records must pass
    ``validate_training_record``; the phases check them as they read them."""
    grouped: dict[str, list[dict]] = {}
    for rec in records:
        grouped.setdefault(rec["trajectory_id"], []).append(rec)
    trajectories = []
    statuses = []
    for tid in sorted(grouped):
        rows = sorted(grouped[tid], key=lambda r: r["step_no"])
        steps = []
        for row in rows:
            state = AgentState.from_record_input(row["input"])
            action = _expert_action(row["output"])
            steps.append((state, action))
            statuses.append((state, row["output"]["status"]))
        trajectories.append(steps)
    return trajectories, statuses


def trajectory_to_imitation(traj: Trajectory) -> list[tuple[AgentState, ActionCall]]:
    """States as the agent saw them along an executed trajectory."""
    step_descs = [s.action.step for s in traj.steps]
    steps = []
    for k, step in enumerate(traj.steps, 1):
        history = tuple(
            (traj.steps[j].action, traj.steps[j].result.to_dict()) for j in range(k - 1)
        )
        state = AgentState(
            task=traj.origin.instantiated_task,
            step_id=k,
            controls=tuple(step.controls),
            previous_actions=history,
            previous_plan=() if k == 1 else tuple(step_descs[k - 1 :]),
        )
        steps.append((state, step.action))
    return steps


def _verdict(row: dict) -> tuple[str, str]:
    """(trajectory id, task_complete) of one ``verdicts.jsonl`` row."""
    verdict = EvaluationVerdict.from_dict(row)
    if not isinstance(row["trajectory_id"], str):
        raise TypeError("trajectory_id must be a string")
    return row["trajectory_id"], verdict.task_complete


def _judged_trajectories(corpus: Path) -> list[tuple[Trajectory, bool]]:
    """Each executed trajectory with whether it succeeded (executed to success
    and judged complete); a malformed row is a ValidationFailure at path:line."""
    traj_file = corpus / "trajectories.jsonl"
    if not traj_file.is_file():
        raise EmptyCorpus(f"no trajectories at {traj_file}")
    verdicts_file = corpus / "verdicts.jsonl"
    rows = read_jsonl(verdicts_file, parse_problems(_verdict)) if verdicts_file.is_file() else []
    verdict_by_tid = dict(map(_verdict, rows))
    rows = read_jsonl(traj_file, parse_problems(Trajectory.from_dict))
    return [
        (traj, traj.final_status == "success" and verdict_by_tid.get(traj.trajectory_id) == "yes")
        for traj in map(Trajectory.from_dict, rows)
    ]


def collect_failed_tasks(workspace: str | Path) -> list[FailedTask]:
    """Tasks whose trajectory failed execution or whose verdict was not yes."""
    return [
        FailedTask(
            task_id=traj.origin.origin_task_id,
            template_id=traj.origin.template_id,
            task=traj.origin.instantiated_task,
        )
        for traj, success in _judged_trajectories(Path(workspace) / "corpus")
        if not success
    ]


# --- phases ---------------------------------------------------------------

def run_phase(
    phase: int,
    workspace: str | Path,
    oracle: Provider,
    configs: PhaseConfigs = PhaseConfigs(),
    seed: int = 0,
    bundle_dir: str | Path | None = None,
) -> Path:
    workspace = Path(workspace)
    if phase == 1:
        return _phase1(workspace, configs, seed)
    if phase == 2:
        return _phase2(workspace, configs, seed)
    if phase == 3:
        return _phase3(workspace, oracle, configs, seed, bundle_dir)
    if phase == 4:
        return _phase4(workspace, configs, seed)
    raise ValueError(f"unknown phase {phase!r}")


def _task_plan_file(workspace: Path) -> Path:
    corpus = workspace / "corpus"
    evolved = corpus / "evolved.jsonl"
    return evolved if evolved.is_file() else corpus / "taskplan.jsonl"


def _phase1(workspace: Path, configs: PhaseConfigs, seed: int) -> Path:
    source = _task_plan_file(workspace)
    if not source.is_file():
        raise EmptyCorpus(f"no task-plan corpus at {source}")
    rows = read_jsonl(source, parse_problems(TaskPlanRecord.from_dict))
    records = [TaskPlanRecord.from_dict(o) for o in rows]
    if not records:
        raise EmptyCorpus("task-plan corpus is empty")
    vocab = build_plan_vocab([list(r.plan) for r in records])
    params = ModelParams.zeros(plan_vocab=vocab)
    params = _descend(
        params,
        prepare_plans(records, params.plan_vocab),
        lambda p, batch: sft_plan_loss(p, batch, step_mean=True),
        configs.sft,
        seed,
    )
    out = checkpoint_dir(workspace, "lam1")
    params.save(out / "weights.json")
    _write_manifest(
        out,
        {
            "model": "lam1",
            "data_type": "task-plan pairs",
            "data_source": "normalized corpus + evolved variants",
            "input_to_output": "task -> plan",
            "data_size": len(records),
            "config": configs.sft.__dict__,
            "seed": seed,
            "inputs": _input_digests([source]),
        },
    )
    return out


def _descend(params: ModelParams, examples: Sequence, loss_fn, config: SftConfig, seed: int):
    """Minibatch SGD with the warmup/cosine schedule of ``config``."""
    step = sgd(partial(learning_rate_at, config=config))
    return train_params(params, examples, loss_fn, step, config.batch_size, config.epochs, seed)


def _imitation_phase(
    workspace: Path,
    params: ModelParams,
    records: list[dict],
    name: str,
    data_source: str,
    configs: PhaseConfigs,
    seed: int,
    inputs: list[Path],
    extra_manifest: dict | None = None,
) -> Path:
    trajectories, statuses = records_to_imitation(records)
    if not trajectories:
        raise EmptyCorpus(f"{name}: no trajectories to imitate")
    step_mean = configs.imitation.step_mean
    params = _descend(
        params,
        prepare_imitation(trajectories),
        lambda p, batch: imitation_loss(p, batch, step_mean=step_mean),
        configs.imitation,
        seed,
    )
    params = _descend(
        params,
        prepare_status(statuses),
        lambda p, batch: status_loss(p, batch),
        configs.imitation,
        seed + 1,
    )
    out = checkpoint_dir(workspace, name)
    params.save(out / "weights.json")
    manifest = {
        "model": name,
        "data_type": "task-action trajectories",
        "data_source": data_source,
        "input_to_output": "state -> action",
        "data_size": len(trajectories),
        "config": configs.imitation.__dict__,
        "seed": seed,
        "inputs": _input_digests(inputs),
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    _write_manifest(out, manifest)
    return out


def _phase2(workspace: Path, configs: PhaseConfigs, seed: int) -> Path:
    params = load_checkpoint(workspace, 1)
    source = workspace / "corpus" / "training.jsonl"
    if not source.is_file():
        raise EmptyCorpus(f"no training records at {source}")
    records = read_jsonl(source, validate_training_record)
    if not records:
        raise EmptyCorpus("training record corpus is empty")
    return _imitation_phase(
        workspace, params, records, "lam2", "expert demonstrations", configs, seed, [source]
    )


def _phase3(
    workspace: Path,
    oracle: Provider,
    configs: PhaseConfigs,
    seed: int,
    bundle_dir: str | Path | None,
) -> Path:
    params = load_checkpoint(workspace, 2)
    source = workspace / "corpus" / "training.jsonl"
    expert_records = read_jsonl(source, validate_training_record) if source.is_file() else []
    if not expert_records:
        raise EmptyCorpus("phase 3 needs the expert training records")

    failed = collect_failed_tasks(workspace)
    new_trajectories = self_boost(
        params,
        failed,
        judge=lambda traj: judge_trajectory(traj, oracle),
        config=configs.boost,
        bundle_dir=bundle_dir,
    )
    boost_records: list[TrainingRecord] = []
    for traj in new_trajectories:
        # Boost already kept judge-yes runs only; a remote judge may still
        # flip on the re-ask, so drop rather than crash on disagreement.
        verdict = judge_trajectory(traj, oracle)
        if verdict.task_complete != "yes":
            continue
        boost_records.extend(postprocess(traj, verdict))
    merged = expert_records + [r.to_dict() for r in boost_records]
    boost_file = workspace / "corpus" / "boost_training.jsonl"
    write_jsonl(boost_file, (r.to_dict() for r in boost_records))
    return _imitation_phase(
        workspace,
        params,
        merged,
        "lam3",
        "expert demonstrations + self-boosted successes",
        configs,
        seed,
        [source, boost_file],
        extra_manifest={
            "expert_trajectories": len({r["trajectory_id"] for r in expert_records}),
            "boost_trajectories": len(new_trajectories),
            "failed_tasks_attempted": len(failed),
        },
    )


def _phase4(workspace: Path, configs: PhaseConfigs, seed: int) -> Path:
    params = load_checkpoint(workspace, 3)
    corpus = workspace / "corpus"
    inputs = _input_digests([corpus / "trajectories.jsonl", corpus / "verdicts.jsonl"])
    boost_file = corpus / "boost_training.jsonl"
    boost_success_states: list[tuple[AgentState, ActionCall]] = []
    if boost_file.is_file():
        boost_trajs, _ = records_to_imitation(read_jsonl(boost_file, validate_training_record))
        for steps in boost_trajs:
            boost_success_states.extend(steps)

    rewarded: list[RewardedStep] = []
    failure_steps: list[tuple[AgentState, ActionCall]] = []
    for traj, success in _judged_trajectories(corpus):
        for state, action in trajectory_to_imitation(traj):
            if success:
                rewarded.append(RewardedStep(state=state, action=action, reward=1))
            else:
                rewarded.append(RewardedStep(state=state, action=action, reward=-1))
                failure_steps.append((state, action))
    for state, action in boost_success_states:
        rewarded.append(RewardedStep(state=state, action=action, reward=1))
    if not rewarded:
        raise EmptyCorpus("phase 4 has no rewarded steps")

    rm_params, final_mse = train_reward_model(
        RewardModelParams.zeros(), rewarded, configs.rm, seed=seed
    )
    rm_dir = checkpoint_dir(workspace, "rm")
    rm_params.save(rm_dir / "weights.json")
    _write_manifest(
        rm_dir,
        {
            "model": "rm",
            "data_type": "task-action-reward trajectories",
            "data_source": "success and failure trajectories",
            "input_to_output": "(state, action) -> reward",
            "data_size": len(rewarded),
            "final_train_mse": final_mse,
            "config": configs.rm.__dict__,
            "seed": seed,
            "inputs": inputs,
        },
    )

    # PPO over the failure trajectories only; steps whose actions cannot be
    # materialized from their states carry no gradient and are dropped.
    usable: list[tuple[AgentState, ActionCall]] = []
    for state, action in failure_steps:
        try:
            match_expert(enumerate_candidates(state), action)
        except StepActionNotInCandidateSet:
            continue
        usable.append((state, action))

    diagnostics = None
    if usable:
        rewards = [rm_params.normalized(state, action) for state, action in usable]
        advantages = compute_advantage(rewards, configs.ppo)
        params, diagnostics = ppo_update(
            params, params, usable, advantages, configs.ppo, seed=seed
        )

    out = checkpoint_dir(workspace, "lam4")
    params.save(out / "weights.json")
    _write_manifest(
        out,
        {
            "model": "lam4",
            "data_type": "task-action-reward trajectories",
            "data_source": "reward model + failure trajectories",
            "input_to_output": "(state, reward) -> action",
            "data_size": len(usable),
            "config": configs.ppo.__dict__,
            "seed": seed,
            "inputs": inputs,
            "ppo": None if diagnostics is None else dataclasses.asdict(diagnostics),
        },
    )
    return out
