"""Command-line orchestration with determinism controls.

Subcommands: ``dataflow run --stage <...>``, ``train --phase <1..4>``,
``agent run --task --template``, ``eval <plan|actions|online>``, ``report``.
Every run writes a manifest (config snapshot, seed, input/output digests)
under ``runs/`` in the workspace. Exit codes: 0 success, 1 validation
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

from . import evaluation
from .agent import AgentConfig, ModelPolicy, RunRecord, run_task
from .dataflow import STAGES, PipelineConfig, run_all, run_stage, stage_files
from .dataflow.records import EvolutionConfig
from .errors import ConfigError, LamLabError
from .fixtures import fixture_path
from .jsonl import read_jsonl, sha256_file, text_field, texts_field, write_jsonl, write_text
from .oracle import MemoizingOracle, MockOracle, RemoteOracle, RemoteOracleConfig
from .policy import ModelParams
from .training import PhaseConfigs, checkpoint_dir, run_phase

__all__ = ["RunConfig", "main", "app"]

_CONFIG_KEYS = {
    "workspace",
    "seed",
    "workers",
    "oracle",
    "clock",
    "evolution",
    "training",
    "agent",
}
_ORACLE_KEYS = {"provider", "endpoint", "model", "auth_env", "timeout_s"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _build(cls, name: str, **values):
    """``cls(**values)``; a value or key it rejects is a ``ConfigError``."""
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} config: {exc}") from exc


def _phase_configs(training: dict) -> PhaseConfigs:
    """``PhaseConfigs()`` with the values of the config file's
    ``training.<phase>`` objects in place."""
    defaults = PhaseConfigs()
    merged = {}
    for key, values in training.items():
        try:
            merged[key] = dataclasses.replace(getattr(defaults, key), **values)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad training.{key} config: {exc}") from exc
    return dataclasses.replace(defaults, **merged)


@dataclasses.dataclass
class RunConfig:
    workspace: str = ".lamlab"
    seed: int = 0
    workers: int = PipelineConfig().workers
    oracle: dict = dataclasses.field(default_factory=lambda: {"provider": "mock"})
    clock: str = "real"  # "real" | "zero"
    evolution: dict = dataclasses.field(default_factory=dict)
    training: dict = dataclasses.field(default_factory=dict)
    agent: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        """Every value is checked before any work starts: a bad one is a
        ``ConfigError``. ``workers``, ``evolution``, ``agent``, ``training``
        and a remote ``oracle`` are checked by the config objects built
        here."""
        if not isinstance(self.workspace, str):
            raise ConfigError(f"workspace must be a string, got {self.workspace!r}")
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        for name in ("oracle", "evolution", "training", "agent"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be an object")
        if self.clock not in ("real", "zero"):
            raise ConfigError(f"unknown clock {self.clock!r}")
        unknown = set(self.oracle) - _ORACLE_KEYS
        if unknown:
            raise ConfigError(f"unknown oracle config keys {sorted(unknown)}")
        timeout = self.oracle.get("timeout_s", 30.0)
        if not _is_number(timeout) or timeout <= 0:
            raise ConfigError(f"oracle.timeout_s must be a positive number, got {timeout!r}")
        oracle = dict(self.oracle)
        provider = oracle.pop("provider", "mock")
        if provider not in ("mock", "remote"):
            raise ConfigError(f"unknown oracle provider {provider!r}")
        # Plain attributes, not fields: the manifest records the fields only.
        self.remote_oracle = None
        if provider == "remote":
            self.remote_oracle = _build(RemoteOracleConfig, "oracle", **oracle)
        evolution = _build(EvolutionConfig, "evolution", **self.evolution)
        self.pipeline = _build(PipelineConfig, "run", workers=self.workers, evolution=evolution)
        self.agent_config = _build(AgentConfig, "agent", **self.agent)
        self.phase_configs = _phase_configs(self.training)

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "RunConfig":
        data: dict = {}
        if path:
            try:
                data = json.loads(Path(path).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
            if not isinstance(data, dict):
                raise ConfigError("config file must hold a JSON object")
            unknown = set(data) - _CONFIG_KEYS
            if unknown:
                raise ConfigError(f"unknown config keys {sorted(unknown)}")
        merged = {**data, **{k: v for k, v in overrides.items() if v is not None}}
        try:
            return cls(**merged)
        except TypeError as exc:
            raise ConfigError(f"bad config values: {exc}") from exc

    def make_oracle(self):
        if self.remote_oracle is None:
            return MockOracle()
        return MemoizingOracle(RemoteOracle(self.remote_oracle))

    def make_clock(self):
        return time.perf_counter if self.clock == "real" else lambda: 0.0


def _digests(paths) -> dict:
    return {str(p): sha256_file(p) for p in sorted(paths) if Path(p).is_file()}


def _write_manifest(config: RunConfig, command: str, inputs, outputs) -> None:
    run_dir = Path(config.workspace) / "runs" / command.replace(" ", "_")
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": dataclasses.asdict(config),
        "seed": config.seed,
        "inputs": _digests(inputs),
        "outputs": _digests(outputs),
    }
    write_text(run_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _cmd_dataflow(args, config: RunConfig) -> int:
    workspace = Path(config.workspace)
    oracle = config.make_oracle()
    files = stage_files(workspace)
    raw = files["raw"]
    if args.input:
        try:
            data = Path(args.input).read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read input {args.input}: {exc.strerror}") from exc
        raw.parent.mkdir(parents=True, exist_ok=True)
        raw.write_bytes(data)
    elif not raw.is_file():
        raw.parent.mkdir(parents=True, exist_ok=True)
        raw.write_bytes(Path(fixture_path("raw_records.jsonl")).read_bytes())
    if args.stage == "all":
        reports = run_all(workspace, oracle, config.pipeline)
    else:
        reports = [run_stage(args.stage, workspace, oracle, config.pipeline)]
    for report in reports:
        print(
            f"{report.stage}: read {report.read}, wrote {report.written}, "
            f"skipped {len(report.skipped)}"
        )
    _write_manifest(config, f"dataflow_{args.stage}", [raw], list(files.values()))
    return 0


def _cmd_train(args, config: RunConfig) -> int:
    workspace = Path(config.workspace)
    oracle = config.make_oracle()
    out = run_phase(args.phase, workspace, oracle, config.phase_configs, seed=config.seed)
    print(f"phase {args.phase}: checkpoint at {out}")
    files = stage_files(workspace)
    _write_manifest(
        config,
        f"train_phase{args.phase}",
        list(files.values()),
        [out / "weights.json", out / "manifest.json"],
    )
    return 0


def _cmd_agent(args, config: RunConfig) -> int:
    workspace = Path(config.workspace)
    params = ModelParams.load(
        Path(args.policy) if args.policy else checkpoint_dir(workspace, "lam4") / "weights.json"
    )
    agent_cfg = config.agent_config
    if args.mode:
        agent_cfg = dataclasses.replace(agent_cfg, mode=args.mode)
    policy = ModelPolicy(params=params, mode=agent_cfg.mode, seed=config.seed)
    record = run_task(
        policy,
        args.template,
        args.task,
        config=agent_cfg,
        task_id=args.task_id,
        clock=config.make_clock(),
    )
    run_file = workspace / "runs" / "agent" / f"{args.task_id}.jsonl"
    write_jsonl(run_file, [record.to_dict()])
    print(f"outcome: {record.outcome} in {len(record.step_times)} steps")
    _write_manifest(config, f"agent_{args.task_id}", [], [run_file])
    return 0


def _task_steps(parse_step):
    """Parser of eval rows ``{"task_id", "steps"}``; no task id is on two rows."""
    seen: set[str] = set()

    def parse(row: dict) -> tuple:
        task_id, steps = text_field(row, "task_id"), row["steps"]
        if not isinstance(steps, list):
            raise TypeError("steps must be a list")
        if task_id in seen:
            raise ValueError(f"duplicate task_id {task_id!r}")
        seen.add(task_id)
        return task_id, [parse_step(s) for s in steps]

    return parse


def _plan_row(row: dict) -> tuple:
    """(task, pred, truth) of an ``eval plan`` row; both plans are lists of
    strings."""
    pred, truth = texts_field(row, "pred"), texts_field(row, "truth")
    return row.get("task", row.get("task_id", "")), pred, truth


def _cmd_eval(args, config: RunConfig) -> int:
    workspace = Path(config.workspace)
    reports_dir = workspace / "reports"
    name = args.name
    if args.kind == "plan":
        pairs = read_jsonl(args.pairs, _plan_row)
        result = evaluation.eval_plans(pairs)
        text, csv_text = evaluation.report_plans({name: result})
        inputs = [args.pairs]
    elif args.kind == "actions":
        preds = dict(read_jsonl(args.pred, _task_steps(evaluation.PredictedStep.from_dict)))
        truths = dict(read_jsonl(args.truth, _task_steps(evaluation.GroundTruthStep.from_dict)))
        result = evaluation.eval_actions(preds, truths)
        text, csv_text = evaluation.report_actions({name: result})
        inputs = [args.pred, args.truth]
    else:
        runs = read_jsonl(args.runs, RunRecord.from_dict)
        result = evaluation.eval_online(runs)
        text, csv_text = evaluation.report_online({name: result})
        inputs = [args.runs]
    print(text, end="")
    write_text(reports_dir / f"report_{args.kind}.txt", text)
    write_text(reports_dir / f"report_{args.kind}.csv", csv_text)
    _write_manifest(
        config,
        f"eval_{args.kind}",
        inputs,
        [reports_dir / f"report_{args.kind}.txt", reports_dir / f"report_{args.kind}.csv"],
    )
    return 0


def _cmd_report(args, config: RunConfig) -> int:
    reports_dir = Path(config.workspace) / "reports"
    sections = []
    for kind in ("plan", "actions", "online"):
        txt = reports_dir / f"report_{kind}.txt"
        csv_file = reports_dir / f"report_{kind}.csv"
        if txt.is_file():
            sections.append((txt.read_text(encoding="utf-8"), csv_file.read_text(encoding="utf-8")))
    if not sections:
        sections = [("No evaluation results found.\n(no data)\n", "metric,value\n")]
    text, _ = evaluation.write_reports(reports_dir, sections)
    print(text, end="")
    _write_manifest(
        config, "report", [], [reports_dir / "report.txt", reports_dir / "report.csv"]
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamlab",
        description="Desk-scale workbench: data pipeline, training phases, agent runs, evaluation.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--workspace", help="workspace directory")
    parser.add_argument("--seed", type=int, help="global seed")
    parser.add_argument(
        "--workers",
        type=int,
        help="oracle requests in flight in the instantiate and judge stages, for a provider "
        "that waits on the network (the mock oracle runs inline)",
    )
    parser.add_argument("--clock", choices=["real", "zero"], help="timing source")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dataflow = sub.add_parser("dataflow", help="run data pipeline stages")
    df_sub = p_dataflow.add_subparsers(dest="df_command", required=True)
    p_df_run = df_sub.add_parser("run")
    p_df_run.add_argument("--stage", choices=list(STAGES) + ["all"], required=True)
    p_df_run.add_argument("--input", help="raw records file (defaults to the bundled corpus)")

    p_train = sub.add_parser("train", help="run a training phase")
    p_train.add_argument("--phase", type=int, choices=[1, 2, 3, 4], required=True)

    p_agent = sub.add_parser("agent", help="run the agent on a task")
    agent_sub = p_agent.add_subparsers(dest="agent_command", required=True)
    p_agent_run = agent_sub.add_parser("run")
    p_agent_run.add_argument("--task", required=True)
    p_agent_run.add_argument("--template", required=True)
    p_agent_run.add_argument("--policy", help="checkpoint weights file")
    p_agent_run.add_argument("--mode", choices=["argmax", "sample"])
    p_agent_run.add_argument("--task-id", default="task")

    p_eval = sub.add_parser("eval", help="compute metrics")
    eval_sub = p_eval.add_subparsers(dest="kind", required=True)
    p_eval_plan = eval_sub.add_parser("plan")
    p_eval_plan.add_argument("--pairs", required=True, help="jsonl with task/pred/truth")
    p_eval_plan.add_argument("--name", default="model")
    p_eval_actions = eval_sub.add_parser("actions")
    p_eval_actions.add_argument("--pred", required=True)
    p_eval_actions.add_argument("--truth", required=True)
    p_eval_actions.add_argument("--name", default="model")
    p_eval_online = eval_sub.add_parser("online")
    p_eval_online.add_argument("--runs", required=True)
    p_eval_online.add_argument("--name", default="model")

    sub.add_parser("report", help="assemble written reports")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = RunConfig.load(
            args.config,
            {
                "workspace": args.workspace,
                "seed": args.seed,
                "workers": args.workers,
                "clock": args.clock,
            },
        )
        if args.command == "dataflow":
            return _cmd_dataflow(args, config)
        if args.command == "train":
            return _cmd_train(args, config)
        if args.command == "agent":
            return _cmd_agent(args, config)
        if args.command == "eval":
            return _cmd_eval(args, config)
        if args.command == "report":
            return _cmd_report(args, config)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LamLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
