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
import sys
import time
from pathlib import Path

from . import evaluation
from .agent import AgentConfig, ModelPolicy, RunRecord, run_task
from .dataflow import STAGES, PipelineConfig, run_stage, stage_files
from .dataflow.records import EvolutionConfig
from .errors import ConfigError, LamLabError
from .fixtures import fixture_path
from .harness import desk_phase_configs
from .jsonl import read_jsonl, sha256_file, write_jsonl, write_text
from .oracle import MemoizingOracle, MockOracle, RemoteOracle, RemoteOracleConfig
from .policy import ModelParams
from .training import PhaseConfigs, run_phase

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


@dataclasses.dataclass
class RunConfig:
    workspace: str = ".lamlab"
    seed: int = 0
    workers: int = 6
    oracle: dict = dataclasses.field(default_factory=lambda: {"provider": "mock"})
    clock: str = "real"  # "real" | "zero"
    evolution: dict = dataclasses.field(default_factory=dict)
    training: dict = dataclasses.field(default_factory=dict)
    agent: dict = dataclasses.field(default_factory=dict)

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
        provider = self.oracle.get("provider", "mock")
        if provider == "mock":
            return MockOracle()
        if provider == "remote":
            try:
                remote = RemoteOracle(
                    RemoteOracleConfig(
                        endpoint=self.oracle["endpoint"],
                        model=self.oracle["model"],
                        auth_env=self.oracle.get("auth_env", "LAMLAB_ORACLE_TOKEN"),
                        timeout_s=float(self.oracle.get("timeout_s", 30.0)),
                    )
                )
            except KeyError as exc:
                raise ConfigError(f"remote oracle config missing {exc}") from exc
            return MemoizingOracle(remote)
        raise ConfigError(f"unknown oracle provider {provider!r}")

    def make_clock(self):
        if self.clock == "zero":
            return lambda: 0.0
        if self.clock == "real":
            return time.perf_counter
        raise ConfigError(f"unknown clock {self.clock!r}")

    def phase_configs(self) -> PhaseConfigs:
        """``harness.desk_phase_configs()`` with the values of the config file's
        ``training.<phase>`` objects in place."""
        desk = desk_phase_configs()
        merged = {}
        for key, values in self.training.items():
            try:
                merged[key] = dataclasses.replace(getattr(desk, key), **values)
            except (AttributeError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad training.{key} config: {exc}") from exc
        return dataclasses.replace(desk, **merged)


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
    files = stage_files(workspace)
    raw = files["raw"]
    if args.input:
        raw.parent.mkdir(parents=True, exist_ok=True)
        raw.write_bytes(Path(args.input).read_bytes())
    elif not raw.is_file():
        raw.parent.mkdir(parents=True, exist_ok=True)
        raw.write_bytes(Path(fixture_path("raw_records.jsonl")).read_bytes())
    oracle = config.make_oracle()
    pipeline_config = PipelineConfig(
        workers=config.workers,
        evolution=EvolutionConfig(**config.evolution) if config.evolution else EvolutionConfig(),
    )
    stages = list(STAGES) if args.stage == "all" else [args.stage]
    for stage in stages:
        report = run_stage(stage, workspace, oracle, pipeline_config)
        print(
            f"{report.stage}: read {report.read}, wrote {report.written}, "
            f"skipped {len(report.skipped)}"
        )
    _write_manifest(config, f"dataflow_{args.stage}", [raw], list(files.values()))
    return 0


def _cmd_train(args, config: RunConfig) -> int:
    workspace = Path(config.workspace)
    oracle = config.make_oracle()
    out = run_phase(args.phase, workspace, oracle, config.phase_configs(), seed=config.seed)
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
    params = ModelParams.load(Path(args.policy) if args.policy else workspace / "checkpoints" / "lam4" / "weights.json")
    agent_cfg = config.agent
    mode = args.mode or agent_cfg.get("mode", "argmax")
    policy = ModelPolicy(params=params, mode=mode, seed=config.seed)
    record = run_task(
        policy,
        args.template,
        args.task,
        config=AgentConfig(max_steps=int(agent_cfg.get("max_steps", 20)), mode=mode, seed=config.seed),
        task_id=args.task_id,
        clock=config.make_clock(),
    )
    out_dir = workspace / "runs" / "agent"
    run_file = out_dir / f"{args.task_id}.jsonl"
    write_jsonl(run_file, [record.trajectory.to_dict()])
    timing_file = out_dir / f"{args.task_id}.timing.json"
    write_text(
        timing_file,
        json.dumps(
            {
                "outcome": record.outcome,
                "step_times": list(record.step_times),
                "total_time": record.total_time,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    print(f"outcome: {record.outcome} in {len(record.step_times)} steps")
    _write_manifest(config, f"agent_{args.task_id}", [], [run_file, timing_file])
    return 0


def _load_run_records(path: str) -> list[RunRecord]:
    return [RunRecord.from_dict(obj) for obj in read_jsonl(path)]


def _cmd_eval(args, config: RunConfig) -> int:
    workspace = Path(config.workspace)
    reports_dir = workspace / "reports"
    name = args.name
    if args.kind == "plan":
        pairs = [
            (row.get("task", row.get("task_id", "")), row["pred"], row["truth"])
            for row in read_jsonl(args.pairs)
        ]
        result = evaluation.eval_plans(pairs)
        text, csv_text = evaluation.report_plans({name: result})
        inputs = [args.pairs]
    elif args.kind == "actions":
        preds = {
            row["task_id"]: [evaluation.PredictedStep.from_dict(s) for s in row["steps"]]
            for row in read_jsonl(args.pred)
        }
        truths = {
            row["task_id"]: [evaluation.GroundTruthStep.from_dict(s) for s in row["steps"]]
            for row in read_jsonl(args.truth)
        }
        result = evaluation.eval_actions(preds, truths)
        text, csv_text = evaluation.report_actions({name: result})
        inputs = [args.pred, args.truth]
    else:
        runs = _load_run_records(args.runs)
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
    parser.add_argument("--workers", type=int, help="worker pool size")
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
