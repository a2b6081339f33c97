"""Command-line interface: stages, phases, agent runs, evals, exit codes."""

import json
import shutil

import pytest

from lamlab.cli import main
from lamlab.jsonl import read_jsonl, write_jsonl


@pytest.fixture(scope="module")
def pipeline_ws(tmp_path_factory):
    """One workspace with the full fixture pipeline + phases 1-2 run."""
    ws = tmp_path_factory.mktemp("cli_ws")
    assert main(["--workspace", str(ws), "--clock", "zero",
                 "dataflow", "run", "--stage", "all"]) == 0
    assert main(["--workspace", str(ws), "train", "--phase", "1"]) == 0
    assert main(["--workspace", str(ws), "train", "--phase", "2"]) == 0
    return ws


def test_dataflow_all_produces_training_file(pipeline_ws):
    training = read_jsonl(pipeline_ws / "corpus" / "training.jsonl")
    assert training
    from lamlab.dataflow import validate_training_record

    assert all(validate_training_record(rec) == [] for rec in training)


def test_dataflow_writes_manifest_with_digests(pipeline_ws):
    manifest = json.loads(
        (pipeline_ws / "runs" / "dataflow_all" / "manifest.json").read_text()
    )
    assert manifest["seed"] == 0
    outputs = manifest["outputs"]
    assert any(path.endswith("training.jsonl") for path in outputs)
    for digest in outputs.values():
        assert len(digest) == 64


def test_train_checkpoints_exist(pipeline_ws):
    assert (pipeline_ws / "checkpoints" / "lam1" / "weights.json").is_file()
    manifest = json.loads(
        (pipeline_ws / "checkpoints" / "lam2" / "manifest.json").read_text()
    )
    assert manifest["model"] == "lam2"
    assert manifest["input_to_output"] == "state -> action"


def test_train_phase4_without_lam3_fails_cleanly(pipeline_ws, capsys):
    code = main(["--workspace", str(pipeline_ws), "train", "--phase", "4"])
    assert code == 1
    assert "MissingPredecessor" in capsys.readouterr().err


def test_agent_run_writes_trajectory_and_timing(pipeline_ws):
    code = main(
        [
            "--workspace",
            str(pipeline_ws),
            "--clock",
            "zero",
            "agent",
            "run",
            "--task",
            'Highlight the text "Test For Fun" in yellow in the document.',
            "--template",
            "plain_text",
            "--policy",
            str(pipeline_ws / "checkpoints" / "lam2" / "weights.json"),
            "--task-id",
            "t1",
        ]
    )
    assert code == 0
    trajectory = read_jsonl(pipeline_ws / "runs" / "agent" / "t1.jsonl")[0]
    assert trajectory["steps"]
    timing = json.loads((pipeline_ws / "runs" / "agent" / "t1.timing.json").read_text())
    assert timing["total_time"] == 0.0


def test_eval_plan_command(pipeline_ws, tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    write_jsonl(
        pairs,
        [
            {"task": "t1", "pred": ["go home"], "truth": ["Go home."]},
            {"task": "t2", "pred": [], "truth": ["other"]},
        ],
    )
    code = main(["--workspace", str(pipeline_ws), "eval", "plan", "--pairs", str(pairs)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Step Precision" in out
    assert (pipeline_ws / "reports" / "report_plan.csv").is_file()


def test_eval_actions_command(pipeline_ws, tmp_path):
    pred = tmp_path / "pred.jsonl"
    truth = tmp_path / "truth.jsonl"
    write_jsonl(
        pred,
        [{"task_id": "a", "steps": [{"control_text": "", "function": "select_text", "status": "FINISH"}]}],
    )
    write_jsonl(
        truth,
        [
            {
                "task_id": "a",
                "steps": [
                    {"acceptable_objects": [], "operation": "select_text", "status": "FINISH"}
                ],
            }
        ],
    )
    code = main(
        ["--workspace", str(pipeline_ws), "eval", "actions", "--pred", str(pred), "--truth", str(truth)]
    )
    assert code == 0
    csv_text = (pipeline_ws / "reports" / "report_actions.csv").read_text()
    assert "Task Success Rate (TSR) (%)" in csv_text
    assert "100.0" in csv_text


def test_report_command_collects_sections(pipeline_ws, capsys):
    code = main(["--workspace", str(pipeline_ws), "report"])
    assert code == 0
    assert (pipeline_ws / "reports" / "report.txt").is_file()
    assert (pipeline_ws / "reports" / "report.csv").is_file()


def test_report_without_results_prints_no_data(tmp_path, capsys):
    code = main(["--workspace", str(tmp_path), "report"])
    assert code == 0
    assert "(no data)" in capsys.readouterr().out


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_bad_config_file_exit_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"bogus_key": 1}')
    code = main(["--config", str(config), "--workspace", str(tmp_path), "report"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_config_file_with_cli_override(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"workspace": str(tmp_path / "from_config"), "seed": 5}))
    code = main(["--config", str(config), "--workspace", str(tmp_path / "cli_wins"), "report"])
    assert code == 0
    assert (tmp_path / "cli_wins" / "reports" / "report.txt").is_file()
    manifest = json.loads(
        (tmp_path / "cli_wins" / "runs" / "report" / "manifest.json").read_text()
    )
    assert manifest["seed"] == 5


@pytest.mark.parametrize(
    "line, reason", [("{not json", "bad JSON line"), ("[1, 2]", "line is not a JSON object")]
)
def test_corrupt_input_line_is_a_validation_failure(tmp_path, capsys, line, reason):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"task_id": "a"}\n' + line + "\n", encoding="utf-8")
    code = main(["--workspace", str(tmp_path / "ws"), "dataflow", "run",
                 "--stage", "all", "--input", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ValidationFailure: ")
    assert f"raw_records.jsonl:2: {reason}" in err


@pytest.mark.parametrize(
    "drift, reason",
    [
        (lambda rec: rec["output"].pop("status"), "output keys must be exactly"),
        (lambda rec: rec.pop("step_no"), "record missing step_no"),
        (lambda rec: rec.update(step_no="2"), "step_no must be a positive integer"),
    ],
    ids=["status_missing", "step_no_missing", "step_no_string"],
)
def test_schema_drifted_training_record_is_a_validation_failure(
    pipeline_ws, tmp_path, capsys, drift, reason
):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    training = ws / "corpus" / "training.jsonl"
    records = read_jsonl(training)
    drift(records[2])
    write_jsonl(training, records)
    code = main(["--workspace", str(ws), "train", "--phase", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ValidationFailure: ")
    assert f"training.jsonl:3: {reason}" in err


@pytest.fixture(scope="module")
def suite_corpus_ws(tmp_path_factory):
    """The suite's corpus files, plus zero-weight lam2 and lam3 checkpoints."""
    from lamlab.harness import build_suite_workspace
    from lamlab.policy import ModelParams

    ws = build_suite_workspace(tmp_path_factory.mktemp("suite_corpus") / "ws")
    for name in ("lam2", "lam3"):
        ModelParams.zeros().save(ws / "checkpoints" / name / "weights.json")
    return ws


@pytest.mark.parametrize(
    "phase, file, key",
    [
        (4, "trajectories.jsonl", "final_status"),
        (3, "trajectories.jsonl", "final_status"),
        (4, "trajectories.jsonl", "origin"),
        (4, "verdicts.jsonl", "task_complete"),
        (4, "verdicts.jsonl", "trajectory_id"),
        (1, "evolved.jsonl", "plan"),
    ],
)
def test_schema_drifted_corpus_row_is_a_validation_failure(
    suite_corpus_ws, tmp_path, capsys, phase, file, key
):
    ws = tmp_path / "ws"
    shutil.copytree(suite_corpus_ws, ws)
    path = ws / "corpus" / file
    rows = read_jsonl(path)
    del rows[1][key]
    write_jsonl(path, rows)
    code = main(["--workspace", str(ws), "train", "--phase", str(phase)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ValidationFailure: ")
    assert f"{file}:2: missing key '{key}'" in err


@pytest.mark.parametrize(
    "training",
    [
        {"sft": {"schedule": "cosin"}},
        {"imitation": {"schedule": "linear"}},
        {"rm": {"schedule": "cosine"}},
        {"rm": {"optimizer": "sgd"}},
        {"rm": {"lora_rank": 8}},
        {"imitaton": {"epochs": 3}},
    ],
)
def test_bad_training_config_exit_2(tmp_path, capsys, training):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"training": training}))
    code = main(["--config", str(config), "--workspace", str(tmp_path), "train", "--phase", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_config_without_training_section_is_the_desk_configs(tmp_path):
    from lamlab.cli import RunConfig
    from lamlab.harness import desk_phase_configs

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 3}))
    assert RunConfig.load(str(config), {}).phase_configs() == desk_phase_configs()
    overridden = RunConfig(training={"rm": {"epochs": 3}}).phase_configs()
    assert overridden.rm.epochs == 3
    assert overridden.rm.learning_rate == desk_phase_configs().rm.learning_rate
