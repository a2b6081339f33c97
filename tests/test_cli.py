"""Command-line interface: stages, phases, agent runs, evals, exit codes."""

import json
import shutil

import pytest

from lamlab.agent import AgentConfig
from lamlab.cli import main
from lamlab.dataflow import EvolutionConfig, PipelineConfig
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


def _agent_run(workspace, task_id):
    return main(
        [
            "--workspace",
            str(workspace),
            "--clock",
            "zero",
            "agent",
            "run",
            "--task",
            'Highlight the text "Test For Fun" in yellow in the document.',
            "--template",
            "plain_text",
            "--policy",
            str(workspace / "checkpoints" / "lam2" / "weights.json"),
            "--task-id",
            task_id,
        ]
    )


def test_agent_run_writes_trajectory_and_timing(pipeline_ws):
    assert _agent_run(pipeline_ws, "t1") == 0
    out_dir = pipeline_ws / "runs" / "agent"
    [record] = read_jsonl(out_dir / "t1.jsonl")
    assert record["trajectory"]["steps"]
    assert record["outcome"] == "finished"
    assert record["total_time"] == 0.0
    assert not (out_dir / "t1.timing.json").exists()


def test_agent_run_output_is_read_by_eval_online(pipeline_ws, capsys):
    assert _agent_run(pipeline_ws, "t2") == 0
    runs = pipeline_ws / "runs" / "agent" / "t2.jsonl"
    capsys.readouterr()
    code = main(["--workspace", str(pipeline_ws), "eval", "online", "--runs", str(runs)])
    assert code == 0, capsys.readouterr().err
    csv = (pipeline_ws / "reports" / "report_online.csv").read_text()
    assert csv.splitlines()[1] == "Task Success Rate (%),100.0"


def test_agent_run_unknown_template_exits_1(tmp_path, capsys):
    from lamlab.policy import ModelParams

    weights = tmp_path / "weights.json"
    ModelParams.zeros().save(weights)
    code = main(["--workspace", str(tmp_path / "ws"), "agent", "run", "--task", "Do it.",
                 "--template", "no_such_template", "--policy", str(weights)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("UnknownTemplate: ")
    assert "'no_such_template'" in err


def test_agent_run_on_a_checkpoint_with_the_finish_candidate_exits_1(
    pipeline_ws, tmp_path, capsys
):
    """Checkpoints written while the action head had a FINISH pseudo-candidate
    hold its three weights, and must be retrained."""
    payload = json.loads((pipeline_ws / "checkpoints" / "lam2" / "weights.json").read_text())
    old = ("act::finish_plan_done", "act::func::<finish>", "act::is_finish")
    payload["weights"].update(dict.fromkeys(old, 0.0))
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps(payload, indent=2, sort_keys=True))
    code = main(["--workspace", str(tmp_path / "ws"), *_AGENT_RUN, "--policy", str(weights)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "CheckpointError: unknown feature name 'act::finish_plan_done'\n"


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
    "line, reason",
    [
        (b"{not json", "bad JSON line"),
        (b"[1, 2]", "line is not a JSON object"),
        (b"\xff\xfe", "line is not UTF-8"),
    ],
)
def test_corrupt_input_line_is_a_validation_failure(tmp_path, capsys, line, reason):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"task_id": "a"}\n' + line + b"\n")
    code = main(["--workspace", str(tmp_path / "ws"), "dataflow", "run",
                 "--stage", "all", "--input", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ValidationFailure: ")
    assert f"raw_records.jsonl:2: {reason}" in err


# A well-formed step_history entry, as ``record_inputs`` writes one.
_ACTION = {"args": {}, "controlLabel": "1", "controlText": "Document",
           "function": "click_input", "step": "Click the document."}
_RESULT = {"ok": True, "observation": ""}


@pytest.mark.parametrize(
    "drift, reason",
    [
        (lambda rec: rec["output"].pop("status"), "output keys must be exactly"),
        (lambda rec: rec.pop("step_no"), "record missing step_no"),
        (lambda rec: rec.update(step_no="2"), "step_no must be a positive integer"),
        (lambda rec: rec["input"]["available_controls"][0].update(control_text=5),
         "control values must be strings"),
        (lambda rec: rec["input"]["available_controls"][0].update(label=7),
         "control values must be strings"),
        (lambda rec: rec["input"]["step_history"].append({"action": 5, "result": _RESULT}),
         "step_history action must be an object with keys"),
        (lambda rec: rec["input"]["step_history"].append({"action": {}, "result": _RESULT}),
         "step_history action must be an object with keys"),
        (lambda rec: rec["input"]["step_history"].append(
            {"action": {**_ACTION, "args": 5}, "result": _RESULT}),
         "step_history action args must be an object"),
        (lambda rec: rec["input"]["step_history"].append(
            {"action": {**_ACTION, "function": 5}, "result": _RESULT}),
         "step_history action controlLabel, controlText, function and step must be strings"),
        (lambda rec: rec["input"]["step_history"].append({"action": _ACTION, "result": 5}),
         "step_history result must be an object"),
        (lambda rec: rec["output"].update(function=""),
         "function must name a registry function, got ''"),
    ],
    ids=["status_missing", "step_no_missing", "step_no_string", "control_text_int",
         "label_int", "action_int", "action_empty", "args_int", "function_int", "result_int",
         "output_function_empty"],
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


def test_repeated_training_step_is_a_validation_failure(pipeline_ws, tmp_path, capsys):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    training = ws / "corpus" / "training.jsonl"
    records = read_jsonl(training)
    repeat = dict(records[2], record_id="repeat")
    write_jsonl(training, records + [repeat])
    code = main(["--workspace", str(ws), "train", "--phase", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ValidationFailure: ")
    tid, step_no, first = records[2]["trajectory_id"], records[2]["step_no"], records[2]["record_id"]
    assert f"trajectory {tid!r} has two records for step {step_no}: {first!r} and 'repeat'" in err


def _train_phase2_with(pipeline_ws, tmp_path, capsys, edit):
    """Exit code and stderr of ``train --phase 2`` on a copy of the workspace
    whose training records went through ``edit``."""
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    training = ws / "corpus" / "training.jsonl"
    write_jsonl(training, edit(read_jsonl(training)))
    code = main(["--workspace", str(ws), "train", "--phase", "2"])
    return code, capsys.readouterr().err


def _without_first_step(records):
    return [r for r in records if r["record_id"] != "traj_word_001.s1"]


def test_trajectory_with_a_missing_step_is_a_validation_failure(pipeline_ws, tmp_path, capsys):
    code, err = _train_phase2_with(pipeline_ws, tmp_path, capsys, _without_first_step)
    assert code == 1
    assert err.count("\n") == 1
    assert err == "ValidationFailure: trajectory 'traj_word_001' has no record for step 1\n"


def test_step_no_that_does_not_follow_its_history_is_a_validation_failure(
    pipeline_ws, tmp_path, capsys
):
    def renumbered(records):
        records = _without_first_step(records)
        assert records[0]["record_id"] == "traj_word_001.s2"
        records[0]["step_no"] = 7
        return records

    code, err = _train_phase2_with(pipeline_ws, tmp_path, capsys, renumbered)
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("ValidationFailure: ")
    assert "training.jsonl:1: step_no 7 does not follow a step_history of 1 steps" in err


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
        ("execute", "instantiated.jsonl", "template_id"),
        ("postprocess", "verdicts.jsonl", "task_complete"),
    ],
)
def test_schema_drifted_corpus_row_is_a_validation_failure(
    suite_corpus_ws, tmp_path, capsys, phase, file, key
):
    """``phase`` is a training phase, or the name of a dataflow stage."""
    ws = tmp_path / "ws"
    shutil.copytree(suite_corpus_ws, ws)
    path = ws / "corpus" / file
    rows = read_jsonl(path)
    del rows[1][key]
    write_jsonl(path, rows)
    if isinstance(phase, int):
        command = ["train", "--phase", str(phase)]
    else:
        command = ["dataflow", "run", "--stage", phase]
    code = main(["--workspace", str(ws), *command])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ValidationFailure: ")
    assert f"{file}:2: missing key '{key}'" in err


@pytest.mark.parametrize(
    "training",
    [
        # Keys that no longer exist, with values that were once accepted.
        {"sft": {"schedule": "cosine"}},
        {"imitation": {"schedule": "cosine"}},
        {"rm": {"schedule": "linear"}},
        {"rm": {"optimizer": "adamw"}},
        {"rm": {"lora_rank": 8}},
        {"imitaton": {"epochs": 3}},
        {"ppo": {"reward_low": -0.5}},
        # Values outside their range or of the wrong type.
        {"sft": {"batch_size": 0}},
        {"sft": {"batch_size": 2.5}},
        {"sft": {"epochs": -1}},
        {"sft": {"warmup_steps": -1}},
        {"imitation": {"learning_rate": 0}},
        {"imitation": {"epochs": True}},
        {"rm": {"epochs": 0}},
        {"rm": {"learning_rate": float("nan")}},
        {"ppo": {"minibatch_size": 0}},
        {"ppo": {"ppo_epochs": 1.0}},
        {"ppo": {"learning_rate": "fast"}},
        {"sft": {"step_mean": "no"}},
        {"imitation": {"step_mean": "no"}},
        {"imitation": {"step_mean": 1}},
        {"ppo": {"reward_high": "x"}},
        {"ppo": {"reward_high": 0}},
        {"ppo": {"reward_high": True}},
        {"ppo": {"kl_target": -5}},
        {"ppo": {"kl_target": float("inf")}},
        {"ppo": {"kl_coef_init": -0.1}},
        {"ppo": {"kl_coef_init": float("nan")}},
        {"ppo": {"kl_coef_init": False}},
        {"boost": {"attempts_per_task": 0}},
        {"boost": {"max_steps": -3}},
        {"boost": {"base_seed": 0}},
    ],
)
def test_bad_training_config_exit_2(tmp_path, capsys, training):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"training": training}))
    code = main(["--config", str(config), "--workspace", str(tmp_path), "train", "--phase", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "checkpoints").exists()


_AGENT_RUN = ["agent", "run", "--task", "Bold the text.", "--template", "plain_text"]
_NORMALIZE = ["dataflow", "run", "--stage", "normalize"]


@pytest.mark.parametrize(
    "values, command",
    [
        ({"agent": {"max_steps": 0}}, _AGENT_RUN),
        ({"agent": {"max_steps": "many"}}, _AGENT_RUN),
        ({"agent": {"mode": "bogus"}}, _AGENT_RUN),
        ({"agent": {"max_step": 5}}, _AGENT_RUN),
        ({"evolution": {"bogus": 1}}, ["dataflow", "run", "--stage", "all"]),
        ({"evolution": {"max_retries": 1.5}}, ["dataflow", "run", "--stage", "all"]),
        ({"workers": "x"}, _NORMALIZE),
        ({"workers": 0}, _NORMALIZE),
        (
            {"oracle": {"provider": "remote", "endpoint": "http://localhost:9",
                        "model": "m", "timeout_s": "abc"}},
            _NORMALIZE,
        ),
        ({"oracle": {"provider": "mock", "timeot_s": 5}}, ["report"]),
        ({"seed": "abc"}, ["train", "--phase", "2"]),
        ({"seed": True}, ["train", "--phase", "2"]),
        ({"training": {"sft": {"epochs": 0}}}, _NORMALIZE),
        ({"clock": "bogus"}, ["report"]),
        ({"oracle": {"provider": "nope"}}, ["report"]),
        ({"oracle": {"provider": "remote"}}, ["report"]),
    ],
    ids=["max_steps_0", "max_steps_many", "mode_bogus", "agent_key", "evolution_key",
         "max_retries_float", "workers_x", "workers_0", "timeout_abc", "oracle_key", "seed_abc",
         "seed_bool", "training_on_dataflow", "clock_on_report", "provider_on_report",
         "remote_without_endpoint_on_report"],
)
def test_bad_config_value_exit_2(tmp_path, capsys, values, command):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(values))
    code = main(["--config", str(config), "--workspace", str(tmp_path / "ws"), *command])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


def test_config_without_training_section_is_the_desk_configs(tmp_path):
    from lamlab.cli import RunConfig
    from lamlab.training import PhaseConfigs

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 3}))
    assert RunConfig.load(str(config), {}).phase_configs == PhaseConfigs()
    overridden = RunConfig(training={"rm": {"epochs": 3}}).phase_configs
    assert overridden.rm.epochs == 3
    assert overridden.rm.learning_rate == PhaseConfigs().rm.learning_rate


def test_run_phase_defaults_train_what_the_cli_trains(suite_corpus_ws, tmp_path):
    from lamlab.oracle import MockOracle
    from lamlab.training import run_phase

    ws = tmp_path / "ws"
    shutil.copytree(suite_corpus_ws, ws)
    weights = run_phase(1, ws, MockOracle()) / "weights.json"
    library = weights.read_bytes()
    assert main(["--workspace", str(ws), "train", "--phase", "1"]) == 0
    assert weights.read_bytes() == library


@pytest.mark.parametrize(
    "cls, values",
    [
        (PipelineConfig, {"workers": 0}),
        (PipelineConfig, {"workers": "x"}),
        (EvolutionConfig, {"max_retries": -1}),
        (EvolutionConfig, {"max_retries": 1.5}),
        (EvolutionConfig, {"target_multiplier": float("nan")}),
        (AgentConfig, {"max_steps": "many"}),
        (AgentConfig, {"mode": "bogus"}),
    ],
    ids=["workers_0", "workers_x", "max_retries_negative", "max_retries_float",
         "target_multiplier_nan", "max_steps_many", "mode_bogus"],
)
def test_config_objects_reject_bad_values(cls, values):
    with pytest.raises(ValueError):
        cls(**values)


@pytest.mark.parametrize(
    "stage, file",
    [
        ("evolve", "taskplan.jsonl"),
        ("instantiate", "taskplan.jsonl"),
        ("execute", "instantiated.jsonl"),
        ("judge", "trajectories.jsonl"),
        ("postprocess", "trajectories.jsonl"),
    ],
)
def test_stage_without_its_input_is_an_empty_corpus(tmp_path, capsys, stage, file):
    code = main(["--workspace", str(tmp_path / "ws"), "dataflow", "run", "--stage", stage])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("EmptyCorpus: ")
    assert file in err


def test_dataflow_missing_input_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    code = main(["--workspace", str(tmp_path / "ws"), "dataflow", "run",
                 "--stage", "normalize", "--input", str(missing)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: ")
    assert str(missing) in err


def _eval_row(name: str) -> dict:
    if name == "pairs":
        return {"task": "t", "pred": ["go home"], "truth": ["Go home."]}
    if name == "pred":
        return {"task_id": "a", "steps": [{"function": "select_text", "status": "FINISH"}]}
    if name == "truth":
        return {"task_id": "a", "steps": [{"operation": "select_text", "status": "FINISH"}]}
    from lamlab.agent import ScriptedPolicy, run_task
    from lamlab.env_sim import ActionCall

    script = ScriptedPolicy(actions=(ActionCall(function="select_text", args={"text": "Test"}),))
    return run_task(script, "plain_text", "Do it.", clock=lambda: 0.0).to_dict()


_EVAL_FILES = {"plan": ("pairs",), "actions": ("pred", "truth"), "online": ("runs",)}


@pytest.mark.parametrize(
    "kind, file, key",
    [
        ("plan", "pairs", None),
        ("plan", "pairs", "truth"),
        ("actions", "pred", None),
        ("actions", "pred", "steps"),
        ("actions", "truth", None),
        ("actions", "truth", "task_id"),
        ("online", "runs", None),
        ("online", "runs", "outcome"),
    ],
)
def test_bad_eval_input_exits_1(tmp_path, capsys, kind, file, key):
    """A missing input file is an EmptyCorpus; a row without a key the
    command needs is a ValidationFailure at its line."""
    argv = ["--workspace", str(tmp_path / "ws"), "eval", kind]
    for name in _EVAL_FILES[kind]:
        path = tmp_path / f"{name}.jsonl"
        row = _eval_row(name)
        if name != file:
            write_jsonl(path, [row, row])
        elif key is not None:
            write_jsonl(path, [row, {k: v for k, v in row.items() if k != key}])
        argv += [f"--{name}", str(path)]
    code = main(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if key is None:
        assert err.startswith("EmptyCorpus: ")
        assert f"{file}.jsonl" in err
    else:
        assert err.startswith("ValidationFailure: ")
        assert f"{file}.jsonl:2: missing key '{key}'" in err


@pytest.mark.parametrize("kind", sorted(_EVAL_FILES))
def test_empty_eval_input_exits_1(tmp_path, capsys, kind):
    argv = ["--workspace", str(tmp_path / "ws"), "eval", kind]
    for name in _EVAL_FILES[kind]:
        path = tmp_path / f"{name}.jsonl"
        path.write_text("")
        argv += [f"--{name}", str(path)]
    code = main(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("EmptyCorpus: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "row, key",
    [
        ({"task": "t", "pred": ["go home"], "truth": 5}, "truth"),
        ({"task": "t", "pred": "go home", "truth": "go hxme"}, "pred"),
    ],
    ids=["truth_int", "plans_strings"],
)
def test_eval_plan_row_without_string_lists_exits_1(tmp_path, capsys, row, key):
    pairs = tmp_path / "pairs.jsonl"
    write_jsonl(pairs, [_eval_row("pairs"), row])
    code = main(["--workspace", str(tmp_path / "ws"), "eval", "plan", "--pairs", str(pairs)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ValidationFailure: ")
    assert f"{pairs}:2: {key} must be a list of strings" in err


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda payload: ["policy"],
        lambda payload: {**payload, "weights": [1.0]},
        lambda payload: {**payload, "weights": {**payload["weights"], "plan::used": "x"}},
        lambda payload: {**payload, "weights": {**payload["weights"], "plan::used": None}},
        lambda payload: {**payload, "plan_vocab": 5},
        lambda payload: {**payload, "plan_vocab": [payload["plan_vocab"]]},
    ],
    ids=["payload_list", "weights_list", "weight_string", "weight_null",
         "plan_vocab_int", "plan_vocab_nested"],
)
def test_corrupt_checkpoint_is_a_checkpoint_error(pipeline_ws, tmp_path, capsys, corrupt):
    ws = tmp_path / "ws"
    shutil.copytree(pipeline_ws, ws)
    weights = ws / "checkpoints" / "lam1" / "weights.json"
    weights.write_text(json.dumps(corrupt(json.loads(weights.read_text()))))
    code = main(["--workspace", str(ws), "train", "--phase", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("CheckpointError: ")
    assert str(weights) in err
