"""Data pipeline stages: filtering, evolution, instantiation, execution,
judging, and post-processing."""

import json

import pytest

from lamlab.dataflow import (
    EvolutionConfig,
    InstantiatedTask,
    TaskPlanRecord,
    evolve_corpus,
    evolve_task,
    execute_trajectory,
    instantiate,
    judge_trajectory,
    normalize_sources,
    parse_actions_plan,
    postprocess,
    select_template,
    validate_training_record,
)
from lamlab.env_sim import ActionCall, get_template, list_templates
from lamlab.errors import NoTemplateMatch, OracleFailure, ParseFailure, ValidationFailure
from lamlab.oracle import MockOracle, OracleResponse
from lamlab.textutil import word_count


def record(task_id="t1", task="Highlight important text in the document", plan=("Pick.", "Apply."),
           source="doc"):
    return TaskPlanRecord(task_id=task_id, task=task, plan=tuple(plan), source=source)


def all_templates():
    return [get_template(tid) for tid in list_templates()]


# --- normalize ---------------------------------------------------------------


def raw(task, plan=("step one",), source="doc", task_id="r1"):
    return {"task_id": task_id, "task": task, "plan": list(plan), "source": source}


def test_normalize_drops_empty_plan():
    assert normalize_sources([raw("Make a nice document", plan=())]) == []


def test_normalize_keeps_border_sample_verbatim():
    sample = raw(
        "Add a border to a page in Word",
        plan=(
            "Go to Design > Page Borders.",
            "Make selections for how you want the border to look.",
            "To adjust the distance between the border and the edge of the page, select Options. Make your changes and select OK.",
            "Select OK.",
        ),
        task_id="word_032",
    )
    kept = normalize_sources([sample])
    assert len(kept) == 1
    assert kept[0].task == "Add a border to a page in Word"
    assert len(kept[0].plan) == 4


def test_normalize_dedup_keeps_one():
    records = [
        raw("Add a border to the page", task_id="a"),
        raw("add a border to the page!", task_id="b"),
    ]
    assert len(normalize_sources(records)) == 1


def test_normalize_drops_short_long_and_oversized_plans():
    assert normalize_sources([raw("tiny")]) == []
    assert normalize_sources([raw("x" * 201)]) == []
    assert normalize_sources([raw("A reasonable task text", plan=tuple(f"s{i}" for i in range(21)))]) == []


def test_normalize_drops_non_english():
    task = "Добавь границу на страницу word"
    assert normalize_sources([raw(task)]) == []


def test_normalize_drops_off_platform():
    assert normalize_sources([raw("Change the font on your smartphone app")]) == []


def test_normalize_drops_unknown_source():
    assert normalize_sources([raw("Add a border to the page", source="forum")]) == []


def test_normalize_sorted_by_task_id():
    records = [
        raw("Add a border to the page", task_id="b"),
        raw("Highlight the key text now", task_id="a"),
    ]
    assert [r.task_id for r in normalize_sources(records)] == ["a", "b"]


# --- evolve -------------------------------------------------------------------


def test_evolve_mock_is_valid_and_deterministic():
    base = record()
    a = evolve_task(base, MockOracle(), variant=0)
    b = evolve_task(base, MockOracle(), variant=0)
    assert a == b
    assert a.source == "evolved"
    assert a.origin_task_id == base.task_id
    assert word_count(a.task) - word_count(base.task) <= 20
    assert len(a.plan) >= len(base.plan)


class RiggedOracle:
    """Always answers with a fixed evolved task/plan."""

    def __init__(self, task, plan=("do it",)):
        self.task = task
        self.plan = list(plan)

    def complete(self, request):
        raw_text = json.dumps({"evolved_task": self.task, "evolved_plan": self.plan})
        return OracleResponse(raw_text=raw_text, parsed=json.loads(raw_text))


def test_evolve_rejects_word_count_violation():
    base = record(task="Add a border to the page")
    too_long = base.task + " with " + " ".join(["extra"] * 40)
    with pytest.raises(ValidationFailure):
        evolve_task(base, RiggedOracle(too_long))


def test_evolve_rejects_unrelated_rewrite():
    base = record(task="Add a border to the page")
    with pytest.raises(ValidationFailure):
        evolve_task(base, RiggedOracle("Completely different instructions"))


def test_evolve_rejects_empty_plan():
    base = record(task="Add a border to the page")
    with pytest.raises(ValidationFailure):
        evolve_task(base, RiggedOracle(base.task + " slightly longer", plan=()))


def test_evolve_oracle_failure_propagates():
    class Broken:
        def complete(self, request):
            raise RuntimeError("socket down")

    with pytest.raises(OracleFailure):
        evolve_task(record(), Broken())


def test_evolve_corpus_hits_target_multiplier():
    records = [record(task_id=f"t{i}", task=f"Highlight the entry {i} in the document")
               for i in range(4)]
    out = evolve_corpus(records, MockOracle(), EvolutionConfig(target_multiplier=1.5))
    evolved = [r for r in out if r.source == "evolved"]
    assert len(evolved) >= 1.5 * len(records)
    assert len(out) == len(records) + len(evolved)
    assert [r.task_id for r in out] == sorted(r.task_id for r in out)


def test_evolution_bound_holds_for_all():
    records = [record(task_id=f"t{i}", task=f"Make the heading {i} bold in the document")
               for i in range(5)]
    out = evolve_corpus(records, MockOracle(), EvolutionConfig())
    by_id = {r.task_id: r for r in records}
    for r in out:
        if r.source != "evolved":
            continue
        original = by_id[r.origin_task_id]
        assert word_count(r.task) - word_count(original.task) <= 20


# --- instantiate ---------------------------------------------------------------


def test_select_template_by_overlap():
    best = select_template("How to highlight a sentence in your report document", all_templates())
    assert best.template_id == "report_doc"


def test_select_template_tie_break_lexicographic():
    # Only the shared word "document" overlaps: every description matches.
    best = select_template("Update the document now", all_templates())
    assert best.template_id == min(t.template_id for t in all_templates())


def test_select_template_empty_set():
    with pytest.raises(NoTemplateMatch):
        select_template("anything", [])


def test_select_template_no_overlap():
    with pytest.raises(NoTemplateMatch):
        instantiate(record(task="zzz qqq xxyy aabb"), all_templates(), MockOracle())


def test_instantiate_highlight_example():
    inst = instantiate(record(task="Highlight text in document"), all_templates(), MockOracle())
    assert inst.actions[0].function == "select_text"
    assert inst.actions[0].args["text"] == "Test For Fun"
    assert inst.actions[1].function == "click_input"
    assert inst.actions[1].control_text == "Text Highlight Color"
    assert '"Test For Fun"' in inst.instantiated_task


def test_parse_actions_plan_newline_format():
    lines = "\n".join(
        [
            json.dumps(
                {
                    "step": "select",
                    "controlLabel": "",
                    "controlText": "",
                    "function": "select_text",
                    "args": {"text": "Test For Fun"},
                }
            ),
            json.dumps(
                {
                    "step": "click",
                    "controlLabel": "101",
                    "controlText": "Borders",
                    "function": "click_input",
                    "args": {"control_id": "101", "button": "left", "double": False},
                }
            ),
        ]
    )
    actions = parse_actions_plan(lines)
    assert [a.function for a in actions] == ["select_text", "click_input"]
    assert actions[1].control_label == "101"


def test_parsed_action_status_is_not_read_from_the_call():
    """An instantiated action's status is not on the wire, so one that the
    oracle adds must not survive in memory either."""
    call = {"step": "bold it", "controlLabel": "", "controlText": "Bold",
            "function": "click_input", "args": {}, "status": "FINISH"}
    task = InstantiatedTask(
        origin_task_id="t1",
        instantiated_task="Bold it.",
        template_id="plain_text",
        actions=tuple(parse_actions_plan(json.dumps(call))),
    )
    assert task.actions[0].status == "CONTINUE"
    assert InstantiatedTask.from_dict(task.to_dict()) == task


@pytest.mark.parametrize(
    "bad",
    [
        "not json at all",
        json.dumps({"step": "x", "function": "select_text"}),  # missing keys
        json.dumps({"step": "x", "controlLabel": "", "controlText": "", "function": "fly", "args": {}}),
        json.dumps({"step": "x", "controlLabel": "", "controlText": "", "function": "click_input", "args": {}}),
        "",
        json.dumps({"step": "x", "controlLabel": "", "controlText": "", "function": "select_text", "args": 3}),
        json.dumps({"step": 5, "controlLabel": "", "controlText": "", "function": "select_text",
                    "args": {"text": "Test"}}),
        json.dumps({"step": "x", "controlLabel": "", "controlText": 7, "function": "click_input",
                    "args": {}}),
    ],
)
def test_parse_actions_plan_malformed(bad):
    with pytest.raises(ParseFailure):
        parse_actions_plan(bad)


class MalformedInstantiator:
    def complete(self, request):
        return OracleResponse(raw_text="oops", parsed=None, parse_error="not json")


def test_instantiate_malformed_response():
    with pytest.raises(ParseFailure):
        instantiate(record(), all_templates(), MalformedInstantiator())


# --- execute -------------------------------------------------------------------


def highlight_inst(task_id="t1"):
    return InstantiatedTask(
        origin_task_id=task_id,
        instantiated_task='Highlight the text "Test For Fun" in the document in yellow.',
        template_id="plain_text",
        actions=(
            ActionCall(step="select the target text", function="select_text",
                       args={"text": "Test For Fun"}),
            ActionCall(step="apply the yellow highlight", function="click_input",
                       control_text="Text Highlight Color",
                       args={"button": "left", "double": False}),
        ),
        thought="select then highlight",
    )


def test_execute_happy_path():
    traj = execute_trajectory(highlight_inst())
    assert traj.final_status == "success"
    assert [s.step_no for s in traj.steps] == [1, 2]
    assert any(e.path.endswith(".highlight") for e in traj.canvas_diff)


def test_execute_stops_on_error():
    inst = InstantiatedTask(
        origin_task_id="t2",
        instantiated_task="Click a ghost control in the document.",
        template_id="plain_text",
        actions=(
            ActionCall(step="ok step", function="select_text", args={"text": "Test"}),
            ActionCall(step="bad step", function="click_input", control_text="Ghost",
                       args={"button": "left", "double": False}),
            ActionCall(step="never runs", function="toggle_bold", args={}),
        ),
    )
    traj = execute_trajectory(inst)
    assert traj.final_status == "exec_error"
    assert len(traj.steps) == 2
    assert traj.steps[-1].result.error == "UnknownControl"


def test_replay_reproduces_final_canvas():
    traj = execute_trajectory(highlight_inst())
    replay = execute_trajectory(traj.origin)
    assert replay.final_canvas == traj.final_canvas
    assert replay.steps[-1].post_digest == traj.steps[-1].post_digest


# --- judge ---------------------------------------------------------------------

# Hand-labeled verdicts for five fixture trajectories keyed on the mock
# judge's rule table.
_JUDGE_FIXTURES = [
    ("highlight", "yes"),
    ("bold", "yes"),
    ("wrong_change", "no"),
    ("no_change", "no"),
    ("no_rule", "unsure"),
]


def _fixture_trajectory(kind):
    if kind == "highlight":
        return execute_trajectory(highlight_inst())
    if kind == "bold":
        inst = InstantiatedTask(
            origin_task_id="b1",
            instantiated_task='Make the text "Test For Fun" bold in the document.',
            template_id="plain_text",
            actions=(
                ActionCall(step="select", function="select_text", args={"text": "Test For Fun"}),
                ActionCall(step="bold", function="toggle_bold", args={}),
            ),
        )
        return execute_trajectory(inst)
    if kind == "wrong_change":
        inst = InstantiatedTask(
            origin_task_id="w1",
            instantiated_task='Highlight the text "Test For Fun" in the document.',
            template_id="plain_text",
            actions=(
                ActionCall(step="select", function="select_text", args={"text": "Test For Fun"}),
                ActionCall(step="bold instead", function="toggle_bold", args={}),
            ),
        )
        return execute_trajectory(inst)
    if kind == "no_change":
        inst = InstantiatedTask(
            origin_task_id="n1",
            instantiated_task="Insert a 2 x 2 table in the document.",
            template_id="plain_text",
            actions=(),
        )
        return execute_trajectory(inst)
    inst = InstantiatedTask(
        origin_task_id="u1",
        instantiated_task="Rearrange the pictures in the document.",
        template_id="plain_text",
        actions=(ActionCall(step="type", function="type_keys", args={"text": "x"}),),
    )
    return execute_trajectory(inst)


@pytest.mark.parametrize("kind,expected", _JUDGE_FIXTURES)
def test_judge_rule_table_on_hand_labeled_fixtures(kind, expected):
    traj = _fixture_trajectory(kind)
    verdict = judge_trajectory(traj, MockOracle())
    assert verdict.task_complete == expected


def test_judge_empty_action_means_no():
    traj = execute_trajectory(highlight_inst())
    import dataclasses

    bad_action = dataclasses.replace(traj.steps[0].action, function="")
    bad_step = dataclasses.replace(traj.steps[0], action=bad_action)
    traj = dataclasses.replace(traj, steps=(bad_step,) + traj.steps[1:])
    verdict = judge_trajectory(traj, MockOracle())
    assert verdict.task_complete == "no"


def test_judge_selection_wording_is_ambiguous():
    traj = execute_trajectory(highlight_inst())
    import dataclasses

    origin = dataclasses.replace(
        traj.origin,
        instantiated_task='Highlight the selection of the text "Test For Fun" in the document.',
    )
    traj = dataclasses.replace(traj, origin=origin)
    verdict = judge_trajectory(traj, MockOracle())
    assert verdict.task_quality == "ambiguous"


def test_judge_requires_success_trajectory():
    traj = _fixture_trajectory("no_change")
    import dataclasses

    broken = dataclasses.replace(
        traj,
        final_status="exec_error",
        steps=(),
    )
    with pytest.raises(ValueError):
        judge_trajectory(broken, MockOracle())


# --- postprocess ------------------------------------------------------------------


def _yes_verdict(traj):
    return judge_trajectory(traj, MockOracle())


def test_postprocess_three_step_indexing():
    inst = InstantiatedTask(
        origin_task_id="p1",
        instantiated_task='Make the text "Test For Fun" bold in the document with font size 14.',
        template_id="plain_text",
        actions=(
            ActionCall(step="select the text", function="select_text", args={"text": "Test For Fun"}),
            ActionCall(step="toggle bold", function="toggle_bold", args={}),
            ActionCall(step="set the size", function="set_font_size", args={"size": 14}),
        ),
    )
    traj = execute_trajectory(inst)
    records = postprocess(traj, _yes_verdict(traj))
    assert len(records) == 3
    assert len(records[1].input["step_history"]) == 1
    assert records[0].input["previous_plan"] == []
    assert records[1].input["previous_plan"] == ["toggle bold", "set the size"]
    assert records[2].output["status"] == "FINISH"
    assert records[2].output["plan"] == []
    assert records[0].output["status"] == "CONTINUE"
    assert records[0].output["plan"] == ["toggle bold", "set the size"]


def test_postprocess_single_step_is_finish():
    inst = InstantiatedTask(
        origin_task_id="p2",
        instantiated_task="Insert a 2 x 3 table at the end of the document.",
        template_id="plain_text",
        actions=(ActionCall(step="insert the table", function="insert_table",
                            args={"rows": 2, "cols": 3}),),
    )
    traj = execute_trajectory(inst)
    records = postprocess(traj, _yes_verdict(traj))
    assert len(records) == 1
    assert records[0].output["status"] == "FINISH"


def test_postprocess_requires_yes():
    traj = _fixture_trajectory("wrong_change")
    verdict = judge_trajectory(traj, MockOracle())
    with pytest.raises(ValueError):
        postprocess(traj, verdict)


def test_postprocess_records_validate_against_schema():
    traj = execute_trajectory(highlight_inst())
    records = postprocess(traj, _yes_verdict(traj))
    for rec in records:
        assert validate_training_record(rec.to_dict()) == []


def test_postprocess_resolves_control_labels():
    traj = execute_trajectory(highlight_inst())
    records = postprocess(traj, _yes_verdict(traj))
    click = records[1].output
    assert click["control_name"] == "Text Highlight Color"
    assert click["control_label"] != ""


def test_schema_validator_rejects_bad_records():
    assert validate_training_record({"input": {}, "output": {}})
    good = postprocess(
        execute_trajectory(highlight_inst()), _yes_verdict(execute_trajectory(highlight_inst()))
    )[0].to_dict()
    bad = json.loads(json.dumps(good))
    bad["output"]["status"] = "MAYBE"
    assert any("status" in p for p in validate_training_record(bad))
    bad2 = json.loads(json.dumps(good))
    del bad2["input"]["previous_plan"]
    assert validate_training_record(bad2)
