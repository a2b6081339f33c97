"""Cached control-tree encodings and the line writers that splice them in.

Every record line equals ``canonical_dumps(to_dict())``, in memory and read
back from a file; every cached text equals a fresh ``json.dumps`` with the
flags of its form; and a pipeline run encodes each tree at most once per
form, while an agent run adds no encoding of its own.
"""

import json
import shutil
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lamlab.agent import ScriptedPolicy, run_task
from lamlab.dataflow import (
    STAGES,
    PipelineConfig,
    postprocess,
    run_all,
    run_stage,
    stage_files,
    validate_training_record,
)
from lamlab.dataflow.records import Trajectory, TrainingRecord, TrajectoryStep
from lamlab.env_sim import snapshot as snapshot_module
from lamlab.env_sim import (
    CONTROL_TYPES,
    ActionCall,
    CanvasState,
    ControlList,
    ControlNode,
    ControlTreeDict,
    EnvSnapshot,
    ExecutionResult,
    ListedControls,
    Paragraph,
    Run,
    assign_labels,
    control_tree_dict,
)
from lamlab.fixtures import fixture_path
from lamlab.harness import load_suite_tasks
from lamlab.jsonl import canonical_dumps, read_jsonl
from lamlab.oracle import MockOracle

CANONICAL = {"sort_keys": True, "ensure_ascii": False, "separators": (",", ":")}


def seeded_workspace(ws):
    (ws / "corpus").mkdir(parents=True)
    shutil.copy(fixture_path("raw_records.jsonl"), ws / "corpus" / "raw_records.jsonl")
    return ws


@pytest.fixture(scope="module")
def handed_off(tmp_path_factory):
    """A pipeline run's workspace, its in-memory trajectories and the
    training records they post-process to."""
    ws = seeded_workspace(tmp_path_factory.mktemp("cached"))
    produced = {}
    for stage in STAGES:
        run_stage(stage, ws, MockOracle(), PipelineConfig(workers=1), produced)
    trajectories = produced["execute"]
    by_id = {t.trajectory_id: t for t in trajectories}
    training = [
        record
        for tid, verdict in produced["judge"]
        if verdict.task_complete == "yes"
        for record in postprocess(by_id[tid], verdict)
    ]
    training.sort(key=lambda r: (r.trajectory_id, r.step_no))
    return ws, trajectories, training


def test_lines_equal_canonical_dumps_of_to_dict(handed_off):
    ws, trajectories, training = handed_off
    files = stage_files(ws)
    read_trajectories = read_jsonl(files["execute"], Trajectory.from_dict)
    read_training = read_jsonl(files["postprocess"], lambda row: TrainingRecord(**row))
    assert training and read_training
    # In memory the records hold the cached carriers; read back, plain values.
    assert all(isinstance(s.controls, ControlList) for t in trajectories for s in t.steps)
    assert all(isinstance(t.init_control_state, ControlTreeDict) for t in trajectories)
    assert all(isinstance(r.input["available_controls"], ListedControls) for r in training)
    assert type(read_training[0].input["available_controls"]) is list

    for traj in trajectories + read_trajectories:
        assert traj.to_line() == canonical_dumps(traj.to_dict()), traj.trajectory_id
        for step in traj.steps:
            assert step.to_line() == canonical_dumps(step.to_dict())
    for record in training + read_training:
        assert record.to_line() == canonical_dumps(record.to_dict()), record.record_id
        assert validate_training_record(record.to_dict()) == []

    assert files["execute"].read_text("utf-8").splitlines() == [t.to_line() for t in trajectories]
    assert files["postprocess"].read_text("utf-8").splitlines() == [r.to_line() for r in training]


# --- cached encodings of awkward control trees --------------------------------

_AWKWARD = st.text(
    alphabet=st.sampled_from('"\\/\x00\x01\x1f\x7f éü中\U0001f600 aZ{}:,')
    | st.characters(),
    max_size=12,
)


@st.composite
def control_trees(draw, depth=0):
    children = ()
    if depth < 3:
        children = tuple(draw(st.lists(control_trees(depth=depth + 1), max_size=3)))
    return ControlNode(
        control_text=draw(_AWKWARD),
        control_type=draw(st.sampled_from(CONTROL_TYPES)),
        enabled=draw(st.booleans()),
        selected=draw(st.none() | st.booleans()),
        children=children,
    )


@given(root=control_trees(), text=_AWKWARD)
@settings(max_examples=200, deadline=None)
def test_cached_encodings_equal_fresh_json_dumps(root, text):
    canvas = CanvasState(blocks=(Paragraph(runs=(Run(text=text or "x"),)),))
    snapshot = EnvSnapshot(controls=assign_labels(root), canvas=canvas, step_index=2)
    plain_list = [dict(c) for c in snapshot.control_list]
    plain_tree = control_tree_dict(snapshot.controls)

    assert snapshot.control_list.canonical_json == json.dumps(plain_list, **CANONICAL)
    assert snapshot.control_state.canonical_json == json.dumps(plain_tree, **CANONICAL)
    assert snapshot.control_state.prompt_json == json.dumps(plain_tree, sort_keys=True)
    assert snapshot.serialize() == json.dumps(
        {"canvas": snapshot.canvas_xml, "controls": plain_tree, "step_index": 2}, **CANONICAL
    )

    step = TrajectoryStep(
        step_no=1,
        action=ActionCall(step=text, function="type_keys", args={"text": text}),
        result=ExecutionResult(ok=True, observation=text),
        controls=snapshot.control_list,
        pre_digest="a",
        post_digest="b",
    )
    assert step.to_line() == json.dumps(step.to_dict(), **CANONICAL)

    listed = ListedControls(snapshot.control_list)
    record = TrainingRecord(
        record_id="r",
        origin_task_id="o",
        trajectory_id="t",
        step_no=1,
        input={
            "available_controls": listed,
            "user_request": text,
            "step_history": [],
            "previous_plan": [text],
        },
        output={"thought": text},
    )
    assert record.to_line() == json.dumps(record.to_dict(), **CANONICAL)
    # A list that no longer holds exactly the tree's own dicts is encoded afresh.
    if listed:
        listed[0] = {"label": "", "control_text": text + "!", "control_type": "Button"}
        assert record.to_line() == json.dumps(record.to_dict(), **CANONICAL)
    listed.append({"label": "", "control_text": text, "control_type": "Button"})
    assert record.to_line() == json.dumps(record.to_dict(), **CANONICAL)


# --- how often each tree is encoded -----------------------------------------------


def _holds_controls(value, depth=0) -> bool:
    if isinstance(value, dict):
        if "control_type" in value:
            return True
        values = value.values()
    elif isinstance(value, (list, tuple)):
        values = value
    else:
        return False
    return depth < 6 and any(_holds_controls(v, depth + 1) for v in values)


@pytest.fixture
def tree_encodings(monkeypatch):
    """Every JSON encoding of a value that holds control data, as
    ``(value, form)`` pairs; the values are kept alive, so ids stay unique.
    The templates are built afresh, so no tree starts out encoded."""
    snapshot_module._templates.cache_clear()
    encodings = []
    encode = json.JSONEncoder.encode

    def counting(self, value):
        if _holds_controls(value):
            form = "canonical" if self.item_separator == "," else "prompt"
            encodings.append((value, form))
        return encode(self, value)

    monkeypatch.setattr(json.JSONEncoder, "encode", counting)
    return encodings


def test_run_all_encodes_each_tree_at_most_once_per_form(tmp_path, tree_encodings):
    run_all(seeded_workspace(tmp_path / "ws"), MockOracle(), PipelineConfig(workers=1))
    assert tree_encodings, "the run encoded no control tree"
    carriers = (ControlList, ControlTreeDict)
    uncached = [type(v).__name__ for v, _ in tree_encodings if type(v) not in carriers]
    assert not uncached, f"control data encoded outside a cached carrier: {uncached[:3]}"
    counts = Counter((id(value), form) for value, form in tree_encodings)
    assert max(counts.values()) == 1


def test_agent_run_adds_no_tree_encoding(tree_encodings):
    """An agent run writes nothing and builds no prompt: the only tree text
    it computes is each new tree dict's canonical encoding, once, inside the
    snapshot digest it has always computed."""
    for task in load_suite_tasks():
        if task.expert is not None:
            run_task(ScriptedPolicy(actions=task.expert), task.template_id, task.task)
    assert tree_encodings
    assert all(
        type(value) is ControlTreeDict and form == "canonical" for value, form in tree_encodings
    )
    assert max(Counter(id(value) for value, _ in tree_encodings).values()) == 1
