"""Stage orchestration: file plumbing, in-memory handoff, oracle
concurrency, worker determinism, provenance."""

import shutil
import threading
import time
from pathlib import Path

import pytest

from lamlab.cli import main
from lamlab.dataflow import STAGES, PipelineConfig, run_all, run_stage, stage_files
from lamlab.dataflow import pipeline
from lamlab.dataflow.records import (
    InstantiatedTask,
    TaskPlanRecord,
    Trajectory,
    verdict_row,
)
from lamlab.fixtures import fixture_path
from lamlab.jsonl import read_jsonl, sha256_file, write_jsonl
from lamlab.oracle import MemoizingOracle, MockOracle, RemoteOracle


def seed_workspace(ws: Path, records=None) -> Path:
    corpus = ws / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    if records is None:
        shutil.copy(fixture_path("raw_records.jsonl"), corpus / "raw_records.jsonl")
    else:
        write_jsonl(corpus / "raw_records.jsonl", records)
    return ws


@pytest.fixture(scope="module")
def pipeline_ws(tmp_path_factory):
    ws = seed_workspace(tmp_path_factory.mktemp("flow"))
    run_all(ws, MockOracle(), PipelineConfig())
    return ws


def _task_ids(rows, key):
    return {row[key] for row in rows}


def test_stage_monotonicity_on_task_ids(pipeline_ws):
    """No stage invents new tasks; only evolution adds records."""
    files = stage_files(pipeline_ws)
    raw = read_jsonl(files["raw"])
    normalized = read_jsonl(files["normalize"])
    evolved = read_jsonl(files["evolve"])
    instantiated = read_jsonl(files["instantiate"])
    trajectories = read_jsonl(files["execute"])
    verdicts = read_jsonl(files["judge"])
    training = read_jsonl(files["postprocess"])

    assert len(normalized) <= len(raw)
    assert len(evolved) >= len(normalized)
    assert _task_ids(instantiated, "origin_task_id") <= _task_ids(evolved, "task_id")
    assert _task_ids(trajectories, "trajectory_id") <= {
        f"traj_{tid}" for tid in _task_ids(instantiated, "origin_task_id")
    }
    assert len(verdicts) <= len(trajectories)
    assert _task_ids(training, "trajectory_id") <= _task_ids(verdicts, "trajectory_id")


def test_provenance_chain_is_complete(pipeline_ws):
    """Every training record traces to one trajectory, one instantiated task,
    and one task-plan record."""
    files = stage_files(pipeline_ws)
    evolved_ids = _task_ids(read_jsonl(files["evolve"]), "task_id")
    instantiated = {row["origin_task_id"]: row for row in read_jsonl(files["instantiate"])}
    trajectories = {row["trajectory_id"]: row for row in read_jsonl(files["execute"])}
    for rec in read_jsonl(files["postprocess"]):
        assert rec["origin_task_id"] in evolved_ids
        assert rec["origin_task_id"] in instantiated
        traj = trajectories[rec["trajectory_id"]]
        assert traj["origin"]["origin_task_id"] == rec["origin_task_id"]


class WaitingMock(MockOracle):
    """``MockOracle`` that declares it waits, so the oracle stages pool its
    calls; records the threads its calls ran on."""

    waits_on_io = True

    def __init__(self):
        self.threads = set()

    def complete(self, request):
        self.threads.add(threading.get_ident())
        return super().complete(request)


def test_worker_pool_size_does_not_change_outputs(tmp_path):
    ws1 = seed_workspace(tmp_path / "w1")
    ws6 = seed_workspace(tmp_path / "w6")
    inline, pooled = WaitingMock(), WaitingMock()
    run_all(ws1, inline, PipelineConfig(workers=1))
    run_all(ws6, pooled, PipelineConfig(workers=6))
    assert inline.threads == {threading.get_ident()}
    assert pooled.threads - {threading.get_ident()}, "the pool ran no oracle call"
    for stage, path in stage_files(ws1).items():
        other = stage_files(ws6)[stage]
        assert sha256_file(path) == sha256_file(other), f"stage {stage} differs"


def test_unmatchable_record_skipped_with_diagnostic(tmp_path, capsys):
    ws = seed_workspace(
        tmp_path / "skip",
        records=[
            {
                "task_id": "ok1",
                "source": "doc",
                "task": "Highlight the heading in the document",
                "plan": ["Pick it.", "Mark it."],
            },
            {
                "task_id": "weird",
                "source": "doc",
                "task": "zzz qqq aabb ccdd eeff",  # overlaps no template description
                "plan": ["Do the thing."],
            },
        ],
    )
    run_stage("normalize", ws, MockOracle())
    run_stage("evolve", ws, MockOracle())
    report = run_stage("instantiate", ws, MockOracle())
    assert any("NoTemplateMatch" in reason for reason in report.skipped)
    err = capsys.readouterr().err
    assert "NoTemplateMatch" in err
    kept = read_jsonl(stage_files(ws)["instantiate"])
    assert all(not row["origin_task_id"].startswith("weird") for row in kept)


def test_stage_outputs_sorted_by_id(pipeline_ws):
    files = stage_files(pipeline_ws)
    for stage, key in (
        ("normalize", "task_id"),
        ("evolve", "task_id"),
        ("instantiate", "origin_task_id"),
        ("execute", "trajectory_id"),
        ("judge", "trajectory_id"),
    ):
        ids = [row[key] for row in read_jsonl(files[stage])]
        assert ids == sorted(ids), stage


def corpus_bytes(ws: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted((ws / "corpus").glob("*.jsonl"))}


def test_run_all_reads_only_the_raw_records(tmp_path, monkeypatch):
    ws = seed_workspace(tmp_path / "ws")
    paths = []

    def recording_read_jsonl(path, parse=None):
        paths.append(Path(path).name)
        return read_jsonl(path, parse)

    monkeypatch.setattr(pipeline, "read_jsonl", recording_read_jsonl)
    run_all(ws, MockOracle(), PipelineConfig())
    assert paths == ["raw_records.jsonl"]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_all_equals_stages_run_from_files(tmp_path, workers):
    config = PipelineConfig(workers=workers)
    handed = seed_workspace(tmp_path / "handed")
    from_files = seed_workspace(tmp_path / "from_files")
    reports = run_all(handed, MockOracle(), config)
    file_reports = [run_stage(stage, from_files, MockOracle(), config) for stage in STAGES]
    assert reports == file_reports
    assert corpus_bytes(handed) == corpus_bytes(from_files)


_PARSERS = {
    "normalize": TaskPlanRecord.from_dict,
    "evolve": TaskPlanRecord.from_dict,
    "instantiate": InstantiatedTask.from_dict,
    "execute": Trajectory.from_dict,
    "judge": verdict_row,
}


def test_handed_off_records_are_what_their_files_read_back(tmp_path):
    ws = seed_workspace(tmp_path / "ws")
    produced = {}
    for stage in STAGES:
        run_stage(stage, ws, MockOracle(), PipelineConfig(), produced)
    files = stage_files(ws)
    for stage, parse in _PARSERS.items():
        assert produced[stage], stage
        assert produced[stage] == read_jsonl(files[stage], parse), stage


def test_dataflow_all_command_is_run_all(tmp_path, capsys):
    cli_ws = tmp_path / "cli"
    assert main(["--workspace", str(cli_ws), "dataflow", "run", "--stage", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    reports = run_all(seed_workspace(tmp_path / "api"), MockOracle(), PipelineConfig())
    assert lines == [
        f"{r.stage}: read {r.read}, wrote {r.written}, skipped {len(r.skipped)}"
        for r in reports
    ]
    assert [line.split(":")[0] for line in lines] == list(STAGES)
    assert corpus_bytes(cli_ws) == corpus_bytes(tmp_path / "api")


class SlowOracle:
    """``MockOracle`` answers after a fixed short sleep; records, per prompt
    template, the most calls that were in flight at once."""

    def __init__(self, delay_s: float = 0.005):
        self.inner = MockOracle()
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight: dict[str, int] = {}

    def complete(self, request):
        template = request.template_id
        with self.lock:
            self.in_flight += 1
            self.max_in_flight[template] = max(
                self.max_in_flight.get(template, 0), self.in_flight
            )
        try:
            time.sleep(self.delay_s)
            return self.inner.complete(request)
        finally:
            with self.lock:
                self.in_flight -= 1


def test_oracle_stages_overlap_oracle_calls_and_execute_runs_inline(tmp_path, monkeypatch):
    threads = set()
    execute_trajectory = pipeline.execute_trajectory

    def recording_execute(task):
        threads.add(threading.get_ident())
        return execute_trajectory(task)

    monkeypatch.setattr(pipeline, "execute_trajectory", recording_execute)
    corpora = {}
    for workers in (4, 1):
        oracle = SlowOracle()
        ws = seed_workspace(tmp_path / f"w{workers}")
        run_all(ws, oracle, PipelineConfig(workers=workers))
        corpora[workers] = corpus_bytes(ws)
        if workers == 1:
            assert oracle.max_in_flight == {"evolve": 1, "instantiate": 1, "judge": 1}
        else:
            assert oracle.max_in_flight["instantiate"] > 1
            assert oracle.max_in_flight["judge"] > 1
    assert corpora[4] == corpora[1]
    assert threads == {threading.get_ident()}


def test_memoized_waiting_oracle_keeps_calls_in_flight(tmp_path):
    slow = SlowOracle()
    run_all(seed_workspace(tmp_path / "ws"), MemoizingOracle(slow), PipelineConfig(workers=4))
    assert slow.max_in_flight["instantiate"] > 1
    assert slow.max_in_flight["judge"] > 1


def test_mock_oracle_calls_run_on_the_calling_thread(tmp_path, monkeypatch):
    """The mock computes its answers under the interpreter lock, so a pool
    would only contend for it: ``workers`` does not start one."""
    threads = []
    complete = MockOracle.complete

    def recording_complete(self, request):
        threads.append((request.template_id, threading.get_ident()))
        return complete(self, request)

    monkeypatch.setattr(MockOracle, "complete", recording_complete)
    run_all(seed_workspace(tmp_path / "ws"), MockOracle(), PipelineConfig(workers=6))
    assert {template for template, _ in threads} == {"evolve", "instantiate", "judge"}
    assert {ident for _, ident in threads} == {threading.get_ident()}


def test_mock_parses_each_distinct_canvas_markup_once(tmp_path, monkeypatch):
    from lamlab.oracle import mock

    parsed = []
    parse_canvas = mock.parse_canvas

    def counting_parse(text):
        parsed.append(text)
        return parse_canvas(text)

    monkeypatch.setattr(mock, "parse_canvas", counting_parse)
    mock._first_paragraph_run.cache_clear()
    run_all(seed_workspace(tmp_path / "ws"), MockOracle(), PipelineConfig())
    assert parsed
    assert len(parsed) == len(set(parsed))


def test_providers_declare_whether_they_wait():
    assert MockOracle.waits_on_io is False
    assert RemoteOracle.waits_on_io is True
    assert MemoizingOracle(MockOracle()).waits_on_io is False
    assert MemoizingOracle(WaitingMock()).waits_on_io is True
    assert MemoizingOracle(SlowOracle()).waits_on_io is True
