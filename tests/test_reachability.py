"""Reachability guard: every public function and method of ``lamlab`` is
called by a program flow, or is on an allowlist that says why it stays.

The flows are the bundled-corpus CLI lifecycle (``dataflow run`` for all
stages and for each stage alone, ``train --phase 1..4``, ``agent run`` in
argmax and sample mode, ``eval plan|actions|online``, ``report``) and a suite
build with a few ``suite_runs``. ``sys.setprofile`` records the code object
of every Python call they make. The flows run in a fresh interpreter, since
work that earlier tests left in a process-wide cache never enters the
function that did it. Run as a script, this file prints the unreached names
as a JSON list:

    PYTHONPATH=src python tests/test_reachability.py <empty work directory>
"""

import contextlib
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import lamlab
from lamlab.cli import main
from lamlab.dataflow import STAGES
from lamlab.harness import build_suite_workspace, load_suite_tasks, suite_runs
from lamlab.jsonl import read_jsonl, write_jsonl
from lamlab.policy import ModelParams

# Public names no flow calls, each with the reason it stays.
ALLOWLIST = {
    "lamlab.agent.Policy.decide": "the agent's policy interface",
    "lamlab.agent.ScriptedPolicy.decide": "test double that replays scripted demonstrations",
    "lamlab.cli.app": "console-script entry point; the flows call cli.main",
    "lamlab.env_sim.controls.map_tree": "tab selection rebuilds the tree; no flow selects a tab",
    "lamlab.evaluation.PredictedStep.to_dict": (
        "offline evaluation from a checkpoint will write predicted steps"
    ),
    "lamlab.harness.desk_phase_configs": "benchmarks/ calls it",
    "lamlab.harness.run_suite_phases": "README documents it; checkpoint_digests.py trains with it",
    "lamlab.oracle.base.OracleRequest.cache_key": "remote oracle: the memoizing cache's key",
    "lamlab.oracle.base.Provider.complete": "the oracle provider interface",
    "lamlab.oracle.base.split_messages": "remote oracle: builds the chat messages",
    "lamlab.oracle.remote.MemoizingOracle.complete": "remote oracle",
    "lamlab.oracle.remote.MemoizingOracle.waits_on_io": "remote oracle",
    "lamlab.oracle.remote.RemoteOracle.complete": "remote oracle",
    "lamlab.policy.candidates.CandidateAction.control_type": "benchmarks/ calls it",
    "lamlab.policy.model.ActionDistribution.log_probs": (
        "the joint action and status log-probability a real phase 4 needs"
    ),
}


def public_functions() -> dict:
    """Qualified name -> code object of every public module-level function and
    public class method, property or cached property defined in ``lamlab``."""
    found = {}
    for info in pkgutil.walk_packages(lamlab.__path__, "lamlab."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            qualified = f"{module.__name__}.{name}"
            function = inspect.unwrap(obj)  # the function a memoizing wrapper calls
            if inspect.isfunction(function):
                found[qualified] = function.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, cached_property):
                        member = member.func
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found[f"{qualified}.{attr}"] = member.__code__
    return found


def program_flows(tmp_path) -> None:
    ws = tmp_path / "ws"
    base = ["--workspace", str(ws), "--clock", "zero", "--seed", "0"]

    def run(*argv):
        assert main([*base, *argv]) == 0, argv

    run("dataflow", "run", "--stage", "all")
    for stage in STAGES:
        run("dataflow", "run", "--stage", stage)
    for phase in "1234":
        run("train", "--phase", phase)
    task = 'Highlight the text "Test For Fun" in yellow in the document.'
    for mode in ("argmax", "sample"):
        run("agent", "run", "--task", task, "--template", "plain_text", "--mode", mode,
            "--task-id", mode)
    pairs = tmp_path / "pairs.jsonl"
    write_jsonl(pairs, ({"task": r["task"], "pred": r["plan"], "truth": r["plan"]}
                        for r in read_jsonl(ws / "corpus" / "evolved.jsonl")))
    run("eval", "plan", "--pairs", str(pairs))
    pred, truth = tmp_path / "pred.jsonl", tmp_path / "truth.jsonl"
    write_jsonl(pred, [{"task_id": "t", "steps": [
        {"control_text": "Bold", "function": "click_input", "status": "FINISH"}]}])
    write_jsonl(truth, [{"task_id": "t", "steps": [
        {"acceptable_objects": ["Bold"], "operation": "click_input", "status": "FINISH"}]}])
    run("eval", "actions", "--pred", str(pred), "--truth", str(truth))
    run("eval", "online", "--runs", str(ws / "runs" / "agent" / "argmax.jsonl"))
    run("report")

    build_suite_workspace(tmp_path / "suite")
    params = ModelParams.load(ws / "checkpoints" / "lam2" / "weights.json")
    suite_runs(params, load_suite_tasks()[:3])


def unreached_names(tmp_path: Path) -> list[str]:
    """The public functions that ``program_flows`` never calls."""
    functions = public_functions()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            program_flows(tmp_path)
    finally:
        sys.setprofile(previous)
    return sorted(name for name, code in functions.items() if code not in called)


def test_every_public_function_is_reached_or_allowlisted(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    unreached = set(json.loads(out.stdout))
    assert sorted(unreached - ALLOWLIST.keys()) == [], "called by no flow: call or delete them"
    assert sorted(ALLOWLIST.keys() - unreached) == [], "reached or gone: drop from the allowlist"


if __name__ == "__main__":
    print(json.dumps(unreached_names(Path(sys.argv[1]))))
