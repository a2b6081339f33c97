"""The benchmark's workloads import and build the same config objects they
build when run, so a change that breaks ``benchmarks/`` fails here too."""

import os
from pathlib import Path

import pytest

from lamlab.training import PhaseConfigs

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    return workloads


def test_workloads_build_their_configs(workloads):
    assert workloads.harness.desk_phase_configs() == PhaseConfigs()
    assert workloads.AgentConfig(max_steps=20, mode="argmax") == workloads.AgentConfig()
    # As benchmarks/run.py sizes the pool.
    workers = min(workloads.PipelineConfig().workers, len(os.sched_getaffinity(0)))
    assert workloads.PipelineConfig(workers=workers).workers == workers
    for name, workload in workloads.WORKLOADS.items():
        assert workload(1, workers).name == name


def test_traced_agent_run_notes_featurized_pairs(workloads):
    """Inference scores a state without featurizing; phase-2 preparation
    still featurizes, and the traced benchmark notes its pairs."""
    import layers
    from tracing import Tracer

    from lamlab import agent
    from lamlab.env_sim import list_controls, load_template
    from lamlab.policy import AgentState, ModelParams, enumerate_candidates
    from lamlab.training import prepare_imitation

    task = 'Type the text "zz" in the document.'
    controls = tuple(list_controls(load_template("plain_text")))
    state = AgentState(task=task, step_id=1, controls=controls)
    expert = enumerate_candidates(state)[0].to_action_call()
    tracer = Tracer()
    layers.install(tracer)
    try:
        agent.run_task(agent.ModelPolicy(params=ModelParams.zeros()), "plain_text", task,
                       clock=lambda: 0.0)
        prepare_imitation([[(state, expert)]])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert tracer.distinct("policy.featurize") > 0
    assert summary["policy.featurize"]["calls"] == len(enumerate_candidates(state))
    assert summary["policy.action_distribution"]["calls"] > 0
    assert summary["agent.run_task"]["calls"] == 1
