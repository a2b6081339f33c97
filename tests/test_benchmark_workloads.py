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
