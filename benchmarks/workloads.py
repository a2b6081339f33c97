"""The benchmark's workloads.

Each workload has a ``setup`` (timed as ``setup_s``), a ``prepare`` that
gives one iteration fresh inputs (untimed), and an ``iterate`` that runs the
measured work once and returns its :class:`Timing`. Output checks run on every
iteration; a failed check is recorded in ``problems`` and makes the run
incorrect. Why each workload exists, and which layer metric should move
which end-to-end metric, is in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import time
from pathlib import Path
from typing import NamedTuple

import inputs
from percentiles import nearest_rank, tail_percentile

from lamlab import harness
from lamlab.agent import AgentConfig, ModelPolicy, run_task
from lamlab.dataflow import STAGES, PipelineConfig, run_all, validate_training_record
from lamlab.errors import LamLabError
from lamlab.evaluation import eval_online
from lamlab.oracle import MockOracle
from lamlab.policy import ModelParams
from lamlab.training import run_phase

# Suite TSR per checkpoint at the time the benchmark was written. A run whose
# TSR falls below any of these is incorrect; a higher TSR is allowed.
REFERENCE_TSR = {1: 0.12, 2: 0.92, 3: 0.92, 4: 0.92}
# Seed of every training phase, as in the harness and the acceptance tests.
TRAINING_SEED = 0
# Raw records of the pipeline's warm-up pass in set-up, out of 400.
WARMUP_RECORDS = 100


class Timing(NamedTuple):
    """Seconds of one timed region by two clocks: the wall clock, and the
    CPU time of this process (all its threads), which leaves out the time
    the host gave the process's virtual CPU to someone else."""

    wall: float
    cpu: float


def clocks() -> Timing:
    """Both clocks now; subtract with :func:`since`."""
    return Timing(time.perf_counter(), time.process_time())


def since(start: Timing) -> Timing:
    now = clocks()
    return Timing(now.wall - start.wall, now.cpu - start.cpu)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(paths: list[Path]) -> dict[str, str]:
    return {p.name: sha256_bytes(p.read_bytes()) for p in paths}


def check_training_rows(path: Path) -> list[str]:
    """Problems with any row of a ``training.jsonl`` file, by line number."""
    problems = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            for problem in validate_training_record(json.loads(line)):
                problems.append(f"{path.name}:{line_no}: {problem}")
    return problems


class Workload:
    """Shared bookkeeping; subclasses fill in setup/prepare/iterate."""

    name = ""
    tasks_per_iteration = 0
    # Spans the traced run must see at least one call into, and span-name
    # prefixes it must see none of.
    required_spans: tuple[str, ...] = ()
    bypassed_layers: tuple[str, ...] = ()

    def __init__(self, seed: int, workers: int):
        self.seed = seed
        self.workers = workers
        self.oracle = MockOracle()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.input_stats: dict = {}
        self.digests: dict = {}

    def expect_same(self, what: str, digest) -> None:
        """Outputs of every iteration must match those of the first."""
        if self.digests.setdefault(what, digest) != digest:
            self.problems.append(f"{what} differ between iterations")

    def check_setup(self) -> None:
        """Checks and input statistics of the last set-up (untimed)."""

    def prepare(self, directory: Path) -> None:
        """Fresh inputs for one iteration in ``directory`` (untimed)."""

    def report(self, walls: list[float]) -> dict[str, tuple[float, str, str]]:
        """Workload-specific figures printed next to the end-to-end metrics:
        name -> (value, unit, better)."""
        return {}

    def layer_outputs(self) -> dict[str, float]:
        """Output values reported among the per-layer metrics; zero where the
        workload does not produce them."""
        return {**{f"evaluation.tsr.lam{p}": 0.0 for p in (1, 2, 3, 4)}, "agent.tsr": 0.0}


class SuiteLifecycle(Workload):
    """Build the suite workspace, then train phases 1-4 with the desk
    configuration and evaluate all four checkpoints online."""

    name = "suite_lifecycle"
    tasks_per_iteration = 50
    required_spans = (
        "harness.build_suite_workspace",
        "training.phase1",
        "training.phase2",
        "training.phase3",
        "training.phase4",
        "training.sft_plan_loss",
        "training.imitation_loss",
        "training.status_loss",
        "training.train_reward_model",
        "training.self_boost",
        "policy.enumerate_candidates",
        "policy.featurize",
        "policy.action_distribution",
        "policy.generate_plan",
        "agent.run_task",
        "evaluation.eval_online",
        "env_sim.apply_action",
        "env_sim.digest",
        "dataflow.execute",
        "oracle.judge",
        "jsonl.read_jsonl",
        "jsonl.write_jsonl",
    )

    def __init__(self, seed: int, workers: int):
        super().__init__(seed, workers)
        self.pristine: Path | None = None
        self.workspace: Path | None = None
        self.train_s: list[float] = []
        self.eval_s: list[float] = []
        self.tsr: dict[int, float] = {}

    def setup(self, directory: Path) -> None:
        harness.build_suite_workspace(directory, self.oracle)
        self.pristine = directory

    def check_setup(self) -> None:
        self.problems.extend(check_training_rows(self.pristine / "corpus" / "training.jsonl"))
        self.input_stats = inputs.input_stats(
            [{"task": t.task, "template_id": t.template_id, "family": t.family}
             for t in harness.load_suite_tasks()]
        )

    def prepare(self, directory: Path) -> None:
        shutil.copytree(self.pristine, directory)
        self.workspace = directory

    def iterate(self) -> Timing:
        configs = harness.desk_phase_configs()
        checkpoints: dict[int, ModelParams] = {}
        started = clocks()
        for phase in (1, 2, 3, 4):
            self.attempted += 1
            try:
                out = run_phase(phase, self.workspace, self.oracle, configs, seed=TRAINING_SEED)
            except LamLabError as exc:
                self.failed += 1
                self.problems.append(f"phase {phase} raised {type(exc).__name__}: {exc}")
                break
            checkpoints[phase] = ModelParams.load(out / "weights.json")
        trained = time.perf_counter()
        tsr = {}
        for phase, params in checkpoints.items():
            self.attempted += 1
            tsr[phase] = eval_online(harness.suite_runs(params)).tsr
        timing = since(started)
        self.train_s.append(trained - started.wall)
        self.eval_s.append(started.wall + timing.wall - trained)

        self.expect_same("tsr", tsr)
        self.tsr = tsr
        for phase, floor in REFERENCE_TSR.items():
            if tsr.get(phase, -1.0) < floor:
                self.problems.append(f"tsr.lam{phase} = {tsr.get(phase)} is below {floor}")
        ckpt = self.workspace / "checkpoints"
        self.expect_same(
            "checkpoint digests",
            file_digests([ckpt / n / "weights.json" for n in ("lam1", "lam2", "lam3", "lam4", "rm")]),
        )
        self.expect_same(
            "corpus digests", file_digests([self.workspace / "corpus" / "boost_training.jsonl"])
        )
        return timing

    def report(self, walls):
        out = {
            "train_s": (statistics.median(self.train_s), "s", "lower"),
            "eval_s": (statistics.median(self.eval_s), "s", "lower"),
        }
        for phase, value in sorted(self.tsr.items()):
            out[f"tsr.lam{phase}"] = (value, "ratio", "higher")
        return out

    def layer_outputs(self):
        tsr = {f"evaluation.tsr.lam{p}": self.tsr.get(p, 0.0) for p in (1, 2, 3, 4)}
        return {**super().layer_outputs(), **tsr}


class PipelineScaled(Workload):
    """``dataflow.run_all`` with the mock oracle over a generated raw corpus."""

    name = "pipeline_scaled"
    required_spans = tuple(f"dataflow.{stage}" for stage in STAGES) + (
        "oracle.evolve",
        "oracle.instantiate",
        "oracle.judge",
        "env_sim.apply_action",
        "env_sim.digest",
        "env_sim.load_template",
        "jsonl.read_jsonl",
        "jsonl.write_jsonl",
    )
    bypassed_layers = ("policy.", "training.", "agent.", "evaluation.", "harness.")

    def __init__(self, seed: int, workers: int):
        super().__init__(seed, workers)
        self.raw_file: Path | None = None
        self.warmup: Path | None = None
        self.workspace: Path | None = None
        self.records_written = 0

    def setup(self, directory: Path) -> None:
        records = inputs.raw_corpus(self.seed)
        self.raw_file = directory / "raw_records.jsonl"
        directory.mkdir(parents=True, exist_ok=True)
        self.raw_file.write_bytes(inputs.canonical_bytes(records))
        self.tasks_per_iteration = len(records)
        self.input_stats = inputs.input_stats(records)
        # A warm-up pass over the first records loads the prompt templates
        # and fills the program's lazy caches before the timed iterations, so
        # work moved into first use shows in set-up.
        self.warmup = directory / "warmup"
        (self.warmup / "corpus").mkdir(parents=True)
        (self.warmup / "corpus" / "raw_records.jsonl").write_bytes(
            inputs.canonical_bytes(records[:WARMUP_RECORDS])
        )
        run_all(self.warmup, self.oracle, PipelineConfig(workers=self.workers))

    def check_setup(self) -> None:
        corpus = self.warmup / "corpus"
        self.problems.extend(check_training_rows(corpus / "training.jsonl"))
        self.expect_same("warm-up corpus digests", file_digests(sorted(corpus.glob("*.jsonl"))))

    def prepare(self, directory: Path) -> None:
        (directory / "corpus").mkdir(parents=True)
        shutil.copyfile(self.raw_file, directory / "corpus" / "raw_records.jsonl")
        self.workspace = directory

    def iterate(self) -> Timing:
        started = clocks()
        reports = run_all(self.workspace, self.oracle, PipelineConfig(workers=self.workers))
        timing = since(started)

        self.attempted += sum(r.read for r in reports)
        self.failed += sum(len(r.skipped) for r in reports)
        corpus = self.workspace / "corpus"
        training = corpus / "training.jsonl"
        self.problems.extend(check_training_rows(training))
        rows = len(training.read_bytes().splitlines())
        if rows != reports[-1].written or rows == 0:
            self.problems.append(
                f"training.jsonl has {rows} rows, postprocess wrote {reports[-1].written}"
            )
        self.records_written += rows
        self.expect_same("corpus digests", file_digests(sorted(corpus.glob("*.jsonl"))))
        self.expect_same(
            "stage counts", [(r.stage, r.read, r.written, len(r.skipped)) for r in reports]
        )
        return timing

    def report(self, walls):
        return {"records_per_s": (self.records_written / sum(walls), "1/s", "higher")}


class AgentOnline(Workload):
    """Argmax agent runs of the lam2 checkpoint over generated tasks."""

    name = "agent_online"
    required_spans = (
        "harness.build_suite_workspace",
        "training.phase1",
        "training.phase2",
        "policy.enumerate_candidates",
        "policy.featurize",
        "policy.action_distribution",
        "policy.generate_plan",
        "agent.run_task",
        "agent.observe",
        "agent.decide",
        "agent.execute",
        "env_sim.apply_action",
        "env_sim.digest",
        "env_sim.load_template",
    )

    def __init__(self, seed: int, workers: int):
        super().__init__(seed, workers)
        self.params: ModelParams | None = None
        self.tasks: list[dict] = []
        self.step_times: list[float] = []
        self.tsr = 0.0

    def setup(self, directory: Path) -> None:
        harness.build_suite_workspace(directory, self.oracle)
        configs = harness.desk_phase_configs()
        for phase in (1, 2):
            out = run_phase(phase, directory, self.oracle, configs, seed=TRAINING_SEED)
        self.params = ModelParams.load(out / "weights.json")
        self.expect_same("checkpoint digests", file_digests([out / "weights.json"]))
        self.tasks = inputs.agent_tasks(self.seed)
        self.tasks_per_iteration = len(self.tasks)

    def check_setup(self) -> None:
        self.input_stats = inputs.input_stats(self.tasks)

    def iterate(self) -> Timing:
        config = AgentConfig(max_steps=20, mode="argmax")
        runs = []
        started = clocks()
        for task in self.tasks:
            self.attempted += 1
            try:
                runs.append(
                    run_task(
                        ModelPolicy(params=self.params, mode="argmax"),
                        task["template_id"],
                        task["task"],
                        config=config,
                        task_id=task["task_id"],
                        clock=time.perf_counter,
                    )
                )
            except Exception as exc:  # a task that raises is counted, not fatal
                self.failed += 1
                self.problems.append(f"{task['task_id']} raised {type(exc).__name__}: {exc}")
        timing = since(started)

        for run in runs:
            self.step_times.extend(run.step_times)
        self.tsr = eval_online(runs).tsr
        self.expect_same("agent tsr", self.tsr)
        trajectories = "\n".join(
            json.dumps(r.trajectory.to_dict(), sort_keys=True) for r in runs
        )
        self.expect_same("trajectory digest", sha256_bytes(trajectories.encode("utf-8")))
        return timing

    def report(self, walls):
        ordered = sorted(self.step_times)
        out = {
            "step_p50_ms": (nearest_rank(ordered, 50) * 1e3, "ms", "lower"),
            "step_p99_ms": (nearest_rank(ordered, 99) * 1e3, "ms", "lower"),
            "step_samples": (len(ordered), "count", "higher"),
            "agent_tsr": (self.tsr, "ratio", "higher"),
        }
        tail = tail_percentile(ordered)
        if tail is not None and tail[0] > 99:
            out[f"step_p{tail[0]:g}_ms"] = (tail[1] * 1e3, "ms", "lower")
        return out

    def layer_outputs(self):
        return {**super().layer_outputs(), "agent.tsr": self.tsr}


WORKLOADS = {w.name: w for w in (SuiteLifecycle, PipelineScaled, AgentOnline)}
