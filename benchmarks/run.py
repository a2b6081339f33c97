"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload suite_lifecycle --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics of
``BENCHMARK.json`` with no tracing. With ``--trace 1`` it wraps the program's
public functions (see layers.py), runs the set-up and one iteration traced,
then untraced iterations for the rest of ``--seconds``, and reports the
per-layer metrics. Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a fuller record
(environment, input statistics, output digests, checks) is written to
``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is timed in batches of as many set-ups as take about
# SETUP_BATCH_SECONDS, and each batch gives one sample: the mean time of one
# set-up in it. A short set-up on a shared virtual machine runs at one of two
# speeds, in streaks, and the median of single set-ups jumps between them;
# the mean over a batch does not. There are at least SETUP_REPEATS samples,
# and as many as fill SETUP_MIN_SECONDS, spread over the whole run between
# the iterations, so that the median does not hang on one second of it.
SETUP_BATCH_SECONDS = 0.25
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 3.0


def load_program() -> None:
    """Import the program from this checkout's ``src``; exit if it is absent."""
    package = ROOT / "src" / "lamlab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"benchmark: program source not found at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import lamlab

    if Path(lamlab.__file__).resolve().parent != package.resolve():
        sys.exit(f"benchmark: imported lamlab from {lamlab.__file__}, not {package}")


def environment(args: argparse.Namespace, workers: int) -> dict:
    import workloads

    tree = hashlib.sha256()
    package = ROOT / "src" / "lamlab"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            tree.update(path.relative_to(package).as_posix().encode() + b"\0")
            tree.update(path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "workload": args.workload,
        "seed": args.seed,
        "training_seed": workloads.TRAINING_SEED,
        "agent_mode": "argmax",
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str | None:
    """HEAD's commit id read from ``.git`` without running git; None when the
    checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def run_iterations(workload, scratch: Path, seconds: float, first: int = 0, between=None) -> list:
    """Timed iterations until ``seconds`` have been spent on them; at least
    one. Returns each iteration's :class:`workloads.Timing`. After each,
    ``between`` (if given) is called with the share of ``seconds`` spent so
    far, capped at 1; its own time is not counted."""
    timings = []
    spent = 0.0
    index = first
    while True:
        started = time.perf_counter()
        directory = scratch / f"iter{index}"
        workload.prepare(directory)
        gc.collect()
        timings.append(workload.iterate())
        shutil.rmtree(directory, ignore_errors=True)
        spent += time.perf_counter() - started
        index += 1
        if between is not None:
            between(min(1.0, spent / seconds) if seconds > 0 else 1.0)
        if spent >= seconds:
            return timings


def timed_setup(workload, scratch: Path, setups: list) -> None:
    """One more timed set-up. The newest replaces the one before it, whose
    directory is deleted; all of them must give the same outputs."""
    from workloads import clocks, since

    directory = scratch / f"setup{len(setups)}"
    gc.collect()
    started = clocks()
    workload.setup(directory)
    setups.append(since(started))
    workload.check_setup()
    shutil.rmtree(scratch / f"setup{len(setups) - 2}", ignore_errors=True)


def measure(workload, scratch: Path, seconds: float) -> tuple[dict, dict]:
    """The gated times are CPU times (see README.md); wall-clock times are
    reported next to them."""
    from workloads import Timing

    setups: list = []
    samples: list = []
    timed_setup(workload, scratch, setups)
    batch = max(1, math.ceil(SETUP_BATCH_SECONDS / setups[0].wall))
    wanted = max(SETUP_REPEATS, math.ceil(SETUP_MIN_SECONDS / (batch * setups[0].wall)))

    def sample() -> None:
        first = len(samples) * batch
        while len(setups) < first + batch:
            timed_setup(workload, scratch, setups)
        done = setups[first:]
        samples.append(Timing(*(statistics.fmean(clock) for clock in zip(*done))))

    def more_samples(progress: float) -> None:
        while len(samples) < max(1, round(wanted * progress)):
            sample()

    sample()
    timings = run_iterations(workload, scratch, seconds, between=more_samples)
    walls = [t.wall for t in timings]
    cpus = [t.cpu for t in timings]
    tasks = workload.tasks_per_iteration * len(timings)
    metrics = {
        "setup_s": statistics.median(t.cpu for t in samples),
        "cpu_s": statistics.median(cpus),
        "tasks_per_cpu_s": tasks / sum(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "setup_wall_s": (statistics.median(t.wall for t in samples), "s", "lower"),
        "wall_s": (statistics.median(walls), "s", "lower"),
        "tasks_per_s": (tasks / sum(walls), "1/s", "higher"),
        **workload.report(walls),
    }
    detail = {
        "setup_batch": batch,
        "setup_s": [t._asdict() for t in setups],
        "iterations": [t._asdict() for t in timings],
        "report": report,
    }
    return metrics, detail


def trace(workload, scratch: Path, seconds: float, spans_file: Path) -> tuple[dict, dict]:
    import layers
    from tracing import Tracer

    from lamlab.oracle import MockOracle

    started = time.perf_counter()
    tracer = Tracer()
    layers.install(tracer)
    try:
        workload.oracle = layers.TimedOracle(MockOracle(), tracer)
        workload.setup(scratch / "setup0")
        traced_wall = run_iterations(workload, scratch, 0)[0].wall
    finally:
        tracer.uninstall()
        workload.oracle = MockOracle()
    workload.check_setup()
    spans = tracer.summary(layers.SELF_TIME)
    layers.check_layers(spans, workload.required_spans, workload.bypassed_layers)
    metrics = layers.per_layer(tracer, spans)
    metrics.update(workload.layer_outputs())
    remaining = seconds - (time.perf_counter() - started)
    walls = [t.wall for t in run_iterations(workload, scratch, remaining, first=1)]
    metrics["trace.overhead_ratio"] = traced_wall / statistics.median(walls)
    tracer.write(spans_file)
    detail = {"traced_wall_s": traced_wall, "untraced_wall_s": walls, "spans": len(tracer.span_id)}
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Python salts string hashes per process unless told not to. The salt
    # changes set and dict layouts, and with them the speed of the same work
    # from one run to the next, so the run replaces itself with a fixed one.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, *sys.argv])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    load_program()
    sys.path.insert(0, str(HERE))
    import workloads

    from lamlab.dataflow import PipelineConfig

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    # The CLI's default pool size, capped at the cores this process may use.
    workers = min(PipelineConfig().workers, len(os.sched_getaffinity(0)))
    workload = workloads.WORKLOADS[args.workload](args.seed, workers)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        if args.trace:
            declared = spec["per_layer"]
            metrics, detail = trace(
                workload, scratch, args.seconds, out_dir / f"spans-{args.workload}.tsv"
            )
        else:
            declared = spec["end_to_end"]
            metrics, detail = measure(workload, scratch, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        raise SystemExit(
            f"benchmark: metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json"
        )
    result = {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {
        "environment": environment(args, workers),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"], "better": m["better"]}
            for m in declared
        },
        "report": {
            name: {"value": v, "unit": unit, "better": better}
            for name, (v, unit, better) in detail.pop("report", {}).items()
        },
        "input_stats": workload.input_stats,
        "digests": workload.digests,
        "problems": workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "timings": detail,
    }
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(f"inputs: {json.dumps(workload.input_stats, sort_keys=True)}")
    for m in declared:
        print(f"{m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']:<6} ({m['better']} is better)")
    for name, entry in record["report"].items():
        print(f"{name:<44} {entry['value']:>14.6g} {entry['unit']:<6} ({entry['better']} is better)")
    for problem in workload.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
