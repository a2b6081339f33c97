"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
progress and timing lines.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lamlab.agent import ScriptedPolicy, run_task
from lamlab.cli import main as cli_main
from lamlab.dataflow import (
    InstantiatedTask,
    Trajectory,
    execute_trajectory,
    validate_training_record,
)
from lamlab.env_sim import ActionCall
from lamlab.evaluation import (
    GroundTruthStep,
    PredictedStep,
    eval_actions,
    eval_online,
    eval_plans,
)
from lamlab.jsonl import read_jsonl, sha256_file, write_jsonl
from lamlab.policy import AgentState, ModelParams, build_plan_vocab
from lamlab.textutil import normalize_line, word_count
from lamlab.training import (
    PpoConfig,
    RewardModelParams,
    RewardedStep,
    clipped_term,
    imitation_loss,
    prepare_imitation,
    prepare_plans,
    prepare_rewarded,
    rm_mse_loss,
    ppo_update,
    sft_plan_loss,
)
from lamlab.training.reward import RM_FEATURE_NAMES
from lamlab.harness import (
    build_suite_workspace,
    load_suite_tasks,
    run_suite_phases,
    suite_runs,
)

from checkpoint_digests import runs_digest


def report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


# --------------------------------------------------------------------------
# 1. Metric-oracle equivalence on 200 seeded random suites, exact, < 10 s.
# --------------------------------------------------------------------------

_FUNCTIONS = ["click_input", "select_text", "toggle_bold", "set_font_size", "scroll"]
_CONTROLS = ["", "Bold", "Styles", "Table", "Page Borders"]
_STEP_TEXTS = [f"step number {i} does a thing" for i in range(9)]


def _random_action_suite(rng, tasks):
    truth, pred = {}, {}
    for i in range(tasks):
        n = rng.randint(1, 4)
        t_steps, p_steps = [], []
        for j in range(n):
            fn, ctrl = rng.choice(_FUNCTIONS), rng.choice(_CONTROLS)
            status = "FINISH" if j == n - 1 else "CONTINUE"
            t_steps.append(
                GroundTruthStep(
                    acceptable_objects=(ctrl,) if ctrl else (), operation=fn, status=status
                )
            )
            if rng.random() < 0.65:
                p_steps.append(PredictedStep(control_text=ctrl, function=fn, status=status))
            else:
                p_steps.append(
                    PredictedStep(
                        control_text=rng.choice(_CONTROLS),
                        function=rng.choice(_FUNCTIONS),
                        status=rng.choice(["CONTINUE", "FINISH"]),
                    )
                )
        if rng.random() < 0.15:
            p_steps = p_steps[: max(len(p_steps) - 1, 0)]
        truth[f"t{i}"] = t_steps
        pred[f"t{i}"] = p_steps
    return pred, truth


def _brute_action_metrics(pred, truth):
    obj = op = st_ = step = 0
    total = 0
    flags = []
    for tid in sorted(pred):
        ps, ts = pred[tid], truth[tid]
        ok = len(ps) == len(ts)
        for i, t in enumerate(ts):
            total += 1
            if i >= len(ps):
                ok = False
                continue
            p = ps[i]
            o1 = (p.control_text in t.acceptable_objects) if t.acceptable_objects else (
                p.control_text == ""
            )
            o2 = p.function == t.operation
            o3 = p.status == t.status
            obj += o1
            op += o2
            st_ += o3
            if o1 and o2 and o3:
                step += 1
            else:
                ok = False
        flags.append(ok)
    return obj / total, op / total, st_ / total, step / total, sum(flags) / len(flags)


def _brute_plan_metrics(pairs):
    matched_total = pred_total = truth_total = solved = 0
    for _, pred, truth in pairs:
        taken = [False] * len(truth)
        matched = 0
        for p in pred:
            for j, t in enumerate(truth):
                if not taken[j] and normalize_line(p) == normalize_line(t):
                    taken[j] = True
                    matched += 1
                    break
        matched_total += matched
        pred_total += len(pred)
        truth_total += len(truth)
        if truth and matched / len(truth) >= 0.8:
            solved += 1
    return (
        solved / len(pairs),
        matched_total / pred_total if pred_total else 0.0,
        matched_total / truth_total if truth_total else 0.0,
    )


def test_criterion_1_metric_oracle_equivalence():
    started = time.perf_counter()
    for seed in range(200):
        rng = random.Random(seed)
        pred, truth = _random_action_suite(rng, tasks=rng.randint(3, 12))
        result = eval_actions(pred, truth)
        obj, op, st_, step, tsr = _brute_action_metrics(pred, truth)
        assert result.object_acc == obj
        assert result.operation_acc == op
        assert result.status_acc == st_
        assert result.ssr == step
        assert result.tsr == tsr

        pairs = []
        for i in range(rng.randint(1, 8)):
            p = [rng.choice(_STEP_TEXTS) for _ in range(rng.randint(0, 5))]
            t = [rng.choice(_STEP_TEXTS) for _ in range(rng.randint(1, 5))]
            pairs.append((f"task {i}", p, t))
        plan_result = eval_plans(pairs)
        tsr_p, precision, recall = _brute_plan_metrics(pairs)
        assert plan_result.tsr == tsr_p
        assert plan_result.step_precision == precision
        assert plan_result.step_recall == recall
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, f"200 random suites match the brute-force oracle exactly ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 2. PPO identities, < 1 s.
# --------------------------------------------------------------------------


def test_criterion_2_ppo_identities():
    started = time.perf_counter()
    from lamlab.env_sim import list_controls, load_template

    snapshot = load_template("plain_text")
    state = AgentState(
        task='Highlight the text "Test For Fun" in yellow in the document.',
        step_id=1,
        controls=tuple(list_controls(snapshot)),
    )
    steps = [(state, ActionCall(function="select_text", args={"text": "Test For Fun"}))] * 3
    advantages = [0.4, -0.1, 0.25]
    rng = random.Random(0)
    params = ModelParams.zeros().replaced(
        {name: rng.uniform(-1, 1) for name in ModelParams.zeros().weights if name.startswith("act::")}
    )
    _, diagnostics = ppo_update(params, params, steps, advantages, PpoConfig())
    value = diagnostics.surrogate_before
    assert abs(value - sum(advantages) / len(advantages)) <= 1e-12

    assert clipped_term(1.5, 1.0, 0.2) == 1.2
    assert clipped_term(0.5, -1.0, 0.2) == -0.8
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, f"ratio-1 surrogate equals mean advantage; clip examples exact ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 3. Gradient checks vs central finite differences, 20 seeded batches, < 60 s.
# --------------------------------------------------------------------------


class _PlanRec:
    def __init__(self, task, plan):
        self.task = task
        self.plan = tuple(plan)


def _fd_ok(loss_fn, get, set_, names, h=1e-5, tol=1e-4):
    base_loss, grads = loss_fn()
    for name in names:
        g = grads.get(name, 0.0)
        original = get(name)
        set_(name, original + h)
        plus = loss_fn()[0]
        set_(name, original - h)
        minus = loss_fn()[0]
        set_(name, original)
        numeric = (plus - minus) / (2 * h)
        denom = max(abs(g), abs(numeric), 1e-8)
        if abs(g - numeric) / denom >= tol:
            return False, f"{name}: analytic {g} vs numeric {numeric}"
    return True, ""


def test_criterion_3_gradient_checks():
    started = time.perf_counter()
    from lamlab.env_sim import list_controls, load_template

    controls = tuple(list_controls(load_template("plain_text")))
    vocab = build_plan_vocab([["Alpha step.", "Beta step.", "Gamma step."]])
    plan_choices = [["Alpha step."], ["Beta step.", "Alpha step."], ["Gamma step."]]
    tasks = [
        'Highlight the text "Test For Fun" in yellow in the document.',
        'Make the text "Test For Fun" bold in the document.',
        "Insert a 3 x 2 table at the end of the document.",
    ]
    expert_by_task = {
        tasks[0]: ActionCall(function="select_text", args={"text": "Test For Fun"}),
        tasks[1]: ActionCall(function="select_text", args={"text": "Test For Fun"}),
        tasks[2]: ActionCall(function="insert_table", args={"rows": 3, "cols": 2}),
    }

    for seed in range(20):
        rng = random.Random(seed)
        params = ModelParams.zeros(plan_vocab=vocab)
        params = params.replaced({n: rng.uniform(-0.4, 0.4) for n in params.weights})
        holder = {"params": params}

        def get(name):
            return holder["params"].get(name)

        def set_(name, value):
            holder["params"] = holder["params"].replaced({name: value})

        batch = prepare_plans(
            [_PlanRec(rng.choice(tasks), rng.choice(plan_choices)) for _ in range(3)], vocab
        )
        ok, why = _fd_ok(
            lambda: sft_plan_loss(holder["params"], batch),
            get,
            set_,
            sft_plan_loss(holder["params"], batch)[1].keys(),
        )
        assert ok, f"sft gradient seed {seed}: {why}"

        task = rng.choice(tasks)
        trajectories = prepare_imitation(
            [[(AgentState(task=task, step_id=1, controls=controls), expert_by_task[task])]]
        )
        ok, why = _fd_ok(
            lambda: imitation_loss(holder["params"], trajectories),
            get,
            set_,
            imitation_loss(holder["params"], trajectories)[1].keys(),
        )
        assert ok, f"imitation gradient seed {seed}: {why}"

        rm_holder = {
            "params": RewardModelParams(
                weights={n: rng.uniform(-0.4, 0.4) for n in RM_FEATURE_NAMES}
            )
        }
        steps = prepare_rewarded(
            [
                RewardedStep(
                    state=AgentState(task=task, step_id=1, controls=controls),
                    action=expert_by_task[task],
                    reward=rng.choice([1, -1]),
                )
                for _ in range(3)
            ]
        )

        def rm_get(name):
            return rm_holder["params"].weights.get(name, 0.0)

        def rm_set(name, value):
            rm_holder["params"] = rm_holder["params"].replaced({name: value})

        ok, why = _fd_ok(
            lambda: rm_mse_loss(rm_holder["params"], steps),
            rm_get,
            rm_set,
            rm_mse_loss(rm_holder["params"], steps)[1].keys(),
        )
        assert ok, f"rm gradient seed {seed}: {why}"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(3, f"all three analytic gradients match finite differences on 20 batches ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 4. Phase progression on the bundled 50-task suite, < 10 min.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_phases(tmp_path_factory):
    """The suite workspace after phases 1-4 (default configs, seed 0), the
    checkpoint parameters per phase, and the seconds the build and run took."""
    started = time.perf_counter()
    ws = tmp_path_factory.mktemp("suite") / "suite_ws"
    build_suite_workspace(ws)
    checkpoints = run_suite_phases(ws, seed=0)
    return ws, checkpoints, time.perf_counter() - started


# ``runs_digest`` of each suite checkpoint's ``suite_runs``: every online run
# record, trajectory included, of the argmax agent on the 50 tasks.
_PINNED_SUITE_RUNS = {
    "lam1": "045cb892",
    "lam2": "95860dca",
    "lam3": "95860dca",
    "lam4": "95860dca",
}


def test_criterion_4_phase_progression(suite_phases):
    started = time.perf_counter()
    _, checkpoints, train_s = suite_phases
    suite = load_suite_tasks()
    assert len(suite) == 50
    assert sum(1 for t in suite if t.expert is not None) == 35

    runs = {phase: suite_runs(params, suite) for phase, params in checkpoints.items()}
    assert {f"lam{p}": runs_digest(r) for p, r in runs.items()} == _PINNED_SUITE_RUNS
    tsr = {phase: eval_online(r).tsr for phase, r in runs.items()}
    assert tsr[2] >= tsr[1] + 0.20, f"LAM2 {tsr[2]:.3f} vs LAM1 {tsr[1]:.3f}"
    assert tsr[3] >= tsr[2], f"LAM3 {tsr[3]:.3f} vs LAM2 {tsr[2]:.3f}"
    assert tsr[4] >= tsr[3] - 0.01, f"LAM4 {tsr[4]:.3f} vs LAM3 {tsr[3]:.3f}"
    elapsed = train_s + time.perf_counter() - started
    assert elapsed < 600.0
    report(
        4,
        "TSR progression "
        + " -> ".join(f"LAM{p}={tsr[p]:.2f}" for p in (1, 2, 3, 4))
        + f" ({elapsed:.1f}s)",
    )


# sha256 prefixes of each checkpoint's (weights.json, manifest.json). Every
# float sum adds left to right (``model.left_sum``), so they are the same on
# every CPython; ``test_checkpoints_are_pinned_on_other_interpreters`` checks
# that on each CPython >= 3.12 it finds.
_PINNED_CHECKPOINTS = {
    "lam1": ("7f190fac", "adb7870f"),
    "lam2": ("cf4fa8ff", "c271b487"),
    "lam3": ("f589fc24", "531ffa8a"),
    "lam4": ("f589fc24", "9e318567"),
    "rm": ("b7fa32b0", "6a3df481"),
}


def _checkpoint_digests(ws: Path, names) -> dict[str, tuple[str, str]]:
    return {
        name: tuple(
            sha256_file(ws / "checkpoints" / name / file)[:8]
            for file in ("weights.json", "manifest.json")
        )
        for name in names
    }


def test_suite_checkpoints_are_pinned(suite_phases):
    assert _checkpoint_digests(suite_phases[0], _PINNED_CHECKPOINTS) == _PINNED_CHECKPOINTS


# sha256 prefixes of the corpus files ``build_suite_workspace`` writes; the
# training phases rewrite none of them. The build hands its records from stage
# to stage in memory, so these show that the handoff writes what a build
# reading each file back would.
_PINNED_SUITE_CORPUS = {
    "evolved.jsonl": "3cfb2528",
    "instantiated.jsonl": "4179778b",
    "training.jsonl": "5903a014",
    "trajectories.jsonl": "8b99c67e",
    "verdicts.jsonl": "1e4145ba",
}


def test_suite_corpus_is_pinned(suite_phases):
    corpus = suite_phases[0] / "corpus"
    digests = {name: sha256_file(corpus / name)[:8] for name in _PINNED_SUITE_CORPUS}
    assert digests == _PINNED_SUITE_CORPUS


# sha256 prefixes of every corpus file that ``dataflow run --stage all
# --clock zero`` writes over the bundled 20-record corpus (CPython 3.11).
_PINNED_CORPUS = {
    "evolved.jsonl": "0e0d5886",
    "instantiated.jsonl": "0f5779be",
    "raw_records.jsonl": "52b4e2dd",
    "taskplan.jsonl": "1ed31733",
    "training.jsonl": "30994978",
    "trajectories.jsonl": "5e331239",
    "verdicts.jsonl": "2c43b688",
}


def test_dataflow_corpus_is_pinned(fixture_pipeline):
    corpus = fixture_pipeline / "corpus"
    digests = {path.name: sha256_file(path)[:8] for path in sorted(corpus.iterdir())}
    assert digests == _PINNED_CORPUS


# A raw corpus whose task texts and plans hold non-ASCII characters, and the
# sha256 prefixes of every corpus file ``dataflow run --stage all --clock
# zero`` writes from it (CPython 3.11). The bundled corpus is ASCII only, so
# this is the pin that shows such characters are written as UTF-8, not as
# \u escapes.
_NON_ASCII_RAW = [
    {"plan": ["Move the cursor to the end.", "Enter the note text « Réunion »."],
     "source": "wikihow", "task_id": "word_101",
     "task": 'How to write the note "Réunion déplacée à vendredi" at the end of a document'},
    {"plan": ["Find the key sentence.", "Highlight it in yellow — it’s urgent."],
     "source": "doc", "task_id": "word_102",
     "task": "Highlight the key sentence about the budget in the report document — it’s urgent"},
    {"plan": ["Pick the heading text.", "Press the Bold button on the Home tab."],
     "source": "query", "task_id": "word_103",
     "task": "make the café heading bold in the document"},
    {"plan": ["Pick the title text.", "Enter 16 in the font size box."],
     "source": "doc", "task_id": "word_104",
     "task": "Change the font size of the naïve title to 16 in the document"},
]
_PINNED_NON_ASCII_CORPUS = {
    "evolved.jsonl": "d609cbf7",
    "instantiated.jsonl": "19b4e5dc",
    "raw_records.jsonl": "bd4dcc5e",
    "taskplan.jsonl": "30d7c536",
    "training.jsonl": "aa29501d",
    "trajectories.jsonl": "e4e71c70",
    "verdicts.jsonl": "b90800b2",
}


def test_non_ascii_corpus_is_pinned(tmp_path):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in _NON_ASCII_RAW), encoding="utf-8"
    )
    ws = tmp_path / "ws"
    code = cli_main(["--workspace", str(ws), "--clock", "zero", "dataflow", "run", "--stage", "all",
                     "--input", str(raw)])
    assert code == 0
    corpus = ws / "corpus"
    digests = {path.name: sha256_file(path)[:8] for path in sorted(corpus.iterdir())}
    assert digests == _PINNED_NON_ASCII_CORPUS
    for name in ("taskplan.jsonl", "evolved.jsonl", "instantiated.jsonl", "trajectories.jsonl",
                 "training.jsonl"):
        assert "é" in (corpus / name).read_text(encoding="utf-8"), name


def test_phase4_manifests_list_every_corpus_file_read(suite_phases):
    ws = suite_phases[0]
    corpus = ws / "corpus"
    for name in ("rm", "lam4"):
        manifest = json.loads((ws / "checkpoints" / name / "manifest.json").read_text())
        assert manifest["inputs"] == {
            f: sha256_file(corpus / f)
            for f in ("boost_training.jsonl", "trajectories.jsonl", "verdicts.jsonl")
        }


# --------------------------------------------------------------------------
# 5. Dataflow end-to-end on the bundled 20-record corpus.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fixture_pipeline(tmp_path_factory):
    ws = tmp_path_factory.mktemp("accept_flow")
    code = cli_main(["--workspace", str(ws), "--clock", "zero", "dataflow", "run", "--stage", "all"])
    assert code == 0
    return ws


def test_criterion_5_dataflow_end_to_end(fixture_pipeline):
    ws = fixture_pipeline
    raw = read_jsonl(ws / "corpus" / "raw_records.jsonl")
    assert len(raw) == 20

    training = read_jsonl(ws / "corpus" / "training.jsonl")
    assert training, "pipeline produced no training records"

    verdicts = {row["trajectory_id"]: row["task_complete"] for row in read_jsonl(ws / "corpus" / "verdicts.jsonl")}
    trajectory_ids = {rec["trajectory_id"] for rec in training}
    assert all(verdicts[tid] == "yes" for tid in trajectory_ids)

    invalid = [rec["record_id"] for rec in training if validate_training_record(rec)]
    assert not invalid, f"schema violations in {invalid[:3]}"

    replayed = 0
    for obj in read_jsonl(ws / "corpus" / "trajectories.jsonl"):
        traj = Trajectory.from_dict(obj)
        if traj.final_status != "success":
            continue
        replay = execute_trajectory(traj.origin)
        assert replay.final_canvas == traj.final_canvas, traj.trajectory_id
        replayed += 1
    assert replayed
    report(
        5,
        f"{len(training)} training records all verdict-yes and schema-valid; "
        f"{replayed} success trajectories replay byte-exactly",
    )


# --------------------------------------------------------------------------
# 6. Evolution bound and corpus growth.
# --------------------------------------------------------------------------


def test_criterion_6_evolution_bound(fixture_pipeline):
    ws = fixture_pipeline
    originals = {r["task_id"]: r for r in read_jsonl(ws / "corpus" / "taskplan.jsonl")}
    evolved_file = read_jsonl(ws / "corpus" / "evolved.jsonl")
    evolved = [r for r in evolved_file if r["source"] == "evolved"]
    assert evolved, "no evolved records produced"
    for rec in evolved:
        original = originals[rec["origin_task_id"]]
        extra = word_count(rec["task"]) - word_count(original["task"])
        assert extra <= 20, f"{rec['task_id']} adds {extra} words"
    assert len(evolved) >= 1.5 * len(originals)
    report(
        6,
        f"{len(evolved)} evolved tasks all within +20 words; "
        f"corpus grew {len(originals)} -> {len(evolved_file)} records",
    )


# --------------------------------------------------------------------------
# 7. Determinism: two identical full executions, byte-identical outputs.
# --------------------------------------------------------------------------


def _full_run(ws: Path) -> dict[str, str]:
    assert cli_main(["--workspace", str(ws), "--clock", "zero", "--seed", "0",
                     "dataflow", "run", "--stage", "all"]) == 0
    for phase in ("1", "2", "3", "4"):
        assert cli_main(["--workspace", str(ws), "--seed", "0", "train", "--phase", phase]) == 0
    pairs_file = ws / "pairs.jsonl"
    write_jsonl(
        pairs_file,
        (
            {"task": row["task"], "pred": row["plan"], "truth": row["plan"]}
            for row in read_jsonl(ws / "corpus" / "evolved.jsonl")
        ),
    )
    assert cli_main(["--workspace", str(ws), "eval", "plan", "--pairs", str(pairs_file)]) == 0

    digests = {}
    for path in sorted(ws.rglob("*")):
        if not path.is_file():
            continue
        relative = str(path.relative_to(ws))
        if relative.startswith("runs/"):
            continue  # run manifests embed the workspace path by design
        digests[relative] = sha256_file(path)
    return digests


@pytest.fixture(scope="module")
def cli_lifecycle(tmp_path_factory):
    """A workspace after ``_full_run``, and its file digests."""
    ws = tmp_path_factory.mktemp("cli_lifecycle")
    return ws, _full_run(ws)


def test_criterion_7_determinism(cli_lifecycle, tmp_path):
    first = cli_lifecycle[1]
    second = _full_run(tmp_path / "b")
    assert first.keys() == second.keys()
    differing = [name for name in first if first[name] != second[name]]
    assert not differing, f"outputs differ: {differing[:5]}"
    report(7, f"{len(first)} files byte-identical across two seeded executions")


# sha256 prefixes of each checkpoint's (weights.json, manifest.json) after the
# bundled-corpus CLI lifecycle of ``_full_run``. Unlike the suite's, this
# corpus leaves phase 4 failure steps to run PPO on.
_PINNED_CLI_CHECKPOINTS = {
    "lam1": ("476acd71", "54b64727"),
    "lam2": ("f51ac156", "047d9dcd"),
    "lam3": ("f6727241", "fa3e0975"),
    "lam4": ("0aae4254", "0499e267"),
    "rm": ("d78fd170", "2a6afb30"),
}


def test_cli_lifecycle_runs_ppo(cli_lifecycle):
    manifest = json.loads((cli_lifecycle[0] / "checkpoints" / "lam4" / "manifest.json").read_text())
    assert manifest["data_size"] > 0
    assert manifest["ppo"] is not None


def test_cli_checkpoints_are_pinned(cli_lifecycle):
    digests = _checkpoint_digests(cli_lifecycle[0], _PINNED_CLI_CHECKPOINTS)
    assert digests == _PINNED_CLI_CHECKPOINTS


def _other_interpreters() -> dict[tuple[int, int], str]:
    """One runnable CPython >= 3.12 on PATH per minor version, other than
    the running interpreter's version."""
    found: dict[tuple[int, int], str] = {}
    probe = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:2])"
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        for name in ("python3", "python3.12", "python3.13", "python3.14"):
            exe = Path(directory, name)
            if not exe.is_file() or not os.access(exe, os.X_OK):
                continue
            try:
                out = subprocess.run(
                    [str(exe), "-c", probe], capture_output=True, text=True, timeout=60
                )
            except (OSError, subprocess.TimeoutExpired):
                continue
            words = out.stdout.split()
            if out.returncode or len(words) != 3 or words[0] != "CPython":
                continue
            version = (int(words[1]), int(words[2]))
            if version >= (3, 12) and version != sys.version_info[:2]:
                found.setdefault(version, str(exe))
    return found


def test_checkpoints_are_pinned_on_other_interpreters():
    """The pins hold under every other CPython >= 3.12 on PATH, where
    ``sum()`` would compensate. ``tests/checkpoint_digests.py`` builds and
    trains the suite and trains the bundled corpus; it needs no pytest."""
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython >= 3.12 runs on PATH")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    script = str(root / "tests" / "checkpoint_digests.py")
    expected = {
        "suite": {name: list(pin) for name, pin in _PINNED_CHECKPOINTS.items()},
        "cli": {name: list(pin) for name, pin in _PINNED_CLI_CHECKPOINTS.items()},
        "suite_corpus": _PINNED_SUITE_CORPUS,
        "suite_runs": _PINNED_SUITE_RUNS,
    }
    for version, exe in sorted(interpreters.items()):
        out = subprocess.run(
            [exe, script], capture_output=True, text=True, env=env, timeout=600, check=True
        )
        assert json.loads(out.stdout) == expected, f"CPython {version}: {exe}"


# --------------------------------------------------------------------------
# 8. Agent/offline parity on all 35 scripted demonstrations.
# --------------------------------------------------------------------------


def test_criterion_8_agent_offline_parity():
    suite = load_suite_tasks()
    checked = 0
    for task in suite:
        if task.expert is None:
            continue
        inst = InstantiatedTask(
            origin_task_id=task.task_id,
            instantiated_task=task.task,
            template_id=task.template_id,
            actions=task.expert,
        )
        offline = execute_trajectory(inst)
        assert offline.final_status == "success", task.task_id
        online = run_task(
            ScriptedPolicy(actions=task.expert),
            task.template_id,
            task.task,
            task_id=task.task_id,
            clock=lambda: 0.0,
        )
        assert online.outcome == "finished"
        assert online.trajectory.final_canvas == offline.final_canvas, task.task_id
        assert online.trajectory.final_control_state == offline.final_control_state
        checked += 1
    assert checked == 35
    report(8, f"agent-loop replay matches pipeline execution for all {checked} demonstrations")
