"""Which program functions the traced run wraps, and how their spans and
counters become the per-layer metrics.

Layers are the program's modules: ``env_sim``, ``policy``, ``training``,
``dataflow``, ``oracle``, ``agent``, ``evaluation``, ``jsonl`` and
``harness``. Every entry names a public function or method; if one of them
disappears from the program, installation fails loudly.
"""

from __future__ import annotations

import importlib

from tracing import TraceSetupError, Tracer

from lamlab.dataflow import STAGES
ORACLE_TEMPLATES = ("evolve", "instantiate", "judge")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _on_apply_action(tracer: Tracer, args, kwargs, result) -> None:
    _snapshot, outcome = result
    if not outcome.ok:
        tracer.count("env_sim.apply_action.failed")


def _on_featurize(tracer: Tracer, args, kwargs, result) -> None:
    state = _arg(args, kwargs, 0, "state")
    c = _arg(args, kwargs, 1, "candidate")
    key = (c.function, c.args, c.is_finish, c.control_label, c.control_text, c.control_type)
    tracer.note_pair("policy.featurize", state, key)


def _on_self_boost(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("training.self_boost.successes", len(result))


def _on_run_stage(tracer: Tracer, args, kwargs, report) -> None:
    prefix = f"dataflow.{report.stage}"
    tracer.count(f"{prefix}.read", report.read)
    tracer.count(f"{prefix}.written", report.written)
    tracer.count(f"{prefix}.skipped", len(report.skipped))


def _on_run_task(tracer: Tracer, args, kwargs, record) -> None:
    steps = record.trajectory.steps
    tracer.count("agent.steps", len(steps))
    tracer.count("agent.errors", sum(1 for s in steps if not s.result.ok))
    if tracer.active("training.self_boost"):
        tracer.count("training.self_boost.attempts")


# (module, function, span name or name function, hook)
FUNCTIONS = (
    ("lamlab.env_sim.actions", "apply_action", "env_sim.apply_action", _on_apply_action),
    ("lamlab.env_sim.snapshot", "load_template", "env_sim.load_template", None),
    ("lamlab.env_sim.diffs", "diff_canvas", "env_sim.diff_canvas", None),
    ("lamlab.env_sim.canvas", "serialize_canvas", "env_sim.serialize_canvas", None),
    ("lamlab.policy.candidates", "enumerate_candidates", "policy.enumerate_candidates", None),
    ("lamlab.policy.features", "featurize", "policy.featurize", _on_featurize),
    ("lamlab.policy.model", "action_distribution", "policy.action_distribution", None),
    ("lamlab.policy.model", "generate_plan", "policy.generate_plan", None),
    (
        "lamlab.training.phases",
        "run_phase",
        lambda a, k: f"training.phase{_arg(a, k, 0, 'phase')}",
        None,
    ),
    ("lamlab.training.losses", "sft_plan_loss", "training.sft_plan_loss", None),
    ("lamlab.training.losses", "imitation_loss", "training.imitation_loss", None),
    ("lamlab.training.losses", "status_loss", "training.status_loss", None),
    ("lamlab.training.reward", "train_reward_model", "training.train_reward_model", None),
    ("lamlab.training.ppo", "ppo_update", "training.ppo_update", None),
    ("lamlab.training.boost", "self_boost", "training.self_boost", _on_self_boost),
    (
        "lamlab.dataflow.pipeline",
        "run_stage",
        lambda a, k: f"dataflow.{_arg(a, k, 0, 'stage')}",
        _on_run_stage,
    ),
    ("lamlab.agent", "run_task", "agent.run_task", _on_run_task),
    ("lamlab.agent", "observe", "agent.observe", None),
    ("lamlab.evaluation", "eval_online", "evaluation.eval_online", None),
    ("lamlab.jsonl", "read_jsonl", "jsonl.read_jsonl", None),
    ("lamlab.jsonl", "write_jsonl", "jsonl.write_jsonl", None),
    ("lamlab.harness", "build_suite_workspace", "harness.build_suite_workspace", None),
)

# (module, Class.method, span name)
METHODS = (
    ("lamlab.env_sim.snapshot", "EnvSnapshot.digest", "env_sim.digest"),
    ("lamlab.env_sim.snapshot", "EnvSnapshot.rendered_view", "env_sim.rendered_view"),
    ("lamlab.agent", "ModelPolicy.decide", "agent.decide"),
    ("lamlab.env_sim.snapshot", "EnvSession.apply", "agent.execute"),
)

SELF_TIME = ("policy.action_distribution", "training.imitation_loss")


def install(tracer: Tracer) -> None:
    # Import every module first, so that no module imported later binds a
    # wrapper that uninstall would not know to restore.
    for module in sorted({entry[0] for entry in FUNCTIONS + METHODS}):
        try:
            importlib.import_module(module)
        except ImportError as exc:
            raise TraceSetupError(f"{module} no longer exists: {exc}") from exc
    for module, attr, name, hook in FUNCTIONS:
        tracer.wrap_function(module, attr, name, hook)
    for module, qualname, name in METHODS:
        tracer.wrap_method(module, qualname, name)


class TimedOracle:
    """Oracle proxy: one ``oracle.<template>`` span per ``complete`` call."""

    def __init__(self, inner, tracer: Tracer):
        self.complete = tracer.traced(
            inner.complete, lambda a, k: f"oracle.{_arg(a, k, 0, 'request').template_id}"
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, spans: dict[str, dict[str, float]]) -> dict[str, float]:
    """Every per-layer metric of the traced run (zero where unused), by name,
    from the span summary ``spans`` and the tracer's counters.
    ``trace.overhead_ratio`` and the TSR outputs are added by the workload,
    which knows them."""
    counters = tracer.counters

    def calls(name: str) -> float:
        return spans.get(name, {}).get("calls", 0)

    def busy(name: str) -> float:
        return spans.get(name, {}).get("busy_s", 0.0)

    out: dict[str, float] = {}

    def both(name: str) -> None:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)

    both("env_sim.apply_action")
    out["env_sim.apply_action.fail_ratio"] = _ratio(
        counters["env_sim.apply_action.failed"], calls("env_sim.apply_action")
    )
    both("env_sim.digest")
    both("env_sim.load_template")
    for name in ("env_sim.diff_canvas", "env_sim.serialize_canvas", "env_sim.rendered_view"):
        out[f"{name}.busy_s"] = busy(name)

    both("policy.enumerate_candidates")
    both("policy.featurize")
    out["policy.featurize.distinct_ratio"] = _ratio(
        tracer.distinct("policy.featurize"), calls("policy.featurize")
    )
    both("policy.action_distribution")
    out["policy.action_distribution.self_s"] = spans.get(
        "policy.action_distribution", {}
    ).get("self_s", 0.0)
    both("policy.generate_plan")

    for phase in (1, 2, 3, 4):
        out[f"training.phase{phase}.busy_s"] = busy(f"training.phase{phase}")
    both("training.sft_plan_loss")
    both("training.imitation_loss")
    out["training.imitation_loss.self_s"] = spans.get("training.imitation_loss", {}).get(
        "self_s", 0.0
    )
    both("training.status_loss")
    out["training.train_reward_model.busy_s"] = busy("training.train_reward_model")
    both("training.ppo_update")
    out["training.self_boost.busy_s"] = busy("training.self_boost")
    out["training.self_boost.attempts"] = counters["training.self_boost.attempts"]
    out["training.self_boost.success_ratio"] = _ratio(
        counters["training.self_boost.successes"], counters["training.self_boost.attempts"]
    )

    for stage in STAGES:
        out[f"dataflow.{stage}.busy_s"] = busy(f"dataflow.{stage}")
        for field in ("read", "written", "skipped"):
            out[f"dataflow.{stage}.{field}"] = counters[f"dataflow.{stage}.{field}"]

    for template in ORACLE_TEMPLATES:
        both(f"oracle.{template}")

    both("agent.run_task")
    for name in ("agent.observe", "agent.decide", "agent.execute"):
        out[f"{name}.busy_s"] = busy(name)
    out["agent.steps"] = counters["agent.steps"]
    out["agent.error_ratio"] = _ratio(counters["agent.errors"], counters["agent.steps"])

    both("evaluation.eval_online")
    both("jsonl.read_jsonl")
    both("jsonl.write_jsonl")
    out["harness.build_suite_workspace.busy_s"] = busy("harness.build_suite_workspace")
    return out


def check_layers(
    spans: dict[str, dict[str, float]], required: tuple[str, ...], bypassed: tuple[str, ...]
) -> None:
    """Fail loudly when a workload made no calls into a span it must use, or
    any call into a layer it must bypass (``bypassed`` holds name prefixes
    such as ``"policy."``)."""
    missing = [name for name in required if not spans.get(name, {}).get("calls")]
    if missing:
        raise TraceSetupError(f"no calls recorded into required spans: {', '.join(missing)}")
    touched = sorted(name for name in spans if name.startswith(bypassed))
    if touched:
        raise TraceSetupError(f"calls recorded into bypassed layers: {', '.join(touched)}")
