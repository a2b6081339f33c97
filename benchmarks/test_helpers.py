"""Tests for the benchmark's own helpers. Run with

    python3 -m pytest benchmarks/test_helpers.py
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
from percentiles import nearest_rank, tail_percentile  # noqa: E402
from tracing import Tracer, TraceSetupError, covered_ns, summarize  # noqa: E402


# --- generators -----------------------------------------------------------------


@pytest.mark.parametrize("generate", [inputs.raw_corpus, inputs.agent_tasks])
def test_generators_are_byte_identical_per_seed(generate):
    assert inputs.canonical_bytes(generate(7)) == inputs.canonical_bytes(generate(7))
    assert inputs.canonical_bytes(generate(7)) != inputs.canonical_bytes(generate(8))


def test_raw_corpus_noise_is_exactly_what_normalize_drops():
    from lamlab.dataflow import normalize_sources

    records = inputs.raw_corpus(3)
    n_noise = round(len(records) * inputs.NOISE_SHARE)
    kept = normalize_sources(records)
    assert len(records) == 400
    assert len(kept) == len(records) - n_noise
    assert len({r.task for r in kept}) == len(kept)


def test_agent_tasks_cover_every_template_and_family_evenly():
    tasks = inputs.agent_tasks(5)
    stats = inputs.input_stats(tasks)
    assert set(stats["template_id_counts"]) == set(inputs.TEMPLATE_TARGETS)
    assert set(stats["family_counts"]) == set(inputs.AGENT_FAMILIES)
    assert set(stats["template_id_counts"].values()) == {len(tasks) // 7}
    assert set(stats["family_counts"].values()) == {len(tasks) // 8}
    assert 0 < stats["repeated_share"] < 1
    assert stats["distinct_texts"] == round(len(tasks) * (1 - stats["repeated_share"]))


# --- percentile rule --------------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(list(range(1000))) == (99.0, 989, 1000)
    # One sample fewer leaves only 9 beyond p99, so the rule falls back to p95.
    assert tail_percentile(list(range(999))) == (95.0, 949, 999)
    assert tail_percentile(list(range(10_000)))[0] == 99.9
    assert tail_percentile(list(range(20))) == (50.0, 9, 20)
    assert tail_percentile(list(range(19))) is None


def test_nearest_rank_ignores_input_order():
    values = sorted([5.0, 1.0, 4.0, 2.0, 3.0])
    assert nearest_rank(values, 50) == 3.0
    assert nearest_rank(values, 100) == 5.0
    assert nearest_rank(values, 0) == 1.0


# --- self time ----------------------------------------------------------------------


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        (1, 0, "root", 0, 100),
        (2, 1, "a", 10, 30),
        (3, 1, "b", 20, 50),  # overlaps a: counted once
        (4, 2, "leaf", 12, 15),  # a grandchild: not subtracted from root
        (5, 0, "root", 200, 210),
    ]
    out = summarize(spans, self_time_for=("root", "a"))
    assert out["root"]["calls"] == 2
    assert out["root"]["busy_s"] == pytest.approx(110e-9)
    assert out["root"]["self_s"] == pytest.approx((100 - 40 + 10) * 1e-9)
    assert out["a"]["self_s"] == pytest.approx(17e-9)
    assert "self_s" not in out["b"]


def test_covered_ns_merges_overlapping_and_disjoint_intervals():
    assert covered_ns([]) == 0
    assert covered_ns([(0, 5), (3, 8), (10, 12)]) == 10
    assert covered_ns([(10, 12), (0, 5), (5, 6)]) == 8


# --- tracer -----------------------------------------------------------------------


@pytest.fixture
def fake_modules():
    """``fakepkg_impl`` defines ``work`` and ``inner``; ``fakepkg_user``
    imports ``work`` under two names."""
    impl = types.ModuleType("fakepkg_impl")
    exec("def inner(x):\n    return x * 2\n\ndef work(x):\n    return inner(x) + 1\n", vars(impl))
    user = types.ModuleType("fakepkg_user")
    user.work = user.also_work = impl.work
    sys.modules.update({"fakepkg_impl": impl, "fakepkg_user": user})
    yield impl, user
    for name in ("fakepkg_impl", "fakepkg_user"):
        sys.modules.pop(name)


def test_wrap_function_rebinds_every_module_and_restores(fake_modules):
    impl, user = fake_modules
    original = impl.work
    tracer = Tracer()
    assert tracer.wrap_function("fakepkg_impl", "work", "w") == 3
    assert user.work(1) == 3 and user.also_work(2) == 5 and impl.work(0) == 1
    assert tracer.summary()["w"]["calls"] == 3
    tracer.uninstall()
    assert impl.work is original and user.work is original and user.also_work is original


def test_nested_spans_carry_parent_ids(fake_modules):
    impl, user = fake_modules
    tracer = Tracer()
    tracer.wrap_function("fakepkg_impl", "work", "outer")
    tracer.wrap_function("fakepkg_impl", "inner", "inner")
    try:
        user.work(3)
    finally:
        tracer.uninstall()
    by_name = {name: (sid, parent) for sid, parent, name, _, _ in tracer.spans()}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["outer"][1] == 0


def test_missing_name_fails_loudly(fake_modules):
    tracer = Tracer()
    with pytest.raises(TraceSetupError):
        tracer.wrap_function("fakepkg_impl", "no_such_function", "x")
    with pytest.raises(TraceSetupError):
        tracer.wrap_method("lamlab.env_sim.snapshot", "EnvSnapshot.no_such_method", "x")


def test_every_program_name_in_the_layer_table_exists():
    tracer = Tracer()
    layers.install(tracer)
    tracer.uninstall()


def test_distinct_pairs_are_not_fooled_by_id_reuse():
    tracer = Tracer()
    for _ in range(200):
        tracer.note_pair("f", object(), "same candidate")
    assert tracer.distinct("f") == 200
    state = object()
    for _ in range(5):
        tracer.note_pair("g", state, "c")
    assert tracer.distinct("g") == 1


def test_check_layers_requires_and_bypasses():
    spans = {"policy.featurize": {"calls": 3, "busy_s": 0.1}}
    layers.check_layers(spans, ("policy.featurize",), ("training.",))
    with pytest.raises(TraceSetupError):
        layers.check_layers(spans, ("training.phase1",), ())
    with pytest.raises(TraceSetupError):
        layers.check_layers(spans, (), ("policy.",))
