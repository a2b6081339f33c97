"""Oracle providers: template rendering, strict parsing, retry behavior."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from lamlab.errors import TemplateError, Timeout
from lamlab.oracle import (
    RESPONSE_SCHEMAS,
    MemoizingOracle,
    MockOracle,
    OracleRequest,
    RemoteOracle,
    RemoteOracleConfig,
    parse_response,
    render_prompt,
    split_messages,
    template_placeholders,
)


def judge_substitutions(task="Highlight the title in the document.", diff=None, trajectory=None):
    return {
        "apis": "api docs",
        "request": task,
        "thought": "apply the change",
        "trajectory": json.dumps(
            trajectory
            if trajectory is not None
            else [{"number": 1, "action": {"function": "select_text"}, "observation": "ok"}]
        ),
        "canvas_diff": json.dumps(
            diff
            if diff is not None
            else [{"path": "blocks[0].runs[0].highlight", "before": None, "after": "yellow"}]
        ),
        "init_control_state": "{}",
        "final_control_state": "{}",
        "final_status": "{}",
    }


# --- templates -----------------------------------------------------------


EVOLVE_SUBS = {"task": "t", "plan": "[]", "max_extra_words": "20", "variant": "0"}


def test_placeholders_extracted():
    assert template_placeholders("evolve") == {"task", "plan", "max_extra_words", "variant"}


def test_render_missing_substitution_is_error():
    subs = {k: v for k, v in EVOLVE_SUBS.items() if k != "variant"}
    with pytest.raises(TemplateError):
        render_prompt("evolve", subs)


def test_render_unknown_substitution_is_error():
    with pytest.raises(TemplateError):
        render_prompt("evolve", {**EVOLVE_SUBS, "extra": "x"})


def test_prompts_schemas_and_mock_handlers_name_the_same_templates():
    from lamlab.oracle.mock import _HANDLERS

    prompts_dir = resources.files("lamlab") / "oracle" / "prompts"
    prompts = {p.name.removesuffix(".txt") for p in prompts_dir.iterdir() if p.name.endswith(".txt")}
    expected = {"instantiate", "evolve", "judge"}
    assert prompts == expected
    assert set(RESPONSE_SCHEMAS) == expected
    assert set(_HANDLERS) == expected


def test_render_unknown_template_is_error():
    with pytest.raises(TemplateError):
        render_prompt("nonsense", {})


def test_literal_braces_render_intact():
    rendered = render_prompt("evolve", EVOLVE_SUBS)
    assert '{\n      "evolved_task": "the rewritten task text",' in rendered
    assert "{task}" not in rendered


def test_split_messages_sections():
    rendered = render_prompt("evolve", EVOLVE_SUBS)
    messages = split_messages(rendered)
    assert [m["role"] for m in messages] == ["system", "user"]
    assert "<Original Task:> t" in messages[1]["content"]


def test_split_messages_plain_template_is_single_user():
    messages = split_messages("just a prompt")
    assert messages == [{"role": "user", "content": "just a prompt"}]


# --- strict parsing ---------------------------------------------------------


def test_parse_response_missing_key_is_malformed():
    parsed, error = parse_response("judge", json.dumps({"task_quality": "good"}))
    assert parsed is None
    assert "task_complete" in error


def test_parse_response_non_object_is_malformed():
    parsed, error = parse_response("judge", "[1, 2]")
    assert parsed is None


def test_parse_response_bad_json_is_malformed():
    parsed, error = parse_response("judge", "not json {")
    assert parsed is None


# --- mock provider ------------------------------------------------------------


def test_mock_determinism():
    request = OracleRequest("judge", judge_substitutions())
    a = MockOracle().complete(request)
    b = MockOracle().complete(request)
    assert a.raw_text == b.raw_text
    assert a.parsed == b.parsed


def test_mock_judge_highlight_yes():
    request = OracleRequest("judge", judge_substitutions())
    verdict = MockOracle().complete(request).parsed
    assert verdict["task_complete"] == "yes"
    assert verdict["task_quality"] == "good"


def test_mock_judge_empty_action_is_no():
    subs = judge_substitutions(
        trajectory=[{"number": 1, "action": {"function": ""}, "observation": ""}]
    )
    verdict = MockOracle().complete(OracleRequest("judge", subs)).parsed
    assert verdict["task_complete"] == "no"


def test_mock_judge_selection_wording_is_ambiguous():
    subs = judge_substitutions(task="Highlight the selected text in the document.")
    verdict = MockOracle().complete(OracleRequest("judge", subs)).parsed
    assert verdict["task_quality"] == "ambiguous"


def test_mock_judge_unmatched_change_is_no():
    subs = judge_substitutions(
        task="Highlight the title in the document.",
        diff=[{"path": "blocks[0].runs[0].bold", "before": False, "after": True}],
    )
    verdict = MockOracle().complete(OracleRequest("judge", subs)).parsed
    assert verdict["task_complete"] == "no"


def test_mock_judge_no_rule_is_unsure():
    subs = judge_substitutions(
        task="Rotate the picture in the document.",
        diff=[{"path": "blocks[0].runs[0].bold", "before": False, "after": True}],
    )
    verdict = MockOracle().complete(OracleRequest("judge", subs)).parsed
    assert verdict["task_complete"] == "unsure"


# --- remote provider ------------------------------------------------------------


class FakeResponse:
    def __init__(self, status_code=200, content="{}"):
        self.status_code = status_code
        self._content = content
        self.text = content

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0
        self.payloads = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        self.payloads.append(json)
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def remote(session, sleep=lambda s: None):
    config = RemoteOracleConfig(endpoint="http://example/v1/chat", model="m")
    return RemoteOracle(config, session=session, sleep=sleep)


def test_remote_success_first_try():
    body = json.dumps(
        {
            "task_quality": "good",
            "task_complete": "yes",
            "complete_judgement": "done",
            "quality_judgement": "fine",
        }
    )
    session = FakeSession([FakeResponse(200, body)])
    response = remote(session).complete(OracleRequest("judge", judge_substitutions()))
    assert response.parsed["task_complete"] == "yes"
    assert response.attempts == 1


def test_remote_retries_then_succeeds():
    import requests

    body = json.dumps(
        {
            "task_quality": "good",
            "task_complete": "no",
            "complete_judgement": "x",
            "quality_judgement": "y",
        }
    )
    session = FakeSession(
        [requests.ConnectionError("down"), FakeResponse(500, ""), FakeResponse(200, body)]
    )
    response = remote(session).complete(OracleRequest("judge", judge_substitutions()))
    assert response.attempts == 3
    assert session.calls == 3


def test_remote_timeout_after_budget():
    import requests

    session = FakeSession([requests.Timeout("slow")] * 3)
    slept = []
    with pytest.raises(Timeout):
        remote(session, sleep=slept.append).complete(OracleRequest("judge", judge_substitutions()))
    assert session.calls == 3
    assert slept == [0.5, 1.0]


def test_remote_payload_is_pinned():
    session = FakeSession([FakeResponse(200, "{}")])
    remote(session).complete(OracleRequest("evolve", EVOLVE_SUBS))
    (payload,) = session.payloads
    messages = split_messages(render_prompt("evolve", EVOLVE_SUBS))
    assert json.dumps(payload) == json.dumps(
        {
            "model": "m",
            "messages": messages,
            "temperature": 0.0,
            "top_p": 0.0,
            "max_tokens": 2048,
        }
    )


def test_remote_malformed_body_classified_not_raised():
    session = FakeSession([FakeResponse(200, "not json")])
    response = remote(session).complete(OracleRequest("judge", judge_substitutions()))
    assert response.parsed is None
    assert response.parse_error


@pytest.mark.parametrize("content", [None, 5, ["a"]], ids=["null", "number", "list"])
def test_remote_non_text_content_classified_not_raised(content):
    reply = FakeResponse(200, content)
    reply.text = json.dumps(reply.json())
    response = remote(FakeSession([reply])).complete(OracleRequest("judge", judge_substitutions()))
    assert response.raw_text == reply.text
    assert response.parsed is None
    assert response.parse_error


def test_only_a_remote_oracle_loads_the_http_stack():
    code = """
import sys
import lamlab.agent, lamlab.cli, lamlab.dataflow, lamlab.evaluation, lamlab.harness
import lamlab.training
print(sorted(m for m in ("requests", "urllib3", "concurrent.futures") if m in sys.modules))
from lamlab.oracle import RemoteOracle, RemoteOracleConfig
RemoteOracle(RemoteOracleConfig(endpoint="http://localhost:9/v1/chat", model="m"))
print("requests" in sys.modules)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.split("\n") == ["[]", "True", ""]


def test_memoization_reuses_exact_requests():
    counting = MockOracle()
    calls = {"n": 0}
    original = counting.complete

    def tracked(request):
        calls["n"] += 1
        return original(request)

    counting.complete = tracked
    memo = MemoizingOracle(counting)
    request = OracleRequest("judge", judge_substitutions())
    memo.complete(request)
    memo.complete(request)
    assert calls["n"] == 1


def test_memoization_is_single_flight_under_threads():
    import sys
    import threading
    import time

    from lamlab.oracle import OracleResponse

    lock = threading.Lock()
    calls: dict[str, int] = {}

    class SlowProvider:
        def complete(self, request):
            key = request.cache_key()
            with lock:
                calls[key] = calls.get(key, 0) + 1
            time.sleep(0.002)
            return OracleResponse(raw_text=key, parsed={})

    memo = MemoizingOracle(SlowProvider())
    requests = [OracleRequest("judge", {"n": str(i)}) for i in range(5)]
    answers: list[tuple[str, str]] = []

    def worker(offset):
        for i in range(20):
            request = requests[(offset + i) % len(requests)]
            response = memo.complete(request)
            with lock:
                answers.append((request.cache_key(), response.raw_text))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert len(answers) == 12 * 20
    assert all(key == text for key, text in answers)
    assert calls == {r.cache_key(): 1 for r in requests}
