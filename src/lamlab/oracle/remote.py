"""Chat-completion client for a real LLM backend.

One HTTP request per completion with bounded retry and exponential backoff;
responses go through the same strict parser as the mock provider. Never a
test dependency: tests inject a fake session. ``requests`` is imported only
when a ``RemoteOracle`` is used, so a process that never calls a remote
backend does not load the HTTP stack; without the package, building one
without a session is a ``ConfigError``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from ..errors import ConfigError, Timeout
from .base import OracleRequest, OracleResponse, parse_response, render_prompt, split_messages

__all__ = ["RemoteOracleConfig", "RemoteOracle", "MemoizingOracle"]


# Greedy decoding with a fixed token budget, sent with every request.
_DECODING = {"temperature": 0.0, "top_p": 0.0, "max_tokens": 2048}
# Attempts per completion; the waits between them double from _BACKOFF_S.
_ATTEMPTS = 3
_BACKOFF_S = 0.5


@dataclass(frozen=True)
class RemoteOracleConfig:
    endpoint: str
    model: str
    auth_env: str = "LAMLAB_ORACLE_TOKEN"
    timeout_s: float = 30.0


class RemoteOracle:
    waits_on_io = True

    def __init__(self, config: RemoteOracleConfig, session=None, sleep=time.sleep):
        if session is None:
            try:
                import requests  # local: only a remote oracle loads the HTTP stack
            except ImportError as exc:
                raise ConfigError("oracle provider 'remote' needs the 'requests' package") from exc
            session = requests.Session()
        self._config = config
        self._session = session
        self._sleep = sleep

    def complete(self, request: OracleRequest) -> OracleResponse:
        import requests  # local: only a remote oracle loads the HTTP stack

        rendered = render_prompt(request.template_id, request.substitutions)
        payload = {"model": self._config.model, "messages": split_messages(rendered), **_DECODING}
        headers = {}
        token = os.environ.get(self._config.auth_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"

        start = time.perf_counter()
        last_error = "no attempt made"
        for attempt in range(1, _ATTEMPTS + 1):
            try:
                resp = self._session.post(
                    self._config.endpoint,
                    json=payload,
                    headers=headers,
                    timeout=self._config.timeout_s,
                )
            except requests.RequestException as exc:
                last_error = f"request failed: {exc}"
            else:
                if resp.status_code == 200:
                    raw = _extract_content(resp)
                    parsed, parse_error = parse_response(request.template_id, raw)
                    return OracleResponse(
                        raw_text=raw,
                        parsed=parsed,
                        parse_error=parse_error,
                        latency_s=time.perf_counter() - start,
                        attempts=attempt,
                    )
                last_error = f"HTTP {resp.status_code}"
            if attempt < _ATTEMPTS:
                self._sleep(_BACKOFF_S * (2 ** (attempt - 1)))
        raise Timeout(f"oracle gave no answer after {_ATTEMPTS} attempts ({last_error})")


def _extract_content(resp) -> str:
    try:
        content = resp.json()["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError):
        content = None
    # Surface a malformed body, or content that is not text, via the strict
    # parser rather than raising here.
    return content if isinstance(content, str) else resp.text


@dataclass
class MemoizingOracle:
    """Exact-request memoization wrapper around another provider.

    Single flight per cache key: concurrent calls with one key send one
    request to the inner provider, and the others wait for its response. A
    failed request caches nothing, so the next caller of that key retries.
    """

    inner: object
    _cache: dict = field(default_factory=dict)
    _key_locks: dict = field(default_factory=dict, repr=False)
    _guard: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def complete(self, request: OracleRequest) -> OracleResponse:
        key = request.cache_key()
        with self._guard:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            if key not in self._cache:
                self._cache[key] = self.inner.complete(request)
            return self._cache[key]

    @property
    def waits_on_io(self) -> bool:
        """The inner provider's (see ``Provider``)."""
        return getattr(self.inner, "waits_on_io", True)
