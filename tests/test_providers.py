from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest
import requests

from policylens import providers
from policylens.errors import ProviderError
from policylens.providers import (
    API_KEY_ENV,
    BACKOFF_MAX_S,
    MOCK_TIMEOUT,
    SAMPLES_BEGIN,
    SAMPLES_END,
    HttpProvider,
    MockProvider,
    load_provider,
    prompt_samples,
)
from policylens.regex import parse_regex
from policylens.automata import from_regex

PROMPT = f"intro\n{SAMPLES_BEGIN}\nalpha\nbeta\nalpha\n{SAMPLES_END}\ntail"


def test_prompt_samples_extraction():
    assert prompt_samples(PROMPT) == ["alpha", "beta", "alpha"]
    assert prompt_samples("no markers here") == []
    assert prompt_samples(f"{SAMPLES_BEGIN}\n{SAMPLES_END}") == []


def test_mock_script_cycles():
    p = MockProvider(script=["one", "two"])
    assert [p.complete("x"), p.complete("y"), p.complete("z")] == ["one", "two", "one"]
    assert p.calls == ["x", "y", "z"]


def test_mock_by_prompt_takes_precedence():
    digest = hashlib.sha256(PROMPT.encode()).hexdigest()
    p = MockProvider(script=["scripted"], by_prompt={digest: "pinned"})
    assert p.complete(PROMPT) == "pinned"
    assert p.complete("other") == "scripted"


def test_mock_timeout_sentinel():
    p = MockProvider(script=[MOCK_TIMEOUT, "ok"])
    with pytest.raises(ProviderError):
        p.complete("x")
    assert p.complete("y") == "ok"


def test_mock_default_echoes_samples():
    p = MockProvider()
    out = p.complete(PROMPT)
    dfa = from_regex(parse_regex(out))
    assert dfa.accepts("alpha") and dfa.accepts("beta")
    assert not dfa.accepts("gamma")


def test_mock_default_escapes_metacharacters():
    prompt = f"{SAMPLES_BEGIN}\na.b*\n{SAMPLES_END}"
    out = MockProvider().complete(prompt)
    dfa = from_regex(parse_regex(out))
    assert dfa.accepts("a.b*")
    assert not dfa.accepts("axbb")


def test_mock_default_without_samples_block():
    with pytest.raises(ProviderError):
        MockProvider().complete("prompt with no samples")


@pytest.fixture(autouse=True)
def sleeps(monkeypatch):
    """The provider's backoff waits, recorded instead of slept."""
    waits: list[float] = []
    monkeypatch.setattr(providers.time, "sleep", waits.append)
    return waits


class FakeResponse:
    def __init__(self, status: int, body: object):
        self.status_code = status
        self._body = body

    def json(self):
        if isinstance(self._body, Exception):
            raise self._body
        return self._body


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _ok(content: str) -> FakeResponse:
    return FakeResponse(200, {"choices": [{"message": {"content": content}}]})


def test_http_provider_success_and_payload(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    session = FakeSession([_ok("a|b")])
    p = HttpProvider("https://api.test/v1/chat", "m1", api_key="k1", session=session)
    assert p.complete("hello") == "a|b"
    sent = session.requests[0]
    assert sent["url"] == "https://api.test/v1/chat"
    assert sent["json"]["model"] == "m1"
    assert sent["json"]["messages"] == [{"role": "user", "content": "hello"}]
    assert sent["headers"]["Authorization"] == "Bearer k1"


def test_http_provider_env_key_overrides(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "env-key")
    session = FakeSession([_ok("x")])
    p = HttpProvider("https://api.test", "m", api_key="file-key", session=session)
    p.complete("q")
    assert session.requests[0]["headers"]["Authorization"] == "Bearer env-key"


def test_http_provider_retries_then_fails(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    session = FakeSession([requests.ConnectionError("down")] * 3)
    p = HttpProvider("https://api.test", "m", retries=2, session=session)
    with pytest.raises(ProviderError):
        p.complete("q")
    assert len(session.requests) == 3


def test_http_provider_retry_then_success(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    session = FakeSession([requests.Timeout("slow"), _ok("fine")])
    p = HttpProvider("https://api.test", "m", retries=2, session=session)
    assert p.complete("q") == "fine"


def test_http_provider_malformed_response(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    for body in ({"choices": []}, {"nope": 1}, json.JSONDecodeError("bad", "", 0)):
        p = HttpProvider("https://api.test", "m", session=FakeSession([FakeResponse(200, body)]))
        with pytest.raises(ProviderError):
            p.complete("q")


def test_http_provider_http_error_retries(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    session = FakeSession([FakeResponse(500, {}), _ok("later")])
    p = HttpProvider("https://api.test", "m", retries=1, session=session)
    assert p.complete("q") == "later"


@pytest.mark.parametrize("status", [400, 401, 403, 404])
def test_http_provider_client_error_is_not_retried(monkeypatch, sleeps, status):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    session = FakeSession([FakeResponse(status, {}), _ok("never")])
    p = HttpProvider("https://api.test", "m", retries=2, session=session)
    with pytest.raises(ProviderError, match=str(status)):
        p.complete("q")
    assert len(session.requests) == 1
    assert sleeps == []


def test_http_provider_server_errors_retried_with_backoff(monkeypatch, sleeps):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    session = FakeSession([FakeResponse(503, {}), FakeResponse(503, {}), _ok("up")])
    p = HttpProvider("https://api.test", "m", retries=2, session=session)
    assert p.complete("q") == "up"
    assert len(session.requests) == 3
    assert len(sleeps) == 2 and 0 < sleeps[0] < sleeps[1]


def test_http_provider_rate_limit_retried(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    session = FakeSession([FakeResponse(429, {}), _ok("ok")])
    p = HttpProvider("https://api.test", "m", retries=1, session=session)
    assert p.complete("q") == "ok"


def test_http_provider_backoff_grows_and_stays_bounded(monkeypatch, sleeps):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    retries = 9
    session = FakeSession([requests.ConnectionError("down")] * (retries + 1))
    p = HttpProvider("https://api.test", "m", retries=retries, session=session)
    with pytest.raises(ProviderError, match="10 attempts"):
        p.complete("q")
    assert len(session.requests) == retries + 1
    assert len(sleeps) == retries
    assert sleeps == sorted(sleeps) and sleeps[0] < sleeps[-1]
    assert max(sleeps) == BACKOFF_MAX_S


def test_http_provider_other_request_errors_are_not_retried(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    session = FakeSession([requests.exceptions.InvalidURL("bad url"), _ok("never")])
    p = HttpProvider("https://api.test", "m", retries=2, session=session)
    with pytest.raises(ProviderError):
        p.complete("q")
    assert len(session.requests) == 1


def test_load_provider():
    assert isinstance(load_provider("mock"), MockProvider)
    p = load_provider("mock", {"script": ["s"]})
    assert p.complete("x") == "s"
    h = load_provider("http", {"endpoint": "https://e", "model": "m"})
    assert isinstance(h, HttpProvider)
    with pytest.raises(ProviderError):
        load_provider("http", {"model": "m"})
    with pytest.raises(ProviderError):
        load_provider("carrier-pigeon")


def test_cli_start_up_does_not_import_the_http_client():
    code = "import sys, policylens.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
