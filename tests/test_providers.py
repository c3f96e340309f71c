from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest
import requests

from policylens import parse_policy, providers
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
from policylens.simplifier import SimplifierConfig, generate_summarization
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


@pytest.mark.parametrize("content", [None, 42, ["a"], {"x": 1}], ids=["null", "number", "list", "object"])
def test_http_provider_rejects_content_that_is_not_a_string(monkeypatch, content):
    # Chat-completions APIs answer a refusal or a tool call with "content": null.
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    reply = FakeResponse(200, {"choices": [{"message": {"content": content}}]})
    p = HttpProvider("https://api.test", "m", session=FakeSession([reply]))
    with pytest.raises(ProviderError, match="^malformed provider response: content is not a string$"):
        p.complete("q")


def test_summarize_falls_back_when_every_http_reply_has_no_content(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    doc = parse_policy(json.dumps(
        {"Statement": [{"Effect": "Allow", "Principal": "*", "Action": "s3:GetObject", "Resource": "arn:a*"}]}
    ))
    cfg = SimplifierConfig(attempts=2, samples=20)

    def provider() -> HttpProvider:
        replies = [FakeResponse(200, {"choices": [{"message": {"content": None}}]}) for _ in range(cfg.attempts)]
        return HttpProvider("https://api.test", "m", session=FakeSession(replies))

    report = generate_summarization(doc, cfg, provider())
    assert report.fallback and report.chosen_source == "extracted"
    assert [c.error for c in report.candidates] == ["provider: malformed provider response: content is not a string"] * 2
    with pytest.raises(ProviderError, match="fallback is disabled"):
        generate_summarization(doc, replace(cfg, fallback=False), provider())


def test_http_provider_response_nested_too_deep(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    resp = requests.Response()
    resp.status_code = 200
    resp._content = b"[" * 100_000 + b"]" * 100_000
    p = HttpProvider("https://api.test", "m", session=FakeSession([resp]))
    with pytest.raises(ProviderError, match="^malformed provider response: "):
        p.complete("q")


@pytest.mark.parametrize(
    "setting",
    [
        {"timeout": -1.0}, {"timeout": 0}, {"timeout": float("nan")}, {"timeout": float("inf")}, {"retries": -1},
        {"temperature": float("inf")}, {"temperature": float("-inf")}, {"temperature": float("nan")},
    ],
    ids=[
        "timeout-negative", "timeout-zero", "timeout-nan", "timeout-inf", "retries-negative",
        "temperature-inf", "temperature-minus-inf", "temperature-nan",
    ],
)
def test_http_provider_rejects_out_of_range_numbers(setting):
    session = FakeSession([])
    with pytest.raises(ProviderError, match=f"^http provider {next(iter(setting))} must be "):
        HttpProvider("https://api.test", "m", session=session, **setting)
    with pytest.raises(ProviderError, match=f"^http provider {next(iter(setting))} must be "):
        load_provider("http", {"endpoint": "https://e", "model": "m", **setting})
    assert session.requests == []


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


@pytest.mark.parametrize("script", [5, "abc", None, {"a": "b"}, ["ok", 7], [None]])
def test_load_provider_rejects_a_mock_script_that_is_not_a_list_of_strings(script):
    with pytest.raises(ProviderError, match="'script' is not a list of strings"):
        load_provider("mock", {"script": script})


@pytest.mark.parametrize("by_prompt", [5, "abc", None, ["x"], {"digest": 3}, {1: "x"}])
def test_load_provider_rejects_a_mock_by_prompt_that_is_not_an_object_of_strings(by_prompt):
    with pytest.raises(ProviderError, match="'by_prompt' is not an object of strings"):
        load_provider("mock", {"by_prompt": by_prompt})


def test_load_provider_keeps_well_typed_mock_settings():
    p = load_provider("mock", {"script": [], "by_prompt": {}})
    assert (p.script, p.by_prompt) == ([], {})
    digest = hashlib.sha256(b"x").hexdigest()
    p = load_provider("mock", {"script": ["a", "b"], "by_prompt": {digest: "pinned"}})
    assert [p.complete("x"), p.complete("y"), p.complete("z")] == ["pinned", "b", "a"]


@pytest.mark.parametrize("key", ["temperature", "timeout", "retries"])
@pytest.mark.parametrize("value", ["hot", None, [1], "2.5x", True, False])  # JSON true is not the number 1
def test_load_provider_rejects_a_non_numeric_http_setting(key, value):
    with pytest.raises(ProviderError, match=f"'{key}' is not a number"):
        load_provider("http", {"endpoint": "https://e", "model": "m", key: value})


@pytest.mark.parametrize(
    "key, value",
    [("retries", float("inf")), ("retries", float("-inf")), ("temperature", 10**400), ("timeout", 10**400)],
    ids=["retries-inf", "retries-minus-inf", "temperature-huge", "timeout-huge"],
)
def test_load_provider_rejects_an_http_setting_that_overflows(key, value):
    with pytest.raises(ProviderError, match=f"^http provider config '{key}' is not a number: "):
        load_provider("http", {"endpoint": "https://e", "model": "m", key: value})


@pytest.mark.parametrize("key", ["endpoint", "model", "api_key"])
@pytest.mark.parametrize("value", [None, 5, ["x"], {"a": "b"}])
def test_load_provider_rejects_an_http_setting_that_is_not_a_string(key, value):
    with pytest.raises(ProviderError, match=f"^http provider config '{key}' is not a string: "):
        load_provider("http", {"endpoint": "https://e", "model": "m", key: value})


def test_load_provider_converts_numeric_http_settings():
    h = load_provider("http", {"endpoint": "https://e", "model": "m", "temperature": "0.5", "timeout": 3, "retries": 4.0})
    assert (h.temperature, h.timeout, h.retries) == (0.5, 3.0, 4)
    d = load_provider("http", {"endpoint": "https://e", "model": "m"})
    assert (d.temperature, d.timeout, d.retries) == (0.2, 60.0, 2)
    z = load_provider("http", {"endpoint": "https://e", "model": "m", "timeout": 1e-9, "retries": 0})
    assert (z.timeout, z.retries) == (1e-9, 0)


def test_cli_start_up_does_not_import_the_http_client():
    code = "import sys, policylens.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
