"""Text-completion providers behind one interface.

The engine only ever needs ``complete(prompt) -> text``.  ``HttpProvider``
speaks the common chat-completions JSON shape; ``MockProvider`` is fully
offline and deterministic for tests and reproducible runs.

The sample block a prompt carries is delimited by :data:`SAMPLES_BEGIN` and
:data:`SAMPLES_END`, one sample per line; the mock provider's default
behavior reads it back.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import ProviderError
from .regex import escape_literal

if TYPE_CHECKING:
    import requests

SAMPLES_BEGIN = "<<<SAMPLES"
SAMPLES_END = "SAMPLES>>>"

# Script entry that makes the mock provider simulate a transport failure.
MOCK_TIMEOUT = "<<TIMEOUT>>"

API_KEY_ENV = "POLICYLENS_API_KEY"

# Wait before retry i (1-based): BACKOFF_BASE_S * 2**(i-1), at most BACKOFF_MAX_S.
BACKOFF_BASE_S = 0.5
BACKOFF_MAX_S = 8.0


class LlmProvider(ABC):
    name: str

    @abstractmethod
    def complete(self, prompt: str) -> str:
        """One completion for one prompt; raises ProviderError on failure."""


def prompt_samples(prompt: str) -> list[str]:
    """The sample lines carried by a prompt, in prompt order."""
    lines = prompt.splitlines()
    try:
        lo = lines.index(SAMPLES_BEGIN)
        hi = lines.index(SAMPLES_END, lo + 1)
    except ValueError:
        return []
    return lines[lo + 1 : hi]


class MockProvider(LlmProvider):
    """Deterministic offline provider.

    Response precedence: a ``by_prompt`` entry keyed by the prompt's sha256
    hex digest, then the ``script`` (cycled in order; the MOCK_TIMEOUT
    sentinel raises ProviderError), then a default derived from the prompt:
    an alternation of up to 16 of its sample strings, escaped.
    """

    name = "mock"

    def __init__(
        self,
        script: Sequence[str] | None = None,
        by_prompt: Mapping[str, str] | None = None,
    ) -> None:
        self.script = list(script) if script else []
        self.by_prompt = dict(by_prompt) if by_prompt else {}
        self.calls: list[str] = []

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        if digest in self.by_prompt:
            response = self.by_prompt[digest]
        elif self.script:
            response = self.script[(len(self.calls) - 1) % len(self.script)]
        else:
            response = self._from_samples(prompt)
        if response == MOCK_TIMEOUT:
            raise ProviderError("mock provider timeout")
        return response

    @staticmethod
    def _from_samples(prompt: str) -> str:
        samples = prompt_samples(prompt)
        if not samples:
            raise ProviderError("mock provider default needs a samples block in the prompt")
        picked = sorted(set(samples))[:16]
        return "|".join(f"({escape_literal(s)})" for s in picked)


class HttpProvider(LlmProvider):
    """Chat-completions client over HTTP with a bounded retry budget.

    Connection errors, timeouts, 429 and 5xx are retried up to ``retries``
    times with exponential backoff; any other 4xx fails at once.  The
    ``temperature`` must be finite, the ``timeout`` finite and positive and
    ``retries`` non-negative.
    """

    name = "http"

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        temperature: float = 0.2,
        timeout: float = 60.0,
        retries: int = 2,
        session: requests.Session | None = None,
    ) -> None:
        if not math.isfinite(temperature):  # the request body could not encode it
            raise ProviderError(f"http provider temperature must be a finite number: {temperature!r}")
        if not 0 < timeout < float("inf"):
            raise ProviderError(f"http provider timeout must be a finite positive number of seconds: {timeout!r}")
        if retries < 0:
            raise ProviderError(f"http provider retries must be non-negative: {retries!r}")
        self.endpoint = endpoint
        self.model = model
        # Environment overrides the configured credential, nothing else.
        self.api_key = os.environ.get(API_KEY_ENV) or api_key
        self.temperature = temperature
        self.timeout = timeout
        self.retries = retries
        if session is None:
            # Imported on first use: only this provider needs the HTTP client,
            # and importing it costs every other command about 10 MB and 0.1 s.
            import requests

            session = requests.Session()
        self.session = session

    def complete(self, prompt: str) -> str:
        import requests

        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.temperature,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        # Only transport failures, rate limiting (429) and server errors
        # (5xx) can succeed on a later attempt; any other error is final.
        last = ""
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(min(BACKOFF_BASE_S * 2 ** (attempt - 1), BACKOFF_MAX_S))
            try:
                resp = self.session.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout
                )
            except (requests.ConnectionError, requests.Timeout) as e:
                last = str(e)
                continue
            except requests.RequestException as e:
                raise ProviderError(f"provider request failed: {e}") from None
            status = resp.status_code
            if status == 429 or status >= 500:
                last = f"HTTP {status}"
                continue
            if status >= 400:
                raise ProviderError(f"provider rejected the request: HTTP {status}")
            try:
                content = resp.json()["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError, ValueError, RecursionError) as e:
                raise ProviderError(f"malformed provider response: {e}") from None
            if not isinstance(content, str):  # e.g. null for a refusal or a tool call
                raise ProviderError("malformed provider response: content is not a string")
            return content
        raise ProviderError(f"provider request failed after {self.retries + 1} attempts: {last}")


def load_provider(kind: str, config: Mapping[str, object] | None = None) -> LlmProvider:
    """Provider factory for the CLI; ``config`` is the parsed provider-config file."""
    config = config or {}
    if kind == "mock":
        script, by_prompt = config.get("script", []), config.get("by_prompt", {})
        if not (isinstance(script, list) and all(isinstance(s, str) for s in script)):
            raise ProviderError("mock provider config 'script' is not a list of strings")
        if not (isinstance(by_prompt, Mapping) and all(isinstance(s, str) for s in (*by_prompt, *by_prompt.values()))):
            raise ProviderError("mock provider config 'by_prompt' is not an object of strings")
        return MockProvider(script=script, by_prompt=by_prompt)
    if kind == "http":
        strings = {key: config[key] for key in ("endpoint", "model", "api_key") if key in config}
        for key in ("endpoint", "model"):
            if key not in strings:
                raise ProviderError(f"http provider config is missing {key!r}")
        for key, value in strings.items():
            if not isinstance(value, str):
                raise ProviderError(f"http provider config {key!r} is not a string: {value!r}")
        numbers: dict = {}
        for key, convert in (("temperature", float), ("timeout", float), ("retries", int)):
            if key in config:
                try:
                    if isinstance(config[key], bool):  # JSON true is not the number 1
                        raise TypeError
                    numbers[key] = convert(config[key])  # type: ignore[arg-type]
                except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf), float(10**400)
                    raise ProviderError(f"http provider config {key!r} is not a number: {config[key]!r}") from None
        return HttpProvider(**strings, **numbers)
    raise ProviderError(f"unknown provider kind {kind!r}")
