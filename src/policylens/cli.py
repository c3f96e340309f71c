"""Command-line front end.

Commands: ``summarize`` (regex summary of one policy), ``compare``
(permissiveness verdict for a pair), ``diff`` (summaries of both
differences), ``count`` (bounded model count of one dimension), ``requests``
(sample allowed/denied requests).

Exit codes: 0 success; 1 input/syntax/schema/file problems and bad option
values; 2 automaton or cube blowup; 3 provider failure with fallback
disabled; 4 partial output because a requested sample side is empty; 5 a
sampled request failed verification.  Every command runs through one
runner, :func:`_command`, which reads the codes of typed errors from one table.

The full report goes to ``--out`` (or standard output) as json or text; a
one-line human summary always goes to standard output.  ``--no-timestamp``
drops the volatile fields (timestamp, and the timings and stats of the
command's operation cache scope) so identical runs are byte-identical.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import click

from . import __version__
from .automata import operation_cache
from .errors import CubeBlowup, PolicyLensError, PolicySyntaxError, ProviderError, StateBlowup, VerificationError
from .policy import PolicyDocument, parse_policy
from .providers import LlmProvider, load_provider
from .requestsets import compare_policies, compile_policy, project, sample_requests
from .simplifier import (
    SimplifierConfig,
    SummarizationReport,
    count_str,
    fraction_str,
    generate_summarization,
    summarize_difference,
)

EXIT_PARTIAL = 4

DEFAULT_SEED = 0


def _echo(message: str, err: bool = False) -> None:
    """``click.echo`` to the current standard stream.  Naming the stream keeps
    click from caching a wrapper per stream object, an entry that is never
    freed, so repeated in-process runs with redirected output do not keep
    every redirected stream alive."""
    click.echo(message, file=click.get_text_stream("stderr" if err else "stdout"))


# Read by the runner: the first row that the error is an instance of wins.
EXIT_CODES: dict[type[Exception], int] = {
    StateBlowup: 2,
    CubeBlowup: 2,
    ProviderError: 3,
    VerificationError: 5,
    PolicyLensError: 1,
    OSError: 1,
}


def _command(body):
    """The runner every command body goes through: one operation cache scope
    around the whole command, and each typed error as one ``error:`` line and
    its exit code from :data:`EXIT_CODES`."""

    @functools.wraps(body)
    def run(*args, **kwargs):
        with operation_cache():
            try:
                return body(*args, **kwargs)
            except tuple(EXIT_CODES) as e:
                if isinstance(e, BrokenPipeError):
                    raise  # a closed standard output: click exits 1 without a message
                _echo(f"error: {e}", err=True)
                sys.exit(next(code for kind, code in EXIT_CODES.items() if isinstance(e, kind)))

    return run


def _load_policy(path: str) -> PolicyDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise PolicySyntaxError(f"policy file {path} is not valid UTF-8: {e}") from None
    return parse_policy(text)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _text_render(value: dict | list, indent: int = 0) -> list[str]:
    """Lines of a dict or list report; a non-empty container nests one level deeper."""
    pad = "  " * indent
    items = ((f"{k}:", v) for k, v in value.items()) if isinstance(value, dict) else (("-", v) for v in value)
    lines: list[str] = []
    for head, v in items:
        if isinstance(v, (dict, list)) and v:
            lines.append(f"{pad}{head}")
            lines.extend(_text_render(v, indent + 1))
        else:
            lines.append(f"{pad}{head} {_scalar(v)}")
    return lines


def _scalar(v: object) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (dict, list)):  # empty containers
        return "{}" if isinstance(v, dict) else "[]"
    return str(v)


def _emit(report: dict, summary: str, out: str | None, fmt: str, no_timestamp: bool) -> None:
    """Print the summary line, then write the report to ``out`` or standard
    output.  Unless ``no_timestamp``, it gains the scope's timings (a summary
    keeps its own, ``diff`` one per side), its stats and a ``timestamp``."""
    if not no_timestamp:
        with operation_cache() as scope:
            if report["command"] != "diff":
                timings = {**scope.timings, "total": time.perf_counter() - scope.started}
                report.setdefault("timings", {k: round(v, 6) for k, v in timings.items()})
            report["stats"] = scope.stats()
        report["timestamp"] = _timestamp()
    _echo(summary)
    if fmt == "json":
        body = json.dumps(report, indent=2, ensure_ascii=False)
    else:
        body = "\n".join(_text_render(report))
    if out:
        Path(out).write_text(body + "\n", encoding="utf-8")
    else:
        _echo(body)


def _summary_line(report: SummarizationReport) -> str:
    if report.empty_language:
        return "summary: ∅ (policy allows nothing)"
    if report.fallback:
        return f"summary (exact, fallback): {report.chosen}"
    return f"summary (candidate, J={fraction_str(report.similarity)}): {report.chosen}"


# The summarizer's options read their defaults from its configuration.
_DEFAULTS = SimplifierConfig()

_seed = click.option("--seed", default=DEFAULT_SEED, show_default=True, help="Random seed.")
_bound = click.option("--bound", "-b", default=_DEFAULTS.bound, show_default=True, help="Model-counting length bound.")
_dim = click.option("--dim", "projection", default=_DEFAULTS.projection, show_default=True, help="Policy dimension to project.")

# Every command writes its report through these and ``_emit``.
_output = [
    click.option("--out", default=None, help="Write the full report to this file."),
    click.option("--format", "fmt", default="json", show_default=True, type=click.Choice(["json", "text"])),
    click.option("--no-timestamp", is_flag=True, default=False, help="Omit volatile fields (timestamp, timings, stats)."),
]

_summarizer = [
    click.option("--samples", "-n", default=_DEFAULTS.samples, show_default=True, help="Sample draws per run."),
    _bound,
    click.option("--threshold", "-t", default=_DEFAULTS.threshold, show_default=True, help="Similarity acceptance threshold."),
    click.option("--attempts", default=_DEFAULTS.attempts, show_default=True, help="Independent provider attempts."),
    _seed,
    _dim,
    click.option("--provider", default="mock", show_default=True, type=click.Choice(["mock", "http"])),
    click.option("--provider-config", default=None, help="JSON file with provider settings."),
    click.option("--include-extracted-regex-in-prompt", "include_extracted_in_prompt", is_flag=True, default=False),
    click.option("--no-fallback", is_flag=True, default=False, help="Fail instead of falling back when every provider attempt errors."),
    *_output,
]


def _with_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn

    return wrap


def _settings(provider, provider_config, no_fallback, **fields) -> tuple[SimplifierConfig, LlmProvider]:
    """The summarizer's configuration, from the options named after its
    fields and ``--no-fallback``, then its provider.  A bad value, a malformed
    provider config and a provider-config error raise PolicyLensError, so
    they exit 1, not with a provider failure's 3."""
    try:
        cfg = SimplifierConfig(fallback=not no_fallback, **fields)
        config = None
        if provider_config is not None:
            config = json.loads(Path(provider_config).read_text(encoding="utf-8"))
            if not isinstance(config, dict):
                raise ProviderError("provider config must be a JSON object")
        return cfg, load_provider(provider, config)
    except (json.JSONDecodeError, RecursionError) as e:
        raise PolicyLensError(f"invalid provider config: {e}") from None
    except (ValueError, ProviderError) as e:
        raise PolicyLensError(str(e)) from None


@click.group()
@click.version_option(version=__version__, prog_name="policylens")
def main() -> None:
    """Policy analysis: compile access policies to automata, summarize them as
    regexes, verify the summaries, and compare policies."""


@main.command()
@click.argument("policy_path")
@_with_options(_summarizer)
@_command
def summarize(policy_path, out, fmt, no_timestamp, **settings):
    """Produce a verified regex summary of the requests POLICY_PATH allows."""
    doc = _load_policy(policy_path)
    report = generate_summarization(doc, *_settings(**settings))
    payload: dict = {"command": "summarize", "policy": policy_path}
    payload.update(report.to_dict(include_volatile=not no_timestamp))
    _emit(payload, _summary_line(report), out, fmt, no_timestamp)


@main.command()
@click.argument("policy1")
@click.argument("policy2")
@click.option("--witnesses", default=3, show_default=True, help="Witness requests per side (>= 0).")
@_with_options([_seed, *_output])
@_command
def compare(policy1, policy2, witnesses, seed, out, fmt, no_timestamp):
    """Classify the permissiveness relation between two policies."""
    if witnesses < 0:
        raise PolicyLensError("--witnesses must be non-negative")
    verdict = compare_policies(_load_policy(policy1), _load_policy(policy2), witnesses, seed)
    payload = {
        "command": "compare",
        "policy1": policy1,
        "policy2": policy2,
        "verdict": verdict.kind.value,
        "witnesses_first_only": list(verdict.witnesses_first),
        "witnesses_second_only": list(verdict.witnesses_second),
    }
    _emit(payload, f"verdict: {verdict.kind.value}", out, fmt, no_timestamp)


@main.command()
@click.argument("policy1")
@click.argument("policy2")
@_with_options(_summarizer)
@_command
def diff(policy1, policy2, out, fmt, no_timestamp, **settings):
    """Summarize what each policy allows that the other does not."""
    first, second = summarize_difference(_load_policy(policy1), _load_policy(policy2), *_settings(**settings))
    include_volatile = not no_timestamp
    payload = {
        "command": "diff",
        "policy1": policy1,
        "policy2": policy2,
        "first_only": first.to_dict(include_volatile=include_volatile),
        "second_only": second.to_dict(include_volatile=include_volatile),
    }
    summary = f"first allows extra: {first.chosen} | second allows extra: {second.chosen}"
    _emit(payload, summary, out, fmt, no_timestamp)


@main.command()
@click.argument("policy_path")
@_with_options([_dim, _bound, *_output])
@_command
def count(policy_path, projection, bound, out, fmt, no_timestamp):
    """Count the strings (length <= bound) one dimension of the policy allows."""
    doc = _load_policy(policy_path)
    if bound < 0:
        raise PolicyLensError("bound must be non-negative")
    with operation_cache() as scope, scope.stage("compile"):
        dfa = project(compile_policy(doc), projection)
    with scope.stage("count"):
        value = dfa.count_models(bound)
    payload = {
        "command": "count",
        "policy": policy_path,
        "dimension": projection,
        "bound": bound,
        "count": count_str(value),
    }
    _emit(payload, payload["count"], out, fmt, no_timestamp)


@main.command()
@click.argument("policy_path")
@click.option("-k", "count_per_side", default=1, show_default=True, help="Requests per side.")
@_with_options([_seed, *_output])
@_command
def requests(policy_path, count_per_side, seed, out, fmt, no_timestamp):
    """Emit verified allowed and denied sample requests for a policy."""
    if count_per_side < 0:
        raise PolicyLensError("-k must be non-negative")
    doc = _load_policy(policy_path)
    allowed, denied = sample_requests(doc, count_per_side, seed)
    empty = [label for label, side in (("allowed", allowed), ("denied", denied)) if count_per_side > 0 and not side]
    for label in empty:
        _echo(f"warning: no {label} requests exist; emitting partial output", err=True)
    payload = {
        "command": "requests",
        "policy": policy_path,
        "k": count_per_side,
        "allowed": allowed,
        "denied": denied,
    }
    _emit(payload, f"allowed: {len(allowed)}, denied: {len(denied)}", out, fmt, no_timestamp)
    if empty:
        sys.exit(EXIT_PARTIAL)
