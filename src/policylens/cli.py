"""Command-line front end.

Commands: ``summarize`` (regex summary of one policy), ``compare``
(permissiveness verdict for a pair), ``diff`` (summaries of both
differences), ``count`` (bounded model count of one dimension), ``requests``
(sample allowed/denied requests).

Exit codes: 0 success; 1 input/syntax/schema problems; 2 automaton or cube
blowup; 3 provider failure with fallback disabled; 4 partial output because
a requested sample side is empty; 5 a sampled request failed verification.

The full report goes to ``--out`` (or standard output) as json or text; a
one-line human summary always goes to standard output.  ``--no-timestamp``
drops the volatile fields (timestamp and timings) so identical runs are
byte-identical.
"""

from __future__ import annotations

import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import NoReturn

import click

from . import __version__
from .automata import operation_cache
from .errors import CubeBlowup, PolicyLensError, ProviderError, StateBlowup, VerificationError
from .policy import PolicyDocument, parse_policy
from .providers import LlmProvider, load_provider
from .requestsets import compare_policies, compile_policy, project, sample_requests
from .simplifier import (
    SimplifierConfig,
    SummarizationReport,
    fraction_str,
    generate_summarization,
    summarize_difference,
)

EXIT_INPUT = 1
EXIT_BLOWUP = 2
EXIT_PROVIDER = 3
EXIT_PARTIAL = 4
EXIT_VERIFICATION = 5

DEFAULT_SEED = 0


def _echo(message: str, err: bool = False) -> None:
    """``click.echo`` to the current standard stream.  Naming the stream keeps
    click from caching a wrapper per stream object, an entry that is never
    freed, so repeated in-process runs with redirected output do not keep
    every redirected stream alive."""
    click.echo(message, file=click.get_text_stream("stderr" if err else "stdout"))


def _fail(message: str, code: int) -> NoReturn:
    _echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_policy(path: str) -> PolicyDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        _fail(str(e), EXIT_INPUT)
    return parse_policy(text)


def _load_provider_config(path: str | None) -> dict | None:
    if path is None:
        return None
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        _fail(str(e), EXIT_INPUT)
    except json.JSONDecodeError as e:
        _fail(f"invalid provider config: {e}", EXIT_INPUT)
    if not isinstance(data, dict):
        _fail("provider config must be a JSON object", EXIT_INPUT)
    return data


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _text_render(value: object, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_text_render(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}-")
                lines.extend(_text_render(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(v)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
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
    """Print the summary line, then write the report (with a ``timestamp``
    unless ``no_timestamp``) to ``out`` or standard output."""
    if not no_timestamp:
        report["timestamp"] = _timestamp()
    _echo(summary)
    if fmt == "json":
        body = json.dumps(report, indent=2, ensure_ascii=False)
    else:
        body = "\n".join(_text_render(report))
    if out:
        try:
            Path(out).write_text(body + "\n", encoding="utf-8")
        except OSError as e:
            _fail(str(e), EXIT_INPUT)
    else:
        _echo(body)


def _run_guarded(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (StateBlowup, CubeBlowup) as e:
        _fail(str(e), EXIT_BLOWUP)
    except ProviderError as e:
        _fail(str(e), EXIT_PROVIDER)
    except VerificationError as e:
        _fail(str(e), EXIT_VERIFICATION)
    except PolicyLensError as e:
        _fail(str(e), EXIT_INPUT)


def _summary_line(report: SummarizationReport) -> str:
    if report.empty_language:
        return "summary: ∅ (policy allows nothing)"
    if report.fallback:
        return f"summary (exact, fallback): {report.chosen}"
    return f"summary (candidate, J={fraction_str(report.similarity)}): {report.chosen}"


_seed = click.option("--seed", default=DEFAULT_SEED, show_default=True, help="Random seed.")
_bound = click.option("--bound", "-b", default=100, show_default=True, help="Model-counting length bound.")
_dim = click.option("--dim", default="resource", show_default=True, help="Policy dimension to project.")

# Every command writes its report through these and ``_emit``.
_output = [
    click.option("--out", default=None, help="Write the full report to this file."),
    click.option("--format", "fmt", default="json", show_default=True, type=click.Choice(["json", "text"])),
    click.option("--no-timestamp", is_flag=True, default=False, help="Omit volatile fields (timestamp, timings)."),
]

_summarizer = [
    click.option("--samples", "-n", default=1000, show_default=True, help="Sample draws per run."),
    _bound,
    click.option("--threshold", "-t", default=0.8, show_default=True, help="Similarity acceptance threshold."),
    click.option("--attempts", default=3, show_default=True, help="Independent provider attempts."),
    _seed,
    _dim,
    click.option("--provider", default="mock", show_default=True, type=click.Choice(["mock", "http"])),
    click.option("--provider-config", default=None, help="JSON file with provider settings."),
    click.option("--include-extracted-regex-in-prompt", is_flag=True, default=False),
    click.option("--no-fallback", is_flag=True, default=False, help="Fail instead of falling back when every provider attempt errors."),
    *_output,
]


def _with_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn

    return wrap


def _make_config(samples, bound, threshold, attempts, seed, dim, include_extracted, no_fallback) -> SimplifierConfig:
    try:
        return SimplifierConfig(
            samples=samples,
            bound=bound,
            threshold=threshold,
            attempts=attempts,
            projection=dim,
            seed=seed,
            include_extracted_in_prompt=include_extracted,
            fallback=not no_fallback,
        )
    except ValueError as e:
        _fail(str(e), EXIT_INPUT)


def _make_provider(kind: str, config_path: str | None) -> LlmProvider:
    try:
        return load_provider(kind, _load_provider_config(config_path))
    except ProviderError as e:
        _fail(str(e), EXIT_INPUT)


@click.group()
@click.version_option(version=__version__, prog_name="policylens")
def main() -> None:
    """Policy analysis: compile access policies to automata, summarize them as
    regexes, verify the summaries, and compare policies."""


@main.command()
@click.argument("policy_path")
@_with_options(_summarizer)
def summarize(policy_path, samples, bound, threshold, attempts, seed, dim, provider,
              provider_config, out, fmt, include_extracted_regex_in_prompt, no_fallback, no_timestamp):
    """Produce a verified regex summary of the requests POLICY_PATH allows."""
    doc = _run_guarded(_load_policy, policy_path)
    cfg = _make_config(samples, bound, threshold, attempts, seed, dim,
                       include_extracted_regex_in_prompt, no_fallback)
    prov = _make_provider(provider, provider_config)
    report = _run_guarded(generate_summarization, doc, cfg, prov)
    payload: dict = {"command": "summarize", "policy": policy_path}
    payload.update(report.to_dict(include_volatile=not no_timestamp))
    _emit(payload, _summary_line(report), out, fmt, no_timestamp)


@main.command()
@click.argument("policy1")
@click.argument("policy2")
@click.option("--witnesses", default=3, show_default=True, help="Witness requests per side (>= 0).")
@_with_options([_seed, *_output])
def compare(policy1, policy2, witnesses, seed, out, fmt, no_timestamp):
    """Classify the permissiveness relation between two policies."""
    if witnesses < 0:
        _fail("--witnesses must be non-negative", EXIT_INPUT)
    d1 = _run_guarded(_load_policy, policy1)
    d2 = _run_guarded(_load_policy, policy2)
    verdict = _run_guarded(compare_policies, d1, d2, witnesses, seed)
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
def diff(policy1, policy2, samples, bound, threshold, attempts, seed, dim, provider,
         provider_config, out, fmt, include_extracted_regex_in_prompt, no_fallback, no_timestamp):
    """Summarize what each policy allows that the other does not."""
    d1 = _run_guarded(_load_policy, policy1)
    d2 = _run_guarded(_load_policy, policy2)
    cfg = _make_config(samples, bound, threshold, attempts, seed, dim,
                       include_extracted_regex_in_prompt, no_fallback)
    prov = _make_provider(provider, provider_config)
    first, second = _run_guarded(summarize_difference, d1, d2, cfg, prov)
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
@operation_cache()
def count(policy_path, dim, bound, out, fmt, no_timestamp):
    """Count the strings (length <= bound) one dimension of the policy allows."""
    doc = _run_guarded(_load_policy, policy_path)

    def run() -> int:
        if bound < 0:
            raise PolicyLensError("bound must be non-negative")
        return project(compile_policy(doc), dim).count_models(bound)

    value = _run_guarded(run)
    payload = {
        "command": "count",
        "policy": policy_path,
        "dimension": dim,
        "bound": bound,
        "count": str(value),
    }
    _emit(payload, str(value), out, fmt, no_timestamp)


@main.command()
@click.argument("policy_path")
@click.option("-k", "count_per_side", default=1, show_default=True, help="Requests per side.")
@_with_options([_seed, *_output])
def requests(policy_path, count_per_side, seed, out, fmt, no_timestamp):
    """Emit verified allowed and denied sample requests for a policy."""
    if count_per_side < 0:
        _fail("-k must be non-negative", EXIT_INPUT)
    doc = _run_guarded(_load_policy, policy_path)
    allowed, denied = _run_guarded(sample_requests, doc, count_per_side, seed)
    partial = False
    for label, side in (("allowed", allowed), ("denied", denied)):
        if count_per_side > 0 and not side:
            _echo(f"warning: no {label} requests exist; emitting partial output", err=True)
            partial = True
    payload = {
        "command": "requests",
        "policy": policy_path,
        "k": count_per_side,
        "allowed": allowed,
        "denied": denied,
    }
    _emit(payload, f"allowed: {len(allowed)}, denied: {len(denied)}", out, fmt, no_timestamp)
    if partial:
        sys.exit(EXIT_PARTIAL)
