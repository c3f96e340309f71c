"""Summarization pipeline: extract a regex from a policy, ask a provider to
simplify it, and keep the simplification only if it verifies.

A run compiles the policy to its request set, projects one dimension,
extracts the exact regex, samples accepted strings, asks the provider for a
simplified regex (several independent attempts), scores every parseable
candidate by model-counted Jaccard similarity against the exact language,
and chooses the best candidate if it clears the threshold; otherwise it
falls back to the exact extracted regex.  An empty policy short-circuits to
the ``∅`` summary without any provider call.

The same tail (projection onward) also summarizes the two difference sets of
a policy pair, which characterizes what one policy allows that the other
does not.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .automata import Dfa, from_regex, memoized, operation_cache, similarity_counts
from .errors import PolicyLensError, ProviderError, RegexSyntaxError, StateBlowup
from .policy import PolicyDocument
from .providers import SAMPLES_BEGIN, SAMPLES_END, LlmProvider
from .regex import EMPTY_TOKEN, RegexAst, parse_regex, print_regex
from .requestsets import RequestSet, compile_policy, is_empty_set, policy_differences, project
from .sampler import sample_n


@dataclass(frozen=True)
class SimplifierConfig:
    samples: int = 1000
    bound: int = 100
    threshold: float = 0.8
    attempts: int = 3
    projection: str = "resource"
    seed: int = 0
    include_extracted_in_prompt: bool = False
    fallback: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.threshold <= 1:
            raise ValueError("threshold must be in [0, 1]")
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.bound < 0:
            raise ValueError("bound must be non-negative")


@dataclass
class LlmCandidate:
    """One provider attempt: raw response, extracted regex, parse/score state."""

    attempt: int
    response: str | None
    regex_text: str | None
    error: str | None = None
    similarity: Fraction | None = None
    ast: RegexAst | None = None
    counts: tuple[int, int] | None = None  # (intersection, union) behind the similarity

    def to_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "response": self.response,
            "regex": self.regex_text,
            "error": self.error,
            "similarity": None if self.similarity is None else fraction_str(self.similarity),
        }


@dataclass
class SummarizationReport:
    projection: str
    empty_language: bool
    extracted_regex: str
    samples: list[str]
    candidates: list[LlmCandidate]
    chosen: str
    chosen_source: str  # "candidate" | "extracted" | "empty"
    fallback: bool
    similarity: Fraction | None
    model_counts: tuple[int, int] | None  # (intersection, union) behind the similarity
    config: dict
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self, include_volatile: bool = True) -> dict:
        out = {
            "projection": self.projection,
            "empty_language": self.empty_language,
            "extracted_regex": self.extracted_regex,
            "samples": self.samples,
            "candidates": [c.to_dict() for c in self.candidates],
            "chosen": self.chosen,
            "chosen_source": self.chosen_source,
            "fallback": self.fallback,
            "similarity": None if self.similarity is None else fraction_str(self.similarity),
            "model_counts": None
            if self.model_counts is None
            else {"intersection": str(self.model_counts[0]), "union": str(self.model_counts[1])},
            "config": self.config,
        }
        if include_volatile:
            out["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return out


def fraction_str(j: Fraction) -> str:
    if j.denominator == 1:
        return f"{j.numerator}.0"
    return repr(j.numerator / j.denominator)


def quantify_similarity(r1: RegexAst, r2: RegexAst, bound: int) -> Fraction:
    """Jaccard similarity of the two languages restricted to length <= bound."""
    return _jaccard(similarity_counts(from_regex(r1), r2, bound))


def _jaccard(counts: tuple[int, int]) -> Fraction:
    inter, union = counts
    # Both languages empty within the bound: equal, so similarity 1.
    return Fraction(inter, union) if union else Fraction(1)


@memoized
def _score(exact: Dfa, candidate: RegexAst, bound: int) -> tuple[int, int] | str:
    """A candidate's (intersection, union) counts, or the error saying it is
    too large to score."""
    try:
        return similarity_counts(exact, candidate, bound)
    except StateBlowup as e:
        return f"too large to score: {e}"


PROMPT_DIALECT = (
    "Use only this regex dialect: literal characters; escapes like \\. \\* \\\\; "
    "character classes [abc], [a-z], [^...]; the any-character dot .; grouping (...); "
    "alternation |; quantifiers * + ? {m} {m,n}. No lookaround, no backreferences, "
    "no lazy quantifiers, no anchors. The regex must match entire strings."
)


def build_prompt(
    samples: list[str] | set[str],
    extracted_text: str | None = None,
) -> str:
    """Prompt asking for one generalizing regex over the given sample strings."""
    lines = [
        "Below are example strings. Every one of them belongs to one regular language.",
        "Write a single short regular expression for that language: it must match",
        "every example and capture the pattern they share.",
        PROMPT_DIALECT,
    ]
    if extracted_text is not None:
        lines.append("An exact but verbose regular expression for the language is: " + extracted_text)
    lines.append(SAMPLES_BEGIN)
    lines.extend(sorted(samples))
    lines.append(SAMPLES_END)
    lines.append("Answer with exactly one line containing only the regular expression.")
    return "\n".join(lines)


def _candidate_line(response: str) -> str | None:
    """First line of a completion that plausibly is the regex itself."""
    for raw in response.splitlines():
        line = raw.strip()
        if not line or line.startswith("```"):
            continue
        line = line.strip("`").strip()
        if not line:
            continue
        if line.endswith(":"):  # prose lead-in such as "Here is the regex:"
            continue
        return line
    return None


def generate_regex_from_llm(prompt: str, provider: LlmProvider, attempt: int = 1) -> LlmCandidate:
    """One provider attempt on ``prompt`` (see :func:`build_prompt`).
    Transport failures raise ProviderError; a response that does not parse
    is recorded on the candidate, not raised.  Inside an operation cache
    scope each regex line is parsed once, however many attempts return it."""
    response = provider.complete(prompt)
    line = _candidate_line(response)
    if line is None:
        return LlmCandidate(attempt, response, None, error="no regex line in response")
    outcome = _parse_candidate(line)
    if isinstance(outcome, str):
        return LlmCandidate(attempt, response, line, error=outcome)
    return LlmCandidate(attempt, response, line, ast=outcome)


@memoized
def _parse_candidate(line: str) -> RegexAst | str:
    """The line's AST, or its parse error as text."""
    try:
        return parse_regex(line)
    except (RegexSyntaxError, PolicyLensError) as e:
        return f"unparseable: {e}"


def _config_echo(cfg: SimplifierConfig, provider: LlmProvider) -> dict:
    echo = {k: v for k, v in asdict(cfg).items() if k != "fallback"}
    return {**echo, "provider": provider.name}


def _empty_report(cfg: SimplifierConfig, provider: LlmProvider, timings: dict[str, float]) -> SummarizationReport:
    return SummarizationReport(
        projection=cfg.projection,
        empty_language=True,
        extracted_regex=EMPTY_TOKEN,
        samples=[],
        candidates=[],
        chosen=EMPTY_TOKEN,
        chosen_source="empty",
        fallback=False,
        similarity=None,
        model_counts=None,
        config=_config_echo(cfg, provider),
        timings=timings,
    )


class _StageTimer:
    """Wall-clock seconds per pipeline stage, and ``total``: the time since
    the timer started plus the ``earlier`` stages it was given."""

    def __init__(self, earlier: dict[str, float] | None = None) -> None:
        self.timings = dict(earlier or {})
        self._start = time.perf_counter() - sum(self.timings.values())

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        yield
        self.timings[name] = time.perf_counter() - t0

    def finish(self) -> dict[str, float]:
        self.timings["total"] = time.perf_counter() - self._start
        return self.timings


@operation_cache()
def summarize_set(
    request_set: RequestSet,
    cfg: SimplifierConfig,
    provider: LlmProvider,
    *,
    earlier: dict[str, float] | None = None,
) -> SummarizationReport:
    """The pipeline tail: projection, extraction, sampling, provider attempts,
    similarity scoring, and the threshold decision.

    ``earlier`` holds the timings of stages a caller ran before this one
    (``compile``); they are reported and counted into ``total``."""
    timer = _StageTimer(earlier)
    request_set.schema.index(cfg.projection)  # SchemaError on an unknown dimension, even if empty
    if is_empty_set(request_set):
        return _empty_report(cfg, provider, timer.finish())

    with timer.stage("project"):
        dfa = project(request_set, cfg.projection)

    with timer.stage("extract"):
        extracted = dfa.extract_regex()
        extracted_text = print_regex(extracted)

    with timer.stage("sample"):
        samples = sorted(sample_n(extracted, cfg.samples, cfg.seed))

    with timer.stage("llm"):
        prompt = build_prompt(samples, extracted_text if cfg.include_extracted_in_prompt else None)
        candidates: list[LlmCandidate] = []
        for attempt in range(1, cfg.attempts + 1):
            try:
                cand = generate_regex_from_llm(prompt, provider, attempt)
            except ProviderError as e:
                cand = LlmCandidate(attempt, None, None, error=f"provider: {e}")
            candidates.append(cand)

    if not cfg.fallback and all(c.response is None for c in candidates):
        raise ProviderError("all provider attempts failed and fallback is disabled")

    with timer.stage("similarity"):
        # Attempts often return the same regex; an AST is one object per tree, so the
        # operation cache scores each distinct candidate once, a failure
        # included, and counts the projection once for all of them.
        for cand in candidates:
            if cand.ast is not None:
                outcome = _score(dfa, cand.ast, cfg.bound)
                if isinstance(outcome, str):
                    cand.error = outcome
                else:
                    cand.counts, cand.similarity = outcome, _jaccard(outcome)

    scored = [c for c in candidates if c.similarity is not None]
    best = max(scored, key=lambda c: (c.similarity, -len(c.regex_text), -c.attempt), default=None)
    # Exact-decimal threshold: Fraction("0.8") is 4/5, unlike the float 0.8.
    if best is not None and best.similarity >= Fraction(str(cfg.threshold)):
        chosen, source, fallback = best.regex_text, "candidate", False
        similarity, counts = best.similarity, best.counts
    else:
        # Chosen output is the exact extracted regex; scores stay per-candidate.
        chosen, source, fallback = extracted_text, "extracted", True
        similarity, counts = None, None

    return SummarizationReport(
        projection=cfg.projection,
        empty_language=False,
        extracted_regex=extracted_text,
        samples=samples,
        candidates=candidates,
        chosen=chosen,
        chosen_source=source,
        fallback=fallback,
        similarity=similarity,
        model_counts=counts,
        config=_config_echo(cfg, provider),
        timings=timer.finish(),
    )


@operation_cache()
def generate_summarization(
    doc: PolicyDocument, cfg: SimplifierConfig, provider: LlmProvider
) -> SummarizationReport:
    """Summarize the requests a policy allows, projected to one dimension."""
    timer = _StageTimer()
    with timer.stage("compile"):
        request_set = compile_policy(doc)
    return summarize_set(request_set, cfg, provider, earlier=timer.timings)


@operation_cache()
def summarize_difference(
    p1: PolicyDocument, p2: PolicyDocument, cfg: SimplifierConfig, provider: LlmProvider
) -> tuple[SummarizationReport, SummarizationReport]:
    """Summaries of what p1 allows beyond p2 and what p2 allows beyond p1."""
    timer = _StageTimer()
    with timer.stage("compile"):
        _, _, f1, f2 = policy_differences(p1, p2)
    first = summarize_set(f1, cfg, provider, earlier=timer.timings)
    second = summarize_set(f2, cfg, provider, earlier=timer.timings)
    return first, second
