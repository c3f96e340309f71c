from __future__ import annotations

from fractions import Fraction

import pytest

from policylens.automata import from_regex, similarity_counts
from policylens.errors import ProviderError
from policylens.policy import parse_policy
from policylens.providers import MOCK_TIMEOUT, MockProvider, prompt_samples
from policylens.regex import parse_regex, print_regex
from policylens.requestsets import compile_policy, project
from policylens.simplifier import (
    SimplifierConfig,
    build_prompt,
    fraction_str,
    generate_regex_from_llm,
    generate_summarization,
    quantify_similarity,
    summarize_difference,
    summarize_set,
)

from conftest import MUSIC_REGEX, corpus_paths
from oracles import reference_count_models


def allow_resources(*patterns: str):
    body = ", ".join(f'"{p}"' for p in patterns)
    return parse_policy(
        '{"Statement": [{"Effect": "Allow", "Principal": "*", "Action": "*",'
        f' "Resource": [{body}]}}]}}'
    )


SMALL = SimplifierConfig(samples=50, bound=6, attempts=1)


def test_similarity_identity_and_symmetry():
    r1, r2 = parse_regex("ab*"), parse_regex("a|b")
    assert quantify_similarity(r1, r1, 5) == Fraction(1)
    assert quantify_similarity(r1, r2, 5) == quantify_similarity(r2, r1, 5)


def test_similarity_worked_example():
    assert quantify_similarity(parse_regex("a|b"), parse_regex("b|c"), 1) == Fraction(1, 3)


def test_similarity_empty_cases():
    empty = parse_regex("∅")
    assert quantify_similarity(empty, empty, 10) == Fraction(1)
    # languages that only differ beyond the bound look identical within it
    assert quantify_similarity(parse_regex("aaa"), parse_regex("bbb"), 2) == Fraction(1)
    assert quantify_similarity(parse_regex("aaa"), parse_regex("bbb"), 3) == Fraction(0)
    assert quantify_similarity(empty, parse_regex("a"), 3) == Fraction(0)


def test_similarity_subset():
    assert quantify_similarity(parse_regex("a"), parse_regex("a|b"), 1) == Fraction(1, 2)


def test_fraction_str():
    assert fraction_str(Fraction(1)) == "1.0"
    assert fraction_str(Fraction(0)) == "0.0"
    assert fraction_str(Fraction(1, 2)) == "0.5"
    assert fraction_str(Fraction(1, 3)) == repr(1 / 3)


def test_config_validation():
    with pytest.raises(ValueError):
        SimplifierConfig(threshold=1.2)
    with pytest.raises(ValueError):
        SimplifierConfig(attempts=0)
    with pytest.raises(ValueError):
        SimplifierConfig(samples=0)
    with pytest.raises(ValueError):
        SimplifierConfig(bound=-1)


def test_build_prompt_shape():
    prompt = build_prompt({"b", "a"})
    assert prompt_samples(prompt) == ["a", "b"]
    assert "entire strings" in prompt
    assert "verbose" not in prompt
    with_hint = build_prompt(["x"], extracted_text="x|y")
    assert "x|y" in with_hint


def test_generate_candidate_parses_response():
    cand = generate_regex_from_llm(build_prompt(["a"]), MockProvider(script=["a*b?"]))
    assert cand.regex_text == "a*b?" and cand.error is None and cand.ast is not None


def test_generate_candidate_strips_fences_and_prose():
    provider = MockProvider(script=["Here is the regex:\n```\nab*c\n```"])
    cand = generate_regex_from_llm(build_prompt(["a"]), provider)
    assert cand.regex_text == "ab*c"


def test_generate_candidate_unparseable_recorded():
    cand = generate_regex_from_llm(build_prompt(["a"]), MockProvider(script=["a(?=b)"]))
    assert cand.ast is None and cand.regex_text == "a(?=b)"
    assert cand.error and "unparseable" in cand.error


def test_generate_candidate_blank_response():
    cand = generate_regex_from_llm(build_prompt(["a"]), MockProvider(script=["\n\n"]))
    assert cand.ast is None and cand.regex_text is None and cand.error


def test_generate_candidate_transport_failure_raises():
    with pytest.raises(ProviderError):
        generate_regex_from_llm(build_prompt(["a"]), MockProvider(script=[MOCK_TIMEOUT]))


def test_summarize_music_accepts_exact_candidate(music_doc):
    provider = MockProvider(script=[MUSIC_REGEX])
    # the shortest member is 12 characters, so the bound must reach past it
    # for the model counts to be non-zero
    cfg = SimplifierConfig(samples=50, bound=14, attempts=1)
    report = generate_summarization(music_doc, cfg, provider)
    assert report.chosen == MUSIC_REGEX
    assert report.chosen_source == "candidate"
    assert not report.fallback and not report.empty_language
    assert report.similarity == Fraction(1)
    inter, union = report.model_counts
    assert inter == union > 0
    assert report.samples and all(s for s in report.samples)
    stages = {"compile", "project", "extract", "sample", "llm", "similarity"}
    assert set(report.timings) == stages | {"total"}
    assert report.timings["total"] >= sum(report.timings[s] for s in stages)


def test_summarize_empty_policy_short_circuits(deny_all_doc):
    provider = MockProvider()
    report = generate_summarization(deny_all_doc, SMALL, provider)
    assert report.empty_language
    assert report.chosen == "∅" and report.extracted_regex == "∅"
    assert report.chosen_source == "empty"
    assert report.samples == [] and report.candidates == []
    assert provider.calls == []


def test_summarize_low_similarity_falls_back(music_doc):
    provider = MockProvider(script=["zzzz"])
    report = generate_summarization(music_doc, SMALL, provider)
    assert report.fallback and report.chosen_source == "extracted"
    assert report.chosen == report.extracted_regex
    assert report.similarity is None and report.model_counts is None
    assert report.candidates[0].similarity == Fraction(0)


def test_repeated_candidate_is_compiled_once(music_doc, monkeypatch):
    from policylens import automata

    # Pattern compiles reach the subset construction too: compile first.
    request_set = compile_policy(music_doc)
    compiled = []
    real = automata._subset_rows
    monkeypatch.setattr(automata, "_subset_rows", lambda r: compiled.append(r) or real(r))

    def forbidden(*args, **kwargs):
        raise AssertionError("candidate scoring built a canonical DFA or an intersection")

    # Projection only unions; nothing in the pipeline tail compiles a regex
    # to a canonical DFA or intersects two DFAs.
    monkeypatch.setattr(automata, "from_regex", forbidden)
    monkeypatch.setattr(automata.Dfa, "intersect", forbidden)
    cfg = SimplifierConfig(samples=50, bound=6, attempts=3)
    report = summarize_set(request_set, cfg, MockProvider(script=["zzzz", "zzzz", MUSIC_REGEX]))
    assert compiled == [parse_regex("zzzz"), parse_regex(MUSIC_REGEX)]
    first, second, third = report.candidates
    assert first.similarity == second.similarity == Fraction(0)
    assert third.similarity == Fraction(1) and report.chosen == MUSIC_REGEX


def test_candidate_too_large_to_score_is_built_once_and_rejected(music_doc, monkeypatch):
    from policylens import automata

    request_set = compile_policy(music_doc)
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 32)
    compiled = []
    real = automata._subset_rows
    monkeypatch.setattr(automata, "_subset_rows", lambda r: compiled.append(r) or real(r))
    big = "a{40}"  # 42 subset states
    cfg = SimplifierConfig(samples=50, bound=6, attempts=3)
    report = summarize_set(request_set, cfg, MockProvider(script=[big] * 3))
    assert compiled == [parse_regex(big)]
    message = "too large to score: subset construction exceeded the state cap of 32"
    assert [(c.error, c.similarity) for c in report.candidates] == [(message, None)] * 3
    assert report.fallback and report.chosen == report.extracted_regex


def test_a_candidate_past_the_position_cap_is_too_large_to_score(music_doc):
    from policylens import automata

    cfg = SimplifierConfig(samples=20, bound=6, attempts=1)
    report = summarize_set(compile_policy(music_doc), cfg, MockProvider(script=["((((a{64}){64}){64}){64})"]))
    message = f"too large to score: regex exceeded the position cap of {automata.DEFAULT_POSITION_CAP}"
    assert [(c.error, c.similarity) for c in report.candidates] == [(message, None)]
    assert report.fallback and report.chosen == report.extracted_regex


def test_each_distinct_candidate_is_scored_once(music_doc, monkeypatch):
    from policylens import simplifier

    request_set = compile_policy(music_doc)
    scored = []
    real = simplifier.similarity_counts
    monkeypatch.setattr(simplifier, "similarity_counts", lambda *args: scored.append(args) or real(*args))
    cfg = SimplifierConfig(samples=50, bound=6, attempts=4)
    report = summarize_set(request_set, cfg, MockProvider(script=[MUSIC_REGEX, "zzzz", MUSIC_REGEX, "zzzz"]))
    exact, chosen = project(request_set, "resource"), parse_regex(MUSIC_REGEX)
    # the chosen candidate's model counts are its score's, not a recount
    assert scored == [(exact, chosen, 6), (exact, parse_regex("zzzz"), 6)]
    assert report.chosen == MUSIC_REGEX
    assert report.model_counts == similarity_counts(exact, chosen, 6)


def _per_attempt_candidates(request_set, cfg, provider):
    """Candidates as each attempt makes them on its own: its own prompt and
    its own parse."""
    report = summarize_set(request_set, cfg, MockProvider(script=[MOCK_TIMEOUT]))
    hint = report.extracted_regex if cfg.include_extracted_in_prompt else None
    out = []
    for attempt in range(1, cfg.attempts + 1):
        cand = generate_regex_from_llm(build_prompt(report.samples, hint), provider, attempt)
        out.append({k: v for k, v in cand.to_dict().items() if k != "similarity"})
    return out


@pytest.mark.parametrize(
    "script",
    [None, ["(?=x)"], ["zzzz", "(a", "zzzz", MUSIC_REGEX], ["", "x"]],
    ids=["echo", "unparseable", "mixed", "blank"],
)
def test_summarize_parses_each_line_once_and_prompts_once(music_doc, monkeypatch, script):
    from policylens import simplifier

    cfg = SimplifierConfig(samples=50, bound=6, attempts=4, include_extracted_in_prompt=script is None)
    request_set = compile_policy(music_doc)
    expected = _per_attempt_candidates(request_set, cfg, MockProvider(script=script))

    parsed, prompts = [], []
    real_parse, real_prompt = simplifier.parse_regex, simplifier.build_prompt
    monkeypatch.setattr(simplifier, "parse_regex", lambda t: parsed.append(t) or real_parse(t))
    monkeypatch.setattr(simplifier, "build_prompt", lambda *a: prompts.append(a) or real_prompt(*a))
    provider = MockProvider(script=script)
    report = summarize_set(request_set, cfg, provider)

    assert len(prompts) == 1 and len(set(provider.calls)) == 1
    assert len(parsed) == len(set(parsed))
    lines = {c.regex_text for c in report.candidates if c.regex_text is not None}
    assert set(parsed) == lines
    assert [{k: v for k, v in c.items() if k != "similarity"} for c in report.to_dict()["candidates"]] == expected


def test_summarize_counts_the_projection_once(music_doc, monkeypatch):
    from policylens import automata
    from policylens.automata import universe_dfa

    request_set = compile_policy(music_doc)
    counted = []
    real = automata._count_common
    monkeypatch.setattr(automata, "_count_common", lambda a, b, bound: counted.append((a, b)) or real(a, b, bound))
    cfg = SimplifierConfig(samples=50, bound=6, attempts=3)
    report = summarize_set(request_set, cfg, MockProvider(script=["zzzz", "mp3s/.*", MUSIC_REGEX]))
    # the projection once, and each of three candidates' tables twice: its
    # intersection with the projection and its own count
    assert len(counted) == 1 + 3 * 2
    exact = project(compile_policy(music_doc), "resource")
    assert counted.count((exact, universe_dfa())) == 1
    walks = [w for w in counted if w != (exact, universe_dfa())]
    against_exact = [b for a, b in walks if a == exact]
    against_universe = [a for a, b in walks if b == universe_dfa()]
    assert len(against_exact) == len(against_universe) == 3
    assert all(any(t is u for u in against_universe) for t in against_exact)
    for cand in report.candidates:
        assert cand.similarity == quantify_similarity(parse_regex(report.extracted_regex), cand.ast, cfg.bound)


SCRIPTED = (MUSIC_REGEX, ".*", "∅", "()", "mp3s/.*", "(a|b)*abb", "[a-z]+\\.(txt|log)", "logs/.{3}")


def test_scores_equal_the_product_path_on_corpus_candidates():
    """Every corpus projection against its echo-mock candidates, its exact
    regex and a scripted set, scored by the counting walks and by counting
    the canonical intersection and candidate DFAs."""
    bound = SimplifierConfig().bound
    scored = 0
    for path in corpus_paths():
        request_set = compile_policy(parse_policy(path.read_text()))
        for dim in request_set.schema.dimensions:
            cfg = SimplifierConfig(samples=50, attempts=1, projection=dim)
            report = summarize_set(request_set, cfg, MockProvider())
            exact = project(request_set, dim)
            asts = [c.ast for c in report.candidates if c.ast is not None]
            asts += [parse_regex(report.extracted_regex)] + [parse_regex(t) for t in SCRIPTED]
            count = reference_count_models(*exact.table, bound)
            for ast in asts:
                cand = from_regex(ast)
                inter = reference_count_models(*exact.intersect(cand).table, bound)
                union = count + reference_count_models(*cand.table, bound) - inter
                assert similarity_counts(exact, ast, bound) == (inter, union), (path.name, dim)
                scored += 1
            for c in report.candidates:
                if c.ast is not None:
                    inter, union = similarity_counts(exact, c.ast, bound)
                    assert c.similarity == (Fraction(inter, union) if union else Fraction(1))
    assert scored > 200


def test_summarize_unparseable_candidates_fall_back(music_doc):
    provider = MockProvider(script=["(?=x)"])
    report = generate_summarization(music_doc, SMALL, provider)
    assert report.fallback and report.chosen == report.extracted_regex
    assert all(c.similarity is None for c in report.candidates)


def test_no_fallback_raises_only_when_all_attempts_transport_fail(music_doc):
    cfg = SimplifierConfig(samples=20, bound=6, attempts=2, fallback=False)
    with pytest.raises(ProviderError):
        generate_summarization(music_doc, cfg, MockProvider(script=[MOCK_TIMEOUT]))
    # a parseable but low-scoring candidate still falls back to the exact regex
    report = generate_summarization(music_doc, cfg, MockProvider(script=["zzzz"]))
    assert report.fallback and report.chosen == report.extracted_regex
    # one surviving attempt is enough to avoid the error
    mixed = MockProvider(script=[MOCK_TIMEOUT, "zzzz"])
    report = generate_summarization(music_doc, cfg, mixed)
    assert report.candidates[0].response is None and report.candidates[1].response


def test_best_candidate_prefers_shorter_text():
    doc = allow_resources("ab")
    provider = MockProvider(script=["(a)(b)", "ab"])
    report = generate_summarization(doc, SimplifierConfig(samples=5, bound=4, attempts=2), provider)
    assert [c.similarity for c in report.candidates] == [Fraction(1), Fraction(1)]
    assert report.chosen == "ab"


def test_best_candidate_prefers_earlier_attempt():
    doc = allow_resources("ab", "ba")
    provider = MockProvider(script=["ab|ba", "ba|ab"])
    report = generate_summarization(doc, SimplifierConfig(samples=10, bound=4, attempts=2), provider)
    assert report.chosen == "ab|ba"


def test_threshold_is_exact_decimal():
    doc = allow_resources("a", "b", "c", "d")
    at = generate_summarization(
        doc, SimplifierConfig(samples=20, bound=1, attempts=1, threshold=0.8),
        MockProvider(script=["[a-e]"]),
    )
    # 4 of 5 strings shared: exactly the 0.8 threshold, so the candidate wins
    assert at.chosen == "[a-e]" and at.similarity == Fraction(4, 5)
    above = generate_summarization(
        doc, SimplifierConfig(samples=20, bound=1, attempts=1, threshold=0.81),
        MockProvider(script=["[a-e]"]),
    )
    assert above.fallback


def test_extracted_hint_included_when_asked(music_doc):
    provider = MockProvider(script=["x"])
    cfg = SimplifierConfig(samples=5, bound=4, attempts=1, include_extracted_in_prompt=True)
    generate_summarization(music_doc, cfg, provider)
    assert "An exact but verbose regular expression" in provider.calls[0]
    plain = MockProvider(script=["x"])
    generate_summarization(music_doc, SMALL, plain)
    assert "An exact but verbose regular expression" not in plain.calls[0]


def test_report_to_dict_volatile_switch(music_doc):
    report = generate_summarization(music_doc, SMALL, MockProvider(script=[MUSIC_REGEX]))
    full = report.to_dict()
    assert "timings" in full and full["config"]["provider"] == "mock"
    stable = report.to_dict(include_volatile=False)
    assert "timings" not in stable
    assert stable["similarity"] == "1.0"
    assert stable["model_counts"]["intersection"] == stable["model_counts"]["union"]


def test_report_deterministic_without_volatile(music_doc):
    runs = [
        generate_summarization(music_doc, SMALL, MockProvider(script=[MUSIC_REGEX])).to_dict(False)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_echo_of_exact_regex_always_verifies():
    for path in corpus_paths():
        doc = parse_policy(path.read_text())
        allowed = compile_policy(doc)
        if not allowed.cubes:
            report = generate_summarization(doc, SMALL, MockProvider())
            assert report.chosen == "∅"
            continue
        exact = print_regex(project(allowed, "resource").extract_regex())
        report = generate_summarization(doc, SMALL, MockProvider(script=[exact]))
        assert report.chosen_source == "candidate", path.name
        assert report.similarity == Fraction(1), path.name


def test_summarize_difference_sides(music_doc, deny_all_doc):
    first, second = summarize_difference(music_doc, deny_all_doc, SMALL, MockProvider(script=["x"]))
    assert not first.empty_language
    assert first.extracted_regex != "∅"
    assert second.empty_language and second.chosen == "∅"
    # Both sides report the shared compile stage, and each total counts it.
    assert set(second.timings) == {"compile", "total"}
    assert first.timings["compile"] == second.timings["compile"]
    for report in (first, second):
        assert report.timings["total"] >= sum(v for k, v in report.timings.items() if k != "total")


def test_summarize_difference_equal_policies(music_doc):
    first, second = summarize_difference(music_doc, music_doc, SMALL, MockProvider())
    assert first.empty_language and second.empty_language


def test_summarize_difference_against_mutant():
    original = allow_resources("logs/*")
    mutant = allow_resources("logs/*", "secrets/*")
    first, second = summarize_difference(original, mutant, SMALL, MockProvider(script=["x"]))
    assert first.empty_language
    assert not second.empty_language
    got = from_regex(parse_regex(second.extracted_regex))
    assert got == from_regex(parse_regex("secrets/.*"))


def test_difference_of_pair_recovers_the_allowed_language(music_doc, deny_all_doc):
    _, second = summarize_difference(deny_all_doc, music_doc, SMALL, MockProvider(script=["x"]))
    got = from_regex(parse_regex(second.extracted_regex))
    assert got == from_regex(parse_regex(MUSIC_REGEX))


def test_projection_dimension_respected():
    doc = parse_policy(
        '{"Statement": [{"Effect": "Allow", "Principal": "alice", "Action": "*", "Resource": "*"}]}'
    )
    cfg = SimplifierConfig(samples=5, bound=6, attempts=1, projection="principal")
    report = generate_summarization(doc, cfg, MockProvider(script=["alice"]))
    assert report.projection == "principal"
    assert report.chosen == "alice" and report.similarity == Fraction(1)


def test_summarize_set_directly(music_doc):
    allowed = compile_policy(music_doc)
    report = summarize_set(allowed, SMALL, MockProvider(script=[MUSIC_REGEX]))
    assert report.chosen == MUSIC_REGEX
    assert "compile" not in report.timings
