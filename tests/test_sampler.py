from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policylens import parse_policy
from policylens.automata import from_pattern, from_regex
from policylens.errors import EmptyLanguage
from policylens.regex import EMPTY, parse_regex, seq, star, literal
from policylens.requestsets import compile_policy, is_empty_set, project
from policylens.sampler import SamplerConfig, sample, sample_n

from conftest import MUSIC_REGEX, corpus_paths
from oracles import reference_sample
from test_regex import ast_strategy

CFG = SamplerConfig()


def test_constant_regex_samples_itself():
    rng = random.Random(0)
    r = parse_regex("hello, world")
    assert all(sample(r, CFG, rng) == "hello, world" for _ in range(20))


def test_empty_language_rejected():
    rng = random.Random(0)
    with pytest.raises(EmptyLanguage):
        sample(EMPTY, CFG, rng)
    with pytest.raises(EmptyLanguage):
        sample(seq(literal("a"), EMPTY), CFG, rng)
    with pytest.raises(EmptyLanguage):
        sample_n(EMPTY, 5, CFG)


def test_epsilon_samples_empty_string():
    assert sample_n(parse_regex("a?"), 50, CFG) == {"", "a"}


def test_unbalanced_union_flattened_before_pick():
    # nested unions flatten into one pick, so "dx" is drawn about 1/4 of
    # the time rather than the 1/2 a recursive two-way pick would give
    r = parse_regex("ax|bx|cx|dx")
    rng = random.Random(5)
    counts = Counter(sample(r, CFG, rng) for _ in range(4000))
    assert set(counts) == {"ax", "bx", "cx", "dx"}
    for c in counts.values():
        assert 800 < c < 1200


def test_deterministic_for_seed():
    r = parse_regex("(a|bc)*d")
    a = [sample(r, CFG, random.Random(42)) for _ in range(10)]
    b = [sample(r, CFG, random.Random(42)) for _ in range(10)]
    assert a == b
    assert sample_n(r, 200, SamplerConfig(seed=7)) == sample_n(r, 200, SamplerConfig(seed=7))


def test_different_seeds_diverge():
    r = parse_regex("[a-z]{10}")
    assert sample_n(r, 5, SamplerConfig(seed=1)) != sample_n(r, 5, SamplerConfig(seed=2))


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(threshold=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(threshold=1.5)
    with pytest.raises(ValueError):
        SamplerConfig(growth=1.0)
    with pytest.raises(ValueError):
        SamplerConfig(max_length=0)
    with pytest.raises(ValueError):
        sample_n(parse_regex("a"), 0, CFG)


def test_char_class_pick_roughly_uniform():
    # "a|b|c|d" folds into one character class; the member pick is uniform
    r = parse_regex("a|b|c|d")
    rng = random.Random(3)
    counts = Counter(sample(r, CFG, rng) for _ in range(4000))
    assert set(counts) == {"a", "b", "c", "d"}
    for c in counts.values():
        assert 800 < c < 1200


def test_star_respects_length_budget():
    cfg = SamplerConfig(threshold=0.9, max_length=20)
    body = "abcde"
    r = star(literal(body))
    rng = random.Random(11)
    for _ in range(200):
        s = sample(r, cfg, rng)
        # once the budget is reached no further expansion starts, so the
        # overshoot is bounded by one body length
        assert len(s) < cfg.max_length + len(body)


def test_star_lengths_vary():
    r = parse_regex("a*")
    lengths = {len(s) for s in sample_n(r, 500, SamplerConfig(seed=0, threshold=0.1))}
    assert 0 in lengths and len(lengths) > 3


@settings(max_examples=150, deadline=None)
@given(ast_strategy())
def test_samples_are_members(r):
    if r.lang_empty:
        with pytest.raises(EmptyLanguage):
            sample(r, CFG, random.Random(0))
        return
    dfa = from_regex(r)
    rng = random.Random(0)
    for _ in range(5):
        assert dfa.accepts(sample(r, CFG, rng))


def test_wide_regex_membership():
    pats = [r"(mp3s/A1/.*\.mp3)|(lyrics/A1/.*\.txt)", "a(bc)*d?[x-z]{2,4}", "(0|1)*01"]
    for text in pats:
        r = parse_regex(text)
        dfa = from_regex(r)
        samples = sample_n(r, 300, SamplerConfig(seed=13))
        assert samples
        for s in samples:
            assert dfa.accepts(s), (text, s)


# --- same draws as the reference walker ------------------------------------


@settings(max_examples=150, deadline=None)
@given(ast_strategy(), st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 100]))
def test_sample_draws_as_reference_walker(r, seed, max_length):
    cfg = SamplerConfig(seed=seed, max_length=max_length)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    if r.lang_empty:
        with pytest.raises(EmptyLanguage):
            sample(r, cfg, rng)
        with pytest.raises(EmptyLanguage):
            reference_sample(r, cfg, ref_rng)
        return
    draws = [sample(r, cfg, rng) for _ in range(20)]
    assert draws == [reference_sample(r, cfg, ref_rng) for _ in range(20)]
    # the same random numbers were consumed, not just the same strings made
    assert rng.getstate() == ref_rng.getstate()


def _resource_regexes():
    out = []
    for path in corpus_paths():
        request_set = compile_policy(parse_policy(path.read_text()))
        if not is_empty_set(request_set):
            out.append(pytest.param(project(request_set, "resource").extract_regex(), id=path.name))
    out.append(pytest.param(from_pattern("*a???").extract_regex(), id="*a???"))
    return out


@pytest.mark.parametrize("r", _resource_regexes())
def test_sample_n_draws_as_reference_walker(r):
    cfg = SamplerConfig()
    rng = random.Random(cfg.seed)
    assert sample_n(r, 1000, cfg) == {reference_sample(r, cfg, rng) for _ in range(1000)}


@pytest.mark.parametrize("text", [MUSIC_REGEX, "(a|bc)*d", "[a-z]{10}", "x(y|z*)?"])
@pytest.mark.parametrize("n", [1, 50])
def test_sample_n_is_the_set_of_n_sample_draws(text, n):
    r = parse_regex(text)
    cfg = SamplerConfig(seed=9)
    rng = random.Random(cfg.seed)
    assert sample_n(r, n, cfg) == {sample(r, cfg, rng) for _ in range(n)}
