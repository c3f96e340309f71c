from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policylens import parse_policy, sampler
from policylens.alphabet import mask_of
from policylens.automata import from_pattern, from_regex, operation_cache
from policylens.errors import EmptyLanguage
from policylens.regex import ANY_CHAR, EMPTY, EPSILON, alt, char_class, literal, parse_regex, seq, star
from policylens.requestsets import (
    compile_policy,
    is_empty_set,
    project,
    sample_from_set,
    set_difference,
    universe_set,
)
from policylens.sampler import sample, sample_n

from conftest import MUSIC_REGEX, corpus_paths, random_policy_text
from oracles import reference_sample, reference_sample_from_set
from test_regex import _nested_star_unions, _nested_stars, _nested_unions, ast_strategy


def test_constant_regex_samples_itself():
    rng = random.Random(0)
    r = parse_regex("hello, world")
    assert all(sample(r, rng) == "hello, world" for _ in range(20))


def test_empty_language_rejected():
    rng = random.Random(0)
    with pytest.raises(EmptyLanguage):
        sample(EMPTY, rng)
    with pytest.raises(EmptyLanguage):
        sample(seq(literal("a"), EMPTY), rng)
    with pytest.raises(EmptyLanguage):
        sample_n(EMPTY, 5)


def test_epsilon_samples_empty_string():
    assert sample_n(parse_regex("a?"), 50) == {"", "a"}


def test_unbalanced_union_flattened_before_pick():
    # nested unions flatten into one pick, so "dx" is drawn about 1/4 of
    # the time rather than the 1/2 a recursive two-way pick would give
    r = parse_regex("ax|bx|cx|dx")
    rng = random.Random(5)
    counts = Counter(sample(r, rng) for _ in range(4000))
    assert set(counts) == {"ax", "bx", "cx", "dx"}
    for c in counts.values():
        assert 800 < c < 1200


def test_deterministic_for_seed():
    r = parse_regex("(a|bc)*d")
    a = [sample(r, random.Random(42)) for _ in range(10)]
    b = [sample(r, random.Random(42)) for _ in range(10)]
    assert a == b
    assert sample_n(r, 200, seed=7) == sample_n(r, 200, seed=7)


def test_different_seeds_diverge():
    r = parse_regex("[a-z]{10}")
    assert sample_n(r, 5, seed=1) != sample_n(r, 5, seed=2)


def test_config_validation():
    with pytest.raises(ValueError):
        sample_n(parse_regex("a"), 0)


def test_char_class_pick_roughly_uniform():
    # "a|b|c|d" folds into one character class; the member pick is uniform
    r = parse_regex("a|b|c|d")
    rng = random.Random(3)
    counts = Counter(sample(r, rng) for _ in range(4000))
    assert set(counts) == {"a", "b", "c", "d"}
    for c in counts.values():
        assert 800 < c < 1200


def test_star_respects_length_budget(monkeypatch):
    monkeypatch.setattr(sampler, "STAR_THRESHOLD", 0.9)
    monkeypatch.setattr(sampler, "MAX_SAMPLE_LENGTH", 20)
    body = "abcde"
    r = star(literal(body))
    rng = random.Random(11)
    for _ in range(200):
        s = sample(r, rng)
        # once the budget is reached no further expansion starts, so the
        # overshoot is bounded by one body length
        assert len(s) < 20 + len(body)


def test_star_lengths_vary():
    r = parse_regex("a*")
    lengths = {len(s) for s in sample_n(r, 500)}
    assert 0 in lengths and len(lengths) > 3


@settings(max_examples=150, deadline=None)
@given(ast_strategy(EMPTY))
def test_samples_are_members(r):
    if r is EMPTY:
        with pytest.raises(EmptyLanguage):
            sample(r, random.Random(0))
        return
    dfa = from_regex(r)
    rng = random.Random(0)
    for _ in range(5):
        assert dfa.accepts(sample(r, rng))


def test_wide_regex_membership():
    pats = [r"(mp3s/A1/.*\.mp3)|(lyrics/A1/.*\.txt)", "a(bc)*d?[x-z]{2,4}", "(0|1)*01"]
    for text in pats:
        r = parse_regex(text)
        dfa = from_regex(r)
        samples = sample_n(r, 300, seed=13)
        assert samples
        for s in samples:
            assert dfa.accepts(s), (text, s)


# --- same draws as the reference walker ------------------------------------


@settings(max_examples=150, deadline=None)
@given(ast_strategy(EMPTY), st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 100]))
def test_sample_draws_as_reference_walker(r, seed, max_length):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    # the monkeypatch fixture would span every example hypothesis runs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "MAX_SAMPLE_LENGTH", max_length)
        if r is EMPTY:
            with pytest.raises(EmptyLanguage):
                sample(r, rng)
            with pytest.raises(EmptyLanguage):
                reference_sample(r, ref_rng)
            return
        draws = [sample(r, rng) for _ in range(20)]
        assert draws == [reference_sample(r, ref_rng) for _ in range(20)]
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
    rng = random.Random(0)
    assert sample_n(r, 1000) == {reference_sample(r, rng) for _ in range(1000)}


@pytest.mark.parametrize("text", [MUSIC_REGEX, "(a|bc)*d", "[a-z]{10}", "x(y|z*)?"])
@pytest.mark.parametrize("n", [1, 50])
def test_sample_n_is_the_set_of_n_sample_draws(text, n):
    r = parse_regex(text)
    rng = random.Random(9)
    assert sample_n(r, n, seed=9) == {sample(r, rng) for _ in range(n)}


def _assert_draws_as_reference(r, seed, draws=20):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert [sample(r, rng) for _ in range(draws)] == [
        reference_sample(r, ref_rng) for _ in range(draws)
    ]
    assert rng.getstate() == ref_rng.getstate()


# --- fused instructions and deep trees ---------------------------------------


@pytest.mark.parametrize(
    "r",
    [literal("a" * 5000), _nested_unions(2000), _nested_stars(2000), _nested_star_unions(2000)],
    ids=["literal-5000", "unions-2000", "stars-2000", "star-unions-2000"],
)
@pytest.mark.parametrize("max_length", [3, 100])
def test_deep_trees_draw_as_reference_walker(r, max_length, monkeypatch):
    # deeper than the default recursion limit: compiling needs no recursion
    monkeypatch.setattr(sampler, "MAX_SAMPLE_LENGTH", max_length)
    _assert_draws_as_reference(r, seed=4)
    rng = random.Random(4)
    assert sample_n(r, 50, seed=4) == {reference_sample(r, rng) for _ in range(50)}


def test_deep_literal_is_drawn_whole():
    assert sample_n(literal("a" * 5000), 3) == {"a" * 5000}


FUSED_SHAPES = {
    "literal-run": literal("abcde"),
    "a*": star(char_class(mask_of("a"))),
    ".*": star(ANY_CHAR),
    "literal-union-child": alt(literal("ab"), alt(literal("cde"), char_class(mask_of("xy")))),
    "runs-around-star": seq(seq(literal("ab"), star(ANY_CHAR)), literal(".mp3")),
    "star-of-literal": star(literal("ab")),
    "class-run": seq(literal("q"), seq(char_class(mask_of("xyz")), literal("rs"))),
    "optional-star": seq(literal("x"), alt(literal("y"), alt(star(char_class(mask_of("z"))), EPSILON))),
    "star-of-union": star(alt(literal("ab"), star(ANY_CHAR))),
}


@pytest.mark.parametrize("shape", sorted(FUSED_SHAPES))
@pytest.mark.parametrize("max_length", [1, 3, 100])
@pytest.mark.parametrize("threshold", [0.01, 0.1, 1.0])
def test_fused_shapes_draw_as_reference_walker(shape, max_length, threshold, monkeypatch):
    monkeypatch.setattr(sampler, "STAR_THRESHOLD", threshold)
    monkeypatch.setattr(sampler, "MAX_SAMPLE_LENGTH", max_length)
    _assert_draws_as_reference(FUSED_SHAPES[shape], seed=17, draws=50)


# --- request sets ---------------------------------------------------------------


def _request_sets():
    docs = [pytest.param(path.read_text(), id=path.name) for path in corpus_paths()]
    docs += [pytest.param(random_policy_text(random.Random(seed)), id=f"random-{seed}") for seed in range(30)]
    return docs


@pytest.mark.parametrize("text", _request_sets())
def test_sample_from_set_draws_as_reference(text):
    allowed = compile_policy(parse_policy(text))
    denied = set_difference(universe_set(allowed.schema), allowed)
    for x in (allowed, denied):
        if is_empty_set(x):
            continue
        for seed in (0, 5):
            assert sample_from_set(x, 3, seed) == reference_sample_from_set(x, 3, seed)


def _compiled(cache) -> list:
    """The regexes whose draw programs the scope's table holds."""
    return [key[1] for key in cache.table if key[0] is sampler._compile]


def test_sample_in_one_scope_compiles_once():
    r = from_pattern("*a?????").extract_regex()
    rng, ref_rng = random.Random(11), random.Random(11)
    with operation_cache() as cache:
        draws = [sample(r, rng) for _ in range(100)]
    # compared by identity: printing this regex for a failure report takes minutes
    assert [c is r for c in _compiled(cache)] == [True]
    assert (cache.hits[sampler._compile], cache.misses[sampler._compile]) == (99, 1)
    assert draws == [reference_sample(r, ref_rng) for _ in range(100)]
    assert rng.getstate() == ref_rng.getstate()
    # outside a scope each call compiles afresh, with the same draws
    rng = random.Random(11)
    assert [sample(r, rng) for _ in range(3)] == draws[:3]


def test_sample_from_set_compiles_each_regex_once(music_doc):
    denied = set_difference(universe_set(compile_policy(music_doc).schema), compile_policy(music_doc))
    assert len(denied.cubes) > 1
    with operation_cache() as cache:
        assert len(sample_from_set(denied, 20, seed=3)) == 20
    compiled = _compiled(cache)
    # 20 requests need at least 20 draws of each of the three dimensions
    assert 0 < len(compiled) < 20
    assert set(compiled) <= {d.extract_regex() for cube in denied.cubes for d in cube}
