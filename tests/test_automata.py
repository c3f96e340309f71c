from __future__ import annotations

import gc
import random
import signal
from collections import Counter
from typing import Callable, Iterable, NamedTuple

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from policylens import automata, cli, parse_policy, sampler, simplifier
from policylens.alphabet import FULL_MASK, mask_of
from policylens.automata import (
    Dfa,
    OperationCache,
    _count_common,
    _subset_rows,
    empty_dfa,
    from_pattern,
    from_regex,
    operation_cache,
    union,
    universe_dfa,
)
from policylens.errors import AlphabetError, EmptyLanguage, StateBlowup
from policylens.providers import MockProvider
from policylens.regex import EMPTY, char_class, literal, parse_regex, print_regex, star
from policylens.requestsets import compare_policies, compile_policy, project, sample_requests
from policylens.simplifier import SimplifierConfig, generate_summarization

from conftest import ALLOW_ALL_POLICY, MUSIC_POLICY, POLICY_DIR, corpus_paths
from oracles import (
    UNIVERSE_TABLE,
    glob_match,
    live_product_rows,
    moore_canonical,
    re_accepts,
    reference_count_models,
    reference_product,
    reference_union,
    strings_up_to,
    table_dfa,
)
from test_regex import SMALL as ABC, ast_strategy


def sub_star(alphabet: str) -> Dfa:
    return from_regex(star(char_class(mask_of(alphabet))))


def test_pattern_examples():
    d = from_pattern("mp3s/A1/*.mp3")
    assert d.accepts("mp3s/A1/.mp3")
    assert d.accepts("mp3s/A1/song one.mp3")
    assert not d.accepts("mp3s/A1/song.txt")
    assert from_pattern("*") == universe_dfa()
    q = from_pattern("?")
    assert q.count_models(100) == 95


def test_pattern_object_duck_typing():
    from policylens.policy import WildcardPattern

    assert from_pattern(WildcardPattern("a*")) == from_pattern("a*")


def test_boolean_algebra_examples():
    a_star = from_pattern("a*")
    star_b = from_pattern("*b")
    inter = a_star.intersect(star_b)
    assert inter.accepts("ab")
    assert not inter.accepts("ba")
    # brute force over {a,b} up to length 3
    for s in strings_up_to("ab", 3):
        assert inter.accepts(s) == (glob_match("a*", s) and glob_match("*b", s))

    assert union(a_star, empty_dfa()) == a_star
    assert a_star.difference(a_star).is_empty()
    assert a_star.difference(universe_dfa()).is_empty()


def _complement_oracle(d: Dfa) -> Dfa:
    """The complement by flipping acceptance and re-canonicalizing."""
    return table_dfa(d.transitions, 0, set(range(d.state_count)) - d.accepting)


def test_complement_is_canonical_on_corpus_components():
    checked = 0
    for path in corpus_paths():
        for cube in compile_policy(parse_policy(path.read_text())).cubes:
            for d in cube:
                assert d.complement() == _complement_oracle(d), path.name
                checked += 1
    assert checked >= 40
    assert universe_dfa().complement() == empty_dfa() == _complement_oracle(universe_dfa())
    assert empty_dfa().complement() == universe_dfa()


def test_complement_involution_and_partition():
    d = from_pattern("logs/*")
    c = d.complement()
    assert c.complement() == d
    for s in ("logs/a", "other", ""):
        assert d.accepts(s) != c.accepts(s)


def test_is_empty_and_equivalence():
    assert empty_dfa().is_empty()
    assert universe_dfa().complement().is_empty()
    assert not from_pattern("abc").is_empty()
    assert from_regex(EMPTY).is_empty()

    assert from_regex(parse_regex("a*a*")) == from_regex(parse_regex("a*"))
    for s in strings_up_to("a", 4):
        assert from_regex(parse_regex("a*a*")).accepts(s) == from_regex(parse_regex("a*")).accepts(s)
    assert from_pattern("a") != from_pattern("b")


def test_canonical_equality_is_language_equality():
    x = from_regex(parse_regex("(a|b)*"))
    y = from_regex(parse_regex("(b|a)*"))
    z = from_regex(parse_regex("(a*b*)*"))
    assert x == y == z
    assert hash(x) == hash(y)


def test_accepts_rejects_out_of_alphabet():
    with pytest.raises(AlphabetError):
        universe_dfa().accepts("a\tb")


def test_accepts_empty_string_is_start_acceptance():
    assert universe_dfa().accepts("")
    assert not from_pattern("a").accepts("")


def test_count_models_examples():
    assert from_pattern("?").count_models(100) == 95
    assert from_pattern("*").count_models(2) == 1 + 95 + 95 * 95
    d = from_pattern("a*b").intersect(sub_star("ab"))
    expect = sum(1 for s in strings_up_to("ab", 6) if glob_match("a*b", s))
    assert d.count_models(6) == expect


def test_count_models_monotone_and_inclusion_exclusion():
    a = from_pattern("a*").intersect(sub_star("ab"))
    b = from_pattern("*b").intersect(sub_star("ab"))
    for bound in range(5):
        assert a.count_models(bound) <= a.count_models(bound + 1)
        lhs = union(a, b).count_models(bound) + a.intersect(b).count_models(bound)
        assert lhs == a.count_models(bound) + b.count_models(bound)


def test_count_models_negative_bound_rejected():
    with pytest.raises(ValueError):
        universe_dfa().count_models(-1)


def test_extract_regex_simple_chain():
    d = from_pattern("ab")
    r = d.extract_regex()
    assert print_regex(r) == "ab"
    assert from_regex(r) == d


def test_extract_regex_empty_language():
    assert empty_dfa().extract_regex() is EMPTY


def test_extract_round_trip_on_mixed_cases():
    cases = [
        from_pattern("mp3s/A1/*.mp3"),
        from_pattern("*abc*"),
        from_regex(parse_regex("(ab|ba)*c?")),
        from_regex(parse_regex("[0-9]{3}-[0-9]{4}")),
        universe_dfa(),
        from_regex(parse_regex("a")).complement(),
    ]
    for d in cases:
        assert from_regex(d.extract_regex()) == d


def test_state_cap_enforced(monkeypatch):
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 2)
    with pytest.raises(StateBlowup, match="subset construction exceeded the state cap of 2"):
        from_regex(parse_regex("(a|b)*abb(a|b)*"))


# -- counting walk ---------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(ast_strategy(), ast_strategy(), st.integers(0, 6))
def test_counting_walk_matches_product_count_and_enumeration(r1, r2, bound):
    got = _count_common(_subset_rows(r1), _subset_rows(r2), bound)
    inter = from_regex(r1).intersect(from_regex(r2))
    assert got == reference_count_models(inter.transitions, inter.accepting, bound)
    # ast_strategy draws over "abc" only, so enumerating it covers both languages
    assert got == sum(1 for s in strings_up_to(ABC, bound) if re_accepts(r1, s) and re_accepts(r2, s))


@settings(max_examples=60, deadline=None)
@given(ast_strategy(), st.sampled_from([0, 1, 6, 100]))
def test_count_models_is_the_walk_against_the_universe(r, bound):
    d = from_regex(r)
    expected = reference_count_models(d.transitions, d.accepting, bound)
    assert d.count_models(bound) == expected
    assert _count_common(_subset_rows(r), UNIVERSE_TABLE, bound) == expected
    assert _count_common(UNIVERSE_TABLE, d.table, bound) == expected


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_counting_walk_stops_at_the_end_of_a_finite_language():
    r = parse_regex("(ab|c){0,3}[xyz]?")  # longest string: 7 characters
    table = _subset_rows(r)
    assert reference_count_models(*from_regex(r).table, 7) == (1 + 2 + 4 + 8) * 4
    with_c = from_pattern("*c*").intersect(from_regex(r))

    def too_slow(*_):
        raise AssertionError("the walk went on past the last non-empty level")

    # Without the stop at the first empty level, this bound would take hours.
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(20)
    try:
        assert _count_common(table, UNIVERSE_TABLE, 10**12) == 60
        assert _count_common(table, from_pattern("*").table, 10**12) == 60
        assert _count_common(from_pattern("*c*").table, table, 10**12) == reference_count_models(*with_c.table, 7)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_counting_walk_enforces_the_state_cap(monkeypatch):
    a = _subset_rows(parse_regex("(a|b)*abb(a|b)*"))
    b = from_pattern("*a??").table
    inter = from_regex(parse_regex("(a|b)*abb(a|b)*")).intersect(from_pattern("*a??"))
    full = _count_common(a, b, 8)
    assert full == reference_count_models(*inter.table, 8)
    with pytest.raises(ValueError):
        _count_common(a, b, -1)
    # the walk reads the module's cap when it runs
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 3)
    with pytest.raises(StateBlowup, match="counting walk exceeded the state cap of 3"):
        _count_common(a, b, 8)
    # the cap bounds distinct pairs, not levels: a walk inside it never raises
    reached = next(cap for cap in range(1, 100) if _try_count(monkeypatch, a, b, 20, cap))
    assert reached > 3
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", reached)
    assert _count_common(a, b, 10**4) > full


def _try_count(monkeypatch, a, b, bound, cap) -> bool:
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", cap)
    try:
        _count_common(a, b, bound)
    except StateBlowup:
        return False
    return True


def test_count_models_is_memoized_per_scope(monkeypatch):
    d = from_pattern("*a?")
    walks = []
    real = automata._count_common
    monkeypatch.setattr(automata, "_count_common", lambda *args: walks.append(args) or real(*args))
    with operation_cache() as cache:
        assert d.count_models(5) == d.count_models(5) == reference_count_models(*d.table, 5)
        assert d.count_models(4) == reference_count_models(*d.table, 4)
        assert cache.hits[Dfa.count_models] == 1
    assert walks == [(d, universe_dfa(), 5), (d, universe_dfa(), 4)]
    d.count_models(5)  # outside a scope every count is computed afresh
    assert len(walks) == 3


# -- operation cache -----------------------------------------------------------


class Memo(NamedTuple):
    """A memoized function, two argument tuples it accepts, and one it
    raises on (under a state cap of 2)."""

    fn: Callable
    args: tuple
    other: tuple
    raises: type[Exception]
    bad: tuple


_A, _B, _R = from_pattern("*a?"), from_pattern("b*"), parse_regex("a(b|c)*")
MEDIA_POLICY = POLICY_DIR / "media_split_read.json"

MEMOIZED = {
    "product": Memo(Dfa.intersect, (_A, _B), (_B, _A), StateBlowup, (_A, _B)),
    "complement": Memo(Dfa.complement, (_A,), (_B,), AttributeError, (5,)),
    # a malformed table makes the liveness walk raise
    "live_edges": Memo(Dfa.live_edges.fget, (_A,), (_B,), IndexError, (Dfa((), frozenset({0})),)),
    # the identity raises only on an argument that cannot be a key
    "intern": Memo(automata._intern, (_A,), (_B,), TypeError, ([],)),
    "count_models": Memo(Dfa.count_models, (_A, 5), (_A, 4), StateBlowup, (_A, 5)),
    # state elimination has no cap; a malformed table makes it raise
    "extract_regex": Memo(Dfa.extract_regex, (_A,), (_B,), IndexError, (Dfa((), frozenset({0})),)),
    "compile_pattern": Memo(automata._compile_pattern, ("*a?",), ("b*",), StateBlowup, ("*a?",)),
    "draw_program": Memo(sampler._compile, (_R,), (parse_regex("b+"),), EmptyLanguage, (EMPTY,)),
    "parse_candidate": Memo(simplifier._parse_candidate, ("a|b",), ("(a",), AttributeError, (5,)),
    "score": Memo(simplifier._score, (_A, _R, 5), (_A, _R, 4), ValueError, (_A, EMPTY, -1)),
}


# Every scope's table starts with ∅ and U interned.
SEEDED = OperationCache().table


def _keys_of(cache, fn) -> list:
    """The keys ``fn``'s calls stored in the scope's table, in order."""
    return [key for key in cache.table if key[0] is fn and key not in SEEDED]


@pytest.mark.parametrize("name", MEMOIZED)
def test_operation_cache_counts_hits_and_returns_the_stored_value(name):
    fn, args, other, _, _ = MEMOIZED[name]
    with operation_cache() as cache:
        first = fn(*args)
        assert _keys_of(cache, fn) == [(fn, *args)]
        hits, misses = cache.hits[fn], cache.misses[fn]
        assert fn(*args) is first
        assert (cache.hits[fn], cache.misses[fn]) == (hits + 1, misses)
        fn(*other)  # other arguments: a miss
        assert cache.misses[fn] == misses + 1
        assert _keys_of(cache, fn) == [(fn, *args), (fn, *other)]
    assert fn(*args) == first


@pytest.mark.parametrize("name", MEMOIZED)
def test_nested_operation_scopes_share_one_cache(name):
    fn, args, _, _, _ = MEMOIZED[name]
    with operation_cache() as outer:
        with operation_cache() as inner:
            assert inner is outer
            first = fn(*args)
        hits = outer.hits[fn]
        assert fn(*args) is first
        assert outer.hits[fn] == hits + 1
        assert _keys_of(outer, fn) == [(fn, *args)]


@pytest.mark.parametrize("name", MEMOIZED)
def test_no_cache_is_active_after_the_outermost_scope_exits(name):
    fn, args, _, _, _ = MEMOIZED[name]
    with operation_cache() as done:
        first = fn(*args)
    with pytest.raises(RuntimeError):
        with operation_cache() as failed:
            with operation_cache():
                fn(*args)
                raise RuntimeError("boom")
    counts = [(Counter(c.hits), Counter(c.misses), len(c.table)) for c in (done, failed)]
    assert fn(*args) == first  # outside a scope: computed afresh, no table touched
    assert [(c.hits, c.misses, len(c.table)) for c in (done, failed)] == counts
    with operation_cache() as fresh:
        assert fresh is not done and fresh is not failed
        assert (fresh.hits, fresh.misses, fresh.table) == (Counter(), Counter(), SEEDED)


@pytest.mark.parametrize("name", MEMOIZED)
def test_a_call_that_raises_stores_nothing(monkeypatch, name):
    fn, _, _, raises, bad = MEMOIZED[name]
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 2)
    with operation_cache() as cache:
        for _ in range(2):  # nothing was stored, so the call raises again
            with pytest.raises(raises):
                fn(*bad)
        assert (cache.hits[fn], _keys_of(cache, fn)) == (0, [])


def test_every_cache_key_starts_with_a_memoized_function(music_doc):
    allow_all = parse_policy(ALLOW_ALL_POLICY.read_text())
    # music's clauses each compile as one alternation, so comparing it with
    # allow-all runs no product; against media_split_read the set differences do
    media = parse_policy(MEDIA_POLICY.read_text())
    with operation_cache() as cache:
        compare_policies(music_doc, allow_all)
        compare_policies(music_doc, media)
        sample_requests(music_doc, 3)
        generate_summarization(music_doc, SimplifierConfig(samples=50, bound=6), MockProvider())
    assert {key[0] for key in cache.table} == {memo.fn for memo in MEMOIZED.values()}


def test_a_scope_interns_one_object_per_language():
    with operation_cache():
        a = from_regex(parse_regex("(a|b)*"))
        assert from_regex(parse_regex("(a*b*)*")) is a
        assert a.complement().complement() is a
        assert from_pattern("a*").intersect(from_pattern("*b")) is from_pattern("a*b")
        assert union(a, a.complement()) is universe_dfa()
        assert a.complement().complement().complement() is a.complement()
        assert from_pattern("*") is universe_dfa() and a.difference(a) is empty_dfa()


def test_a_union_with_a_subset_is_the_superset_itself():
    # ¬logs/* ⊆ ¬logs/a, so the product of the complements copies ¬logs/*,
    # whose complement in the scope is logs/* itself
    with operation_cache():
        a, b = from_pattern("logs/*"), from_pattern("logs/a")
        assert union(a, b) is a and union(b, a) is a


def test_nothing_is_interned_outside_a_scope():
    with operation_cache():
        inside = from_regex(parse_regex("(a|b)*"))
    a, b = from_regex(parse_regex("(a|b)*")), from_regex(parse_regex("(a*b*)*"))
    assert a == b == inside and a is not b and a is not inside
    assert a.complement() == b.complement() and a.complement() is not b.complement()
    assert a.complement().complement() == a


def test_a_construction_that_raises_interns_nothing(monkeypatch):
    a, b = from_pattern("*a?"), from_pattern("*b?")
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 2)
    with operation_cache() as cache:
        with pytest.raises(StateBlowup, match="product construction exceeded"):
            a.intersect(b)
        with pytest.raises(StateBlowup, match="subset construction exceeded"):
            from_pattern("*a??")
        assert (cache.misses[automata._intern], _keys_of(cache, automata._intern)) == (0, [])


def _command_work(doc, other) -> None:
    """A command's work, in a frame of its own: its locals are gone when it returns."""
    with operation_cache():
        compare_policies(doc, other)
        sample_requests(doc, 3)
        generate_summarization(doc, SimplifierConfig(samples=50, bound=6), MockProvider())
    result = CliRunner().invoke(cli.main, ["diff", "-n", "200", "--no-timestamp", str(MUSIC_POLICY), str(MEDIA_POLICY)])
    assert result.exit_code == 0, result.output


def test_a_command_leaves_no_reference_cycle(music_doc):
    # With the cyclic collector off, an automaton in a reference cycle outlives
    # the command; reference counting alone must free everything it built.
    media = parse_policy(MEDIA_POLICY.read_text())
    before = [o for o in gc.get_objects() if isinstance(o, Dfa)]  # held, so no id is reused
    known = {id(o) for o in before}
    gc.disable()
    try:
        _command_work(music_doc, media)
        left = [o for o in gc.get_objects() if isinstance(o, Dfa) and id(o) not in known]
    finally:
        gc.enable()
    assert left == []


def test_state_blowup_repeats_and_is_never_cached(monkeypatch):
    a, b = from_pattern("*a?"), from_pattern("*b?")
    expected = union(a, b)
    assert min(a.state_count, b.state_count) > 2
    with operation_cache() as cache:
        monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 2)
        for _ in range(2):  # a blowup is never stored, so it repeats
            with pytest.raises(StateBlowup, match="product construction exceeded"):
                union(a, b)
            with pytest.raises(StateBlowup, match="subset construction exceeded"):
                from_pattern("*a??")
        for fn in (automata._compile_pattern, Dfa.intersect):
            assert (cache.hits[fn], cache.misses[fn], _keys_of(cache, fn)) == (0, 2, [])
        monkeypatch.undo()  # back to the default cap, in the same scope
        assert union(a, b) == expected
        from_pattern("*a??")
        assert len(_keys_of(cache, automata._compile_pattern)) == 1
        # a union's step is stored as the intersection of the complements it
        # runs, and the union has no memo entry of its own
        assert _keys_of(cache, Dfa.intersect) == [(Dfa.intersect, a.complement(), b.complement())]
        assert not any(key[0] is union for key in cache.table)


def test_canonicalization_collapses_equivalent_states():
    a_mask = mask_of("a")
    rest = FULL_MASK & ~a_mask
    # two states that are language-equivalent collapse to one
    d = table_dfa([[(a_mask, 1), (rest, 0)], [(a_mask, 0), (rest, 1)]], start=0, accepting=[0, 1])
    assert d == universe_dfa()


def test_canonicalization_caps_reachable_states_only(monkeypatch):
    # a chain 0 -a-> 1 -a-> 2 -a-> 3 -a-> 4, every other edge into sink 4
    a_mask = mask_of("a")
    rest = FULL_MASK & ~a_mask
    rows = [[(a_mask, min(s + 1, 4)), (rest, 4)] for s in range(5)]
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 3)
    with pytest.raises(StateBlowup, match="canonicalization exceeded the state cap of 3"):
        table_dfa(rows, start=0, accepting=[3])
    # from state 3 only states 3 and 4 are reachable: within the cap
    assert table_dfa(rows, start=3, accepting=[3]) == from_regex(parse_regex("()"))


def test_minimization_canonicity_random_tables():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(1, 6)
        masks = _random_partition(rng, parts=rng.randint(1, 3))
        rows = [
            [(m, rng.randrange(n)) for m in masks]
            for _ in range(n)
        ]
        accepting = [s for s in range(n) if rng.random() < 0.4]
        d1 = table_dfa(rows, 0, accepting)
        d2 = table_dfa(rows, 0, accepting)
        assert d1 == d2
        # complement twice is identity in canonical form
        assert d1.complement().complement() == d1


def test_minimizer_matches_moore_oracle():
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randint(1, 12)
        copies = rng.randint(1, 4)  # copies of one state are equivalent
        masks = _random_partition(rng, parts=rng.randint(1, 4))
        base = [[(m, rng.randrange(k)) for m in masks] for _ in range(k)]
        rows = [
            [(m, t + k * rng.randrange(copies)) for m, t in base[s % k]]
            for s in range(k * copies)
        ]
        p = rng.random()
        accepting_base = {b for b in range(k) if rng.random() < p}
        accepting = {s for s in range(k * copies) if s % k in accepting_base}
        start = rng.randrange(k * copies)
        d = table_dfa(rows, start, accepting)
        assert (d.transitions, d.accepting) == moore_canonical(rows, start, accepting)


def _random_partition(rng: random.Random, parts: int) -> list[int]:
    assignment = [rng.randrange(parts) for _ in range(95)]
    masks = [0] * parts
    for bit, part in enumerate(assignment):
        masks[part] |= 1 << bit
    return [m for m in masks if m]


# -- property tests ----------------------------------------------------------

SMALL = "ab"


def small_regex() -> st.SearchStrategy:
    from policylens.regex import EPSILON, alt, seq

    leaves = st.sampled_from(
        [literal("a"), literal("b"), char_class(mask_of("ab")), EPSILON]
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: alt(*t)),
            st.tuples(inner, inner).map(lambda t: seq(*t)),
            inner.map(star),
        ),
        max_leaves=10,
    )


@settings(max_examples=60, deadline=None)
@given(small_regex())
def test_from_regex_membership_matches_oracle(r):
    d = from_regex(r)
    for s in strings_up_to(SMALL, 3):
        assert d.accepts(s) == re_accepts(r, s)


@settings(max_examples=60, deadline=None)
@given(small_regex())
def test_complement_matches_the_canonicalizing_oracle(r):
    d = from_regex(r)
    assert d.complement() == _complement_oracle(d)


@settings(max_examples=40, deadline=None)
@given(small_regex())
def test_extraction_round_trip_property(r):
    d = from_regex(r)
    assert from_regex(d.extract_regex()) == d


@settings(max_examples=40, deadline=None)
@given(small_regex(), small_regex())
def test_product_ops_match_set_semantics(r1, r2):
    d1, d2 = from_regex(r1), from_regex(r2)
    either, inter, diff = union(d1, d2), d1.intersect(d2), d1.difference(d2)
    for s in strings_up_to(SMALL, 3):
        a, b = d1.accepts(s), d2.accepts(s)
        assert either.accepts(s) == (a or b)
        assert inter.accepts(s) == (a and b)
        assert diff.accepts(s) == (a and not b)


# -- former identity-law cases -----------------------------------------------------

_OPS = ("union", "intersect", "difference")
_PRODUCTS = ("intersect", "difference")  # the operations that are one product


def _apply(op: str, a: Dfa, b: Dfa) -> Dfa:
    return union(a, b) if op == "union" else getattr(a, op)(b)


def _law_cases(d: Dfa, ops: tuple[str, ...] = _OPS) -> list[tuple[str, Dfa, Dfa, Dfa]]:
    """Every operation of ``ops`` on ``d`` against U, ∅, itself and an equal
    but distinct copy, ``U∖d`` (the complement) included, with the DFA each
    must equal."""
    twin = Dfa(d.transitions, d.accepting)
    u, e = universe_dfa(), empty_dfa()
    cases = [
        *[(op, d, other, want) for other in (d, twin) for op, want in zip(_OPS, (d, d, e))],
        ("union", d, u, u), ("intersect", d, u, d), ("difference", d, u, e),
        ("union", u, d, u), ("intersect", u, d, d), ("difference", u, d, d.complement()),
        ("union", d, e, d), ("intersect", d, e, e), ("difference", d, e, d),
        ("union", e, d, d), ("intersect", e, d, e), ("difference", e, d, e),
    ]
    return [case for case in cases if case[0] in ops]


def _outcome(run):
    try:
        return run()
    except StateBlowup:
        return StateBlowup


def _check_law_cases_against_the_product(
    d: Dfa, cap: int = automata.DEFAULT_STATE_CAP, ops: tuple[str, ...] = _OPS
) -> None:
    """Under the state cap ``cap``, each former law case of ``d`` gives what
    the oracle product gives, result or StateBlowup, and a result is the DFA
    the law named."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automata, "DEFAULT_STATE_CAP", cap)
        for op, a, b, want in _law_cases(d, ops):
            got = _outcome(lambda: _apply(op, a, b))
            assert got == _outcome(lambda: reference_product(op, a, b)), (op, a, b)
            assert got in (want, StateBlowup), (op, a, b)


@settings(max_examples=60, deadline=None)
@given(small_regex(), small_regex())
def test_former_law_cases_match_the_product(r1, r2):
    d1, d2 = from_regex(r1), from_regex(r2)
    _check_law_cases_against_the_product(d1)
    _check_law_cases_against_the_product(d2)
    for op in _OPS:
        assert _apply(op, d1, d2) == reference_product(op, d1, d2)


def test_former_law_cases_match_the_product_on_corpus_projections():
    checked = 0
    for path in corpus_paths():
        request_set = compile_policy(parse_policy(path.read_text()))
        for dim in request_set.schema.dimensions:
            _check_law_cases_against_the_product(project(request_set, dim))
            checked += 1
    assert checked >= 30


def test_former_law_cases_raise_where_the_product_raises(monkeypatch):
    d = from_pattern("*a??")
    n = d.state_count
    assert n > 2
    for cap in range(n + 2):
        _check_law_cases_against_the_product(d, cap, _PRODUCTS)
    # One state short, a case raises exactly where the oracle's live pairs
    # need all n states; a product with an ∅ operand, ¬U included, is ∅ at
    # once and raises nowhere.  A union's cap is its fold's (below).
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", n - 1)
    cases = _law_cases(d, _PRODUCTS)
    raised = [_outcome(lambda: getattr(a, op)(b)) is StateBlowup for op, a, b, _ in cases]
    assert raised == [_outcome(lambda: reference_product(op, a, b)) is StateBlowup for op, a, b, _ in cases]
    assert 0 < sum(raised) < len(cases)


def _intersection_of(op: str, a: Dfa, b: Dfa) -> tuple[Dfa, Dfa]:
    """The operands of the intersection ``a`` op ``b`` runs: a ∖ b = a ∩ ¬b."""
    return {"intersect": (a, b), "difference": (a, b.complement())}[op]


def test_set_operations_always_go_through_the_operation_cache():
    d = from_pattern("*a??")
    cases = _law_cases(d, _PRODUCTS)
    keys = {_intersection_of(op, a, b) for op, a, b, _ in cases}
    with operation_cache() as cache:
        for op, a, b, _ in cases:
            getattr(a, op)(b)
        hits, misses = cache.hits[Dfa.intersect], cache.misses[Dfa.intersect]
        assert (hits + misses, misses, len(_keys_of(cache, Dfa.intersect))) == (len(cases), len(keys), len(keys))
        for op, a, b, want in cases:  # a second round is served from the table
            assert getattr(a, op)(b) == want
        assert cache.misses[Dfa.intersect] == len(keys)


def test_every_product_key_is_an_intersection():
    a, b = from_pattern("*a?"), from_pattern("b*")
    calls = [("difference", a, b), ("intersect", a, b), ("difference", b, a)]
    with operation_cache() as cache:
        for op, x, y in calls:
            getattr(x, op)(y)
    assert _keys_of(cache, Dfa.intersect) == [(Dfa.intersect, *_intersection_of(*call)) for call in calls]


# -- the union -------------------------------------------------------------------


@st.composite
def _dfa_lists(draw) -> list[Dfa]:
    """Lists of regex DFAs, with repeats, ∅ and U among them."""
    pool = draw(st.lists(small_regex().map(from_regex), min_size=1, max_size=7))
    return draw(st.lists(st.sampled_from([*pool, empty_dfa(), universe_dfa()]), max_size=10))


def _check_union(dfas: list[Dfa], caps: Iterable[int] = ()) -> int:
    """``union(*dfas)`` equals the fold oracle; under each state cap of
    ``caps`` it raises, as a product construction, exactly where the oracle
    raises, and returns the fold's language where it does not.  ∅ for no
    operand, one distinct operand as it is, and U when U is one, under any
    cap.  Returns how many of ``caps`` raised."""
    want, raised = reference_union(*dfas), 0
    assert union(*dfas) == want
    for cap in caps:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(automata, "DEFAULT_STATE_CAP", cap)
            if _outcome(lambda: reference_union(*dfas)) is StateBlowup:
                with pytest.raises(StateBlowup, match="product construction exceeded"):
                    union(*dfas)
                raised += 1
            elif universe_dfa() in dfas or len(set(dfas)) < 2:
                assert union(*dfas) is (universe_dfa() if universe_dfa() in dfas else dfas[0] if dfas else empty_dfa())
            else:
                assert union(*dfas) == want
    return raised


def _most_live_pairs(dfas: list[Dfa]) -> int:
    """The most live pairs one step of ``union(*dfas)`` explores: the
    oracle's live-pair product of the complements of each pair it joins."""
    steps: list[tuple[Dfa, Dfa]] = []
    reference_union(*dfas, steps=steps)
    return max((len(live_product_rows(a.complement().table, b.complement().table)[0]) for a, b in steps), default=0)


@settings(max_examples=60, deadline=None)
@given(_dfa_lists())
def test_union_matches_the_fold_and_raises_where_the_fold_raises(dfas):
    n = _most_live_pairs(dfas)
    _check_union(dfas, {0, 1, n // 2, n - 1, n})


_WORDS = "secret password token private key admin backup config credential internal finance payroll hr legal ops dev".split()
_UNANCHORED = {
    "*c*": [f"*{c}*" for c in "abcdefghijklmnopq"],
    "*c*z": [f"*{c}*z" for c in "abcdefghijklmnopq"],
    "*word*": [f"*{w}*" for w in _WORDS],
    "bucket/*/word/*.pdf": [f"bucket/*/{w}/*.pdf" for w in _WORDS],
}


def _no_construction(*_):
    raise AssertionError("an automaton was built")


@pytest.mark.parametrize("name", list(_UNANCHORED))
def test_a_union_of_unanchored_patterns_stays_small(name):
    # Each step intersects two complements, whose pairs die once either
    # side has seen its letter or word; U among the operands is the union
    # before any product.
    dfas = [from_pattern(p) for p in _UNANCHORED[name]]
    n = _most_live_pairs(dfas)
    assert n < 1_000
    _check_union(dfas, {n - 1, n})
    for i in (0, 5, len(dfas)):
        with_u = [*dfas[:i], universe_dfa(), *dfas[i:]]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(automata, "_explore", _no_construction)
            assert union(*with_u) is universe_dfa()


def test_union_law_cases_raise_where_the_fold_raises():
    d = from_pattern("*a??")
    twin, u, e = Dfa(d.transitions, d.accepting), universe_dfa(), empty_dfa()
    caps = raised = 0
    for dfas in ([d, d], [d, twin], [d, u], [u, d], [d, e], [e, d], [d, d.complement()], [d, twin, u, e]):
        n = _most_live_pairs(dfas)
        raised += _check_union(dfas, range(n + 2))
        caps += n + 2
    assert 0 < raised < caps
