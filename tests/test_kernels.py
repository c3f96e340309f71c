"""The subset and product kernels and the counting walk against the earlier
kernels kept in ``oracles.py``: Thompson NFA ε-closures, product rows that
refine both rows' masks and look up each part's targets, and a counting walk
that numbers its pairs level by level.

The engine orders each row by lowest class member and the oracles do not,
so their states are numbered differently.  Both sides must
reach the same number of states, and their tables must have the same
canonical DFA (``oracles.moore_canonical``), at the default cap and under
every state cap from 0 to one past that number, or raise the same
StateBlowup message.  The product explores only pairs of live states, so
its oracle is the live-pair product, whose canonical DFA must also be that
of the product over every pair.  Every product's result, whether it is
minimized or found to be a copy of an operand and returned as that operand,
must be the DFA of ``oracles.reference_product`` under every cap, or raise
where it raises.  Outside an operation-cache scope a product must be an
operand exactly where the engine's earlier projection rule
(``oracles.reference_copies``) finds a copy, and then run no minimization.
Both walks must give the same count or
raise the same message under every cap from 0 to one past the number of
pairs within the bound.
"""

from __future__ import annotations

import signal
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from policylens import automata, parse_policy
from policylens.alphabet import FULL_MASK
from policylens.automata import Dfa, _count_common, _explore, _subset_rows, from_pattern, from_regex
from policylens.errors import StateBlowup
from policylens.providers import MockProvider
from policylens.regex import EMPTY, EPSILON, literal, parse_regex, wildcard
from policylens.requestsets import compare_policies, compile_policy, project
from policylens.simplifier import SimplifierConfig, generate_summarization

from conftest import corpus_paths
from oracles import (
    KEEP,
    UNIVERSE_TABLE,
    live_product_rows,
    moore_canonical,
    reference_count_common,
    reference_copies,
    reference_disjunction,
    reference_product,
    refine_product_rows,
    thompson_subset_rows,
)
from test_automata import small_regex
from test_regex import _nested_star_unions, _nested_stars, _nested_unions, ast_strategy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
NESTED_REPEATS = "((((a{64}){64}){64}){64})"


def regexes() -> st.SearchStrategy:
    return st.one_of(ast_strategy(EMPTY, EPSILON), small_regex())


def _result(run):
    """What ``run`` returns, or the message of the StateBlowup it raises."""
    try:
        return run()
    except StateBlowup as e:
        return str(e)


def _outcome(build):
    """The state count and canonical DFA of the table ``build`` returns, or
    the message of the StateBlowup it raises."""
    try:
        rows, accepting = build()
    except StateBlowup as e:
        return str(e)
    return len(rows), moore_canonical(rows, 0, set(accepting))


def _check_kernel(build, reference, stride: int = 1) -> None:
    """Equal outcomes at the default cap, and under every ``stride``-th cap
    from 0 and the caps one below, at and one past the table's size."""
    want = _outcome(reference)
    assert _outcome(build) == want
    n = want[0]
    for cap in sorted({*range(0, n + 2, stride), n - 1, n, n + 1}):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(automata, "DEFAULT_STATE_CAP", cap)
            assert _outcome(build) == _outcome(reference), cap


def _check_subset_kernel(r, stride: int = 1) -> None:
    _check_kernel(lambda: _subset_rows(r), lambda: thompson_subset_rows(r), stride)


def _ordered(rows) -> bool:
    """Whether each row's edges are ordered by lowest class member."""
    return all(lows == sorted(lows) for lows in ([m & -m for m, _ in row] for row in rows))


def _explored(run) -> list[tuple[str, list, list]]:
    """The label, keys and rows of every table :func:`automata._explore`
    returns while ``run`` runs."""
    tables, explore = [], automata._explore

    def record(start, moves, what, depth=None):
        keys, rows = explore(start, moves, what, depth)
        tables.append((what, keys, rows))
        return keys, rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automata, "_explore", record)
        run()
    return tables


def _product_table(a: Dfa, b: Dfa):
    """The unminimized table ``a.intersect(b)`` explores, accepting where
    both sides accept; called outside an operation-cache scope, so it is
    built afresh.  A start pair with a dead side is ∅ at once: the one
    rejecting state."""
    for _, pairs, rows in _explored(lambda: a.intersect(b)):
        return rows, {i for i, (p, q) in enumerate(pairs) if p in a.accepting and q in b.accepting}
    return [[(FULL_MASK, 0)]], set()


def _check_copy_rule(x: Dfa, y: Dfa) -> Dfa:
    """``x.intersect(y)``, called outside an operation-cache scope, where no
    ``_intern`` makes a missed copy the operand's object anyway.  It must be
    ``x`` exactly when ``oracles.reference_copies`` finds the explored table
    copies side 0; otherwise ``y`` exactly when it copies side 1.  A product
    returned as an operand runs no ``_coarsest_partition``."""
    products, partitioned, partition = [], [], automata._coarsest_partition

    def record(trans, accepting):
        partitioned.append(trans)
        return partition(trans, accepting)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automata, "_coarsest_partition", record)
        tables = _explored(lambda: products.append(x.intersect(y)))
    [product] = products
    if not tables:  # a dead start pair is ∅ at once
        assert product is automata.empty_dfa() and not partitioned
        return product
    [(_, pairs, rows)] = tables
    accepting = {i for i, (p, q) in enumerate(pairs) if p in x.accepting and q in y.accepting}
    copied = [side for side, d in enumerate((x, y)) if reference_copies(d, side, pairs, rows, accepting)]
    assert (product is x) == (copied[:1] == [0])
    if product is not x:
        assert (product is y) == (1 in copied)
    assert len(partitioned) == (0 if copied or not accepting else 1)
    return product


def _check_product_kernel(a: Dfa, b: Dfa) -> None:
    def live():
        return live_product_rows(a.table, b.table)

    _check_kernel(lambda: _product_table(a, b), live)
    n, canonical = _outcome(live)
    assert canonical == _outcome(lambda: refine_product_rows(a, b, KEEP["intersect"]))[1]
    for cap in sorted({automata.DEFAULT_STATE_CAP, *range(0, n + 2)}):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(automata, "DEFAULT_STATE_CAP", cap)
            assert _result(lambda: a.intersect(b)) == _result(lambda: reference_product("intersect", a, b)), cap


def _patterns(doc) -> set[str]:
    texts = set()
    for s in doc.statements:
        for clause in (s.principal, s.action, s.resource):
            texts.update(p.text for p in clause.patterns)
        for cond in s.conditions:
            texts.update(p.text for p in cond.values)
    return texts


@settings(deadline=None)
@given(regexes())
def test_subset_kernel_matches_the_thompson_oracle(r):
    _check_subset_kernel(r)


@settings(deadline=None)
@given(regexes(), regexes())
def test_product_kernel_matches_the_refining_oracle(r1, r2):
    a, b = from_regex(r1), from_regex(r2)
    for x, y in ((a, b), (a.complement(), b.complement()), (a, b.complement())):  # ∩, then ∪ and ∖ as ∩
        _check_product_kernel(x, y)


@settings(deadline=None)
@given(regexes(), regexes())
# ε ∩ a*: one live pair and the sink, as many as a*'s states, each accepting
# where a*'s state does; only the live pair's empty edge mask tells it from a*
@example(EPSILON, parse_regex("a*"))
def test_a_product_with_a_superset_is_the_operand_itself(r1, r2):
    with automata.operation_cache():
        x = from_regex(r1)
        y = automata.union(x, from_regex(r2))
        assert x.intersect(y) is x
        assert y.intersect(x) is x


@pytest.mark.parametrize("text", ["a*b", "*a?", "logs/*", "abc"])
def test_a_product_with_itself_or_the_universe_is_the_operand_outside_a_scope(text):
    a = from_pattern(text)
    assert a.intersect(a) is a
    assert a.intersect(automata.universe_dfa()) is a


@settings(deadline=None)
@given(regexes(), regexes())
@example(EPSILON, parse_regex("a*"))  # a copy of ε that only its empty live edge mask tells from a*
# x ∪ y is ac|bc|bd, whose states after a and after b differ: x's one state
# after a or b makes two pairs, so the product has x's language but is minimized
@example(parse_regex("(a|b)c"), parse_regex("bd"))
def test_a_product_with_a_superset_is_the_operand_itself_outside_a_scope(r1, r2):
    x = from_regex(r1)
    y = automata.union(x, from_regex(r2))
    assert _check_copy_rule(x, y) == x
    assert _check_copy_rule(y, x) == x


@settings(deadline=None)
@given(regexes(), regexes())
@example(EPSILON, parse_regex("a*"))
def test_a_product_is_an_operand_exactly_where_the_projection_rule_finds_a_copy(r1, r2):
    a, b = from_regex(r1), from_regex(r2)
    for x, y in ((a, b), (b, a), (a, a), (a.complement(), b.complement()), (a, b.complement()), (a.complement(), b)):
        _check_copy_rule(x, y)


def test_a_corpus_clause_product_is_an_operand_exactly_where_the_projection_rule_finds_a_copy():
    clauses = list(
        dict.fromkeys(
            from_pattern(*clause.patterns)
            for path in corpus_paths()
            for s in parse_policy(path.read_text()).statements
            for clause in (s.principal, s.action, s.resource)
        )
    )
    universe = automata.universe_dfa()
    products = []
    for d in clauses:
        twin = Dfa(d.transitions, d.accepting)  # equal, built apart
        for x, y in ((d, universe), (universe, d), (d, d), (d, twin), (twin, d)):
            products.append((x, y, _check_copy_rule(x, y)))
        for other in clauses:
            u = automata.union(d, other)
            products += [(d, u, _check_copy_rule(d, u)), (u, d, _check_copy_rule(u, d))]
    returned = Counter("x" if p is x else "y" if p is y else "minimized" for x, y, p in products)
    assert len(clauses) > 10 and all(returned[kind] > 10 for kind in ("x", "y", "minimized")), returned


def test_subset_kernel_matches_the_thompson_oracle_on_every_corpus_and_perfbench_pattern():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import inputs  # the benchmark's input generator

    texts = {inputs.HANG_PATTERN, inputs.BLOWUP_PATTERN}
    for path in corpus_paths():
        texts |= _patterns(parse_policy(path.read_text()))
    for workload in inputs.WORKLOADS:
        for index in range(inputs.FAMILY_SIZE):
            for text in inputs.case(workload, index).policies:
                texts |= _patterns(parse_policy(text))
    assert len(texts) > 500
    for text in sorted(texts):
        _check_subset_kernel(wildcard(text))


def test_product_kernel_matches_the_refining_oracle_on_corpus_compilation_and_comparison(monkeypatch):
    calls, intersect = [], Dfa.intersect

    def record(a, b):  # difference calls it too
        calls.append((a, b))
        return intersect(a, b)

    monkeypatch.setattr(Dfa, "intersect", record)
    docs = [parse_policy(path.read_text()) for path in corpus_paths()]
    with automata.operation_cache():
        for doc in docs:
            request_set = compile_policy(doc)
            for dim in request_set.schema.dimensions:
                project(request_set, dim)
            for other in docs:
                compare_policies(doc, other, 3, 0)
    monkeypatch.undo()
    products = dict.fromkeys(calls)
    assert len(products) > 100
    for a, b in products:
        _check_product_kernel(a, b)


def test_subset_kernel_matches_the_thompson_oracle_on_echo_mock_candidates():
    # The attempts for one policy echo one prompt, so they repeat one candidate.
    candidates = dict.fromkeys(
        c.ast
        for path in corpus_paths()
        for c in generate_summarization(parse_policy(path.read_text()), SimplifierConfig(), MockProvider()).candidates
        if c.ast is not None
    )
    assert len(candidates) >= 10
    for r in candidates:  # tables of 99 to 1,399 states: every 25th cap
        _check_subset_kernel(r, stride=25)


@settings(deadline=None)
@given(regexes(), regexes())
def test_every_explored_row_is_ordered_by_lowest_class_member(r1, r2):
    a, b = from_regex(r1), from_regex(r2)
    tables = _explored(lambda: [_subset_rows(r1), _subset_rows(r2), a.intersect(b), a.complement().intersect(b)])
    assert all(_ordered(rows) for _, _, rows in tables)


def test_every_table_explored_on_the_corpus_orders_its_rows():
    docs = [parse_policy(path.read_text()) for path in corpus_paths()]

    def run():
        with automata.operation_cache():
            for doc in docs:
                request_set = compile_policy(doc)
                for dim in request_set.schema.dimensions:
                    project(request_set, dim).count_models(6)
                for other in docs:
                    compare_policies(doc, other, 3, 0)

    tables = _explored(run)
    assert all(_ordered(rows) for _, _, rows in tables)
    kinds = Counter(what for what, _, _ in tables)
    assert kinds["subset construction"] > 10 and kinds["product construction"] > 100 and kinds["counting walk"] > 10


@settings(deadline=None)
@given(regexes(), regexes())
@example(parse_regex("(a|b)*abb"), parse_regex("a*b*"))  # a product that is minimized
def test_compiling_a_regex_or_building_a_product_explores_once(r1, r2):
    # outside an operation-cache scope, so nothing is served from a cache
    assert len(_explored(lambda: from_regex(r1))) == 1
    a, b = from_regex(r1), from_regex(r2)
    assert len(_explored(lambda: a.intersect(b))) == (0 if a.is_empty() or b.is_empty() else 1)


@contextmanager
def _deadline(seconds: int):
    """Fail the block if it runs longer than ``seconds``, where SIGALRM exists."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def too_slow(*_):
        raise AssertionError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_regex_past_the_position_cap_raises_at_once():
    # 64⁴ positions; the regex's tree shares each repeated subtree
    with _deadline(5):
        with pytest.raises(StateBlowup, match=f"^regex exceeded the position cap of {automata.DEFAULT_POSITION_CAP}$"):
            from_regex(parse_regex(NESTED_REPEATS))


def test_the_position_cap_counts_a_clause_and_is_read_when_checked(monkeypatch):
    monkeypatch.setattr(automata, "DEFAULT_POSITION_CAP", 4)
    assert from_pattern("ab", "cd") == reference_disjunction(["ab", "cd"])
    for build in (lambda: from_pattern("ab", "c?e"), lambda: _subset_rows(wildcard("a*cde"))):
        with pytest.raises(StateBlowup, match="^regex exceeded the position cap of 4$"):
            build()


@pytest.mark.parametrize(
    "r",
    [literal("a" * 3000), _nested_unions(1500), _nested_stars(300), _nested_star_unions(300), _nested_star_unions(2000)],
    ids=["literal-3000", "unions-1500", "stars-300", "star-unions-300", "star-unions-2000"],
)
def test_subset_kernel_matches_the_thompson_oracle_on_deep_trees(r):
    # deeper than the default recursion limit: building the positions needs no recursion;
    # follow sets shared between nested stars keep the work quadratic, not cubic, in the depth
    with _deadline(20):
        assert _renumbered(*_subset_rows(r)) == _renumbered(*thompson_subset_rows(r))


def _renumbered(rows, accepting):
    """The table with its states numbered breadth-first from state 0, edges
    ordered by lowest member: equal for two tables that differ only in state
    numbering.  Moore's rounds, one per state, take tens of seconds on the
    3,000-state tables above."""
    order, queue = {0: 0}, [0]
    for s in queue:
        for _, t in sorted(rows[s], key=lambda e: e[0] & -e[0]):
            if t not in order:
                order[t] = len(queue)
                queue.append(t)
    table = [sorted((m, order[t]) for m, t in rows[s]) for s in queue]
    return table, {order[s] for s in accepting}


# -- counting walk ---------------------------------------------------------------

BOUNDS = (0, 1, 3, 8, 100)


def _count_outcome(walk, a, b, bound):
    """The count ``walk`` returns, or the message of the StateBlowup it raises."""
    return _result(lambda: walk(a, b, bound))


def _pairs_numbered(a, b, bound) -> int:
    """The pairs the reference walk numbers: the lowest cap it runs under."""
    lo, hi = 0, automata.DEFAULT_STATE_CAP
    while lo < hi:
        mid = (lo + hi) // 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(automata, "DEFAULT_STATE_CAP", mid)
            raised = isinstance(_count_outcome(reference_count_common, a, b, bound), str)
        lo, hi = (mid + 1, hi) if raised else (lo, mid)
    return lo


def _check_walk(a, b, bound, parts: int | None = None) -> None:
    """Equal counts at the default cap, and equal outcomes under every cap
    from 0 to one past the number of pairs within ``bound``, or under about
    ``parts`` of them spread evenly and the caps one below, at and one past
    that number."""
    assert _count_outcome(_count_common, a, b, bound) == _count_outcome(reference_count_common, a, b, bound)
    n = _pairs_numbered(a, b, bound)
    stride = max(1, n // parts) if parts else 1
    for cap in sorted({*range(0, n + 2, stride), n - 1, n, n + 1} - {-1}):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(automata, "DEFAULT_STATE_CAP", cap)
            want = _count_outcome(reference_count_common, a, b, bound)
            assert _count_outcome(_count_common, a, b, bound) == want, (cap, bound)
            assert isinstance(want, str) == (cap < n)


@settings(deadline=None)
@given(regexes(), regexes(), st.sampled_from(BOUNDS))
def test_counting_walk_matches_the_reference_walk(r1, r2, bound):
    a, b = _subset_rows(r1), _subset_rows(r2)
    for x, y in ((a, b), (a, UNIVERSE_TABLE), (UNIVERSE_TABLE, from_regex(r2).table)):
        _check_walk(x, y, bound)


def test_counting_walk_matches_the_reference_walk_on_corpus_candidates():
    # Echo-mock candidates alternate samples that can run past bound 100, so
    # some walks have pairs beyond the bound: those must count against no cap.
    walks = 0
    for path in corpus_paths():
        doc = parse_policy(path.read_text())
        cfg = SimplifierConfig()
        exact = project(compile_policy(doc), cfg.projection)
        candidates = dict.fromkeys(
            c.ast for c in generate_summarization(doc, cfg, MockProvider()).candidates if c.ast is not None
        )
        tables = [_subset_rows(r) for r in (*candidates, parse_regex(".*"))]
        for table in tables:
            for a, b in ((exact.table, table), (table, UNIVERSE_TABLE)):
                for bound in BOUNDS:
                    _check_walk(a, b, bound, parts=8)
                    walks += 1
        for bound in BOUNDS:
            _check_walk(exact.table, UNIVERSE_TABLE, bound)
    assert walks > 200


def test_explore_within_a_depth_numbers_the_keys_within_it():
    # Keys are integers; from x the edges lead to 2x+1 and 2x+2 below 200, and back to 0.
    def moves(x):
        return [(mask, t) for mask, t in ((1, 2 * x + 1), (2, 2 * x + 2), (4, 0)) if t < 200]

    distance, queue = {0: 0}, [0]
    for x in queue:
        for _, t in moves(x):
            if t not in distance:
                distance[t] = distance[x] + 1
                queue.append(t)
    full_keys, full_rows = _explore(0, moves, "walk")
    assert full_keys == queue
    for k in (0, 1, 3, 7, 20):
        keys, rows = _explore(0, moves, "walk", k)
        assert keys == [x for x in queue if distance[x] <= k]
        assert rows == [[] if distance[x] == k else row for x, row in zip(keys, full_rows)]
        # the cap bounds the keys within the depth, no more; the start is always numbered
        for cap in (len(keys) - 1, len(keys)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(automata, "DEFAULT_STATE_CAP", cap)
                if len(keys) > max(cap, 1):
                    with pytest.raises(StateBlowup, match=f"^walk exceeded the state cap of {cap}$"):
                        _explore(0, moves, "walk", k)
                else:
                    assert _explore(0, moves, "walk", k) == (keys, rows)
