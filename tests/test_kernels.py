"""The subset and product kernels against the earlier kernels kept in
``oracles.py``: Thompson NFA ε-closures, and product rows that refine both
rows' masks and look up each part's targets.

The tables must be equal, rows, accepting states and state count alike, not
only their languages: :func:`automata.similarity_counts` walks unminimized
subset tables.  Under every state cap from 0 to one past the table's size,
both sides must build the same table or raise the same StateBlowup message.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from policylens import automata, parse_policy
from policylens.automata import _KEEP, _product_rows, _subset_rows, from_regex
from policylens.errors import StateBlowup
from policylens.providers import MockProvider
from policylens.regex import EMPTY, EPSILON, literal, wildcard
from policylens.requestsets import compare_policies, compile_policy, project
from policylens.simplifier import SimplifierConfig, generate_summarization

from conftest import corpus_paths
from oracles import refine_product_rows, thompson_subset_rows
from test_automata import small_regex
from test_regex import _nested_star_unions, _nested_stars, _nested_unions, ast_strategy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def regexes() -> st.SearchStrategy:
    return st.one_of(ast_strategy(EMPTY, EPSILON), small_regex())


def _outcome(build):
    """The table ``build`` returns, or the message of the StateBlowup it raises."""
    try:
        rows, accepting = build()
    except StateBlowup as e:
        return str(e)
    return rows, set(accepting)


def _check_kernel(build, reference, stride: int = 1) -> None:
    """Equal outcomes at the default cap, and under every ``stride``-th cap
    from 0 and the caps one below, at and one past the table's size."""
    want = _outcome(reference)
    assert _outcome(build) == want
    n = len(want[0])
    for cap in sorted({*range(0, n + 2, stride), n - 1, n, n + 1}):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(automata, "DEFAULT_STATE_CAP", cap)
            assert _outcome(build) == _outcome(reference), cap


def _check_subset_kernel(r, stride: int = 1) -> None:
    _check_kernel(lambda: _subset_rows(r), lambda: thompson_subset_rows(r), stride)


def _check_product_kernel(a, b) -> None:
    for keep in _KEEP.values():
        _check_kernel(lambda: _product_rows(a, b, keep), lambda: refine_product_rows(a, b, keep))


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
    _check_product_kernel(from_regex(r1), from_regex(r2))


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
    calls = []

    def record(a, b, keep):
        calls.append((a, b, keep))
        return _product_rows(a, b, keep)

    monkeypatch.setattr(automata, "_product_rows", record)
    docs = [parse_policy(path.read_text()) for path in corpus_paths()]
    with automata.operation_cache():
        for doc in docs:
            request_set = compile_policy(doc)
            for dim in request_set.schema.dimensions:
                project(request_set, dim)
            for other in docs:
                compare_policies(doc, other, 3, 0)
    monkeypatch.undo()
    assert len(calls) > 100
    for a, b, keep in calls:  # each under the operation that was run
        _check_kernel(lambda: _product_rows(a, b, keep), lambda: refine_product_rows(a, b, keep))


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


@pytest.mark.parametrize(
    "r",
    [literal("a" * 3000), _nested_unions(1500), _nested_stars(300), _nested_star_unions(300)],
    ids=["literal-3000", "unions-1500", "stars-300", "star-unions-300"],
)
def test_subset_kernel_matches_the_thompson_oracle_on_deep_trees(r):
    # deeper than the default recursion limit: building the positions needs no recursion
    assert _outcome(lambda: _subset_rows(r)) == _outcome(lambda: thompson_subset_rows(r))
