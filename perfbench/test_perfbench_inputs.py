"""Checks of the benchmark's input generator.

Each gold regex must accept exactly the strings its wildcard patterns match,
judged by the direct wildcard matcher and by Python ``re`` in
``tests/oracles.py``.  Run with the tier-1 command or alone::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import random
import re
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "tests")]

import inputs  # noqa: E402
from oracles import glob_match, re_accepts  # noqa: E402
from policylens.policy import parse_policy  # noqa: E402
from policylens.regex import parse_regex  # noqa: E402

CHARS = "abc/.-_19"


def _instance(pattern: str, rng: random.Random) -> str:
    """A string the pattern matches: each ``*`` and ``?`` filled at random."""
    out = []
    for ch in pattern:
        if ch == "*":
            out.append("".join(rng.choice(CHARS) for _ in range(rng.randint(0, 4))))
        elif ch == "?":
            out.append(rng.choice(CHARS))
        else:
            out.append(ch)
    return "".join(out)


def _mutate(s: str, rng: random.Random) -> str:
    """A near miss: one character dropped, changed or added."""
    i = rng.randint(0, len(s))
    kind = rng.randrange(3)
    if kind == 0 and i < len(s):
        return s[:i] + s[i + 1 :]
    if kind == 1 and i < len(s):
        return s[:i] + rng.choice(CHARS) + s[i + 1 :]
    return s[:i] + rng.choice(CHARS) + s[i:]


def _drawn(case, rng: random.Random) -> list[str]:
    hits = [_instance(p, rng) for p in case.resources for _ in range(6)]
    return hits + [_mutate(s, rng) for s in hits] + ["", "mp3s/A1/x.mp3", "logs/x"]


def test_gold_regex_matches_wildcard_oracle():
    rng = random.Random(7)
    for index in range(0, inputs.FAMILY_SIZE, 5):
        case = inputs.case("summarize", index)
        gold_ast = parse_regex(case.gold)
        gold_re = re.compile(case.gold)
        for s in _drawn(case, rng):
            want = any(glob_match(p, s) for p in case.resources)
            assert re_accepts(gold_ast, s) == want, (case.gold, s)
            assert (gold_re.fullmatch(s) is not None) == want, (case.gold, s)


def test_every_input_parses_and_scripted_mock_leads_with_gold():
    for workload in inputs.WORKLOADS:
        for index in range(0, inputs.FAMILY_SIZE, 7):
            case = inputs.case(workload, index)
            for text in case.policies:
                parse_policy(text)
            if case.script is not None:
                assert case.script[0] == case.gold and len(set(case.script)) == 3


def _keys(rounds) -> list:
    return [(c.index, c.corpus) for block in rounds for c in block]


def test_plan_is_seeded_and_never_repeats_an_input():
    for workload in inputs.WORKLOADS:
        keys = _keys(inputs.plan(workload, 3))
        assert len(keys) == len(set(keys))
        assert keys == _keys(inputs.plan(workload, 3))
    assert keys != _keys(inputs.plan(workload, 4))


def test_rounds_have_fixed_composition():
    for workload, classes in (("summarize", inputs.SUMMARIZE_CLASSES), ("requests-count", inputs.REQUESTS_CLASSES)):
        shapes = Counter("-".join(k) if isinstance(k, tuple) else k for k in classes)
        first, *rest = list(inputs.plan(workload, 11))
        for block in rest:
            assert Counter(c.shape for c in block) == shapes
    summarize = list(inputs.plan("summarize", 11))
    assert {c.corpus for c in summarize[0]} - {None} == set(inputs.CORPUS)
    assert 2 * sum(1 for c in summarize[1] if c.script is not None) == len(summarize[1])
