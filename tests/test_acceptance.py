"""End-to-end acceptance gate.

One test per shipping criterion, each emitting a single pass/fail line and
enforcing its pinned runtime budget.  Values with an exact expectation are
compared with zero tolerance; statistical checks pin their significance
level and seed.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import product

from click.testing import CliRunner
from scipy.stats import chisquare

from policylens.alphabet import char_bit
from policylens.automata import Dfa, from_pattern, from_regex
from policylens.cli import main
from policylens.policy import WildcardPattern, parse_policy
from policylens.providers import MockProvider
from policylens.regex import (
    EPSILON,
    alt,
    char_class,
    literal,
    optional,
    parse_regex,
    print_regex,
    seq,
    star,
)
from policylens.requestsets import compile_policy, contains, project
from policylens.sampler import sample
from policylens.simplifier import SimplifierConfig, generate_summarization, quantify_similarity

from conftest import (
    ALLOW_ALL_POLICY,
    DENY_ALL_POLICY,
    MUSIC_POLICY,
    MUSIC_REGEX,
    corpus_paths,
    random_policy_text,
)
from oracles import glob_match, re_accepts, ref_decide, strings_up_to, table_dfa


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _body(output: str) -> dict:
    _, _, rest = output.partition("\n")
    return json.loads(rest)


def test_criterion_01_motivating_example_end_to_end():
    t0 = time.perf_counter()
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("provider.json", "w") as f:
            json.dump({"script": [MUSIC_REGEX]}, f)
        result = runner.invoke(
            main,
            ["summarize", str(MUSIC_POLICY), "--provider", "mock",
             "--provider-config", "provider.json"],
        )
    elapsed = time.perf_counter() - t0
    report = _body(result.output) if result.exit_code == 0 else {}
    ok = (
        result.exit_code == 0
        and report.get("similarity") == "1.0"
        and report.get("chosen_source") == "candidate"
        and report.get("chosen") == MUSIC_REGEX
        and elapsed < 10.0
    )
    _verdict(1, "motivating example", ok,
             f"J={report.get('similarity')} source={report.get('chosen_source')} in {elapsed:.2f}s (<10s)")


def test_criterion_02_allow_nothing_policy():
    t0 = time.perf_counter()
    provider = MockProvider()
    report = generate_summarization(
        parse_policy(DENY_ALL_POLICY.read_text()), SimplifierConfig(), provider
    )
    runner = CliRunner()
    count_res = runner.invoke(main, ["count", str(DENY_ALL_POLICY), "-b", "50"])
    compare_res = runner.invoke(main, ["compare", str(DENY_ALL_POLICY), str(MUSIC_POLICY)])
    elapsed = time.perf_counter() - t0
    ok = (
        report.chosen == "∅"
        and report.empty_language
        and provider.calls == []
        and count_res.exit_code == 0
        and count_res.output.splitlines()[0] == "0"
        and compare_res.exit_code == 0
        and _body(compare_res.output)["verdict"] == "SecondMorePermissive"
        and elapsed < 1.0
    )
    _verdict(2, "allow-nothing policy", ok,
             f"chosen={report.chosen} llm_calls={len(provider.calls)} count=0 "
             f"verdict=SecondMorePermissive in {elapsed:.2f}s (<1s)")


def _random_ast(rng: random.Random, depth: int, chars: str):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.45:
            return literal(rng.choice(chars))
        if kind < 0.7:
            return literal("".join(rng.choice(chars) for _ in range(rng.randint(2, 4))))
        if kind < 0.9:
            mask = 0
            for c in rng.sample(chars, rng.randint(1, len(chars))):
                mask |= char_bit(c)
            return char_class(mask)
        return EPSILON
    roll = rng.random()
    if roll < 0.35:
        return seq(_random_ast(rng, depth - 1, chars), _random_ast(rng, depth - 1, chars))
    if roll < 0.7:
        return alt(_random_ast(rng, depth - 1, chars), _random_ast(rng, depth - 1, chars))
    if roll < 0.9:
        return star(_random_ast(rng, depth - 1, chars))
    return optional(_random_ast(rng, depth - 1, chars))


def test_criterion_03_counting_matches_enumeration():
    t0 = time.perf_counter()
    rng = random.Random(301)
    bound = 6
    chars = "abc"
    restrict = from_regex(parse_regex("[abc]*"))
    universe = strings_up_to(chars, bound)
    checked = 0
    for _ in range(100):  # wildcard patterns
        text = "".join(rng.choice("abc*?") for _ in range(rng.randint(0, 6)))
        dfa = from_pattern(WildcardPattern(text)).intersect(restrict)
        expected = sum(glob_match(text, s) for s in universe)
        assert dfa.count_models(bound) == expected, f"pattern {text!r}"
        checked += 1
    for _ in range(100):  # regexes
        ast = _random_ast(rng, rng.randint(1, 4), chars)
        dfa = from_regex(ast).intersect(restrict)
        expected = sum(re_accepts(ast, s) for s in universe)
        assert dfa.count_models(bound) == expected, f"regex {print_regex(ast)!r}"
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 200 and elapsed < 60.0
    _verdict(3, "counting oracle", ok, f"{checked} cases exact in {elapsed:.2f}s (<60s)")


def _random_partition(rng: random.Random, max_blocks: int = 3) -> list[int]:
    codes = list(range(95))
    rng.shuffle(codes)
    nblocks = rng.randint(1, max_blocks)
    cuts = sorted(rng.sample(range(1, 95), nblocks - 1)) if nblocks > 1 else []
    blocks, prev = [], 0
    for cut in cuts + [95]:
        mask = 0
        for code in codes[prev:cut]:
            mask |= 1 << code
        blocks.append(mask)
        prev = cut
    return blocks


def test_criterion_04_extraction_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(401)
    corpus: list[Dfa] = []
    while len(corpus) < 120:  # regex-derived machines
        ast = _random_ast(rng, rng.randint(2, 6), "abz:/")
        dfa = from_regex(ast)
        if dfa.state_count <= 30:
            corpus.append(dfa)
    while len(corpus) < 200:  # random transition tables
        n = rng.randint(2, 18)
        table = [
            [(mask, rng.randrange(n)) for mask in _random_partition(rng, 4)]
            for _ in range(n)
        ]
        accepting = [s for s in range(n) if rng.random() < 0.5]
        corpus.append(table_dfa(table, 0, accepting))
    sizes = [d.state_count for d in corpus]
    assert max(sizes) <= 30 and max(sizes) >= 15  # the corpus spans real sizes
    for dfa in corpus:
        assert dfa == from_regex(dfa.extract_regex())
    policy_dims = 0
    for path in corpus_paths():
        allowed = compile_policy(parse_policy(path.read_text()))
        for dim in allowed.schema.dimensions:
            dfa = project(allowed, dim)
            assert dfa == from_regex(dfa.extract_regex()), (path.name, dim)
            policy_dims += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _verdict(4, "extraction round trip", ok,
             f"200 machines (max {max(sizes)} states) + {policy_dims} policy projections "
             f"in {elapsed:.2f}s (<120s)")


def test_criterion_05_compilation_matches_reference_evaluator():
    t0 = time.perf_counter()
    rng = random.Random(501)
    values = strings_up_to("ab", 2)
    tuples_checked = 0
    for _ in range(100):
        doc = parse_policy(random_policy_text(rng))
        allowed = compile_policy(doc)
        dims = allowed.schema.dimensions
        for tup in product(values, repeat=len(dims)):
            request = dict(zip(dims, tup))
            assert contains(allowed, request) == ref_decide(doc, request), (doc, request)
            tuples_checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _verdict(5, "compilation oracle", ok,
             f"100 policies, {tuples_checked} request tuples in {elapsed:.2f}s (<120s)")


SAMPLER_CORPUS = [
    MUSIC_REGEX,
    "a*",
    "(0|1)*01",
    "[a-z]{1,8}",
    "(ab|cd)*(e|f)?",
    "x?y?z?",
    "(foo|bar|baz)*",
    r"\*lit\?",
    "a{2,5}b{0,3}",
    "([A-Z][a-z]*)( [A-Z][a-z]*)*",
]

UNION_CORPUS = ["ax|bx|cx|dx", "(foo)|(bar)", "aa|bb|cc", "(one)|(two)|(three)|(four)|(five)", "pq|rs|tu"]


def test_criterion_06_sampler_soundness_and_uniformity():
    t0 = time.perf_counter()
    total = 0
    for i, text in enumerate(SAMPLER_CORPUS):
        ast = parse_regex(text)
        dfa = from_regex(ast)
        rng = random.Random(600 + i)
        for _ in range(10_000):
            assert dfa.accepts(sample(ast, rng)), text
            total += 1
    pvalues = []
    for i, text in enumerate(UNION_CORPUS):
        ast = parse_regex(text)
        rng = random.Random(660 + i)
        counts: dict[str, int] = {}
        for _ in range(5000):
            s = sample(ast, rng)
            counts[s] = counts.get(s, 0) + 1
        assert len(counts) == len(text.split("|"))
        pvalues.append(chisquare(list(counts.values())).pvalue)
    elapsed = time.perf_counter() - t0
    ok = total == 100_000 and all(p > 0.01 for p in pvalues)
    _verdict(6, "sampler soundness/uniformity", ok,
             f"{total} samples all members; chi-square p={['%.3f' % p for p in pvalues]} all >0.01 "
             f"in {elapsed:.2f}s")


def test_criterion_07_similarity_algebra():
    a, b = parse_regex("(ab)*c"), parse_regex("a?b?c?")
    identity = quantify_similarity(a, a, 8) == Fraction(1)
    symmetric = quantify_similarity(a, b, 8) == quantify_similarity(b, a, 8)
    worked = quantify_similarity(parse_regex("a|b"), parse_regex("b|c"), 1) == Fraction(1, 3)
    empty_conv = quantify_similarity(parse_regex("∅"), parse_regex("∅"), 10) == Fraction(1)
    truncated = quantify_similarity(parse_regex("aaa"), parse_regex("bb"), 1) == Fraction(1)
    ok = identity and symmetric and worked and empty_conv and truncated
    _verdict(7, "similarity algebra", ok,
             f"identity={identity} symmetric={symmetric} J(a|b,b|c,1)=1/3:{worked} "
             f"zero-over-zero={empty_conv and truncated}")


def test_criterion_08_fallback_behavior():
    cfg = SimplifierConfig(samples=50, bound=10, attempts=1)
    music = parse_policy(MUSIC_POLICY.read_text())
    disjoint = generate_summarization(music, cfg, MockProvider(script=["qqq"]))
    fell_back = (
        disjoint.fallback
        and disjoint.chosen == disjoint.extracted_regex
        and disjoint.chosen_source == "extracted"
    )
    echoed = 0
    all_verified = True
    for path in corpus_paths():
        doc = parse_policy(path.read_text())
        allowed = compile_policy(doc)
        if not allowed.cubes:
            report = generate_summarization(doc, cfg, MockProvider())
            all_verified &= report.chosen == "∅"
            continue
        exact = print_regex(project(allowed, "resource").extract_regex())
        report = generate_summarization(doc, cfg, MockProvider(script=[exact]))
        all_verified &= report.chosen_source == "candidate" and report.similarity == Fraction(1)
        echoed += 1
    ok = fell_back and all_verified
    _verdict(8, "fallback behavior", ok,
             f"disjoint candidate fell back={fell_back}; echo verified J=1 on {echoed} policies")


def test_criterion_09_geometric_counts():
    runner = CliRunner()
    star_res = runner.invoke(main, ["count", str(ALLOW_ALL_POLICY), "-b", "2"])
    with runner.isolated_filesystem():
        with open("one_char.json", "w") as f:
            f.write('{"Statement": [{"Effect": "Allow", "Principal": "*", "Action": "*", "Resource": "?"}]}')
        qmark_res = runner.invoke(main, ["count", "one_char.json", "-b", "100"])
    star_count = star_res.output.splitlines()[0]
    qmark_count = qmark_res.output.splitlines()[0]
    ok = (
        star_res.exit_code == 0 and star_count == "9121"
        and qmark_res.exit_code == 0 and qmark_count == "95"
    )
    _verdict(9, "geometric counts", ok, f'"*" b=2 -> {star_count} (=9121); "?" b=100 -> {qmark_count} (=95)')


def test_criterion_10_deterministic_reports():
    runner = CliRunner()
    args = ["summarize", str(MUSIC_POLICY), "--seed", "7", "--provider", "mock", "--no-timestamp"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    ok = first.exit_code == 0 and second.exit_code == 0 and first.output == second.output
    _verdict(10, "determinism", ok,
             f"two seeded runs byte-identical={first.output == second.output} "
             f"({len(first.output)} bytes)")
