from __future__ import annotations

import itertools
import json
import random

import pytest

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from policylens import automata, cli, requestsets
from policylens.automata import Dfa, OperationCache, empty_dfa, from_pattern, from_regex, operation_cache, universe_dfa
from policylens.errors import CubeBlowup, InsufficientLanguage, SchemaError, StateBlowup
from policylens.policy import Effect, parse_policy
from policylens.regex import parse_regex
from policylens.requestsets import (
    DimensionSchema,
    Permissiveness,
    RequestCube,
    RequestSet,
    compare_policies,
    compile_policy,
    contains,
    decide_request,
    empty_set,
    is_empty_set,
    policy_differences,
    policy_schema,
    project,
    sample_from_set,
    sample_requests,
    set_difference,
    universe_set,
)

from conftest import MUSIC_POLICY, MUSIC_REGEX, corpus_paths, random_policy_text
import scale_table
from oracles import ref_decide, reference_cube_difference, reference_disjunction, reference_pad, reference_union
from test_automata import _keys_of, _no_construction, small_regex

SCHEMA = DimensionSchema()


def d(regex: str) -> Dfa:
    return from_regex(parse_regex(regex))


def rs(*cubes: tuple[Dfa, ...]) -> RequestSet:
    return RequestSet(SCHEMA, cubes)


def test_compile_deny_all_is_empty(deny_all_doc):
    assert is_empty_set(compile_policy(deny_all_doc))


def test_compile_music_resource_projection(music_doc):
    got = project(compile_policy(music_doc), "resource")
    assert got == d(MUSIC_REGEX)


def test_compile_music_other_projections(music_doc):
    allowed = compile_policy(music_doc)
    assert project(allowed, "principal") == d(".*")
    assert project(allowed, "action") == d("s3:GetObject")


def test_compile_allow_only_single_cube():
    doc = parse_policy(
        '{"Statement": [{"Effect": "Allow", "Principal": "p*", "Action": "a", "Resource": "r?"}]}'
    )
    allowed = compile_policy(doc)
    assert len(allowed.cubes) == 1
    assert project(allowed, "principal") == d("p.*")
    assert project(allowed, "resource") == d("r.")


def test_compile_contradictory_conditions_empty():
    doc = parse_policy(
        '{"Statement": [{"Effect": "Allow", "Principal": "*", "Action": "*", "Resource": "*",'
        ' "Condition": {"StringEquals": {"env": "staging"}, "StringNotEquals": {"env": "staging"}}}]}'
    )
    assert is_empty_set(compile_policy(doc))


def test_set_operation_laws(music_doc):
    x = compile_policy(music_doc)
    none = empty_set(SCHEMA)
    assert is_empty_set(set_difference(x, x))
    assert set_difference(x, none).cubes == x.cubes
    assert is_empty_set(set_difference(x, universe_set(SCHEMA)))


def test_cube_difference_distribution_shape():
    # (a* x U x U) \ (U x b* x U) leaves the single cube a* x not(b*) x U
    a = rs((d("a*"), d(".*"), d(".*")))
    b = rs((d(".*"), d("b*"), d(".*")))
    diff = set_difference(a, b)
    assert len(diff.cubes) == 1
    assert diff.cubes[0][0] == d("a*")
    assert diff.cubes[0][1] == d("b*").complement()
    assert contains(diff, {"principal": "aa", "action": "a", "resource": "zz"})
    assert not contains(diff, {"principal": "aa", "action": "bb", "resource": "zz"})
    assert not contains(diff, {"principal": "c", "action": "a", "resource": ""})


def _no_product(*_):
    raise AssertionError("a product was built for a settled term")


def test_cube_difference_settles_trivial_terms_without_a_product(monkeypatch):
    x, twin, y = d("a*b"), d("a*b"), d("b+")
    assert x is not twin and x == twin
    u = universe_dfa()
    monkeypatch.setattr(automata, "_pair_moves", _no_product)
    # equal operands built apart, then a U on the left, then a U on the right
    assert requestsets._cube_difference((x, u, y), (twin, y, u)) == [(x, y.complement(), y)]
    assert requestsets._cube_difference((x, u, y), (twin, u, y)) == []


def test_cube_difference_builds_a_difference_only_where_the_intersection_leaves_one():
    # Operation-cache misses count the products a cube difference builds.
    a, a_star, b_plus, c, c_star = d("a"), d("a*"), d("b+"), d("c"), d("c*")
    c_rest, a_rest = c_star.difference(c), a_star.difference(a)
    with operation_cache() as cache:
        # disjoint on the first dimension: one product, and the left cube comes back whole
        assert requestsets._cube_difference((a_star, c_star), (b_plus, c)) == [(a_star, c_star)]
        assert _keys_of(cache, Dfa.intersect) == [(Dfa.intersect, a_star, b_plus)]
    with operation_cache() as cache:
        # x ⊆ y on a dimension before the last: its intersection is x, and no difference is
        # built; the last dimension builds only its difference
        assert requestsets._cube_difference((a, c_star), (a_star, c)) == [(a, c_rest)]
        assert _keys_of(cache, Dfa.intersect) == [(Dfa.intersect, a, a_star), (Dfa.intersect, c_star, c.complement())]
    with operation_cache() as cache:
        # a partial overlap builds the intersection, then the difference
        assert requestsets._cube_difference((a_star, c_star), (a, c)) == [(a_rest, c_star), (a, c_rest)]
        assert cache.misses[Dfa.intersect] == 3


@st.composite
def cube_pairs(draw) -> tuple[RequestCube, RequestCube]:
    """Two cubes of one arity whose components repeat, include U, and
    include complements and equal copies built apart."""
    dfas = [from_regex(r) for r in draw(st.lists(small_regex(), min_size=1, max_size=3))]
    pool = [universe_dfa(), *dfas, *(x.complement() for x in dfas), *(Dfa(x.transitions, x.accepting) for x in dfas)]
    k = draw(st.integers(1, 4))
    cube = st.lists(st.sampled_from(pool), min_size=k, max_size=k).map(tuple)
    return draw(cube), draw(cube)


@settings(max_examples=100, deadline=None)
@given(cube_pairs())
def test_cube_difference_matches_the_reference(pair):
    a, b = pair
    assert requestsets._cube_difference(a, b) == reference_cube_difference(a, b)


def _check_every_cube_difference(monkeypatch) -> list[int]:
    """Check each ``_cube_difference`` the engine runs against the reference;
    the returned list counts the checks."""
    real, checked = requestsets._cube_difference, []

    def cube_difference(a, b):
        got = real(a, b)
        assert got == reference_cube_difference(a, b), (a, b)
        checked.append(1)
        return got

    monkeypatch.setattr(requestsets, "_cube_difference", cube_difference)
    return checked


def _differences(docs) -> None:
    schema = policy_schema(*docs)
    sets = [set_difference(*requestsets._statement_cubes(doc, schema)) for doc in docs]
    for x in sets:
        set_difference(universe_set(x.schema), x)
        for y in sets:
            set_difference(x, y)


def test_cube_difference_matches_the_reference_on_corpus_pairs(monkeypatch, corpus):
    checked = _check_every_cube_difference(monkeypatch)
    _differences(corpus.values())
    assert len(checked) > 200


def test_cube_difference_matches_the_reference_on_random_policies(monkeypatch):
    checked = _check_every_cube_difference(monkeypatch)
    for seed in range(30):
        rng = random.Random(f"cube-difference/{seed}")
        _differences([parse_policy(random_policy_text(rng)) for _ in range(2)])
    assert len(checked) > 500


def _clauses(doc):
    """The pattern texts of every clause and condition of ``doc``."""
    for s in doc.statements:
        for patterns in (*(c.patterns for c in (s.principal, s.action, s.resource)), *(c.values for c in s.conditions)):
            yield tuple(p.text for p in patterns)


def test_a_clause_compiles_to_the_union_of_its_patterns():
    docs = [parse_policy(p.read_text()) for p in corpus_paths()]
    rng = random.Random("clauses")
    docs += [parse_policy(random_policy_text(rng)) for _ in range(100)]
    clauses = {texts for doc in docs for texts in _clauses(doc)}
    assert sum(len(texts) > 1 for texts in clauses) > 50
    for texts in clauses:
        assert from_pattern(*texts) == reference_disjunction(texts), texts
    assert from_pattern() == reference_disjunction(()) == empty_dfa()


def test_union_of_no_languages_is_empty_and_of_one_is_itself(monkeypatch):
    assert automata.union() is empty_dfa()
    x, twin = d("a*b"), d("a*b")
    assert x is not twin and x == twin
    monkeypatch.setattr(automata, "_explore", _no_construction)
    assert automata.union(x) is x
    assert automata.union(x, x) is x and automata.union(x, twin) is x


def test_a_projection_is_the_fold_of_its_components_on_the_corpus_and_scale_policies():
    docs = [parse_policy(p.read_text()) for p in corpus_paths()]
    docs += [parse_policy(text) for n in scale_table.SIZES for text in scale_table.scale_pair(n)]
    checked = 0
    for doc in docs:
        x = compile_policy(doc)
        for i, dim in enumerate(x.schema.dimensions):
            # the fold runs over each distinct component once: a repeat adds nothing
            assert project(x, dim) == reference_union(*dict.fromkeys(cube[i] for cube in x.cubes)), dim
            checked += len(x.cubes) > 1
    assert checked > 30


def test_a_projection_of_many_unanchored_resources_is_the_fold(tmp_path):
    # Allows whose resources start with "*" do not die apart, as the scale
    # policies' anchored prefixes do; one of them with Resource "*" makes
    # the projection U.
    for name, resources in [
        ("*c*", [f"*{c}*" for c in "abcdefghijklmnopq"]),
        ("*word*.pdf", [f"bucket/*{w}*.pdf" for w in "secret private admin backup config finance payroll hr legal ops dev".split()]),
    ]:
        for extra in ([], ["*"]):
            statements = [{"Effect": "Allow", "Principal": "*", "Action": "s3:GetObject", "Resource": r} for r in resources + extra]
            text = json.dumps({"Version": "2012-10-17", "Statement": statements})
            x = compile_policy(parse_policy(text))
            i = x.schema.index("resource")
            got = project(x, "resource")
            assert got == reference_union(*dict.fromkeys(cube[i] for cube in x.cubes)), name
            assert (got == universe_dfa()) == bool(extra)
            path = tmp_path / "p.json"
            path.write_text(text)
            assert CliRunner().invoke(cli.main, ["count", str(path), "--no-timestamp"]).exit_code == 0


def test_cube_operations_match_brute_force():
    x = rs((d("a*"), d("[ab]*"), d("(ab)*")), (d("b[ab]*"), d("a*b"), d("[ab]*")))
    y = rs((d("[ab]*a"), d("b*"), d("[ab]*")), (d("a*"), d("a*"), d("a*")))
    universe = ["".join(t) for n in range(3) for t in itertools.product("ab", repeat=n)]

    def member(s: RequestSet, tup: tuple[str, str, str]) -> bool:
        return contains(s, dict(zip(("principal", "action", "resource"), tup)))

    for tup in itertools.product(universe, repeat=3):
        in_x, in_y = member(x, tup), member(y, tup)
        assert member(set_difference(x, y), tup) == (in_x and not in_y)


def test_empty_and_universe():
    assert is_empty_set(empty_set(SCHEMA))
    assert not is_empty_set(universe_set(SCHEMA))
    assert contains(universe_set(SCHEMA), {})
    assert not contains(empty_set(SCHEMA), {})
    # a cube with any empty component is dropped at construction
    assert rs((d("a"), d("∅"), d(".*"))).cubes == ()


def test_duplicate_cubes_deduplicated():
    cube = (d("a"), d("b"), d("c"))
    assert len(rs(cube, cube).cubes) == 1


def test_cube_arity_checked():
    with pytest.raises(SchemaError):
        RequestSet(SCHEMA, (RequestCube([d("a")]),))


def test_project_cases():
    assert project(empty_set(SCHEMA), "resource").is_empty()
    x = rs((d("a"), d("b"), d("c")), (d("a"), d("b"), d("e")))
    assert project(x, "resource") == d("c|e")
    with pytest.raises(SchemaError):
        project(x, "nonsense")


def _conditioned_allow(keys: dict[str, str]):
    """A policy allowing everything under StringEquals on the given keys."""
    stmt = {"Effect": "Allow", "Principal": "*", "Action": "*", "Resource": "*", "Condition": {"StringEquals": keys}}
    return parse_policy(json.dumps({"Statement": [stmt]}))


def test_schema_guards():
    with pytest.raises(SchemaError):
        DimensionSchema(("action",))
    p1 = _conditioned_allow({"k2": "x", "k1": "y"})
    p2 = _conditioned_allow({"k1": "x", "k3": "y"})
    assert policy_schema(p1, p2).dimensions == ("principal", "action", "resource", "k1", "k2", "k3")
    assert policy_schema().dimensions == ("principal", "action", "resource")


def test_mixed_schema_alignment():
    gated = _conditioned_allow({"env": "prod"})
    plain = parse_policy(
        '{"Statement": [{"Effect": "Allow", "Principal": "*", "Action": "*", "Resource": "*"}]}'
    )
    s_plain, s_gated, extra, missing = policy_differences(plain, gated)
    assert s_plain.schema == s_gated.schema == extra.schema
    assert extra.schema.condition_keys == ("env",)
    assert not contains(extra, {"env": "prod"})
    assert contains(extra, {"env": "dev"})
    assert contains(extra, {})
    assert is_empty_set(missing)


def test_set_difference_rejects_sets_over_different_dimensions(music_doc):
    gated = _conditioned_allow({"env": "prod"})
    with pytest.raises(SchemaError, match="different dimensions"):
        set_difference(compile_policy(music_doc), compile_policy(gated))


def _padded_differences(p1, p2) -> tuple[RequestSet, ...]:
    """The pair step's oracle: each policy compiled over its own dimensions,
    both padded onto the joint ones, then differenced both ways."""
    schema = policy_schema(p1, p2)
    s1, s2 = (reference_pad(compile_policy(p), schema) for p in (p1, p2))
    return s1, s2, set_difference(s1, s2), set_difference(s2, s1)


def test_policy_differences_match_padding_on_corpus_pairs(corpus):
    for p1, p2 in itertools.product(corpus.values(), repeat=2):
        assert policy_differences(p1, p2) == _padded_differences(p1, p2)


def test_policy_differences_match_padding_on_random_policies_with_different_keys():
    rng = random.Random("policy-differences")
    pairs = 0
    while pairs < 30:
        p1, p2 = (parse_policy(random_policy_text(rng)) for _ in range(2))
        if policy_schema(p1) == policy_schema(p2):
            continue
        assert policy_differences(p1, p2) == _padded_differences(p1, p2)
        pairs += 1


def _random_statements(rng: random.Random) -> list[dict]:
    return json.loads(random_policy_text(rng))["Statement"]


def _edits(rng: random.Random, stmts: list[dict]) -> list[list[dict]]:
    """One-statement edits of a policy's statements (two or more): an added
    Allow, an added Deny, a removed statement, one clause replaced, and an
    unchanged copy."""
    i = rng.randrange(len(stmts))
    allow, deny, fresh = ({**rng.choice(_random_statements(rng)), "Effect": e} for e in ("Allow", "Deny", "Allow"))
    clause = rng.choice([k for k in stmts[i] if k.removeprefix("Not") in ("Principal", "Action", "Resource")])
    patterns = next(v for k, v in fresh.items() if k.removeprefix("Not") == clause.removeprefix("Not"))
    replaced = {**stmts[i], clause: patterns}
    return [
        stmts[:i] + [allow] + stmts[i:],
        stmts[:i] + [deny] + stmts[i:],
        stmts[:i] + stmts[i + 1 :],
        stmts[:i] + [replaced] + stmts[i + 1 :],
        stmts,
    ]


def test_policy_differences_match_padding_on_one_statement_edits():
    """The pair step folds only the cubes an edit can reach; the padded full
    fold must still give the same four sets, cubes in order, both ways."""
    rng = random.Random("policy-differences/edits")
    for _ in range(40):
        stmts = _random_statements(rng) + _random_statements(rng)
        for edited in _edits(rng, stmts):
            docs = [parse_policy(json.dumps({"Statement": s})) for s in (stmts, edited)]
            for p1, p2 in itertools.permutations(docs):
                assert policy_differences(p1, p2) == _padded_differences(p1, p2)


def _statement(effect: str, principal: str, action: str, resource: str) -> dict:
    field = "NotPrincipal" if principal.startswith("!") else "Principal"
    return {"Effect": effect, field: principal.removeprefix("!"), "Action": action, "Resource": resource}


# Six allows and four denies, as in a bucket policy with exceptions.
_BUCKET = [
    _statement("Allow", "*", "s3:GetObject", "public/*"),
    _statement("Allow", "*", "s3:ListBucket", "*"),
    _statement("Allow", "team/*", "s3:*", "projects/*"),
    _statement("Allow", "admin", "*", "*"),
    _statement("Allow", "*", "s3:GetObject", "media/*.mp3"),
    _statement("Allow", "ci-*", "s3:PutObject", "builds/*"),
    _statement("Deny", "*", "s3:DeleteObject", "*"),
    _statement("Deny", "guest*", "*", "projects/*"),
    _statement("Deny", "*", "s3:PutObject", "builds/release/*"),
    _statement("Deny", "!admin", "*", "secrets/*"),
]


def _pair_step_folds(monkeypatch, added) -> tuple[int, int, int, RequestSet, RequestSet]:
    """With ``added`` appended to ``_BUCKET``: the cube differences of the two
    compiles, of the two full folds and of the pair step's two differences
    (compiles excluded), then those differences."""
    p1, p2 = (parse_policy(json.dumps({"Statement": s})) for s in (_BUCKET, _BUCKET + [added]))
    calls, real = [], requestsets._cube_difference

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(requestsets, "_cube_difference", counting)
    s1, s2 = compile_policy(p1), compile_policy(p2)
    compiling = len(calls)
    set_difference(s1, s2), set_difference(s2, s1)
    full = len(calls) - compiling
    calls.clear()
    _, _, first_only, second_only = policy_differences(p1, p2)
    return compiling, full, len(calls) - compiling, first_only, second_only


@pytest.mark.parametrize(
    "added",
    [
        _statement("Allow", "auditor", "s3:GetObject", "logs/*"),
        _statement("Allow", "*", "s3:GetObject", "logs/*"),
        _statement("Allow", "auditor", "s3:*", "*"),
    ],
)
def test_an_added_allow_folds_only_what_it_reaches(monkeypatch, added):
    """With an Allow added, ``s1 ∖ s2`` has an empty cancellation set and
    folds nothing, and ``s2 ∖ s1`` folds only the cubes the new statement
    reaches: the two differences make no more cube differences than the two
    compiles.  The full folds make four to five times as many."""
    compiling, _, folding, first_only, second_only = _pair_step_folds(monkeypatch, added)
    assert is_empty_set(first_only) and not is_empty_set(second_only)
    assert folding <= compiling


@pytest.mark.parametrize(
    "added",
    [
        _statement("Deny", "*", "s3:GetObject", "logs/*"),
        _statement("Deny", "guest*", "s3:*", "public/*"),
        _statement("Deny", "*", "*", "media/*"),
    ],
)
def test_an_added_deny_folds_only_what_it_reaches(monkeypatch, added):
    """With a Deny added, ``s2 ∖ s1`` has an empty cancellation set and
    folds nothing, and ``s1 ∖ s2`` folds only the cubes of ``s1`` the new
    statement meets: the two differences make fewer cube differences than
    the two full folds."""
    _, full, folding, first_only, second_only = _pair_step_folds(monkeypatch, added)
    assert not is_empty_set(first_only) and is_empty_set(second_only)
    assert folding < full


def _outcome(step, p1, p2):
    """The step's four sets, or the message of the blowup it raises."""
    try:
        return step(p1, p2)
    except (StateBlowup, CubeBlowup) as e:
        return f"{type(e).__name__}: {e}"


def _spy_on_cancellation(monkeypatch) -> list[str]:
    """Record each blowup the cancellation step raises, then raise it on."""
    real, raised = requestsets._cancelled_difference, []

    def cancelled(*args):
        try:
            return real(*args)
        except (StateBlowup, CubeBlowup) as e:
            raised.append(str(e))
            raise

    monkeypatch.setattr(requestsets, "_cancelled_difference", cancelled)
    return raised


@pytest.mark.parametrize(
    "first, second",
    [
        ("deny_all.json", "notaction_readonly.json"),
        ("notaction_readonly.json", "deny_all.json"),
        ("media_split_read.json", "notprincipal_secret.json"),
        ("notprincipal_secret.json", "media_split_read.json"),
    ],
)
def test_policy_differences_under_a_lowered_cap_equal_the_full_fold(monkeypatch, corpus, first, second):
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 16)
    p1, p2 = corpus[first], corpus[second]
    assert policy_differences(p1, p2) == _padded_differences(p1, p2)


def test_the_cancellation_step_blows_up_nowhere_the_full_fold_does_not(monkeypatch, corpus):
    """At a state cap of 16, ``deny_all`` against ``notaction_readonly`` folds
    within the cap: the step builds only products the full fold builds, so
    it returns the full fold's sets and raises nothing."""
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 16)
    raised = _spy_on_cancellation(monkeypatch)
    p1, p2 = corpus["deny_all.json"], corpus["notaction_readonly.json"]
    assert policy_differences(p1, p2) == _padded_differences(p1, p2)
    assert raised == []


def test_a_meet_test_past_the_state_cap_counts_as_a_meet(monkeypatch):
    """The two resource languages are disjoint, but their product passes a
    state cap of 16; the meet test then keeps the cube for the fold, which
    raises only where the full fold raises."""
    univ = universe_dfa()
    a, b = ((univ, univ, from_pattern(p)) for p in ("*a??", "*b??"))
    assert not requestsets._meets(a, b)
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 16)
    with pytest.raises(StateBlowup):
        from_pattern("*a??").intersect(from_pattern("*b??"))
    assert requestsets._meets(a, b)


def test_policy_differences_raise_only_what_the_full_fold_raises(monkeypatch, corpus):
    raised = _spy_on_cancellation(monkeypatch)
    outcomes = []
    for cap in (6, 16, 24):
        monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", cap)
        for p1, p2 in itertools.product(corpus.values(), repeat=2):
            got = _outcome(policy_differences, p1, p2)
            assert got == _outcome(_padded_differences, p1, p2)
            outcomes.append(isinstance(got, str))
    assert 0 < sum(outcomes) < len(outcomes) and raised


def test_decide_request_music(music_doc):
    req = {"principal": "alice", "action": "s3:GetObject", "resource": "mp3s/A1/song.mp3"}
    assert decide_request(music_doc, req) == Effect.ALLOW
    assert decide_request(music_doc, {**req, "resource": "secret.txt"}) == Effect.DENY
    assert decide_request(music_doc, {**req, "action": "s3:PutObject"}) == Effect.DENY
    assert decide_request(music_doc, {**req, "resource": "lyrics/A1/song.txt"}) == Effect.ALLOW


def test_decide_request_deny_wins():
    doc = parse_policy(
        '{"Statement": ['
        '{"Effect": "Allow", "Principal": "*", "Action": "*", "Resource": "*"},'
        '{"Effect": "Deny", "Principal": "*", "Action": "write", "Resource": "*"}]}'
    )
    assert decide_request(doc, {"action": "read"}) == Effect.ALLOW
    assert decide_request(doc, {"action": "write"}) == Effect.DENY


def test_decide_request_absent_condition_key():
    doc = parse_policy(
        '{"Statement": [{"Effect": "Allow", "Principal": "*", "Action": "*", "Resource": "*",'
        ' "Condition": {"StringNotEquals": {"env": "prod"}}}]}'
    )
    # an unsupplied key evaluates as the empty string, which is not "prod"
    assert decide_request(doc, {}) == Effect.ALLOW
    assert decide_request(doc, {"env": "prod"}) == Effect.DENY
    assert decide_request(doc, {"env": ""}) == Effect.ALLOW


def test_decide_matches_reference_on_corpus():
    probes = [
        {},
        {"principal": "alice", "action": "s3:GetObject", "resource": "mp3s/A1/a.mp3"},
        {"principal": "p", "action": "s3:DeleteObject", "resource": "logs/x"},
        {"principal": "root", "action": "web:Get", "resource": "site/index.html",
         "aws:Referer": "https://example.com/home"},
        {"principal": "ci", "action": "s3:PutObject", "resource": "builds/1", "env": "prod"},
        {"principal": "ci", "action": "s3:PutObject", "resource": "builds/1", "env": "dev"},
    ]
    for path in corpus_paths():
        doc = parse_policy(path.read_text())
        for req in probes:
            got = decide_request(doc, req) == Effect.ALLOW
            assert got == ref_decide(doc, req), (path.name, req)


def test_compare_equivalent(music_doc):
    verdict = compare_policies(music_doc, music_doc)
    assert verdict.kind == Permissiveness.EQUIVALENT
    assert verdict.witnesses_first == () and verdict.witnesses_second == ()


@pytest.mark.parametrize("count", [-1, -3])
def test_compare_rejects_negative_witness_count_before_any_work(music_doc, deny_all_doc, monkeypatch, count):
    # equivalent pair (no witnesses would be drawn) and non-equivalent pair
    pairs = [(music_doc, music_doc), (deny_all_doc, music_doc)]
    for p1, p2 in pairs:
        with pytest.raises(ValueError, match="non-negative"):
            compare_policies(p1, p2, count)

    def forbidden(*args, **kwargs):
        raise AssertionError("compiled a policy before checking witness_count")

    monkeypatch.setattr(requestsets, "_statement_cubes", forbidden)
    for p1, p2 in pairs:
        with pytest.raises(ValueError, match="non-negative"):
            compare_policies(p1, p2, count)


def test_compare_one_sided(music_doc, deny_all_doc):
    verdict = compare_policies(deny_all_doc, music_doc)
    assert verdict.kind == Permissiveness.SECOND_MORE_PERMISSIVE
    assert verdict.witnesses_first == ()
    assert 0 < len(verdict.witnesses_second) <= 3
    for req in verdict.witnesses_second:
        assert decide_request(music_doc, req) == Effect.ALLOW
        assert decide_request(deny_all_doc, req) == Effect.DENY
    flipped = compare_policies(music_doc, deny_all_doc)
    assert flipped.kind == Permissiveness.FIRST_MORE_PERMISSIVE


def test_compare_incomparable():
    p1 = parse_policy('{"Statement": [{"Effect": "Allow", "Principal": "*", "Action": "*", "Resource": "a/*"}]}')
    p2 = parse_policy('{"Statement": [{"Effect": "Allow", "Principal": "*", "Action": "*", "Resource": "b/*"}]}')
    verdict = compare_policies(p1, p2, witness_count=2)
    assert verdict.kind == Permissiveness.INCOMPARABLE
    assert verdict.witnesses_first and verdict.witnesses_second
    for req in verdict.witnesses_first:
        assert decide_request(p1, req) == Effect.ALLOW
        assert decide_request(p2, req) == Effect.DENY
    for req in verdict.witnesses_second:
        assert decide_request(p2, req) == Effect.ALLOW
        assert decide_request(p1, req) == Effect.DENY


def test_sample_requests_verified(music_doc):
    allowed, denied = sample_requests(music_doc, 3, seed=5)
    assert len(allowed) == 3 and len(denied) == 3
    for req in allowed:
        assert decide_request(music_doc, req) == Effect.ALLOW
    for req in denied:
        assert decide_request(music_doc, req) == Effect.DENY


def _hand_over(monkeypatch, call, requests):
    """Make the ``call``-th ``sample_from_set`` call (0-based) return
    ``requests``; the other calls sample as usual."""
    real = requestsets.sample_from_set
    calls = []

    def fake(x, k, seed=0):
        calls.append(x)
        return list(requests) if len(calls) == call + 1 else real(x, k, seed)

    monkeypatch.setattr(requestsets, "sample_from_set", fake)


@pytest.mark.parametrize("side", [0, 1], ids=["allowed", "denied"])
def test_sample_requests_rejects_a_request_outside_its_side(music_doc, monkeypatch, side):
    drawn = sample_requests(music_doc, 2, seed=5)
    # the side is handed the requests drawn for the other side
    _hand_over(monkeypatch, side, drawn[1 - side])
    with pytest.raises(RuntimeError, match="sampled request .* failed"):
        sample_requests(music_doc, 2, seed=5)


@pytest.mark.parametrize("side", [0, 1], ids=["first", "second"])
def test_compare_rejects_a_witness_outside_its_side(monkeypatch, side):
    p1 = parse_policy('{"Statement": [{"Effect": "Allow", "Principal": "*", "Action": "*", "Resource": "a/*"}]}')
    p2 = parse_policy('{"Statement": [{"Effect": "Allow", "Principal": "*", "Action": "*", "Resource": "b/*"}]}')
    verdict = compare_policies(p1, p2, witness_count=2)
    drawn = (verdict.witnesses_first, verdict.witnesses_second)
    assert all(drawn)
    _hand_over(monkeypatch, side, drawn[1 - side])
    with pytest.raises(RuntimeError, match="sampled request .* failed"):
        compare_policies(p1, p2, witness_count=2)


def test_sample_requests_edge_cases(music_doc, deny_all_doc):
    assert sample_requests(music_doc, 0) == ([], [])
    allowed, denied = sample_requests(deny_all_doc, 1)
    assert allowed == [] and len(denied) == 1  # the allowed side is empty
    allow_all = parse_policy('{"Statement": [{"Effect": "Allow", "Principal": "*", "Action": "*", "Resource": "*"}]}')
    allowed, denied = sample_requests(allow_all, 1)
    assert len(allowed) == 1 and denied == []  # the denied side is empty
    with pytest.raises(ValueError):
        sample_requests(music_doc, -1)


def test_sample_requests_zero_still_compiles(monkeypatch):
    # k == 0 samples nothing, but a policy that blows up still raises.
    doc = parse_policy('{"Statement": [{"Effect": "Allow", "Principal": "*", "Action": "*", "Resource": "*"}]}')

    def blowup(*args, **kwargs):
        raise CubeBlowup("cap")

    monkeypatch.setattr(requestsets, "set_difference", blowup)
    with pytest.raises(CubeBlowup):
        sample_requests(doc, 0)


def test_sample_from_set_small_language():
    singles = rs((d("a"), d("b"), d("c|d")))
    got = sample_from_set(singles, 10, seed=1)
    assert sorted(tuple(r.values()) for r in got) == [("a", "b", "c"), ("a", "b", "d")]
    assert sample_from_set(singles, 0) == []
    with pytest.raises(InsufficientLanguage):
        sample_from_set(empty_set(SCHEMA), 1)


@pytest.mark.parametrize("k", [-1, -3])
def test_sample_from_set_rejects_negative_k(k):
    with pytest.raises(ValueError):
        sample_from_set(rs((d("a"), d("b"), d("[cd]"))), k)
    with pytest.raises(ValueError):
        sample_from_set(empty_set(SCHEMA), k)


def test_sample_from_set_deterministic(music_doc):
    x = compile_policy(music_doc)
    assert sample_from_set(x, 4, seed=9) == sample_from_set(x, 4, seed=9)


def test_cube_cap_enforced(monkeypatch):
    x = rs((d("a"), d("a"), d("a")))
    monkeypatch.setattr(requestsets, "DEFAULT_CUBE_CAP", 1)
    with pytest.raises(CubeBlowup, match="cube cap of 1"):
        set_difference(rs((d("[ab]"), d("[ab]"), d("[ab]"))), x)


# -- operation cache -----------------------------------------------------------


def _cache_workload(docs):
    sets = [compile_policy(doc) for doc in docs]
    projections = [[project(x, dim) for dim in x.schema.dimensions] for x in sets]
    verdicts = [compare_policies(p1, p2) for p1, p2 in zip(docs, docs[1:])]
    return sets, projections, verdicts


def test_operation_cache_matches_uncached_path(monkeypatch):
    rng = random.Random(701)
    docs = [parse_policy(p.read_text()) for p in corpus_paths()]
    docs += [parse_policy(random_policy_text(rng)) for _ in range(30)]
    # One scope over everything, so entries are shared across policies too.
    with operation_cache() as cache:
        cached = _cache_workload(docs)
    assert cache.hits[Dfa.intersect] > 0
    # The oracle: every operation computed afresh, even inside a scope.
    monkeypatch.setattr(OperationCache, "get", lambda self, key, compute, *args: compute(*args))
    assert _cache_workload(docs) == cached


def test_a_scope_counts_the_cubes_set_difference_returns():
    doc = parse_policy(MUSIC_POLICY.read_text())
    with operation_cache() as scope:
        allowed = compile_policy(doc)  # one set_difference: allow cubes minus deny cubes
        denied = set_difference(universe_set(allowed.schema), allowed)
    assert scope.events["cubes"] == len(allowed.cubes) + len(denied.cubes) > 1


def test_repeated_clause_hits_the_cache():
    doc = parse_policy(
        '{"Statement": ['
        '{"Effect": "Allow", "Principal": "*", "Action": "s3:Get*", "Resource": "logs/*"},'
        '{"Effect": "Allow", "Principal": "*", "Action": "s3:List*", "Resource": "logs/*"}]}'
    )
    with operation_cache() as cache:
        compile_policy(doc)
    assert cache.hits[automata._compile_pattern] >= 1


def test_sample_requests_compiles_once(music_doc, monkeypatch):
    calls = []
    real = requestsets.compile_policy

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(requestsets, "compile_policy", counting)
    allowed, denied = sample_requests(music_doc, 3, seed=5)
    assert len(allowed) == 3 and len(denied) == 3
    assert len(calls) == 1


def test_policy_differences_under_lowered_caps_on_one_statement_edits(monkeypatch):
    """Under state caps 16 and 32 and cube caps 4 and 8, on one-statement
    edits in both orders, the pair step never raises where the full fold
    returns, and wherever it returns it gives the uncapped full fold's sets."""
    rng = random.Random("policy-differences/capped-edits")
    pairs = []
    for _ in range(8):
        stmts = _random_statements(rng) + _random_statements(rng)
        for edited in _edits(rng, stmts):
            docs = [parse_policy(json.dumps({"Statement": s})) for s in (stmts, edited)]
            pairs += [(p1, p2, _padded_differences(p1, p2)) for p1, p2 in itertools.permutations(docs)]
    outcomes = []
    for state_cap, cube_cap in itertools.product((16, 32), (4, 8)):
        monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", state_cap)
        monkeypatch.setattr(requestsets, "DEFAULT_CUBE_CAP", cube_cap)
        for p1, p2, uncapped in pairs:
            got, full = (_outcome(step, p1, p2) for step in (policy_differences, _padded_differences))
            if not isinstance(full, str):
                assert got == full == uncapped
            elif not isinstance(got, str):
                assert got == uncapped
            outcomes.append((isinstance(got, str), isinstance(full, str)))
    assert {(False, False), (False, True), (True, True)} <= set(outcomes)
