from __future__ import annotations

import re
import signal

import pytest
from hypothesis import given, settings, strategies as st

from policylens.alphabet import FULL_MASK, char_bit, mask_of
from policylens.automata import from_regex
from policylens.errors import AlphabetError, RegexSyntaxError, UnsupportedConstruct
from policylens.regex import (
    _REPR_TREE_NODES,
    EMPTY,
    EMPTY_TOKEN,
    EPSILON,
    CharClass,
    Concat,
    Star,
    Union,
    alt,
    char_class,
    escape_literal,
    literal,
    parse_regex,
    plus,
    print_regex,
    repeat,
    seq,
    star,
    _sizes,
    union_children,
    wildcard,
)

from oracles import re_accepts, strings_up_to


def chars(s: str) -> CharClass:
    return char_class(mask_of(s))


def test_interning_makes_equal_trees_identical():
    a = seq(literal("ab"), star(chars("xy")))
    b = seq(literal("ab"), star(chars("xy")))
    assert a is b


def test_smart_constructor_identities():
    a = literal("a")
    assert alt(a, EMPTY) is a
    assert alt(EMPTY, a) is a
    assert alt(a, a) is a
    assert seq(a, EPSILON) is a
    assert seq(EPSILON, a) is a
    assert seq(a, EMPTY) is EMPTY
    assert seq(EMPTY, a) is EMPTY
    assert star(EMPTY) is EPSILON
    assert star(EPSILON) is EPSILON
    assert star(star(a)) is star(a)


def test_char_class_union_merges():
    assert alt(chars("a"), chars("b")) is chars("ab")


def test_union_children_flattens_breadth_first():
    one, two, three, four, five = (literal(c) for c in "12345")
    nested = Union(one, Union(two, Union(three, Union(four, five))))
    assert union_children(nested) == [one, two, three, four, five]


def test_parse_simple_alternation_and_quantifiers():
    r = parse_regex("a+")
    assert isinstance(r, Concat)
    assert isinstance(r.right, Star)
    assert re_accepts(r, "aaa") and not re_accepts(r, "")

    r = parse_regex("ab?c")
    for s in ("abc", "ac"):
        assert re_accepts(r, s)
    assert not re_accepts(r, "abbc")


def test_parse_classes_and_dot():
    r = parse_regex("[a-c]x")
    for s in ("ax", "bx", "cx"):
        assert re_accepts(r, s)
    assert not re_accepts(r, "dx")

    dot = parse_regex(".")
    assert isinstance(dot, CharClass) and dot.mask == FULL_MASK

    neg = parse_regex("[^a]")
    assert isinstance(neg, CharClass)
    assert neg.mask == FULL_MASK & ~char_bit("a")


def test_parse_class_escapes_and_shorthands():
    assert parse_regex(r"\d").mask == mask_of("0123456789")
    assert parse_regex(r"[\d]").mask == mask_of("0123456789")
    assert parse_regex(r"\D").mask == FULL_MASK & ~mask_of("0123456789")
    assert parse_regex(r"\s").mask == mask_of(" ")
    assert parse_regex(r"[a\-c]").mask == mask_of("a-c")
    assert parse_regex(r"[\]]").mask == mask_of("]")


def test_parse_repetition_expansion():
    r = parse_regex("a{2,4}")
    for n, ok in ((1, False), (2, True), (3, True), (4, True), (5, False)):
        assert re_accepts(r, "a" * n) == ok
    r = parse_regex("a{3}")
    assert re_accepts(r, "aaa") and not re_accepts(r, "aa")
    r = parse_regex("a{2,}")
    assert re_accepts(r, "a" * 7) and not re_accepts(r, "a")


def test_parse_repetition_cap():
    with pytest.raises(UnsupportedConstruct):
        parse_regex("a{65}")
    with pytest.raises(UnsupportedConstruct):
        parse_regex("a{1,100}")
    parse_regex("a{64}")  # at the cap


def test_parse_anchors_ignored_at_ends_only():
    assert parse_regex("^abc$") is literal("abc")
    assert parse_regex("abc") is literal("abc")
    # inner anchors are plain characters
    assert re_accepts(parse_regex("a^b"), "a^b")
    assert re_accepts(parse_regex("a$b"), "a$b")
    # an escaped trailing dollar is a literal
    assert re_accepts(parse_regex(r"ab\$"), "ab$")


def test_parse_group_forms():
    assert parse_regex("(?:ab)c") is literal("abc")
    with pytest.raises(UnsupportedConstruct):
        parse_regex("a(?=b)")
    with pytest.raises(UnsupportedConstruct):
        parse_regex("a(?!b)")
    with pytest.raises(UnsupportedConstruct):
        parse_regex("(?P<x>a)")
    with pytest.raises(UnsupportedConstruct):
        parse_regex(r"(a)\1")
    with pytest.raises(UnsupportedConstruct):
        parse_regex("a*?")
    with pytest.raises(UnsupportedConstruct):
        parse_regex("a++")


def test_parse_syntax_errors():
    for bad in ("", "(", ")", "a)", "*a", "a{", "a{2", "[", "[]", "[z-a]", "a{4,2}"):
        with pytest.raises(RegexSyntaxError):
            parse_regex(bad)


def test_unbalanced_groups_are_syntax_errors():
    with pytest.raises(RegexSyntaxError, match=r"^expected '\)' at position 5000$"):
        parse_regex("(" * 5000)
    with pytest.raises(RegexSyntaxError, match=r"^unexpected '\)' at position 0$"):
        parse_regex(")")
    with pytest.raises(RegexSyntaxError, match=r"^expected '\)' at position 11$"):
        parse_regex("not(a regex")


# Trees deeper than the interpreter's recursion limit, shared with the sampler and kernel tests.
def _nested_unions(depth: int):
    r = literal("z")
    for _ in range(depth):
        r = alt(seq(literal("a"), r), literal("b"))
    return r


def _nested_stars(depth: int):
    r = literal("z")
    for _ in range(depth):
        r = star(seq(literal("a"), r))
    return r


def _nested_star_unions(depth: int):
    r = literal("z")
    for _ in range(depth):
        r = star(alt(r, literal("ya")))
    return r


@pytest.mark.parametrize(
    "r",
    [_nested_star_unions(300), _nested_stars(300), _nested_unions(1500)],
    ids=["star-unions-300", "stars-300", "unions-1500"],
)
def test_deeply_nested_regex_parses_back_to_itself(r):
    # The parser keeps open groups on its own stack, not on the interpreter's.
    assert parse_regex(print_regex(r)) is r


def test_parse_alphabet_errors():
    with pytest.raises(AlphabetError):
        parse_regex("a\tb")
    with pytest.raises(AlphabetError):
        parse_regex(r"a\nb")
    with pytest.raises(AlphabetError):
        parse_regex("café")


def test_empty_token_round_trip():
    assert parse_regex(EMPTY_TOKEN) is EMPTY
    assert print_regex(EMPTY) == EMPTY_TOKEN


def test_print_precedence_examples():
    a, b = CharClass(char_bit("a")), CharClass(char_bit("b"))
    assert print_regex(Union(a, b)) == "a|b"
    assert print_regex(Star(Union(a, b))) == "(a|b)*"
    assert print_regex(Concat(Union(a, b), a)) == "(a|b)a"
    assert print_regex(Union(a, EPSILON)) == "a?"
    assert print_regex(Star(Union(a, EPSILON))) == "(a?)*"
    assert print_regex(EPSILON) == "()"


def test_print_escapes_metacharacters():
    r = literal("a.b*c$")
    assert print_regex(r) == r"a\.b\*c\$"
    assert parse_regex(print_regex(r)) is r


def test_repr_prints_a_small_regex():
    assert repr(parse_regex("a(b|c)*d?")) == "<regex 'a[bc]*d?'>"
    assert repr(EMPTY) == "<regex '\u2205'>"
    x = star(literal("ab"))
    assert _sizes(seq(x, x)) == (5, 9)  # the shared star is counted once in the DAG
    limit = _REPR_TREE_NODES
    at_limit = literal("a" * ((limit + 1) // 2))  # n characters: 2n - 1 tree nodes
    assert _sizes(at_limit)[1] <= limit
    assert repr(at_limit) == f"<regex {print_regex(at_limit)!r}>"
    over = seq(at_limit, literal("bb"))
    dag, tree = _sizes(over)
    assert tree > limit
    assert repr(over) == f"<regex Concat: {dag} DAG nodes, {tree} tree nodes>"


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_repr_of_a_large_extracted_regex_returns_quickly():
    from policylens.automata import from_pattern

    r = from_pattern("*a?????").extract_regex()  # printing it does not finish

    def too_slow(*_):
        raise AssertionError("repr printed the expanded tree")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(20)
    try:
        text = repr(r)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert re.fullmatch(r"<regex Union: \d+ DAG nodes, \d+ tree nodes>", text), text


def test_escape_literal_round_trip():
    text = r"p(q)[r]{s}|t*u+v?w.x^y$z\-"
    assert parse_regex(escape_literal(text)) is literal(text)


def test_wildcard_building():
    assert wildcard("a*b") is seq(seq(literal("a"), star(parse_regex("."))), literal("b"))
    assert wildcard("?") is parse_regex(".")


def test_plus_and_repeat_helpers():
    a = literal("a")
    assert plus(a) is seq(a, star(a))
    assert repeat(a, 0, 2) is seq(alt(a, EPSILON), alt(a, EPSILON))


# -- property tests ----------------------------------------------------------

SMALL = "abc"


def ast_strategy(*extra_leaves) -> st.SearchStrategy:
    # Literal runs and stars over one class are frequent leaves, since the
    # sampler compiles each into one instruction.
    leaves = st.sampled_from(
        [
            *extra_leaves,
            literal("a"),
            literal("b"),
            literal("c"),
            literal("ab"),
            literal("cab"),
            chars("ab"),
            chars(SMALL),
            star(chars("a")),
            star(chars(SMALL)),
            EPSILON,
        ]
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: alt(*t)),
            st.tuples(inner, inner).map(lambda t: seq(*t)),
            inner.map(star),
        ),
        max_leaves=12,
    )


@settings(max_examples=150, deadline=None)
@given(ast_strategy(EMPTY))
def test_empty_is_the_only_node_with_an_empty_language(r):
    # The constructors absorb ∅, so no other node denotes the empty language.
    assert (r is EMPTY) == from_regex(r).is_empty()


@settings(max_examples=120, deadline=None)
@given(ast_strategy())
def test_print_parse_preserves_language(r):
    reparsed = parse_regex(print_regex(r)) if r is not EMPTY else EMPTY
    for s in strings_up_to(SMALL, 3):
        assert re_accepts(reparsed, s) == re_accepts(r, s)


@settings(max_examples=80, deadline=None)
@given(ast_strategy())
def test_desugar_plus_opt_matches_python_semantics(r):
    import re as pyre

    from oracles import to_python_re

    body = print_regex(r)
    base = to_python_re(r)
    plus_engine = parse_regex(f"({body})+")
    opt_engine = parse_regex(f"({body})?")
    plus_py = pyre.compile(f"(?:{base})+")
    opt_py = pyre.compile(f"(?:{base})?")
    for s in strings_up_to(SMALL, 3):
        assert re_accepts(plus_engine, s) == bool(plus_py.fullmatch(s))
        assert re_accepts(opt_engine, s) == bool(opt_py.fullmatch(s))
