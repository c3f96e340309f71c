"""Regular-expression core: AST, surface-syntax parser, and printer.

The AST is deliberately small: union, concatenation, Kleene star, character
classes, epsilon, and the empty language.  Character classes are bitmask sets
over the printable-ASCII alphabet, so ``.`` and ranges stay O(1) in the tree.

Nodes are hash-consed: construction goes through the module-level
constructors (:func:`alt`, :func:`seq`, :func:`star`, :func:`char_class`) and
structurally identical subtrees are the *same object*.  Equality is therefore
identity, which keeps comparisons O(1) even on the very deep trees produced
by state elimination.  The constructors also apply the language-preserving
simplifications ``R·ε=R``, ``ε·R=R``, ``R∪∅=R``, ``∅·R=∅``, ``R·∅=∅``,
``∅*=ε``, ``ε*=ε`` and ``R∪R=R``, plus merging of adjacent character classes
and ``(R*)* = R*``.  Since they absorb ∅ (and the empty mask is ∅),
:data:`EMPTY` is the only node whose language is empty: a regex built through
them denotes ∅ exactly when it is ``EMPTY``.
"""

from __future__ import annotations

import weakref
from typing import Iterator

from .alphabet import FULL_MASK, char_bit, chars_of, check_string, mask_of
from .errors import AlphabetError, RegexSyntaxError, UnsupportedConstruct

EMPTY_TOKEN = "\u2205"  # printed form of the empty-language regex

# Quantifier expansions larger than this are rejected to keep ASTs bounded.
MAX_REPEAT = 64


class RegexAst:
    """Base class for regex nodes.  Instances are immutable, one object per tree (:func:`_intern`)."""

    __slots__ = ("__weakref__",)

    def __repr__(self) -> str:
        dag_nodes, tree_nodes = _sizes(self)
        if tree_nodes <= _REPR_TREE_NODES:
            return f"<regex {print_regex(self)!r}>"
        # Printing expands the DAG into its tree, which can be exponentially larger.
        return f"<regex {type(self).__name__}: {dag_nodes} DAG nodes, {tree_nodes} tree nodes>"


class Empty(RegexAst):
    __slots__ = ()


class Epsilon(RegexAst):
    __slots__ = ()


class CharClass(RegexAst):
    __slots__ = ("mask",)

    def __init__(self, mask: int) -> None:
        self.mask = mask


class Union(RegexAst):
    __slots__ = ("left", "right")

    def __init__(self, left: RegexAst, right: RegexAst) -> None:
        self.left = left
        self.right = right


class Concat(RegexAst):
    __slots__ = ("left", "right")

    def __init__(self, left: RegexAst, right: RegexAst) -> None:
        self.left = left
        self.right = right


class Star(RegexAst):
    __slots__ = ("inner",)

    def __init__(self, inner: RegexAst) -> None:
        self.inner = inner


EMPTY = Empty()
EPSILON = Epsilon()

_nodes: "weakref.WeakValueDictionary[tuple, RegexAst]" = weakref.WeakValueDictionary()


def _intern(cls: type, *fields: object) -> RegexAst:
    """The one ``cls(*fields)`` node, built only when none is alive yet."""
    key = (cls, *fields)
    node = _nodes.get(key)
    if node is None:
        node = _nodes[key] = cls(*fields)
    return node


def char_class(mask: int) -> RegexAst:
    """Class node for a non-empty mask; the empty mask is the empty language."""
    if mask == 0:
        return EMPTY
    if mask & ~FULL_MASK:
        raise AlphabetError("character class exceeds the 95-symbol alphabet")
    return _intern(CharClass, mask)


ANY_CHAR = char_class(FULL_MASK)


def alt(left: RegexAst, right: RegexAst) -> RegexAst:
    if left is EMPTY:
        return right
    if right is EMPTY:
        return left
    if left is right:
        return left
    if isinstance(left, CharClass) and isinstance(right, CharClass):
        return char_class(left.mask | right.mask)
    return _intern(Union, left, right)


def seq(left: RegexAst, right: RegexAst) -> RegexAst:
    if left is EMPTY or right is EMPTY:
        return EMPTY
    if left is EPSILON:
        return right
    if right is EPSILON:
        return left
    return _intern(Concat, left, right)


def star(inner: RegexAst) -> RegexAst:
    if inner is EMPTY or inner is EPSILON:
        return EPSILON
    if isinstance(inner, Star):
        return inner
    return _intern(Star, inner)


def literal(text: str) -> RegexAst:
    """Regex matching exactly ``text``."""
    node: RegexAst = EPSILON
    for ch in check_string(text):
        node = seq(node, char_class(char_bit(ch)))
    return node


def optional(r: RegexAst) -> RegexAst:
    return alt(r, EPSILON)


def plus(r: RegexAst) -> RegexAst:
    return seq(r, star(r))


def repeat(r: RegexAst, lo: int, hi: int | None) -> RegexAst:
    """Bounded repetition, expanded: R{m,n} = R^m · (R?)^(n-m); R{m,} = R^m · R*."""
    cap = lo if hi is None else hi
    if cap > MAX_REPEAT:
        raise UnsupportedConstruct(f"repetition bound {cap} exceeds the supported maximum {MAX_REPEAT}")
    node: RegexAst = EPSILON
    for _ in range(lo):
        node = seq(node, r)
    if hi is None:
        return seq(node, star(r))
    opt = optional(r)
    for _ in range(hi - lo):
        node = seq(node, opt)
    return node


def wildcard(text: str) -> RegexAst:
    """Wildcard pattern as a regex: ``*`` is any run of symbols, ``?`` any one."""
    node: RegexAst = EPSILON
    for ch in check_string(text):
        if ch == "*":
            node = seq(node, star(ANY_CHAR))
        elif ch == "?":
            node = seq(node, ANY_CHAR)
        else:
            node = seq(node, char_class(char_bit(ch)))
    return node


def union_children(r: RegexAst) -> list[RegexAst]:
    """Flatten nested binary unions into the full child list, breadth-first."""
    out: list[RegexAst] = []
    queue: list[RegexAst] = [r]
    i = 0
    while i < len(queue):
        node = queue[i]
        i += 1
        if isinstance(node, Union):
            queue.append(node.left)
            queue.append(node.right)
        else:
            out.append(node)
    return out


# --- surface syntax -------------------------------------------------------

_CLASS_SHORTHANDS = {
    "d": mask_of("0123456789"),
    "w": mask_of("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"),
    "s": char_bit(" "),
}
_QUANT_START = set("*+?{")


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> RegexSyntaxError:
        return RegexSyntaxError(f"{msg} at position {self.pos}")

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> RegexAst:
        """Parse alternatives up to the end of the text or an unmatched
        ``)``, which is left unconsumed.  One loop, no recursion: each open
        group pushes the alternatives and the sequence it interrupts, so
        nesting depth is bounded only by the text."""
        groups: list[tuple[RegexAst | None, RegexAst]] = []
        alts: RegexAst | None = None  # union of the alternatives before the last '|'
        node: RegexAst = EPSILON  # the sequence since then
        while True:
            ch = self.peek()
            if ch == "(":
                self.open_group()
                groups.append((alts, node))
                alts, node = None, EPSILON
            elif ch == "|":
                self.pos += 1
                alts = node if alts is None else alt(alts, node)
                node = EPSILON
            elif ch is None or ch == ")":
                body = node if alts is None else alt(alts, node)
                if not groups:
                    return body
                self.expect(")")
                alts, node = groups.pop()
                node = seq(node, self.parse_quantifiers(body))
            else:
                node = seq(node, self.parse_quantifiers(self.parse_atom()))

    def open_group(self) -> None:
        self.expect("(")
        if self.peek() == "?":
            self.pos += 1
            ch = self.peek()
            if ch == ":":
                self.pos += 1
            elif ch in ("=", "!", "<"):
                raise UnsupportedConstruct(f"lookaround is not supported (position {self.pos})")
            elif ch == "P":
                raise UnsupportedConstruct(f"named groups are not supported (position {self.pos})")
            else:
                raise UnsupportedConstruct(f"(?{ch}...) groups are not supported (position {self.pos})")

    def parse_quantifiers(self, node: RegexAst) -> RegexAst:
        quantified = False
        while True:
            ch = self.peek()
            if ch is None or ch not in _QUANT_START:
                return node
            if quantified:
                raise UnsupportedConstruct(
                    f"quantifier {ch!r} directly after a quantifier (lazy/possessive "
                    f"forms are not supported) at position {self.pos}"
                )
            if ch == "*":
                self.pos += 1
                node = star(node)
            elif ch == "+":
                self.pos += 1
                node = plus(node)
            elif ch == "?":
                self.pos += 1
                node = optional(node)
            else:
                node = self.parse_braces(node)
            quantified = True

    def parse_braces(self, node: RegexAst) -> RegexAst:
        self.expect("{")
        lo = self.parse_int()
        hi: int | None
        if self.peek() == ",":
            self.pos += 1
            if self.peek() == "}":
                hi = None
            else:
                hi = self.parse_int()
                if hi < lo:
                    raise self.error(f"bad repetition range {{{lo},{hi}}}")
        else:
            hi = lo
        self.expect("}")
        return repeat(node, lo, hi)

    def parse_int(self) -> int:
        start = self.pos
        while (c := self.peek()) is not None and c.isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number in {...} quantifier")
        return int(self.text[start : self.pos])

    def parse_atom(self) -> RegexAst:
        """One atom other than a group; the text does not end here."""
        ch = self.peek()
        if ch == "[":
            return self.parse_class()
        if ch == ".":
            self.pos += 1
            return ANY_CHAR
        if ch == "\\":
            self.pos += 1
            return char_class(self.parse_escape())
        if ch in _QUANT_START:
            raise self.error(f"quantifier {ch!r} has nothing to repeat")
        if ch == "}" or ch == "]":
            raise self.error(f"unmatched {ch!r}")
        self.pos += 1
        try:
            return char_class(char_bit(ch))
        except AlphabetError:
            raise AlphabetError(
                f"character {ch!r} at position {self.pos - 1} outside printable ASCII 32-126"
            ) from None

    def parse_escape(self) -> int:
        """Mask denoted by the escape following a consumed backslash."""
        ch = self.peek()
        if ch is None:
            raise self.error("dangling backslash")
        self.pos += 1
        if ch in _CLASS_SHORTHANDS:
            return _CLASS_SHORTHANDS[ch]
        if ch in ("D", "W", "S"):
            return FULL_MASK & ~_CLASS_SHORTHANDS[ch.lower()]
        if ch.isdigit():
            raise UnsupportedConstruct(f"backreference \\{ch} is not supported (position {self.pos})")
        if ch in ("n", "t", "r", "f", "v", "0"):
            raise AlphabetError(f"escape \\{ch} denotes a character outside printable ASCII 32-126")
        if ch.isalpha():
            raise UnsupportedConstruct(f"escape \\{ch} is not supported (position {self.pos})")
        return char_bit(ch)

    def parse_class(self) -> RegexAst:
        self.expect("[")
        negated = False
        if self.peek() == "^":
            negated = True
            self.pos += 1
        mask = 0
        saw_item = False
        while True:
            ch = self.peek()
            if ch is None:
                raise self.error("unterminated character class")
            if ch == "]":
                self.pos += 1
                break
            item = self.parse_class_item()
            # A '-' between two single characters forms a range.
            if (
                item[1] is not None
                and self.peek() == "-"
                and self.pos + 1 < len(self.text)
                and self.text[self.pos + 1] != "]"
            ):
                self.pos += 1
                hi_item = self.parse_class_item()
                if hi_item[1] is None:
                    raise self.error("bad range endpoint in character class")
                lo_c, hi_c = item[1], hi_item[1]
                if ord(lo_c) > ord(hi_c):
                    raise self.error(f"reversed range {lo_c}-{hi_c} in character class")
                mask |= mask_of("".join(chr(c) for c in range(ord(lo_c), ord(hi_c) + 1)))
            else:
                mask |= item[0]
            saw_item = True
        if not saw_item:
            raise self.error("empty character class")
        if negated:
            mask = FULL_MASK & ~mask
        return char_class(mask)

    def parse_class_item(self) -> tuple[int, str | None]:
        """One class member: (mask, single-char-or-None for range endpoints)."""
        ch = self.take()
        if ch == "\\":
            mask = self.parse_escape()
            if mask.bit_count() == 1:
                return mask, chars_of(mask)
            return mask, None
        try:
            return char_bit(ch), ch
        except AlphabetError:
            raise AlphabetError(
                f"character {ch!r} in class outside printable ASCII 32-126"
            ) from None


def parse_regex(text: str) -> RegexAst:
    """Parse surface syntax into the core AST.

    Full-match semantics: a single leading ``^`` and trailing unescaped ``$``
    are accepted and ignored; ``^``/``$`` anywhere else are literal
    characters.  The standalone token ``∅`` denotes the empty language.
    """
    if not text:
        raise RegexSyntaxError("empty regex text")
    if text.strip() == EMPTY_TOKEN:
        return EMPTY
    body = text
    if body.startswith("^"):
        body = body[1:]
    if body.endswith("$"):
        backslashes = 0
        i = len(body) - 2
        while i >= 0 and body[i] == "\\":
            backslashes += 1
            i -= 1
        if backslashes % 2 == 0:
            body = body[:-1]
    parser = _Parser(body)
    node = parser.parse()
    if parser.pos != len(body):
        raise parser.error(f"unexpected {parser.peek()!r}")
    return node


# --- printing -------------------------------------------------------------

_LEVEL_ALT, _LEVEL_SEQ, _LEVEL_REP, _LEVEL_ATOM = 0, 1, 2, 3

_SINGLETON_ESCAPES = set("\\.*+?()[]{}|^$")
_CLASS_ESCAPES = set("\\]-^")


def escape_literal(text: str) -> str:
    """Escape ``text`` so it parses as that exact literal string."""
    out = []
    for ch in check_string(text):
        if ch in _SINGLETON_ESCAPES:
            out.append("\\")
        out.append(ch)
    return "".join(out)


def _ranges(mask: int) -> Iterator[tuple[int, int]]:
    chars = chars_of(mask)
    i = 0
    while i < len(chars):
        j = i
        while j + 1 < len(chars) and ord(chars[j + 1]) == ord(chars[j]) + 1:
            j += 1
        yield ord(chars[i]), ord(chars[j])
        i = j + 1


def _class_body(mask: int) -> str:
    out = []
    for lo, hi in _ranges(mask):
        for code in ((lo, hi) if hi - lo >= 2 else range(lo, hi + 1)):
            ch = chr(code)
            out.append("\\" + ch if ch in _CLASS_ESCAPES else ch)
            if hi - lo >= 2 and code == lo:
                out.append("-")
    return "".join(out)


def _class_text(mask: int) -> str:
    if mask == FULL_MASK:
        return "."
    if mask.bit_count() == 1:
        ch = chars_of(mask)
        return "\\" + ch if ch in _SINGLETON_ESCAPES else ch
    positive = "[" + _class_body(mask) + "]"
    negative = "[^" + _class_body(FULL_MASK & ~mask) + "]"
    return negative if len(negative) < len(positive) else positive


# A repr prints the regex only while the tree it expands to has at most this many nodes.
_REPR_TREE_NODES = 10_000


def _sizes(r: RegexAst) -> tuple[int, int]:
    """Distinct nodes of ``r``'s DAG, and nodes of the tree it expands to.

    Each node's tree size is memoized, so the walk is linear in the DAG."""
    tree: dict[RegexAst, int] = {}
    stack = [r]
    while stack:
        node = stack[-1]
        if node in tree:
            stack.pop()
            continue
        if isinstance(node, (Union, Concat)):
            kids: tuple[RegexAst, ...] = (node.left, node.right)
        elif isinstance(node, Star):
            kids = (node.inner,)
        else:
            kids = ()
        pending = [k for k in kids if k not in tree]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        tree[node] = 1 + sum(tree[k] for k in kids)
    return len(tree), tree[r]


def print_regex(r: RegexAst) -> str:
    """Surface syntax for ``r``; ``parse_regex(print_regex(r))`` has the same language.

    Parenthesization is minimal by precedence (star > concat > union);
    ``R ∪ ε`` prints as ``R?`` and epsilon as the empty group ``()``.
    """
    out: list[str] = []
    # Stack items are either literal text or (node, required precedence level).
    stack: list[str | tuple[RegexAst, int]] = [(r, _LEVEL_ALT)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, level = item
        if node is EMPTY:
            out.append(EMPTY_TOKEN)
        elif node is EPSILON:
            out.append("()")
        elif isinstance(node, CharClass):
            out.append(_class_text(node.mask))
        else:
            # each operator's parts and its own level, wrapped when it sits below its parent's
            parts: list[str | tuple[RegexAst, int]]
            if isinstance(node, Star):
                own, parts = _LEVEL_REP, [(node.inner, _LEVEL_ATOM), "*"]
            elif isinstance(node, Union) and (node.right is EPSILON or node.left is EPSILON):
                body = node.left if node.right is EPSILON else node.right
                own, parts = _LEVEL_REP, [(body, _LEVEL_ATOM), "?"]
            elif isinstance(node, Union):
                own, parts = _LEVEL_ALT, [(node.left, _LEVEL_ALT), "|", (node.right, _LEVEL_ALT)]
            elif isinstance(node, Concat):
                own, parts = _LEVEL_SEQ, [(node.left, _LEVEL_SEQ), (node.right, _LEVEL_SEQ)]
            else:  # pragma: no cover - exhaustive over node kinds
                raise TypeError(f"not a regex node: {node!r}")
            if level > own:
                parts = ["(", *parts, ")"]
            stack.extend(reversed(parts))
    return "".join(out)
