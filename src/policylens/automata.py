"""Deterministic finite automata over the 95-symbol printable-ASCII alphabet.

Every :class:`Dfa` is *total* (each state has an outgoing transition for every
alphabet symbol, grouped into disjoint character-class masks) and *canonical*
(trimmed, minimized, states numbered breadth-first from the start state with
edges ordered by lowest class member).  Canonical form makes structural
equality coincide with language equality and makes emptiness a check of the
accepting set.  State 0 is always the start state.

Construction paths: one worklist kernel, :func:`_explore`, numbers the states
of every automaton built here, in the order it discovers them from state 0,
with each row's edges ordered by lowest class member, as a canonical DFA's
are.  A regex (:func:`from_regex`; a policy clause is one
alternation) compiles by subset construction over its Glushkov positions,
which need no ε-closures.  :meth:`Dfa.intersect` is the one product: a pair's
row is the nonzero intersections of its two rows' masks (:func:`_pair_moves`).
It explores only pairs of live states (:func:`_live_edges`): every edge into a
pair with a dead side goes to one sink, and a dead start pair is ∅ at once.
As complements are free on canonical total DFAs, the product serves all
three operations: :meth:`Dfa.difference` is ``a ∩ ¬b``, and :func:`union` is
``¬(¬a ∩ ¬b ∩ …)``, a balanced fold of products.  A product whose explored
table is an operand's own table is that operand, so ``a.intersect(a)`` is
``a``; any other table is minimized by Hopcroft refinement.
The tests check the table builders and every product against the oracles'
kernels.  The kernel is the one place that raises
:class:`~policylens.errors.StateBlowup` on states, when more are reachable than
:data:`DEFAULT_STATE_CAP` (the sink counts as one), in whatever order;
:func:`_positions` raises it past :data:`DEFAULT_POSITION_CAP` positions.  Each
cap is read when checked, so a test can lower it.

Model counting: :func:`_count_common` counts the strings of length at most
``bound`` that two deterministic tables both accept, by walking their product
level by level without minimizing it.  It keeps the product's live pairs, with
no sink, and :func:`_explore` numbers those within ``bound`` steps, each edge
then weighted by the size of its mask.  Pairs further away are never numbered,
so they cannot pass the state cap.  The walk stops at the first empty level, so
a finite language costs its longest string.  :meth:`Dfa.count_models` is this
walk against the universe.  :func:`similarity_counts` is the one scoring
function: it walks a candidate regex's unminimized subset table
(:func:`_subset_rows`) against the exact language and against the universe, for
the (intersection, union) counts behind a Jaccard similarity.  The tests check
the walk against the earlier walk it replaced, the product-then-count path and
exhaustive enumeration.

Operation cache: a function decorated :func:`memoized` is memoized on
``(function, *arguments)`` inside an :func:`operation_cache` scope, whose one
table holds everything derived.  The memoized functions are the one product,
:meth:`Dfa.intersect` (so a difference, and each step of a union, is stored
as the intersection it runs), :meth:`Dfa.complement`, a DFA's live-edge table
(:attr:`Dfa.live_edges`), :meth:`Dfa.count_models`, :meth:`Dfa.extract_regex`,
pattern compilation (:func:`from_pattern`), :func:`_intern`, the sampler's
draw programs, and the summarizer's candidate parses and scores.  The
policy-level entry points (compilation, comparison, sampling, summarization)
each enter a scope, and the CLI runs every command in one, its context: the
scope also times stages (:meth:`OperationCache.stage`) and counts engine
events (:func:`_count`; :meth:`OperationCache.stats`).  Nested scopes share
the outermost one's table, dropped when it exits, so memory is bounded by one
command's work and there is no size setting.  Cached values are the ones a
fresh call returns, and a call that raises stores nothing.  No key holds the
state cap: one command runs under one cap.  Canonicalization and
:meth:`Dfa.complement` pass each DFA through :func:`_intern`, a memoized
identity: the first object built for a language is the one every later build
returns, so ``¬¬a is a`` for a DFA built in the scope.  Outside a scope every
call is computed afresh and no object stands for its language: there
``¬¬a`` only equals ``a``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import AbstractSet, Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .alphabet import FULL_MASK, char_bit
from .errors import StateBlowup
from .regex import (
    EMPTY,
    EPSILON,
    CharClass,
    Concat,
    Epsilon,
    Empty,
    RegexAst,
    Star,
    alt,
    char_class,
    seq,
    star,
    wildcard,
)

DEFAULT_STATE_CAP = 100_000
DEFAULT_POSITION_CAP = 100_000  # the corpus, benchmark inputs and CLI cases reach 2,401

_Row = tuple[tuple[int, int], ...]  # ((mask, target), ...) partitioning the alphabet
_Pair = tuple[int, int]
_Rows = Sequence[Sequence[tuple[int, int]]]
# A deterministic table read from start state 0: its rows and accepting states.
_Table = tuple[_Rows, AbstractSet[int]]


# -- operation cache -----------------------------------------------------------

_T = TypeVar("_T")
_K = TypeVar("_K", bound=Hashable)
_MISSING = object()


class OperationCache:
    """The context of one :func:`operation_cache` scope: its memo table, with
    hit and miss counts per memoized function (the first element of every
    key), the seconds of its timed stages, and its engine events' counts."""

    __slots__ = ("table", "hits", "misses", "events", "timings", "started")

    def __init__(self) -> None:
        # ∅ and U stay the module's objects
        self.table: dict[Hashable, object] = {(_intern, d): d for d in (_EMPTY_DFA, _UNIVERSE_DFA)}
        self.hits: Counter[Callable[..., object]] = Counter()
        self.misses: Counter[Callable[..., object]] = Counter()
        events = ("states", "splits", "cubes", "draws", "provider_calls", "provider_failures", "http_retries")
        self.events: Counter[str] = Counter(dict.fromkeys(events, 0))  # each added to by _count
        self.timings: dict[str, float] = {}
        self.started = time.perf_counter()

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time the block as stage ``name``, in wall-clock seconds."""
        t0 = time.perf_counter()
        yield
        self.timings[name] = time.perf_counter() - t0

    def stats(self) -> dict[str, int]:
        """The events' counts and the products run and served from the cache, by name, sorted."""
        products = {"products": self.misses[_PRODUCT], "products_cached": self.hits[_PRODUCT]}
        return dict(sorted({**products, **self.events}.items()))

    def get(self, key: tuple[Hashable, ...], compute: Callable[..., _T], *args: object) -> _T:
        value = self.table.get(key, _MISSING)
        if value is _MISSING:
            self.misses[key[0]] += 1
            value = self.table[key] = compute(*args)
        else:
            self.hits[key[0]] += 1
        return value  # type: ignore[return-value]


_ACTIVE: ContextVar[OperationCache | None] = ContextVar("policylens_operation_cache", default=None)


@contextmanager
def operation_cache() -> Iterator[OperationCache]:
    """Scope in which :func:`memoized` functions are memoized.

    Re-entrant: an inner scope yields the enclosing scope's cache.  The cache
    is dropped when the outermost scope exits, by return or by exception.
    Also usable as a decorator, ``@operation_cache()``."""
    cache = _ACTIVE.get()
    if cache is not None:
        yield cache
        return
    cache = OperationCache()
    token = _ACTIVE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE.reset(token)


def _count(event: str, n: int = 1) -> None:
    """Add ``n`` to ``event``'s count in the active scope; nothing outside one."""
    if (scope := _ACTIVE.get()) is not None:
        scope.events[event] += n


def memoized(fn: Callable[..., _T]) -> Callable[..., _T]:
    """``fn``, memoized in the active operation cache on ``(memoized fn,
    *arguments)``; outside a scope each call computes afresh.  The arguments
    are positional (``/`` in a public signature says so) and hashable."""

    @functools.wraps(fn)
    def call(*args: Hashable) -> _T:
        cache = _ACTIVE.get()
        if cache is None:
            return fn(*args)
        return cache.get((call, *args), fn, *args)

    return call


@memoized
def _intern(d: Dfa) -> Dfa:
    """The first object built for ``d``'s language in the active scope; ``d`` outside one."""
    return d


class Dfa:
    """Canonical total DFA.  Build via :func:`from_regex`, :func:`from_pattern`
    or the set operations; the raw constructor assumes the arguments are
    already canonical."""

    __slots__ = ("transitions", "accepting", "_hash")

    def __init__(self, transitions: tuple[_Row, ...], accepting: frozenset[int]) -> None:
        self.transitions = transitions
        self.accepting = accepting
        self._hash = hash((transitions, accepting))  # memo keys hash it again and again

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Dfa):
            return NotImplemented
        return self._hash == other._hash and self.transitions == other.transitions and self.accepting == other.accepting

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Dfa states={len(self.transitions)} accepting={sorted(self.accepting)}>"

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    @property
    @memoized
    def live_edges(self) -> list[list[tuple[int, int]]] | None:
        """The live-edge table (:func:`_live_edges`)."""
        return _live_edges(self.table)

    # -- language predicates ------------------------------------------------

    def is_empty(self) -> bool:
        """Canonical form guarantees: empty language iff nothing accepts."""
        return not self.accepting

    def accepts(self, text: str) -> bool:
        state = 0
        for ch in text:
            bit = char_bit(ch)
            for mask, target in self.transitions[state]:
                if mask & bit:
                    state = target
                    break
        return state in self.accepting

    # -- boolean algebra ------------------------------------------------------

    @memoized
    def complement(self) -> "Dfa":
        # A minimal, total, BFS-numbered DFA stays canonical when flipped.
        return _intern(Dfa(self.transitions, frozenset(range(self.state_count)) - self.accepting))

    @memoized
    def intersect(self, other: "Dfa", /) -> "Dfa":
        """The one product: the pairs of live states reachable from (0, 0),
        accepting where both sides accept, and one sink for every dead pair.
        As :func:`_explore` numbers a copy of an operand as the operand is
        numbered, a table equal to an operand's returns it, ``self`` first."""
        a_edges, b_edges = self.live_edges, other.live_edges
        if a_edges is None or b_edges is None:
            return _EMPTY_DFA
        pairs, rows = _explore((0, 0), _pair_moves(a_edges, b_edges, True), "product construction")
        accepting = {i for i, (p, q) in enumerate(pairs) if p in self.accepting and q in other.accepting}
        for operand in (self, other):
            if len(rows) == operand.state_count and accepting == operand.accepting:
                if all(tuple(row) == t for row, t in zip(rows, operand.transitions)):
                    return operand
        return _canonicalize(rows, accepting)

    def difference(self, other: "Dfa") -> "Dfa":
        return self.intersect(other.complement())

    # -- analyses -------------------------------------------------------------

    @memoized
    def count_models(self, bound: int, /) -> int:
        """Exact number of accepted strings of length 0 through ``bound``."""
        return _count_common(self, _UNIVERSE_DFA, bound)

    @property
    def table(self) -> _Table:
        """The transitions and accepting states, as a table to count over."""
        return self.transitions, self.accepting

    @memoized
    def extract_regex(self) -> RegexAst:
        """Equivalent regex by state elimination.

        Dead states are dropped up front; interior states are eliminated in
        order of smallest in-degree times out-degree (ties broken by lowest
        state id), which keeps intermediate labels small and the output
        deterministic.
        """
        if not self.accepting:
            return EMPTY
        n = len(self.transitions)
        edges = self.live_edges  # a state accepts, so the start is live

        init, final = n, n + 1
        out: dict[int, dict[int, RegexAst]] = defaultdict(dict)
        inc: dict[int, set[int]] = defaultdict(set)

        def add(i: int, j: int, r: RegexAst) -> None:
            out[i][j] = alt(out[i].get(j, EMPTY), r)
            inc[j].add(i)

        add(init, 0, EPSILON)
        for s in self.accepting:
            add(s, final, EPSILON)
        for s, row in enumerate(edges[:n]):  # type: ignore[index]
            for mask, t in row:
                add(s, t, char_class(mask))

        remaining = [s for s in range(n) if edges[s] or s in self.accepting]  # type: ignore[index]
        while remaining:
            q = min(
                remaining,
                key=lambda s: (
                    sum(1 for i in inc[s] if i != s) * sum(1 for j in out[s] if j != s),
                    s,
                ),
            )
            remaining.remove(q)
            loop = star(out[q].pop(q, EMPTY))
            inc[q].discard(q)
            preds = sorted(inc[q])
            succs = sorted((j, r) for j, r in out[q].items())
            for i in preds:
                r_iq = out[i].pop(q)
                for j, r_qj in succs:
                    add(i, j, seq(r_iq, seq(loop, r_qj)))
            for j, _ in succs:
                inc[j].discard(q)
            del out[q]
            del inc[q]
        return out[init].get(final, EMPTY)


_PRODUCT = Dfa.intersect  # the memo key of the one product
_EMPTY_DFA = Dfa((((FULL_MASK, 0),),), frozenset())
_UNIVERSE_DFA = Dfa((((FULL_MASK, 0),),), frozenset({0}))


def empty_dfa() -> Dfa:
    return _EMPTY_DFA


def universe_dfa() -> Dfa:
    return _UNIVERSE_DFA


def _explore(
    start: _K, moves: Callable[[_K], Iterable[tuple[int, _K]]], what: str, depth: int | None = None
) -> tuple[list[_K], list[list[tuple[int, int]]]]:
    """The keys reachable from ``start`` within ``depth`` steps (any number
    when None), numbered breadth-first in the order they are discovered
    (``start`` is 0), and each key's row: the ``(mask, target)`` pairs of
    the disjoint ``(mask, key)`` edges ``moves(key)`` yields, ordered by
    lowest class member before their targets are numbered.  A key ``depth``
    steps away is numbered but its row is left empty.  The order also makes
    a product that copies an operand explore as that operand's own table.

    The one worklist behind every automaton built here, and the one place
    the state cap is checked.  Raises StateBlowup, naming ``what``, when a
    new key would pass the state cap."""
    index = {start: 0}
    keys = [start]
    rows: list[list[tuple[int, int]]] = []
    level, level_end = 0, 1  # keys before level_end lie within level steps
    for n, key in enumerate(keys):  # grows as new keys are found
        if n == level_end:
            level, level_end = level + 1, len(keys)
        row = []
        if level != depth:
            for mask, target in sorted(moves(key), key=lambda edge: edge[0] & -edge[0]):
                i = index.get(target)
                if i is None:
                    if len(keys) >= DEFAULT_STATE_CAP:
                        raise StateBlowup(f"{what} exceeded the state cap of {DEFAULT_STATE_CAP}")
                    i = index[target] = len(keys)
                    keys.append(target)
                row.append((mask, i))
        rows.append(row)
    _count("states", len(keys))
    return keys, rows


def _canonicalize(trans: _Rows, accepting: AbstractSet[int]) -> Dfa:
    """Minimize a total table :func:`_explore` numbered.  Each block is
    numbered and its row merged, by target block in edge order, when its
    first state comes: as a block's later states lead only into blocks its
    first state reached, that numbers the quotient as :func:`_explore` would."""
    if not accepting:
        return _EMPTY_DFA
    block = _coarsest_partition(trans, accepting)
    number = {block[0]: 0}
    rows: list[_Row] = []
    for row, b in zip(trans, block):
        if number[b] < len(rows):  # not the block's first state
            continue
        merged: dict[int, int] = {}  # target block's number -> mask
        for mask, t in row:
            tb = number.setdefault(block[t], len(number))
            merged[tb] = merged.get(tb, 0) | mask
        rows.append(tuple((mask, tb) for tb, mask in merged.items()))
    return _intern(Dfa(tuple(rows), frozenset(number[block[s]] for s in accepting)))


def _coarsest_partition(trans: _Rows, accepting: AbstractSet[int]) -> list[int]:
    """Block id of every state in the coarsest partition that separates
    accepting from rejecting states and that every transition respects.

    Hopcroft's refinement, with the characters of a row handled together:
    states are split by the mask of characters that lead into the splitter
    block.  Because ``trans`` is total, the mask into the largest part of a
    split block follows from the masks into the others, so that part never
    needs to become a splitter itself."""
    n = len(trans)
    preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for s, row in enumerate(trans):
        for mask, t in row:
            preds[t].append((s, mask))
    acc = set(accepting)
    rej = set(range(n)) - acc
    if not acc or not rej:
        return [0] * n
    members = [rej, acc]
    block = [1 if s in acc else 0 for s in range(n)]
    waiting = [1 if len(acc) <= len(rej) else 0]
    while waiting:
        into: dict[int, int] = {}
        for t in members[waiting.pop()]:
            for s, mask in preds[t]:
                into[s] = into.get(s, 0) | mask
        touched: dict[int, dict[int, set[int]]] = {}
        for s, mask in into.items():
            touched.setdefault(block[s], {}).setdefault(mask, set()).add(s)
        for y, groups in touched.items():
            parts = list(groups.values())
            rest = members[y]
            if sum(map(len, parts)) < len(rest):
                for part in parts:
                    rest -= part
                parts.append(rest)
            elif len(parts) == 1:
                continue
            largest = max(parts, key=len)
            members[y] = largest
            for part in parts:
                if part is not largest:
                    new_id = len(members)
                    members.append(part)
                    waiting.append(new_id)
                    for s in part:
                        block[s] = new_id
    _count("splits", len(members) - 2)
    return block


def _pair_moves(a_rows: _Rows, b_rows: _Rows, total: bool = False) -> Callable[[_Pair], list[tuple[int, _Pair]]]:
    """The moves of pairs of states of two tables.  Each row of a total
    table partitions the alphabet, so the nonzero intersections of two rows'
    masks are their common refinement: a pair's edges.  When ``total``, the
    characters left over lead to (-1, -1), the two live-edge tables' sinks."""

    def moves(pair: _Pair) -> list[tuple[int, _Pair]]:
        row_b = b_rows[pair[1]]
        edges = [(m, (ta, tb)) for ma, ta in a_rows[pair[0]] for mb, tb in row_b if (m := ma & mb)]
        if total and (rest := FULL_MASK - sum(m for m, _ in edges)):  # the masks are disjoint
            edges.append((rest, (-1, -1)))
        return edges

    return moves


# -- model counting ------------------------------------------------------------


def _count_common(a: Dfa | _Table, b: Dfa | _Table, bound: int) -> int:
    """Exact number of strings of length 0 through ``bound`` accepted by both
    deterministic tables or DFAs, by the counting walk the module docstring describes.

    The pairs within ``bound`` steps are explored once, and each edge
    becomes a ``(weight, pair)`` step, its weight the size of its mask; a
    level maps each reached pair to the number of strings of that length
    leading to it."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    live = [(x.live_edges, x.accepting) if isinstance(x, Dfa) else (_live_edges(x), x[1]) for x in (a, b)]
    (a_edges, a_acc), (b_edges, b_acc) = live
    if a_edges is None or b_edges is None:
        return 0
    pairs, rows = _explore((0, 0), _pair_moves(a_edges, b_edges), "counting walk", bound)
    steps = [[(m.bit_count(), q) for m, q in row] for row in rows]
    accepts = [pa in a_acc and pb in b_acc for pa, pb in pairs]
    level = {0: 1}
    total = 0
    for _ in range(bound):
        nxt: dict[int, int] = {}
        for p, c in level.items():
            if accepts[p]:
                total += c
            for w, q in steps[p]:
                nxt[q] = nxt.get(q, 0) + c * w
        if not nxt:
            return total
        level = nxt
    return total + sum(c for p, c in level.items() if accepts[p])


def similarity_counts(exact: Dfa, candidate: RegexAst, bound: int) -> tuple[int, int]:
    """The (intersection, union) counts, within ``bound``, of the languages
    of ``exact`` and ``candidate``, by the walks described above."""
    table = _subset_rows(candidate)
    inter = _count_common(exact, table, bound)
    return inter, exact.count_models(bound) + _count_common(table, _UNIVERSE_DFA, bound) - inter


def _live_edges(table: _Table) -> list[list[tuple[int, int]]] | None:
    """Each row's edges into live states, then the row of a sink, state -1,
    that loops on every character; None when the start state is dead.  The
    one liveness rule of the product and the counting walk."""
    live = _live_states(*table)
    return [[(m, t) for m, t in row if live[t]] for row in table[0]] + [[(FULL_MASK, -1)]] if live[0] else None


def _live_states(rows: _Rows, accepting: AbstractSet[int]) -> list[bool]:
    """Whether each state is live: an accepting state is reachable from it."""
    preds: list[list[int]] = [[] for _ in rows]
    for s, row in enumerate(rows):
        for _, t in row:
            preds[t].append(s)
    live = [False] * len(rows)
    stack = list(accepting)
    for s in stack:
        live[s] = True
    while stack:
        for p in preds[stack.pop()]:
            if not live[p]:
                live[p] = True
                stack.append(p)
    return live


# -- regex / pattern compilation ---------------------------------------------


def _positions(r: RegexAst) -> tuple[list[int], list[list[frozenset[int]]], frozenset[int]]:
    """Glushkov positions of ``r``, iterative so deep trees cannot overflow
    the stack.  Each character-class occurrence in the tree (a shared subtree
    once per occurrence) is a position, numbered from 1; position 0 stands
    for the start.  Returns each position's mask, each position's follow set
    as a list of first sets shared, not copied, between positions (the
    start's is the first set), and the last positions, with 0 among them
    when ``r`` accepts the empty string."""
    masks, follow = [0], [[]]
    frags: list[tuple[frozenset[int], frozenset[int], bool]] = []  # (first, last, nullable) of finished subtrees
    work: list[tuple[RegexAst, bool]] = [(r, False)]
    while work:
        node, done = work.pop()
        if not done:
            if isinstance(node, CharClass):
                if len(masks) > DEFAULT_POSITION_CAP:
                    raise StateBlowup(f"regex exceeded the position cap of {DEFAULT_POSITION_CAP}")
                p = frozenset([len(masks)])
                masks.append(node.mask)
                follow.append([])
                frags.append((p, p, False))
            elif isinstance(node, (Empty, Epsilon)):
                frags.append((frozenset(), frozenset(), isinstance(node, Epsilon)))
            elif isinstance(node, Star):
                work += ((node, True), (node.inner, False))
            else:  # Union / Concat
                work += ((node, True), (node.right, False), (node.left, False))  # type: ignore[union-attr]
        elif isinstance(node, Star):
            first, last, _ = frags.pop()
            for p in last:
                follow[p].append(first)
            frags.append((first, last, True))
        else:
            rfirst, rlast, rnull = frags.pop()
            lfirst, llast, lnull = frags.pop()
            if isinstance(node, Concat):
                for p in llast:
                    follow[p].append(rfirst)
                frags.append((lfirst | rfirst if lnull else lfirst, llast | rlast if rnull else rlast, lnull and rnull))
            else:  # Union
                frags.append((lfirst | rfirst, llast | rlast, lnull or rnull))
    first, last, nullable = frags.pop()
    follow[0] = [first]
    return masks, follow, last | {0} if nullable else last


def from_regex(r: RegexAst) -> Dfa:
    """Compile a regex AST to its canonical DFA."""
    return _canonicalize(*_subset_rows(r))


def _subset_rows(r: RegexAst) -> _Table:
    """The subset table of ``r``, whose keys are Glushkov positions: position 0
    alone at the start.  A row starts as the alphabet leading nowhere, and each
    mask of the positions that can follow splits every part, the part inside
    gaining that mask's positions."""
    masks, follow, last = _positions(r)

    def moves(state: frozenset[int]) -> list[tuple[int, frozenset[int]]]:
        by_mask: dict[int, list[int]] = {}
        for q in set().union(*{f for p in state for f in follow[p]}):
            by_mask.setdefault(masks[q], []).append(q)
        row: list[tuple[int, list[int]]] = [(FULL_MASK, [])]
        for mask, qs in by_mask.items():
            row = [(m, to + qs if m & mask else to) for part, to in row for m in (part & mask, part & ~mask) if m]
        return [(m, frozenset(to)) for m, to in row]

    states, rows = _explore(frozenset([0]), moves, "subset construction")
    return rows, {i for i, state in enumerate(states) if state & last}


def union(*dfas: Dfa) -> Dfa:
    """The union of the languages: ∅ for none, the operand itself for one
    distinct one, U when one is U.  Otherwise ``¬(¬a ∩ ¬b ∩ …)``, the
    intersection a balanced fold of the one product: each level pairs
    adjacent complements, and an odd one out carries to the next level."""
    operands = list(dict.fromkeys(dfas))
    if _UNIVERSE_DFA in operands:
        return _UNIVERSE_DFA
    if len(operands) < 2:
        return operands[0] if operands else _EMPTY_DFA
    level = [d.complement() for d in operands]
    while len(level) > 1:
        pairs = [a.intersect(b) for a, b in zip(level[::2], level[1::2])]
        level = pairs + level[-1:] if len(level) % 2 else pairs
    return level[0].complement()


def from_pattern(*patterns: object) -> Dfa:
    """The DFA of the union of wildcard patterns (``*`` any run, ``?`` any one symbol), as one alternation."""
    texts = tuple(getattr(p, "text", p) for p in patterns)
    if wrong := [type(text).__name__ for text in texts if not isinstance(text, str)]:
        raise TypeError(f"expected pattern strings, got {', '.join(wrong)}")
    return _compile_pattern(*texts)


@memoized
def _compile_pattern(*texts: str) -> Dfa:
    return from_regex(functools.reduce(alt, map(wildcard, texts), EMPTY))
