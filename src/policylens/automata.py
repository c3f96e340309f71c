"""Deterministic finite automata over the 95-symbol printable-ASCII alphabet.

Every :class:`Dfa` is *total* (each state has an outgoing transition for every
alphabet symbol, grouped into disjoint character-class masks) and *canonical*
(trimmed, minimized, states renumbered breadth-first from the start state with
edges ordered by lowest class member).  Canonical form makes structural
equality coincide with language equality and makes emptiness a check of the
accepting set.  State 0 is always the start state.

Construction paths: :func:`from_regex` and :func:`from_pattern` run a Thompson
build followed by subset construction; the set operations run pairwise product
constructions.  Both raise :class:`~policylens.errors.StateBlowup` past the
state cap, :data:`DEFAULT_STATE_CAP`, which each check reads when it runs (so
a test can lower it).  Every result is minimized by Hopcroft partition
refinement.

Identity laws: a product whose result an identity law fixes is not built.
With equal operands ``a∩a = a∪a = a`` and ``a∖a = ∅``; a canonical one-state
operand is ∅ or U, so ``x∩U = x∪∅ = x∖∅ = x``, ``x∩∅ = x∖U = ∅∖x = ∅`` and
``x∪U = U``, in either operand order where the operation commutes.  ``U∖x``
is a complement and still runs the product.  A law applies only when
neither operand has more states than the state cap; within the cap such a
product cannot raise, and past it the product runs and raises
:class:`~policylens.errors.StateBlowup` exactly as before.  The result is
the canonical DFA the product returns (one operand, ∅ or U), and a law's
case bypasses the operation cache below.  The tests check every law against
the product itself.

Model counting: :func:`_count_common` counts the strings of length at most
``bound`` that two deterministic tables both accept, by walking their
product level by level without building or minimizing it.  It keeps only
pairs from which both sides can still accept, steps along the nonzero
intersections of the two rows' masks weighted by their sizes, and stops at
the first empty level, so a finite language costs its longest string.  It
too raises :class:`~policylens.errors.StateBlowup` once its distinct pairs
exceed the state cap.  :meth:`Dfa.count_models` is this walk against the
universe.  :func:`similarity_counts` is the one scoring function: it walks a
candidate regex's unminimized subset table (:func:`_subset_rows`) against
the exact language and against the universe, for the (intersection, union)
counts behind a Jaccard similarity.
The tests check the walk against the product-then-count path and against
exhaustive enumeration.

Operation cache: inside an :func:`operation_cache` scope, :meth:`Dfa.union`,
:meth:`Dfa.intersect` and :meth:`Dfa.difference` are memoized on
``(op, left, right)``, :func:`from_pattern` on ``("pattern", text)``,
:meth:`Dfa.count_models` on ``("count", dfa, bound)``,
:func:`similarity_counts` on ``("similarity", exact, candidate, bound)``,
draw programs on ``("program", regex)``, extracted regexes on
``("extract", dfa)`` and candidate parses on ``("parse", line)``.  The
policy-level entry points (compilation, comparison, sampling, summarization)
and the ``count`` and ``requests`` commands each enter a scope.  The scope
is re-entrant: nested scopes share the outermost one's table, which is
dropped when the outermost scope exits.  A scope spans one command, so
memory is bounded by that command's work and there is no size setting; it is
not meant to be held open across commands.  Cached values are the ones a
fresh build returns, and a build that raises stores nothing.  No key holds
the state cap: one command runs under one cap.  Outside a scope every
operation is computed afresh.
"""

from __future__ import annotations

from collections import defaultdict
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
    Union,
    alt,
    char_class,
    print_regex,
    seq,
    star,
    wildcard,
)

DEFAULT_STATE_CAP = 100_000

_Row = tuple[tuple[int, int], ...]  # ((mask, target), ...) partitioning the alphabet
# A deterministic table read from start state 0: its rows and accepting states.
_Table = tuple[Sequence[Sequence[tuple[int, int]]], AbstractSet[int]]


def _low_bit(mask: int) -> int:
    return mask & -mask


# -- operation cache -----------------------------------------------------------

_T = TypeVar("_T")
_MISSING = object()


class OperationCache:
    """Memo table of one :func:`operation_cache` scope, with hit and miss counts."""

    __slots__ = ("table", "hits", "misses")

    def __init__(self) -> None:
        self.table: dict[Hashable, object] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, compute: Callable[..., _T], *args: object) -> _T:
        value = self.table.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            value = self.table[key] = compute(*args)
        else:
            self.hits += 1
        return value  # type: ignore[return-value]


_ACTIVE: ContextVar[OperationCache | None] = ContextVar("policylens_operation_cache", default=None)


@contextmanager
def operation_cache() -> Iterator[OperationCache]:
    """Scope in which the operations the module docstring lists are memoized.

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


def _memoized(key: Hashable, compute: Callable[..., _T], *args: object) -> _T:
    """``compute(*args)``, served from the active operation cache if there is one."""
    cache = _ACTIVE.get()
    if cache is None:
        return compute(*args)
    return cache.get(key, compute, *args)


class Dfa:
    """Canonical total DFA.  Build via :func:`from_regex`, :func:`from_pattern`,
    :meth:`from_parts`, or the set operations; the raw constructor assumes the
    arguments are already canonical."""

    __slots__ = ("transitions", "accepting")

    def __init__(self, transitions: tuple[_Row, ...], accepting: frozenset[int]) -> None:
        self.transitions = transitions
        self.accepting = accepting

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Dfa):
            return NotImplemented
        return self.transitions == other.transitions and self.accepting == other.accepting

    def __hash__(self) -> int:
        return hash((self.transitions, self.accepting))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Dfa states={len(self.transitions)} accepting={sorted(self.accepting)}>"

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    @classmethod
    def from_parts(
        cls,
        transitions: Iterable[Iterable[tuple[int, int]]],
        start: int,
        accepting: Iterable[int],
    ) -> "Dfa":
        """Canonicalize a raw transition table.  Each row's masks must be
        disjoint and cover the whole alphabet."""
        rows = [list(row) for row in transitions]
        n = len(rows)
        if not 0 <= start < n:
            raise ValueError(f"start state {start} out of range")
        for s, row in enumerate(rows):
            seen = 0
            for mask, target in row:
                if mask <= 0 or mask & ~FULL_MASK:
                    raise ValueError(f"state {s}: mask outside the alphabet")
                if mask & seen:
                    raise ValueError(f"state {s}: overlapping transition masks")
                if not 0 <= target < n:
                    raise ValueError(f"state {s}: target {target} out of range")
                seen |= mask
            if seen != FULL_MASK:
                raise ValueError(f"state {s}: transitions do not cover the alphabet")
        return _canonicalize(rows, start, set(accepting))

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

    def equivalent(self, other: "Dfa") -> bool:
        return self.difference(other).is_empty() and other.difference(self).is_empty()

    # -- boolean algebra ------------------------------------------------------

    def complement(self) -> "Dfa":
        # A minimal, total, BFS-numbered DFA stays canonical when flipped.
        return Dfa(self.transitions, frozenset(range(self.state_count)) - self.accepting)

    def union(self, other: "Dfa") -> "Dfa":
        return _cached_product("union", self, other)

    def intersect(self, other: "Dfa") -> "Dfa":
        return _cached_product("intersect", self, other)

    def difference(self, other: "Dfa") -> "Dfa":
        return _cached_product("difference", self, other)

    # -- analyses -------------------------------------------------------------

    def count_models(self, bound: int) -> int:
        """Exact number of accepted strings of length 0 through ``bound``."""
        return _memoized(("count", self, bound), _count_common, self.table, UNIVERSE_TABLE, bound)

    @property
    def table(self) -> _Table:
        """The transitions and accepting states, as a table to count over."""
        return self.transitions, self.accepting

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
        live = _live_states(self.transitions, self.accepting)

        init, final = n, n + 1
        out: dict[int, dict[int, RegexAst]] = defaultdict(dict)
        inc: dict[int, set[int]] = defaultdict(set)

        def add(i: int, j: int, r: RegexAst) -> None:
            out[i][j] = alt(out[i].get(j, EMPTY), r)
            inc[j].add(i)

        add(init, 0, EPSILON)
        for s in self.accepting:
            add(s, final, EPSILON)
        for s, row in enumerate(self.transitions):
            if not live[s]:
                continue
            for mask, t in row:
                if live[t]:
                    add(s, t, char_class(mask))

        remaining = [s for s in range(n) if live[s]]
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

    def to_dot(self, name: str = "dfa") -> str:
        """GraphViz rendering with character-class edge labels."""
        lines = [
            f"digraph {name} {{",
            "  rankdir=LR;",
            "  __start [shape=point];",
            "  __start -> s0;",
        ]
        for s in range(len(self.transitions)):
            shape = "doublecircle" if s in self.accepting else "circle"
            lines.append(f"  s{s} [shape={shape}];")
        for s, row in enumerate(self.transitions):
            for mask, t in row:
                label = print_regex(char_class(mask)).replace("\\", "\\\\").replace('"', '\\"')
                lines.append(f'  s{s} -> s{t} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def _refine(masks: Iterable[int]) -> list[int]:
    """Coarsest partition of the alphabet splitting every given mask."""
    parts = [FULL_MASK]
    for m in set(masks):
        nxt = []
        for p in parts:
            inside = p & m
            outside = p & ~m
            if inside and outside:
                nxt.append(inside)
                nxt.append(outside)
            else:
                nxt.append(p)
        parts = nxt
    parts.sort(key=_low_bit)
    return parts


_EMPTY_DFA = Dfa((((FULL_MASK, 0),),), frozenset())
_UNIVERSE_DFA = Dfa((((FULL_MASK, 0),),), frozenset({0}))
UNIVERSE_TABLE: _Table = _UNIVERSE_DFA.table


def empty_dfa() -> Dfa:
    return _EMPTY_DFA


def universe_dfa() -> Dfa:
    return _UNIVERSE_DFA


def _canonicalize(trans: list[list[tuple[int, int]]], start: int, accepting: set[int]) -> Dfa:
    n = len(trans)
    reach = [False] * n
    reach[start] = True
    stack = [start]
    while stack:
        s = stack.pop()
        for _, t in trans[s]:
            if not reach[t]:
                reach[t] = True
                stack.append(t)
    states = [s for s in range(n) if reach[s]]
    if not any(s in accepting for s in states):
        return _EMPTY_DFA

    idx = {s: i for i, s in enumerate(states)}
    m = len(states)
    rtrans = [[(mask, idx[t]) for mask, t in trans[s]] for s in states]
    racc = {idx[s] for s in states if s in accepting}

    block = _coarsest_partition(rtrans, racc)

    qtrans: dict[int, dict[int, int]] = {}
    for i in range(m):
        b = block[i]
        if b in qtrans:
            continue
        merged = {}
        for mask, t in rtrans[i]:
            tb = block[t]
            merged[tb] = merged.get(tb, 0) | mask
        qtrans[b] = merged

    order = {block[idx[start]]: 0}
    bfs = [block[idx[start]]]
    qi = 0
    while qi < len(bfs):
        b = bfs[qi]
        qi += 1
        for tb, _ in sorted(qtrans[b].items(), key=lambda kv: _low_bit(kv[1])):
            if tb not in order:
                order[tb] = len(order)
                bfs.append(tb)
    rows = tuple(
        tuple(sorted(((mask, order[tb]) for tb, mask in qtrans[b].items()), key=lambda e: _low_bit(e[0])))
        for b in bfs
    )
    final_acc = frozenset(order[block[i]] for i in racc)
    return Dfa(rows, final_acc)


def _coarsest_partition(trans: list[list[tuple[int, int]]], accepting: set[int]) -> list[int]:
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
    return block


_KEEP: dict[str, Callable[[bool, bool], bool]] = {
    "union": lambda a, b: a or b,
    "intersect": lambda a, b: a and b,
    "difference": lambda a, b: a and not b,
}


def _cached_product(op: str, a: Dfa, b: Dfa) -> Dfa:
    # Within the cap neither law case can raise: its product reaches at most
    # max(|a|, |b|) pairs.  Past it, the product decides whether to raise.
    if max(a.state_count, b.state_count) <= DEFAULT_STATE_CAP:
        fixed = _identity_law(op, a, b)
        if fixed is not None:
            return fixed
    return _memoized((op, a, b), _product, a, b, _KEEP[op])


def _identity_law(op: str, a: Dfa, b: Dfa) -> Dfa | None:
    """The product's result when an identity law (see the module docstring)
    fixes it, else None."""
    if a == b:
        return _EMPTY_DFA if op == "difference" else a
    if op != "difference" and a.state_count == 1:
        a, b = b, a  # union and intersection commute: put the one-state side right
    if b.state_count == 1:
        universal = bool(b.accepting)
        if op == "union":
            return _UNIVERSE_DFA if universal else a
        if op == "intersect":
            return a if universal else _EMPTY_DFA
        return _EMPTY_DFA if universal else a
    if op == "difference" and a.state_count == 1 and not a.accepting:
        return _EMPTY_DFA
    return None


def _product(a: Dfa, b: Dfa, keep: Callable[[bool, bool], bool]) -> Dfa:
    index: dict[tuple[int, int], int] = {(0, 0): 0}
    queue: list[tuple[int, int]] = [(0, 0)]
    rows: list[list[tuple[int, int]]] = []
    accepting: set[int] = set()
    qi = 0
    while qi < len(queue):
        pa, pb = queue[qi]
        if keep(pa in a.accepting, pb in b.accepting):
            accepting.add(qi)
        qi += 1
        masks = [mask for mask, _ in a.transitions[pa]]
        masks += [mask for mask, _ in b.transitions[pb]]
        row = []
        for part in _refine(masks):
            ta = next(t for mask, t in a.transitions[pa] if mask & part)
            tb = next(t for mask, t in b.transitions[pb] if mask & part)
            key = (ta, tb)
            if key not in index:
                if len(index) >= DEFAULT_STATE_CAP:
                    raise StateBlowup(
                        f"product construction exceeded the state cap of {DEFAULT_STATE_CAP}"
                    )
                index[key] = len(index)
                queue.append(key)
            row.append((part, index[key]))
        rows.append(row)
    return _canonicalize(rows, 0, accepting)


# -- model counting ------------------------------------------------------------


def _count_common(a: _Table, b: _Table, bound: int) -> int:
    """Exact number of strings of length 0 through ``bound`` accepted by both
    deterministic tables, by the counting walk the module docstring describes.

    A level maps each reached pair of states to the number of strings of that
    length leading to it; a pair's weighted successors are built once.
    Raises StateBlowup once its distinct pairs exceed the state cap."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    (a_rows, a_acc), (b_rows, b_acc) = a, b
    a_live, b_live = _live_states(a_rows, a_acc), _live_states(b_rows, b_acc)
    if not (a_live[0] and b_live[0]):
        return 0
    a_edges = [[(m, t) for m, t in row if a_live[t]] for row in a_rows]
    b_edges = [[(m, t) for m, t in row if b_live[t]] for row in b_rows]
    index: dict[tuple[int, int], int] = {(0, 0): 0}
    pairs = [(0, 0)]
    accepts = [0 in a_acc and 0 in b_acc]
    steps: list[list[tuple[int, int]] | None] = [None]
    level = {0: 1}
    total = 0
    for depth in range(bound + 1):
        last = depth == bound
        nxt: dict[int, int] = {}
        for p, c in level.items():
            if accepts[p]:
                total += c
            if last:
                continue
            out = steps[p]
            if out is None:
                pa, pb = pairs[p]
                row_b = b_edges[pb]
                weights: dict[int, int] = {}
                for ma, ta in a_edges[pa]:
                    for mb, tb in row_b:
                        m = ma & mb
                        if m:
                            key = (ta, tb)
                            q = index.get(key)
                            if q is None:
                                if len(pairs) >= DEFAULT_STATE_CAP:
                                    raise StateBlowup(
                                        f"counting walk exceeded the state cap of {DEFAULT_STATE_CAP}"
                                    )
                                q = index[key] = len(pairs)
                                pairs.append(key)
                                accepts.append(ta in a_acc and tb in b_acc)
                                steps.append(None)
                            weights[q] = weights.get(q, 0) + m.bit_count()
                out = steps[p] = list(weights.items())
            for q, w in out:
                nxt[q] = nxt.get(q, 0) + c * w
        if not nxt:
            break
        level = nxt
    return total


def similarity_counts(exact: Dfa, candidate: RegexAst, bound: int) -> tuple[int, int]:
    """The (intersection, union) counts, within ``bound``, of the languages
    of ``exact`` and ``candidate``, by the walks described above."""
    return _memoized(("similarity", exact, candidate, bound), _similarity, exact, candidate, bound)


def _similarity(exact: Dfa, candidate: RegexAst, bound: int) -> tuple[int, int]:
    table = _subset_rows(candidate)
    inter = _count_common(exact.table, table, bound)
    return inter, exact.count_models(bound) + _count_common(table, UNIVERSE_TABLE, bound) - inter


def _live_states(rows: Sequence[Sequence[tuple[int, int]]], accepting: AbstractSet[int]) -> list[bool]:
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


def _thompson(r: RegexAst) -> tuple[list[list[int]], list[list[tuple[int, int]]], int, int]:
    """Thompson NFA build, iterative so deep trees cannot overflow the stack.

    Returns (epsilon edges, symbol edges, start, accept)."""
    eps: list[list[int]] = []
    sym: list[list[tuple[int, int]]] = []

    def new_state() -> int:
        eps.append([])
        sym.append([])
        return len(eps) - 1

    frags: list[tuple[int, int]] = []
    work: list[tuple[RegexAst, int]] = [(r, 0)]
    while work:
        node, phase = work.pop()
        if phase == 0:
            if isinstance(node, Empty):
                frags.append((new_state(), new_state()))
            elif isinstance(node, Epsilon):
                s = new_state()
                frags.append((s, s))
            elif isinstance(node, CharClass):
                s, a = new_state(), new_state()
                sym[s].append((node.mask, a))
                frags.append((s, a))
            elif isinstance(node, Star):
                work.append((node, 1))
                work.append((node.inner, 0))
            else:  # Union / Concat
                work.append((node, 1))
                work.append((node.right, 0))  # type: ignore[union-attr]
                work.append((node.left, 0))  # type: ignore[union-attr]
        elif isinstance(node, Star):
            ins, ina = frags.pop()
            q = new_state()
            eps[q].append(ins)
            eps[ina].append(q)
            frags.append((q, q))
        elif isinstance(node, Concat):
            rs, ra = frags.pop()
            ls, la = frags.pop()
            eps[la].append(rs)
            frags.append((ls, ra))
        else:  # Union
            rs, ra = frags.pop()
            ls, la = frags.pop()
            s, a = new_state(), new_state()
            eps[s] += (ls, rs)
            eps[la].append(a)
            eps[ra].append(a)
            frags.append((s, a))
    start, accept = frags.pop()
    return eps, sym, start, accept


def from_regex(r: RegexAst) -> Dfa:
    """Compile a regex AST to its canonical DFA."""
    rows, accepting = _subset_rows(r)
    return _canonicalize(rows, 0, accepting)


def _subset_rows(r: RegexAst) -> _Table:
    """Subset construction over the Thompson NFA of ``r``: a total,
    deterministic, unminimized table with start state 0."""
    eps, sym, start, accept = _thompson(r)

    def closure(states: Iterable[int]) -> frozenset[int]:
        seen = set(states)
        stack = list(seen)
        while stack:
            s = stack.pop()
            for t in eps[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    start_set = closure([start])
    index: dict[frozenset[int], int] = {start_set: 0}
    queue = [start_set]
    rows: list[list[tuple[int, int]]] = []
    accepting: set[int] = set()
    qi = 0
    while qi < len(queue):
        cur = queue[qi]
        if accept in cur:
            accepting.add(qi)
        qi += 1
        masks = [mask for s in cur for mask, _ in sym[s]]
        row = []
        for part in _refine(masks):
            # refinement guarantees part is inside or outside each edge mask
            targets = closure([t for s in cur for mask, t in sym[s] if mask & part])
            if targets not in index:
                if len(index) >= DEFAULT_STATE_CAP:
                    raise StateBlowup(
                        f"subset construction exceeded the state cap of {DEFAULT_STATE_CAP}"
                    )
                index[targets] = len(index)
                queue.append(targets)
            row.append((part, index[targets]))
        rows.append(row)
    return rows, accepting


def from_pattern(pattern: object) -> Dfa:
    """Compile a wildcard pattern (``*`` any run, ``?`` any one symbol)."""
    text = getattr(pattern, "text", pattern)
    if not isinstance(text, str):
        raise TypeError(f"expected a pattern string, got {type(text).__name__}")
    return _memoized(("pattern", text), _compile_pattern, text)


def _compile_pattern(text: str) -> Dfa:
    return from_regex(wildcard(text))
