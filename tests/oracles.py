"""Independent reference implementations used only to check the engine.

Nothing here may call into the engine's matching/counting/evaluation logic:
the wildcard matcher is a direct DP, regex membership goes through Python's
``re`` module, the policy evaluator applies the allow/deny rule
statement by statement on concrete requests, the minimizer is Moore's
round-by-round refinement, the model counter steps one count vector over
every state of a table, and the sampler walks the AST node by node, picking
with ``rng.choice``.  The table builders are the engine's earlier kernels,
each with its own worklist: subset construction over the ε-closures of a
Thompson NFA, a product whose rows refine both rows' masks and look up
each part's targets, and a counting walk that finds pairs level by level.
The product is built over every pair, and over the pairs of live states
alone, with dead states found by a forward search from each state.  The
set operations minimize the full product with Moore's rounds, and raise
where the live-pair product passes the state cap; the cube difference
builds every term with them, with no operation cache and no settled terms.
Whether a product copies an operand is the engine's earlier rule, a
projection of the explored pairs onto one side
(:func:`reference_copies`), where the engine compares tables.
A union is ``¬(¬a ∩ ¬b)`` by :func:`reference_product`, folded in the
engine's pairing order (:func:`reference_union`), so it raises where the
engine's fold does.  A clause's language is also built the way the engine
built it before it compiled a clause as one alternation: one DFA per
pattern, folded by that union (:func:`reference_disjunction`).  Padding
(:func:`reference_pad`) reshapes a request set onto more dimensions, each
new one unconstrained: two policies compiled apart, padded and differenced
check a pair compiled over one schema.

:func:`table_dfa` only builds inputs: it canonicalizes a raw table through
the engine's own worklist and minimizer.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache
from itertools import product

from policylens import automata, sampler
from policylens.alphabet import FULL_MASK, chars_of
from policylens.errors import EmptyLanguage, StateBlowup
from policylens.policy import Effect, PolicyDocument
from policylens.regex import EPSILON, CharClass, Concat, Empty, Epsilon, RegexAst, Star, Union, union_children
from policylens.requestsets import DimensionSchema, RequestSet

# The universe as a table, the counting walk's other side for a count of models.
UNIVERSE_TABLE = automata.universe_dfa().table


@lru_cache(maxsize=100_000)
def glob_match(pattern: str, s: str) -> bool:
    """Wildcard semantics: ``*`` any run (possibly empty), ``?`` one character."""
    if not pattern:
        return not s
    c = pattern[0]
    if c == "*":
        return glob_match(pattern[1:], s) or (bool(s) and glob_match(pattern, s[1:]))
    if not s:
        return False
    if c == "?" or c == s[0]:
        return glob_match(pattern[1:], s[1:])
    return False


def to_python_re(r: RegexAst) -> str:
    if isinstance(r, Empty):
        return "(?!x)x"
    if isinstance(r, Epsilon):
        return "(?:)"
    if isinstance(r, CharClass):
        return "[" + "".join(re.escape(c) for c in chars_of(r.mask)) + "]"
    if isinstance(r, Union):
        return "(?:" + to_python_re(r.left) + "|" + to_python_re(r.right) + ")"
    if isinstance(r, Concat):
        return "(?:" + to_python_re(r.left) + to_python_re(r.right) + ")"
    if isinstance(r, Star):
        return "(?:" + to_python_re(r.inner) + ")*"
    raise TypeError(r)


def re_accepts(r: RegexAst, s: str) -> bool:
    return re.fullmatch(to_python_re(r), s) is not None


def strings_up_to(alphabet: str, max_len: int) -> list[str]:
    out = []
    for n in range(max_len + 1):
        out.extend("".join(t) for t in product(alphabet, repeat=n))
    return out


def reference_count_models(transitions, accepting, bound: int) -> int:
    """Accepted strings of length 0 through ``bound`` of a total table read
    from state 0: one count vector over all states, stepped ``bound`` times."""
    n = len(transitions)
    vec = [0] * n
    vec[0] = 1
    total = 1 if 0 in accepting else 0
    for _ in range(bound):
        nxt = [0] * n
        for s, c in enumerate(vec):
            if c:
                for mask, t in transitions[s]:
                    nxt[t] += c * mask.bit_count()
        vec = nxt
        for s in accepting:
            total += vec[s]
    return total


def ref_decide(doc: PolicyDocument, request: dict[str, str]) -> bool:
    """Reference evaluation: allowed by some Allow statement and by no Deny."""

    def clause_ok(clause, value: str) -> bool:
        hit = any(glob_match(p.text, value) for p in clause.patterns)
        return not hit if clause.negated else hit

    def cond_ok(cond) -> bool:
        value = request.get(cond.key, "")
        hit = any(glob_match(p.text, value) for p in cond.values)
        return not hit if cond.operator.negated else hit

    def stmt_matches(s) -> bool:
        return (
            clause_ok(s.principal, request.get("principal", ""))
            and clause_ok(s.action, request.get("action", ""))
            and clause_ok(s.resource, request.get("resource", ""))
            and all(cond_ok(c) for c in s.conditions)
        )

    allowed = any(s.effect == Effect.ALLOW and stmt_matches(s) for s in doc.statements)
    if not allowed:
        return False
    return not any(s.effect == Effect.DENY and stmt_matches(s) for s in doc.statements)


def moore_canonical(
    trans: list[list[tuple[int, int]]], start: int, accepting: set[int]
) -> tuple[tuple[tuple[tuple[int, int], ...], ...], frozenset[int]]:
    """(rows, accepting) of the canonical minimal DFA of a total transition
    table: trim to the reachable states, refine by Moore's rounds until the
    block count is stable, then number blocks breadth-first from the start
    with edges ordered by lowest character.  The empty language is one
    rejecting state with a self-loop."""
    reach, stack = {start}, [start]
    while stack:
        for _, t in trans[stack.pop()]:
            if t not in reach:
                reach.add(t)
                stack.append(t)
    if not reach & set(accepting):
        return (((FULL_MASK, 0),),), frozenset()

    def merged(s: int, block: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for mask, t in trans[s]:
            out[block[t]] = out.get(block[t], 0) | mask
        return out

    block = {s: int(s in accepting) for s in reach}
    while True:
        sigs = {s: (block[s], tuple(sorted(merged(s, block).items()))) for s in reach}
        ids = {sig: i for i, sig in enumerate(sorted(set(sigs.values())))}
        refined = {s: ids[sigs[s]] for s in reach}
        if len(ids) == len(set(block.values())):
            break
        block = refined
    rep = {}
    for s in sorted(reach):
        rep.setdefault(block[s], s)

    def low(mask: int) -> int:
        return mask & -mask

    order, bfs = {block[start]: 0}, [block[start]]
    for b in bfs:
        for tb, _ in sorted(merged(rep[b], block).items(), key=lambda kv: low(kv[1])):
            if tb not in order:
                order[tb] = len(order)
                bfs.append(tb)
    rows = tuple(
        tuple(sorted(((m, order[tb]) for tb, m in merged(rep[b], block).items()), key=lambda e: low(e[0])))
        for b in bfs
    )
    return rows, frozenset(order[block[s]] for s in reach if s in accepting)


def reference_sample(r: RegexAst, rng: random.Random) -> str:
    """The sampler's draw as a direct walk of the AST, re-interpreting every
    node on every visit and picking with ``rng.choice``.  The engine's
    sampler must make the same draws from the same random stream.  The star
    threshold, its growth and the length budget are the sampler's module
    constants, read when the walk runs."""
    threshold, growth = sampler.STAR_THRESHOLD, sampler.STAR_GROWTH
    max_length = sampler.MAX_SAMPLE_LENGTH
    out: list[str] = []
    length = 0
    # Work stack: ("v", node) expands a node; ("s", body, thresh) is a star
    # continuation deciding whether to run one more body expansion.
    stack: list[tuple] = [("v", r)]
    while stack:
        item = stack.pop()
        if item[0] == "v":
            node = item[1]
            if node is EPSILON:
                continue
            if isinstance(node, CharClass):
                out.append(rng.choice(chars_of(node.mask)))
                length += 1
            elif isinstance(node, Concat):
                stack.append(("v", node.right))
                stack.append(("v", node.left))
            elif isinstance(node, Union):
                stack.append(("v", rng.choice(union_children(node))))
            elif isinstance(node, Star):
                stack.append(("s", node.inner, threshold))
            else:  # only EMPTY itself has an empty language
                raise EmptyLanguage("cannot sample from the empty language")
        else:
            _, body, thresh = item
            if length >= max_length:
                continue
            if rng.random() >= thresh:
                stack.append(("s", body, thresh * growth))
                stack.append(("v", body))
    return "".join(out)


def reference_sample_from_set(x, k: int, seed: int) -> list[dict[str, str]]:
    """``requestsets.sample_from_set`` with every dimension of every draw
    taken by :func:`reference_sample` from one shared generator: the cubes
    in turn, ``5k + 10`` draws at most, repeats dropped."""
    rng = random.Random(seed)
    out: list[dict[str, str]] = []
    seen: set[tuple[str, ...]] = set()
    for draw in range(5 * k + 10):
        cube = x.cubes[draw % len(x.cubes)]
        values = tuple(reference_sample(d.extract_regex(), rng) for d in cube)
        if values not in seen:
            seen.add(values)
            out.append(dict(zip(x.schema.dimensions, values)))
            if len(out) == k:
                break
    return out


def _refine(masks) -> list[int]:
    """Coarsest partition of the alphabet splitting every given mask, by lowest member."""
    parts = [FULL_MASK]
    for m in set(masks):
        parts = [q for p in parts for q in (p & m, p & ~m) if q]
    return sorted(parts, key=lambda p: p & -p)


def _explore(start, moves, what: str, cap: float | None = None):
    """The keys reachable from ``start`` in discovery order, and their rows.
    Raises StateBlowup when a new key would pass ``cap``, by default
    ``automata.DEFAULT_STATE_CAP``."""
    cap = automata.DEFAULT_STATE_CAP if cap is None else cap
    index, keys, rows = {start: 0}, [start], []
    for key in keys:
        row = []
        for mask, target in moves(key):
            if target not in index:
                if len(keys) >= cap:
                    raise StateBlowup(f"{what} exceeded the state cap of {cap}")
                index[target] = len(keys)
                keys.append(target)
            row.append((mask, index[target]))
        rows.append(row)
    return keys, rows


def _thompson(r: RegexAst):
    """(epsilon edges, symbol edges, start, accept) of the Thompson NFA of
    ``r``, one fragment per occurrence of a subtree; iterative, so deep
    trees cannot overflow the stack."""
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
                work.append((node.right, 0))
                work.append((node.left, 0))
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


def thompson_subset_rows(r: RegexAst):
    """(rows, accepting) of the subset construction over the ε-closures of
    the Thompson NFA of ``r``, states numbered in discovery order."""
    eps, sym, start, accept = _thompson(r)

    def closure(states) -> frozenset[int]:
        seen = set(states)
        stack = list(seen)
        while stack:
            for t in eps[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    def moves(cur: frozenset[int]):
        for part in _refine(mask for s in cur for mask, _ in sym[s]):
            yield part, closure(t for s in cur for mask, t in sym[s] if mask & part)

    sets, rows = _explore(closure([start]), moves, "subset construction")
    return rows, {i for i, cur in enumerate(sets) if accept in cur}


def _refined_moves(a_rows, b_rows, key):
    """The moves of pairs of states of two tables: rows that refine both
    operand rows' masks, each part's targets found by lookup and keyed by
    ``key(ta, tb)``."""

    def moves(pair):
        row_a, row_b = a_rows[pair[0]], b_rows[pair[1]]
        for part in _refine([mask for mask, _ in row_a] + [mask for mask, _ in row_b]):
            ta = next(t for mask, t in row_a if mask & part)
            tb = next(t for mask, t in row_b if mask & part)
            yield part, key(ta, tb)

    return moves


def refine_product_rows(a, b, keep, cap: float | None = None):
    """(rows, accepting) of the product of two DFAs over every pair of
    states reachable from (0, 0), whose rows refine both operand rows'
    masks, finding each part's targets by lookup; ``cap`` as in :func:`_explore`."""
    moves = _refined_moves(a.transitions, b.transitions, lambda *pair: pair)
    pairs, rows = _explore((0, 0), moves, "product construction", cap)
    return rows, {i for i, (pa, pb) in enumerate(pairs) if keep(pa in a.accepting, pb in b.accepting)}


def _live(rows, accepting) -> set[int]:
    """The states from which a forward search reaches an accepting state."""

    def reaches(s: int) -> bool:
        seen, stack = {s}, [s]
        while stack:
            t = stack.pop()
            if t in accepting:
                return True
            for _, u in rows[t]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return False

    return {s for s in range(len(rows)) if reaches(s)}


_SINK = "sink"


def live_product_rows(a, b):
    """(rows, accepting) of the intersection of two total tables ``(rows,
    accepting)`` over their pairs of live states (:func:`_live`), whose rows
    refine both operand rows' masks.  Every part leading to a pair with a
    dead side leads to one sink, which loops on every character; a start
    pair with a dead side is the sink alone."""
    (a_rows, a_acc), (b_rows, b_acc) = a, b
    a_live, b_live = _live(a_rows, a_acc), _live(b_rows, b_acc)

    def key(p, q):
        return (p, q) if p in a_live and q in b_live else _SINK

    pair_moves = _refined_moves(a_rows, b_rows, key)

    def moves(pair):
        return [(FULL_MASK, _SINK)] if pair == _SINK else pair_moves(pair)

    pairs, rows = _explore(key(0, 0), moves, "product construction")
    return rows, {i for i, pair in enumerate(pairs) if pair != _SINK and pair[0] in a_acc and pair[1] in b_acc}


KEEP = {
    "union": lambda p, q: p or q,
    "intersect": lambda p, q: p and q,
    "difference": lambda p, q: p and not q,
}


def _complement(d):
    """The table of ``d`` with its accepting states flipped."""
    return d.transitions, frozenset(range(len(d.transitions))) - d.accepting


def reference_product(op: str, a, b):
    """The canonical DFA of ``a`` op ``b`` for an op of :data:`KEEP`: the
    refining product over every pair, minimized by Moore's rounds.  Raises
    StateBlowup where the engine's product would: where the live-pair
    product of the intersection the op runs, ``¬(¬a ∩ ¬b)`` for a union and
    ``a ∩ ¬b`` for a difference, passes ``automata.DEFAULT_STATE_CAP``."""
    live_product_rows(*{
        "union": (_complement(a), _complement(b)),
        "intersect": ((a.transitions, a.accepting), (b.transitions, b.accepting)),
        "difference": ((a.transitions, a.accepting), _complement(b)),
    }[op])
    rows, accepting = refine_product_rows(a, b, KEEP[op], cap=float("inf"))
    return automata.Dfa(*moore_canonical(rows, 0, accepting))


def reference_copies(d: automata.Dfa, side: int, pairs, rows, accepting) -> bool:
    """Whether a product is its operand ``d`` under the projection on ``side``,
    the sink onto ``d``'s dead state: one pair per state, accepting where it
    does, and each live pair leading to live pairs on exactly its live edges."""
    if len(pairs) != d.state_count or len({pair[side] for pair in pairs}) != len(pairs):
        return False
    edges = d.live_edges
    return all(
        (i in accepting) == (s in d.accepting)
        and sum(m for m, j in row if pairs[j][0] >= 0) == sum(m for m, _ in edges[s])  # type: ignore[index]
        for i, (s, row) in enumerate(zip((pair[side] for pair in pairs), rows))
        if s >= 0
    )


def reference_count_common(a, b, bound: int) -> int:
    """Strings of length 0 through ``bound`` accepted by both tables: the
    engine's earlier counting walk, which finds pairs level by level with its
    own numbering, and raises StateBlowup when a new pair would pass
    ``automata.DEFAULT_STATE_CAP``.  Dead states are dropped by
    ``automata._live_states``."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    cap = automata.DEFAULT_STATE_CAP
    (a_rows, a_acc), (b_rows, b_acc) = a, b
    a_live, b_live = automata._live_states(a_rows, a_acc), automata._live_states(b_rows, b_acc)
    if not (a_live[0] and b_live[0]):
        return 0
    a_edges = [[(m, t) for m, t in row if a_live[t]] for row in a_rows]
    b_edges = [[(m, t) for m, t in row if b_live[t]] for row in b_rows]
    index = {(0, 0): 0}
    pairs = [(0, 0)]
    accepts = [0 in a_acc and 0 in b_acc]
    steps = [None]
    level = {0: 1}
    total = 0
    for depth in range(bound + 1):
        last = depth == bound
        nxt = {}
        for p, c in level.items():
            if accepts[p]:
                total += c
            if last:
                continue
            out = steps[p]
            if out is None:
                pa, pb = pairs[p]
                weights = {}
                for ma, ta in a_edges[pa]:
                    for mb, tb in b_edges[pb]:
                        m = ma & mb
                        if m:
                            key = (ta, tb)
                            q = index.get(key)
                            if q is None:
                                if len(pairs) >= cap:
                                    raise StateBlowup(f"counting walk exceeded the state cap of {cap}")
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


def reference_cube_difference(a, b) -> list[tuple]:
    """``requestsets._cube_difference`` with every difference and prefix
    intersection built by :func:`reference_product`: the same terms in the
    same order, the stop at the first empty prefix included."""
    out, prefix = [], []
    for i, (x, y) in enumerate(zip(a, b)):
        diff = reference_product("difference", x, y)
        if not diff.is_empty():
            out.append((*prefix, diff, *a[i + 1 :]))
        if i + 1 < len(a):
            inter = reference_product("intersect", x, y)
            if inter.is_empty():
                break
            prefix.append(inter)
    return out


def table_dfa(rows, start: int, accepting) -> automata.Dfa:
    """The canonical DFA of a total transition table read from ``start``;
    only the states reachable from it count against the state cap."""
    states, reached = automata._explore(start, rows.__getitem__, "canonicalization")
    accepting = set(accepting)
    return automata._canonicalize(reached, {i for i, s in enumerate(states) if s in accepting})


def reference_union(*dfas, steps: list | None = None) -> automata.Dfa:
    """The union of the languages: ∅ for none, the operand itself for one
    distinct one, U when one is U.  Otherwise a balanced fold of
    :func:`reference_product` over the distinct operands: each level joins
    adjacent operands, and an odd one out carries to the next level.  Each
    joined pair is appended to ``steps`` when it is a list."""
    level = list(dict.fromkeys(dfas))
    if automata.universe_dfa() in level:
        return automata.universe_dfa()
    while len(level) > 1:
        pairs = list(zip(level[::2], level[1::2]))
        if steps is not None:
            steps += pairs
        level = [reference_product("union", a, b) for a, b in pairs] + level[2 * len(pairs) :]
    return level[0] if level else automata.empty_dfa()


def reference_disjunction(patterns) -> automata.Dfa:
    """The union of the patterns' languages, each compiled on its own and
    folded by :func:`reference_union`."""
    return reference_union(*(automata.from_pattern(p) for p in patterns))


def reference_pad(x: RequestSet, schema: DimensionSchema) -> RequestSet:
    """``x`` reshaped onto ``schema``, a superset of its dimensions: each
    cube keeps its languages, and a dimension it lacks is unconstrained."""
    univ = automata.universe_dfa()
    own = {d: i for i, d in enumerate(x.schema.dimensions)}
    return RequestSet(schema, tuple(tuple(c[own[d]] if d in own else univ for d in schema.dimensions) for c in x.cubes))
