"""Independent reference implementations used only to check the engine.

Nothing here may call into the engine's matching/counting/evaluation logic:
the wildcard matcher is a direct DP, regex membership goes through Python's
``re`` module, the policy evaluator applies the allow/deny rule
statement by statement on concrete requests, the minimizer is Moore's
round-by-round refinement, and the sampler walks the AST node by node,
picking with ``rng.choice``.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache
from itertools import product

from policylens.alphabet import FULL_MASK, chars_of
from policylens.errors import EmptyLanguage
from policylens.policy import Effect, PolicyDocument
from policylens.regex import EPSILON, CharClass, Concat, Empty, Epsilon, RegexAst, Star, Union, union_children
from policylens.sampler import SamplerConfig


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


def reference_sample(r: RegexAst, cfg: SamplerConfig, rng: random.Random) -> str:
    """The sampler's draw as a direct walk of the AST, re-interpreting every
    node on every visit and picking with ``rng.choice``.  The engine's
    sampler must make the same draws from the same random stream."""
    if r.lang_empty:
        raise EmptyLanguage("cannot sample from the empty language")
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
                children = [c for c in union_children(node) if not c.lang_empty]
                stack.append(("v", rng.choice(children)))
            elif isinstance(node, Star):
                stack.append(("s", node.inner, cfg.threshold))
            else:
                raise EmptyLanguage("cannot sample from the empty language")
        else:
            _, body, thresh = item
            if length >= cfg.max_length:
                continue
            if rng.random() >= thresh:
                stack.append(("s", body, thresh * cfg.growth))
                stack.append(("v", body))
    return "".join(out)
