"""Random generation of strings accepted by a regex.

The draw is structure-biased, not uniform over the language: nested unions
are collapsed into one child list and a child is picked uniformly; a star
keeps looping while a uniform draw stays above a threshold that starts at
``threshold`` and is multiplied by ``growth`` per iteration; a character
class picks a member uniformly.  Union children with empty language are
excluded before the pick, so every draw is a member of the language.

A star also stops once the accumulated output reaches ``max_length``, which
keeps samples inside the model-counting window; output is never truncated
mid-expansion, so strings may exceed the limit by one body expansion.

Each call works from its own instruction table: the first visit to a node
stores what visiting it does (a class's member string, a union's flattened
non-empty children), and later visits in the same call reuse it.
:func:`sample_n` shares one table across its draws; nothing outlives the
call.  Only ``rng.getrandbits`` and ``rng.random`` are consumed, in the
order a direct walker calling ``rng.choice`` consumes them, so for a fixed
seed the draws are identical to that walker's (kept as the test oracle
``tests/oracles.reference_sample``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .alphabet import chars_of
from .errors import EmptyLanguage
from .regex import CharClass, Concat, EPSILON, RegexAst, Star, Union, union_children


@dataclass(frozen=True)
class SamplerConfig:
    threshold: float = 0.10
    growth: float = 1.01
    seed: int = 0
    max_length: int = 100

    def __post_init__(self) -> None:
        if not 0 < self.threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        if self.growth <= 1:
            raise ValueError("growth must be greater than 1")
        if self.max_length < 1:
            raise ValueError("max_length must be at least 1")


def sample(r: RegexAst, cfg: SamplerConfig, rng: random.Random) -> str:
    """One accepted string of ``r``.  Raises EmptyLanguage if L(r) is empty."""
    return _draw(r, {}, cfg, rng)


def sample_n(r: RegexAst, n: int, cfg: SamplerConfig) -> set[str]:
    """Distinct strings from ``n`` draws, deterministic for a given seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = random.Random(cfg.seed)
    table: dict[RegexAst, tuple] = {}
    return {_draw(r, table, cfg, rng) for _ in range(n)}


# Instruction opcodes; see _instruction.
_CHAR, _UNION, _CONCAT, _STAR, _EPSILON = range(5)


def _instruction(node: RegexAst) -> tuple:
    """What a visit to ``node`` does, worked out once per call.

    ``(_CHAR, chars, n, k)`` and ``(_UNION, children, n, k)`` pick one of
    ``n`` items with ``k = n.bit_length()``; ``(_CONCAT, (right, left))``
    pushes both halves; ``(_STAR, inner)`` pushes a star continuation.
    """
    if isinstance(node, CharClass):
        chars = chars_of(node.mask)
        return (_CHAR, chars, len(chars), len(chars).bit_length())
    if isinstance(node, Union):
        children = [c for c in union_children(node) if not c.lang_empty]
        return (_UNION, children, len(children), len(children).bit_length())
    if isinstance(node, Concat):
        return (_CONCAT, (node.right, node.left))
    if isinstance(node, Star):
        return (_STAR, node.inner)
    if node is EPSILON:
        return (_EPSILON,)
    raise EmptyLanguage("cannot sample from the empty language")


def _draw(r: RegexAst, table: dict[RegexAst, tuple], cfg: SamplerConfig, rng: random.Random) -> str:
    """The one draw loop.  ``table`` maps each node visited so far to its
    instruction; callers share it only between draws of the same call.

    An index below ``n`` is drawn the way ``Random.choice`` draws it on
    CPython: ``getrandbits(n.bit_length())``, again while the result is
    ``>= n``.  So the random stream, and every sample, is the one a walker
    calling ``rng.choice`` produces.
    """
    if r.lang_empty:
        raise EmptyLanguage("cannot sample from the empty language")
    getrandbits = rng.getrandbits
    uniform = rng.random
    threshold, growth, max_length = cfg.threshold, cfg.growth, cfg.max_length
    out: list[str] = []
    length = 0
    # Work stack of nodes to expand and star continuations ``(body, thresh)``,
    # which decide whether to run one more body expansion.
    stack: list = [r]
    while stack:
        item = stack.pop()
        if item.__class__ is tuple:
            body, thresh = item
            if length < max_length and uniform() >= thresh:
                stack.append((body, thresh * growth))
                stack.append(body)
            continue
        ins = table.get(item)
        if ins is None:
            ins = table[item] = _instruction(item)
        op = ins[0]
        if op == _CHAR:
            _, chars, n, k = ins
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
            out.append(chars[i])
            length += 1
        elif op == _CONCAT:
            stack.extend(ins[1])
        elif op == _UNION:
            _, children, n, k = ins
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
            stack.append(children[i])
        elif op == _STAR:
            stack.append((ins[1], threshold))
    return "".join(out)
