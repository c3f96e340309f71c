"""Random generation of strings accepted by a regex.

The draw is structure-biased, not uniform over the language: nested unions
are collapsed into one child list and a child is picked uniformly; a star
keeps looping while a uniform draw stays above a threshold that starts at
``STAR_THRESHOLD`` and is multiplied by ``STAR_GROWTH`` per iteration; a
character class picks a member uniformly.  ``EMPTY`` is the only regex
with an empty language (see :mod:`policylens.regex`), so it never appears
inside another node, every draw is a member of the language, and only
``EMPTY`` itself raises EmptyLanguage.

A star also stops once the accumulated output reaches ``MAX_SAMPLE_LENGTH``;
output is never truncated mid-expansion, so strings may exceed the limit by
one body expansion.  At the default ``--bound`` of 100 this keeps samples
inside the model-counting window; the constant does not follow ``--bound``.

Each call first compiles the regex into a draw program, then runs its draws
over the program's instructions rather than over AST nodes.  Every
concatenation chain becomes one flat sequence; a run of single-character
classes becomes one literal; a star over a character class becomes one inner
loop; a union keeps its flattened non-empty children, each a sequence.
:func:`sample` and :func:`sample_n` (one program for all its draws) take
their programs from :func:`_compile`, which is memoized in the active
operation cache, so calls in one scope compile a regex once; nothing
outlives the call or the scope.  Compilation walks the hash-consed DAG with
an explicit work stack, so the very deep trees that state elimination builds
need no recursion.

Only ``rng.getrandbits`` and ``rng.random`` are consumed, in the order a
direct walker calling ``rng.choice`` consumes them, so for a fixed seed the
draws are identical to that walker's (kept as the test oracle
``tests/oracles.reference_sample``).
"""

from __future__ import annotations

import random

from .alphabet import chars_of
from .automata import memoized
from .errors import EmptyLanguage
from .regex import EMPTY, CharClass, Concat, RegexAst, Star, Union, union_children

# Read by each draw when it runs, as the caps are; the seed is the only value
# a caller passes.
STAR_THRESHOLD = 0.10
STAR_GROWTH = 1.01
MAX_SAMPLE_LENGTH = 100


def sample(r: RegexAst, rng: random.Random) -> str:
    """One accepted string of ``r``.  Raises EmptyLanguage if L(r) is empty.

    Inside an operation cache scope the draw program is compiled once per
    regex and shared by every call."""
    return _draw(_compile(r), rng)


def sample_n(r: RegexAst, n: int, seed: int = 0) -> set[str]:
    """Distinct strings from ``n`` draws, deterministic for a given seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    program = _compile(r)
    rng = random.Random(seed)
    return {_draw(program, rng) for _ in range(n)}


# Instruction opcodes.  A sequence is a tuple of instructions stored in
# reverse, so the draw loop pushes it onto its stack with one ``extend``.
#   (_LITERAL, text)           emit ``text``, one single-member pick per char
#   (_CLASS, chars, n, k)      emit one of the ``n`` members of ``chars``
#   (_STAR_CLASS, chars, n, k) a star over that class, run as one loop
#   (_UNION, seqs, n, k)       run one of the ``n`` sequences in ``seqs``
#   (_STAR, body)              a star over the sequence ``body``
#   (_LOOP, body, thresh)      a star's continuation, made while drawing
# ``k`` is ``n.bit_length()``, the width of the index draw.
_LITERAL, _CLASS, _STAR_CLASS, _UNION, _STAR, _LOOP = range(6)


@memoized
def _compile(r: RegexAst) -> tuple:
    """The draw program of ``r``: its instruction sequence.

    Nodes that start a sequence (the root, union children, star bodies) are
    compiled after the sequences they contain, each once, from an explicit
    work stack.  Raises EmptyLanguage if L(r) is empty.
    """
    if r is EMPTY:
        raise EmptyLanguage("cannot sample from the empty language")
    seqs: dict[RegexAst, tuple] = {}
    # Concatenation leaves of nodes whose inner sequences are still missing.
    pending: dict[RegexAst, list[RegexAst]] = {}
    # The nodes each union or star runs as sequences, and then its
    # instruction, shared by every sequence holding the node.
    inner: dict[RegexAst, list[RegexAst]] = {}
    shared: dict[RegexAst, tuple] = {}
    todo = [r]
    while todo:
        node = todo[-1]
        if node in seqs:
            todo.pop()
            continue
        leaves = pending.get(node)
        if leaves is None:
            leaves = pending[node] = _concat_leaves(node)
            missing = []
            for leaf in leaves:
                if leaf.__class__ is Union or leaf.__class__ is Star:
                    nodes = inner.get(leaf)
                    if nodes is None:
                        nodes = inner[leaf] = _inner_sequences(leaf)
                    missing += [c for c in nodes if c not in seqs]
            if missing:
                todo.extend(missing)
                continue
        del pending[node]
        todo.pop()
        seqs[node] = _sequence(leaves, seqs, inner, shared)
    return seqs[r]


def _concat_leaves(node: RegexAst) -> list[RegexAst]:
    """The non-concatenation nodes of ``node``'s concatenation chain, in order."""
    out: list[RegexAst] = []
    stack = [node]
    while stack:
        x = stack.pop()
        if x.__class__ is Concat:
            stack.append(x.right)
            stack.append(x.left)
        else:
            out.append(x)
    return out


def _inner_sequences(leaf: RegexAst) -> list[RegexAst]:
    """The nodes that the instruction for a union or star runs as sequences."""
    if leaf.__class__ is Union:
        return union_children(leaf)
    if leaf.inner.__class__ is CharClass:
        return []
    return [leaf.inner]


def _sequence(leaves: list[RegexAst], seqs: dict, inner: dict, shared: dict) -> tuple:
    """Instructions for a chain of ``leaves``, reversed for the draw stack."""
    out: list[tuple] = []
    run: list[str] = []  # characters of the literal being built
    for leaf in leaves:
        cls = leaf.__class__
        if cls is CharClass:
            chars = chars_of(leaf.mask)
            if len(chars) == 1:
                run.append(chars)
                continue
            ins = (_CLASS, chars, len(chars), len(chars).bit_length())
        elif cls is Union or cls is Star:
            ins = shared.get(leaf)
            if ins is None:
                ins = shared[leaf] = _shared_instruction(leaf, [seqs[c] for c in inner[leaf]])
        else:
            continue  # epsilon emits nothing
        if run:
            out.append((_LITERAL, "".join(run)))
            run = []
        out.append(ins)
    if run:
        out.append((_LITERAL, "".join(run)))
    out.reverse()
    return tuple(out)


def _shared_instruction(leaf: RegexAst, inner_seqs: list[tuple]) -> tuple:
    if leaf.__class__ is Union:
        return (_UNION, tuple(inner_seqs), len(inner_seqs), len(inner_seqs).bit_length())
    if inner_seqs:
        return (_STAR, inner_seqs[0])
    chars = chars_of(leaf.inner.mask)
    return (_STAR_CLASS, chars, len(chars), len(chars).bit_length())


def _draw(program: tuple, rng: random.Random) -> str:
    """The one draw loop: one string from a program made by :func:`_compile`.

    An index below ``n`` is drawn the way ``Random.choice`` draws it on
    CPython: ``getrandbits(n.bit_length())``, again while the result is
    ``>= n``.  A literal character is a pick from one member, so it calls
    ``getrandbits(1)`` until that returns 0.  A fused star checks the length
    budget before each ``random()``, as the star continuation does.  So the
    random stream, and every sample, is the one a walker calling
    ``rng.choice`` produces.
    """
    getrandbits = rng.getrandbits
    uniform = rng.random
    threshold, growth, max_length = STAR_THRESHOLD, STAR_GROWTH, MAX_SAMPLE_LENGTH
    out: list[str] = []
    emit = out.append
    length = 0
    stack = list(program)
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        ins = pop()
        op = ins[0]
        if op == _LITERAL:
            text = ins[1]
            for _ in text:
                while getrandbits(1):
                    pass
            emit(text)
            length += len(text)
        elif op == _STAR_CLASS:
            _, chars, n, k = ins
            thresh = threshold
            while length < max_length and uniform() >= thresh:
                i = getrandbits(k)
                while i >= n:
                    i = getrandbits(k)
                emit(chars[i])
                length += 1
                thresh *= growth
        elif op == _UNION:
            _, children, n, k = ins
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
            extend(children[i])
        elif op == _CLASS:
            _, chars, n, k = ins
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
            emit(chars[i])
            length += 1
        else:
            if op == _STAR:
                body, thresh = ins[1], threshold
            else:
                _, body, thresh = ins
            if length < max_length and uniform() >= thresh:
                push((_LOOP, body, thresh * growth))
                extend(body)
    return "".join(out)
