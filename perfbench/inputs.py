"""Seeded inputs for the benchmark workloads.

Every workload draws from a family of inputs indexed 0..FAMILY_SIZE-1.  The
input at an index is generated from its own random stream, so it is the same
on every run and its output digest can be recorded once (``digests.json``).
The workload seed only chooses which members a run uses and in what order.
A run is a sequence of rounds of fixed composition, and measures whole
rounds, so every seed sees the same mix of input shapes.  No input repeats
within a run.

Summarize variants carry a gold resource regex written here from the
statement shapes emitted, without calling policylens: the resource
projection of each shape is a plain union of wildcard patterns.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("summarize", "compare-edit", "requests-count")

FAMILY_SIZE = 1024

CORPUS = (
    "all_but_delete.json",
    "allow_all.json",
    "contradictory_conditions.json",
    "deny_all.json",
    "deny_prod_writes.json",
    "media_split_read.json",
    "music_public_read.json",
    "notaction_readonly.json",
    "notprincipal_secret.json",
    "readonly_logs.json",
    "referer_gated_web.json",
    "versioned_single_char.json",
)

# Summarize round: one member of each class, half answered by the echo mock
# and half by the scripted mock; the first round also holds the twelve
# corpus files and the blowup input, answered by the echo mock.  The "music"
# shape (NotResource patterns ending in an extension) is slow under the echo
# mock, so it comes once a round among 36 other variants: a run then holds
# fewer than ten slow operations and the tail percentile is set by the
# other shapes.
SUMMARIZE_CLASSES = (("music", "echo"), ("music", "scripted")) + (
    ("notres", "echo"),
    ("notres", "scripted"),
    ("split", "echo"),
    ("split", "scripted"),
    ("qmark", "echo"),
    ("qmark", "scripted"),
) * 6
# Compare round: one pair per edit kind and policy size.
COMPARE_CLASSES = tuple((kind, n) for n in (3, 5, 7) for kind in ("add-allow", "add-deny", "remove", "edit"))
# Requests round: six random policies of each size from 3 to 7 statements,
# one allow-all or deny-all policy (``requests`` exits 4 by design) and one
# policy with a ``*a?????`` resource.
REQUESTS_CLASSES = tuple(f"random-{n}" for n in (3, 4, 5, 6, 7)) * 6 + ("typed", "hang")

HANG_PATTERN = "*a?????"
# The same shape two positions shorter: its extracted regex prints to about
# 14,600 characters, against a few dozen for the other inputs.  Each position
# multiplies that by about fifteen, and the full shape does not finish in
# summarize, so a run holds this one, once, in its first round.
BLOWUP_PATTERN = "*a???"

# Vocabulary shaped like the corpus.
TOP = ("mp3s", "lyrics", "logs", "media", "backups", "docs", "reports", "archive",
       "data", "web", "img", "files", "builds", "exports")
SUB = ("A1", "B2", "C3", "eu", "us", "team-x", "2024", "v1", "raw", "pub")
EXT = (".mp3", ".txt", ".png", ".csv", ".json", ".log", ".gz")
ACTIONS = ("s3:GetObject", "s3:PutObject", "s3:ListBucket", "s3:DeleteObject",
           "s3:GetObjectAcl", "kv:Read", "kv:Write")
ACTION_GLOBS = ("s3:Get*", "s3:Put*", "s3:*", "kv:*", "*")
PRINCIPALS = ("*", "user/alice", "user/bob", "role/admin", "role/*", "service/batch-??")
COND_KEYS = ("env", "aws:Referer", "team")
COND_VALUES = {
    "env": ("prod", "staging", "dev*"),
    "aws:Referer": ("https://example.com/*", "https://www.example.com/*"),
    "team": ("blue", "red", "gr??n"),
}


@dataclass(frozen=True)
class Case:
    """One operation's input.

    ``policies`` holds policy JSON texts (one, or two for compare); a corpus
    case names its file in ``corpus`` instead.  ``gold`` is the exact regex
    of the resource projection, the union of the wildcard patterns in
    ``resources``.  ``script`` is the scripted mock's responses (None: the
    echo mock).  ``expect`` is the documented
    outcome the checks hold the output to: for compare the edit direction,
    for requests the expected exit code of the ``requests`` command."""

    workload: str
    index: int
    shape: str
    policies: tuple[str, ...] = ()
    corpus: str | None = None
    gold: str | None = None
    resources: tuple[str, ...] = ()
    script: tuple[str, ...] | None = None
    expect: str | int | None = None


def glob_regex(pattern: str) -> str:
    """Regex text for a wildcard pattern over the vocabulary's characters."""
    out = []
    for ch in pattern:
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        elif ch.isalnum() or ch in "/-_:":
            out.append(ch)
        else:
            out.append("\\" + ch)
    return "".join(out)


def _alternation(patterns: list[str]) -> str:
    return "|".join(f"({glob_regex(p)})" for p in patterns)


def _doc(statements: list[dict]) -> str:
    return json.dumps({"Version": "2012-10-17", "Statement": statements}, indent=2)


def _stmt(effect: str, principal, action, resource, conditions=None,
          not_principal=False, not_action=False, not_resource=False) -> dict:
    s: dict = {"Effect": effect}
    s["NotPrincipal" if not_principal else "Principal"] = principal
    s["NotAction" if not_action else "Action"] = action
    s["NotResource" if not_resource else "Resource"] = resource
    if conditions:
        s["Condition"] = conditions
    return s


def _allow_condition(rng: random.Random) -> dict | None:
    """A satisfiable condition, or none; it never narrows the resource projection."""
    if rng.random() < 0.5:
        return None
    key = rng.choice(COND_KEYS)
    op = rng.choice(("StringEquals", "StringLike"))
    return {op: {key: rng.choice(COND_VALUES[key])}}


def _distinct(rng: random.Random, pool: tuple[str, ...], k: int) -> list[str]:
    return rng.sample(pool, k)


# -- summarize ----------------------------------------------------------------


def _summarize_notres(rng: random.Random, ext: bool) -> tuple[list[dict], list[str], str]:
    """Allow every resource, Deny all but a NotResource list (the music shape
    when the patterns end in an extension)."""
    k = rng.choice((1, 2, 2, 3))
    tops = _distinct(rng, TOP, k)
    if ext:
        keep = [f"{t}/{rng.choice(SUB)}/*{rng.choice(EXT)}" for t in tops]
    else:
        keep = [f"{t}/*" if rng.random() < 0.5 else f"{t}/{rng.choice(SUB)}/*" for t in tops]
    action = rng.choice(ACTIONS)
    stmts = [
        _stmt("Allow", "*", action, "*", _allow_condition(rng)),
        _stmt("Deny", "*", rng.choice((action, "*")), keep, not_resource=True),
    ]
    broad = "|".join(f"({t}/.*)" for t in tops) if ext else "[a-z].*"
    return stmts, keep, broad


def _summarize_split(rng: random.Random) -> tuple[list[dict], list[str], str]:
    """Allows on split prefixes; a Deny may remove one prefix whole, and a
    Deny on one of two actions leaves a prefix in the projection."""
    k = rng.choice((2, 3, 4))
    tops = _distinct(rng, TOP, k)
    prefixes = [f"{t}/*" if rng.random() < 0.5 else f"{t}/{rng.choice(SUB)}/*" for t in tops]
    stmts = []
    for p in prefixes:
        acts = _distinct(rng, ACTIONS, 2)
        stmts.append(_stmt("Allow", rng.choice(("*", "role/*")), acts, p, _allow_condition(rng)))
    kept = list(prefixes)
    if rng.random() < 0.5:
        cut = rng.randrange(k)
        stmts.append(_stmt("Deny", "*", "*", prefixes[cut]))
        kept.pop(cut)
    if rng.random() < 0.5:
        i = rng.randrange(k)
        partial = stmts[i]["Action"][1]
        stmts.append(_stmt("Deny", "*", partial, prefixes[i], _allow_condition(rng)))
    return stmts, kept, "[a-z].*"


def _summarize_qmark(rng: random.Random) -> tuple[list[dict], list[str], str]:
    """Resources with ``?`` runs of at most three characters."""
    shapes = (
        lambda: f"v{'?' * rng.randint(1, 2)}/{rng.choice(TOP)}",
        lambda: f"{rng.choice(TOP)}/20{'?' * rng.randint(1, 2)}/*",
        lambda: f"{rng.choice(TOP)}-{'?' * rng.randint(1, 3)}{rng.choice(EXT)}",
        lambda: f"{rng.choice(TOP)}/{rng.choice(SUB)}/q?/*",
    )
    k = rng.choice((1, 2, 3))
    patterns: list[str] = []
    while len(patterns) < k:
        p = rng.choice(shapes)()
        if p not in patterns:
            patterns.append(p)
    stmts = [
        _stmt("Allow", rng.choice(PRINCIPALS), rng.choice(ACTIONS), p, _allow_condition(rng))
        for p in patterns
    ]
    return stmts, patterns, ".*"


_SUMMARIZE_SHAPES = {
    "music": lambda rng: _summarize_notres(rng, ext=True),
    "notres": lambda rng: _summarize_notres(rng, ext=False),
    "split": _summarize_split,
    "qmark": _summarize_qmark,
}


# Deny statements that leave the resource projection as it is: each removes
# only an outside principal, an action no Allow grants, or requests that carry
# a condition value.  Real policies carry such guardrails, and their number
# spreads operation times within each shape.
GUARDRAILS = (
    lambda: _stmt("Deny", ["user/mallory", "guest/*"], "*", "*"),
    lambda: _stmt("Deny", "*", ["iam:*", "sts:AssumeRole"], "*"),
    lambda: _stmt("Deny", "*", "*", "*", {"StringEquals": {"blocked": "yes"}}),
    lambda: _stmt("Deny", "*", "*", "*", {"StringLike": {"aws:SourceVpc": "vpc-0bad*"}}),
)


def _summarize_case(index: int, rng: random.Random) -> Case:
    shape, provider = SUMMARIZE_CLASSES[index % len(SUMMARIZE_CLASSES)]
    stmts, patterns, broad = _SUMMARIZE_SHAPES[shape](rng)
    stmts += [g() for g in rng.sample(GUARDRAILS, rng.randint(0, len(GUARDRAILS)))]
    gold = _alternation(patterns)
    script = (gold, broad, f"({patterns[0]}") if provider == "scripted" else None
    return Case("summarize", index, f"{shape}-{provider}", (_doc(stmts),),
                gold=gold, resources=tuple(patterns), script=script)


# -- random policies (compare-edit, requests-count) ------------------------------


def _pick_clause(rng: random.Random, pool: tuple[str, ...], most: int) -> list[str]:
    return _distinct(rng, pool, rng.randint(1, most))


def _resource_patterns(rng: random.Random) -> tuple[str, ...]:
    return (
        f"{rng.choice(TOP)}/*",
        f"{rng.choice(TOP)}/{rng.choice(SUB)}/*",
        f"{rng.choice(TOP)}/*{rng.choice(EXT)}",
        f"{rng.choice(TOP)}/{rng.choice(SUB)}/v?/*",
        f"{rng.choice(TOP)}-??/*",
    )


def random_statement(rng: random.Random, effect: str, condition: bool = False, negate: str | None = None) -> dict:
    """One statement; ``negate`` names the clause written in its Not* form."""
    principal = _pick_clause(rng, PRINCIPALS, 2)
    action = _pick_clause(rng, ACTIONS + ACTION_GLOBS[:4], 3)
    resource = _pick_clause(rng, _resource_patterns(rng), 2)
    conditions = None
    if condition:
        key = rng.choice(COND_KEYS)
        op = rng.choice(("StringEquals", "StringLike", "StringNotEquals"))
        conditions = {op: {key: _pick_clause(rng, COND_VALUES[key], 2)}}
    return _stmt(
        effect, principal, action, resource, conditions,
        not_principal=negate == "Principal",
        not_action=negate == "Action",
        not_resource=negate == "Resource",
    )


def random_policy(rng: random.Random, n: int) -> list[dict]:
    """``n`` statements of fixed make-up, so that policies of one size cost
    about the same: a quarter of the statements after the first are Deny (at
    least one), one carries a condition and one Allow has a Not* clause.  The
    first is an Allow on a ``home/`` prefix no Deny names, and no Deny has a
    Not* clause, so some request is always allowed; no clause allows every
    action, so some request is always denied."""
    denies = set(rng.sample(range(1, n), max(1, n // 4)))
    with_condition = rng.randrange(1, n)
    allows = [i for i in range(1, n) if i not in denies]
    negated = rng.choice(allows) if allows else None
    first = random_statement(rng, "Allow")
    first["Resource"] = [f"home/{rng.choice(SUB)}/*"]
    return [first] + [
        random_statement(
            rng,
            "Deny" if i in denies else "Allow",
            condition=i == with_condition,
            negate=rng.choice(("Principal", "Action", "Resource")) if i == negated else None,
        )
        for i in range(1, n)
    ]


def _edit_statement(rng: random.Random, stmt: dict) -> dict:
    """The statement with one clause replaced by a fresh one."""
    out = dict(stmt)
    field = rng.choice([k for k in out if k.removeprefix("Not") in ("Principal", "Action", "Resource")])
    fresh = random_statement(rng, stmt["Effect"])
    out[field] = fresh[field.removeprefix("Not")]
    return out


def _compare_case(index: int, rng: random.Random) -> Case:
    kind, n = COMPARE_CLASSES[index % len(COMPARE_CLASSES)]
    first = random_policy(rng, n)
    second = list(first)
    if kind == "add-allow":
        second.insert(rng.randint(1, n), random_statement(rng, "Allow"))
        expect = "second-wider"
    elif kind == "add-deny":
        second.insert(rng.randint(1, n), random_statement(rng, "Deny"))
        expect = "first-wider"
    elif kind == "remove":
        i = rng.randrange(1, n)
        removed = second.pop(i)
        expect = "first-wider" if removed["Effect"] == "Allow" else "second-wider"
    else:
        i = rng.randrange(n)
        second[i] = _edit_statement(rng, second[i])
        expect = "any"
    return Case("compare-edit", index, f"{kind}-{n}", (_doc(first), _doc(second)), expect=expect)


def _requests_case(index: int, rng: random.Random) -> Case:
    kind = REQUESTS_CLASSES[index % len(REQUESTS_CLASSES)]
    if kind == "typed":
        if rng.random() < 0.5:
            stmts = [_stmt("Allow", "*", "*", "*")]
        else:
            stmts = random_policy(rng, 2) + [_stmt("Deny", "*", "*", "*")]
        return Case("requests-count", index, "typed", (_doc(stmts),), expect=4)
    if kind == "hang":
        stmts = random_policy(rng, 5)
        stmts.insert(1, _stmt("Allow", rng.choice(PRINCIPALS), rng.choice(ACTIONS), HANG_PATTERN))
    else:
        stmts = random_policy(rng, int(kind.removeprefix("random-")))
    return Case("requests-count", index, kind, (_doc(stmts),), expect=0)


_MAKERS = {
    "summarize": _summarize_case,
    "compare-edit": _compare_case,
    "requests-count": _requests_case,
}


def case(workload: str, index: int) -> Case:
    """The family member at ``index``, the same on every run."""
    return _MAKERS[workload](index, random.Random(f"{workload}/{index}"))


def corpus_case(name: str) -> Case:
    return Case("summarize", -1, "corpus", corpus=name)


def blowup_case() -> Case:
    """Summarize input whose extracted regex is exponentially larger than
    the policy; it takes family index FAMILY_SIZE."""
    stmts = [_stmt("Allow", "*", "s3:GetObject", BLOWUP_PATTERN)]
    return Case("summarize", FAMILY_SIZE, "blowup", (_doc(stmts),),
                gold=_alternation([BLOWUP_PATTERN]), resources=(BLOWUP_PATTERN,))


def _classes(workload: str) -> tuple:
    return {
        "summarize": SUMMARIZE_CLASSES,
        "compare-edit": COMPARE_CLASSES,
        "requests-count": REQUESTS_CLASSES,
    }[workload]


def plan(workload: str, seed: int) -> Iterator[list[Case]]:
    """The run's rounds for ``seed``, generated as they are needed.  Every
    round has the same composition of shapes; no member of the family
    appears twice."""
    rng = random.Random(seed)
    width = len(_classes(workload))
    # Indexes of one class share a residue; shuffle each residue's members.
    columns = []
    for r in range(width):
        members = list(range(r, FAMILY_SIZE, width))
        rng.shuffle(members)
        columns.append(members)
    for depth in range(min(len(c) for c in columns)):
        block = [case(workload, col[depth]) for col in columns]
        if depth == 0 and workload == "summarize":
            # The first round holds every corpus file and the blowup input,
            # so every run has all of them.
            block += [corpus_case(name) for name in CORPUS] + [blowup_case()]
        rng.shuffle(block)
        yield block
