from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest
from hypothesis import settings

from policylens import parse_policy

# HYPOTHESIS_PROFILE=ci runs 1,000 examples of every property test that sets
# no max_examples of its own; the others keep their explicit budgets.
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

POLICY_DIR = Path(__file__).resolve().parent.parent / "policies"

MUSIC_POLICY = POLICY_DIR / "music_public_read.json"
DENY_ALL_POLICY = POLICY_DIR / "deny_all.json"
ALLOW_ALL_POLICY = POLICY_DIR / "allow_all.json"

MUSIC_REGEX = r"(mp3s/A1/.*\.mp3)|(lyrics/A1/.*\.txt)"


def corpus_paths() -> list[Path]:
    return sorted(POLICY_DIR.glob("*.json"))


def _random_pattern(rng: random.Random) -> str:
    return "".join(rng.choice("ab*?") for _ in range(rng.randint(0, 2)))


def random_policy_text(rng: random.Random) -> str:
    """JSON text of a small random policy over patterns in a, b, * and ?."""
    stmts = []
    for _ in range(rng.randint(1, 4)):
        stmt: dict = {"Effect": rng.choice(["Allow", "Deny"])}
        for name in ("Principal", "Action", "Resource"):
            key = ("Not" + name) if rng.random() < 0.25 else name
            stmt[key] = [_random_pattern(rng) for _ in range(rng.randint(1, 2))]
        nconds = rng.choices([0, 1, 2], weights=[5, 3, 2])[0]
        if nconds:
            cond: dict = {}
            for _ in range(nconds):
                op = rng.choice(["StringEquals", "StringNotEquals", "StringLike", "StringNotLike"])
                cond.setdefault(op, {})[rng.choice(["env", "ref"])] = [
                    _random_pattern(rng) for _ in range(rng.randint(1, 2))
                ]
            stmt["Condition"] = cond
        stmts.append(stmt)
    return json.dumps({"Statement": stmts})


@pytest.fixture(scope="session")
def corpus():
    return {p.name: parse_policy(p.read_text()) for p in corpus_paths()}


@pytest.fixture(scope="session")
def music_doc():
    return parse_policy(MUSIC_POLICY.read_text())


@pytest.fixture(scope="session")
def deny_all_doc():
    return parse_policy(DENY_ALL_POLICY.read_text())
