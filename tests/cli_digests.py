"""Print one SHA-256 digest per CLI case, run in-process on a checkout.

Usage: ``python tests/cli_digests.py CHECKOUT``

Each digest covers a case's exit code, standard output and standard error,
run with ``--no-timestamp`` from the checkout's root on its ``policies/``
corpus, importing ``policylens`` from the checkout's ``src/``.  Two checkouts
whose listings are equal produce byte-identical CLI output on every case:

- ``summarize`` (json and text) and ``requests -k 3`` on every policy;
- ``compare`` and ``diff -n 200`` on every ordered pair of policies;
- all of the above at seeds 0 and 5, and ``count`` (unseeded) once per policy;
- at seed 0 under each lowered state cap in ``CAPS``, where commands run into
  the cap: ``count`` (unseeded), ``requests -k 3`` and ``summarize -n 200``
  on every policy and ``compare`` on every ordered pair.  These cases are
  listed as ``cap=N`` followed by the command.

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

SEEDS = (0, 5)
CAPS = (16, 32)


def cases(policies: list[str]) -> list[list[str]]:
    out = [["count", p] for p in policies]
    for seed in SEEDS:
        s = ["--seed", str(seed)]
        for p in policies:
            out += [["summarize", p, *s], ["summarize", p, "--format", "text", *s], ["requests", p, "-k", "3", *s]]
        for p1 in policies:
            for p2 in policies:
                out += [["compare", p1, p2, *s], ["diff", p1, p2, "-n", "200", *s]]
    return [argv + ["--no-timestamp"] for argv in out]


def capped_cases(policies: list[str]) -> list[list[str]]:
    s = ["--seed", "0"]
    out = []
    for p in policies:
        out += [["count", p], ["requests", p, "-k", "3", *s], ["summarize", p, "-n", "200", *s]]
    out += [["compare", p1, p2, *s] for p1 in policies for p2 in policies]
    return [argv + ["--no-timestamp"] for argv in out]


def run(main, argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    code: object = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="policylens")
        except SystemExit as e:
            code = e.code
        except Exception as e:  # an uncaught error is part of the behaviour
            code = f"raised {type(e).__name__}: {e}"
    return f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode("utf-8")


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/cli_digests.py CHECKOUT")
    root = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    os.chdir(root)
    from policylens import automata
    from policylens.cli import main as cli

    policies = sorted(f"policies/{p.name}" for p in Path("policies").glob("*.json"))
    for argv in cases(policies):
        print(hashlib.sha256(run(cli, argv)).hexdigest(), " ".join(argv))
    default_cap = automata.DEFAULT_STATE_CAP
    try:
        for cap in CAPS:
            automata.DEFAULT_STATE_CAP = cap
            for argv in capped_cases(policies):
                print(hashlib.sha256(run(cli, argv)).hexdigest(), f"cap={cap}", " ".join(argv))
    finally:
        automata.DEFAULT_STATE_CAP = default_cap


if __name__ == "__main__":
    main()
