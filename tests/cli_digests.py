"""Print one SHA-256 digest per CLI case, run in-process on a checkout.

Usage: ``python tests/cli_digests.py CHECKOUT``

Each digest covers a case's exit code, standard output and standard error,
run with ``--no-timestamp`` from the checkout's root on its ``policies/``
corpus, importing ``policylens`` from the checkout's ``src/``.  Each line is
the digest, then the exit code, or ``raised`` for an exception that escaped
the CLI, then the case.  Two checkouts whose listings are equal produce
byte-identical CLI output on every case:

- ``summarize`` (json and text) and ``requests -k 3`` on every policy;
- ``compare`` and ``diff -n 200`` on every ordered pair of policies;
- all of the above at seeds 0 and 5, and ``count`` (unseeded) once per policy;
- at seed 0 under each lowered state cap in ``CAPS``, where commands run into
  the cap: ``count`` (unseeded), ``requests -k 3`` and ``summarize -n 200``
  on every policy, ``compare`` on every ordered pair and ``diff -n 200`` on
  every ordered pair of two different policies.  These cases are listed as
  ``cap=N`` followed by the command;
- at seed 0 under the lowered cube cap ``CUBE_CAP``: ``compare`` on every
  ordered pair of two different policies and ``requests -k 3`` on every
  policy, listed as ``cube-cap=N`` followed by the command;
- the provider, report-file and input-error paths (:func:`edge_cases`):
  ``summarize`` on every policy with the mock provider scripted to
  ``SCRIPT`` at the default threshold and at ``--threshold 0``, and with a
  timeout-only script under ``--no-fallback``; ``diff -n 200`` with
  ``SCRIPT`` at both thresholds on every ordered pair of ``TRIO``;
  ``summarize -n 200`` on every policy of ``TRIO`` with
  ``--include-extracted-regex-in-prompt`` and with the mock scripted to
  ``FENCED`` responses; every
  command writing ``--out`` to a file (whose content the digest also
  covers) and into a missing directory; and missing or malformed policies,
  bad option values and bad provider configs, with hostile inputs among them:
  a policy and a provider config nested past the JSON decoder's recursion
  limit, scripted candidates of 400 nested groups and of 1,200 nested
  star-unions, and out-of-range HTTP provider settings;
- pairs of policies over different condition keys (:data:`KEYED`):
  ``compare --witnesses 5`` and ``diff -n 200`` (plain, ``--dim a`` and
  ``--dim b``) on the two in both orders and on each against
  ``music_public_read.json``, and ``requests -k 3`` and ``count --dim b`` on
  each.

The files these cases read and write live in a temporary directory, written
as ``TMP/`` in the listing, in the argument lists and in everything a digest
covers, so the listing does not depend on where it is.  The file name keeps
pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

SEEDS = (0, 5)
CAPS = (16, 32)
CUBE_CAP = 2

# One accepted-at-threshold-0 candidate, one provider failure, one parse error.
SCRIPT = [".*", "<<TIMEOUT>>", "not(a regex"]
# A fenced block, a prose lead-in and a bare fence: the candidates .*, .* and none.
FENCED = ["```regex\n.*\n```", "Here is the regex:\n.*", "```\n```"]
TRIO = ("policies/music_public_read.json", "policies/allow_all.json", "policies/deny_all.json")
# Two policies over interleaved condition keys, so a pair is compiled over
# keys one policy does not name: a, c and a conditioned Deny; b and a
# StringNotEquals Deny.
KEYED = {
    "keys-ac.json": {"Statement": [
        {"Effect": "Allow", "Principal": "*", "Action": "s3:*", "Resource": "files/*",
         "Condition": {"StringLike": {"a": "x*"}}},
        {"Effect": "Deny", "Principal": "*", "Action": "s3:PutObject", "Resource": "files/secret*",
         "Condition": {"StringEquals": {"c": "prod"}}},
    ]},
    "keys-b.json": {"Statement": [
        {"Effect": "Allow", "Principal": "*", "Action": "s3:Get*", "Resource": "*"},
        {"Effect": "Deny", "Principal": "*", "Action": "s3:GetObject", "Resource": "files/secret*",
         "Condition": {"StringNotEquals": {"b": ["admin", "ops*"]}}},
    ]},
}
TMP_FILES = {
    "script.json": json.dumps({"script": SCRIPT}),
    "timeout.json": json.dumps({"script": ["<<TIMEOUT>>"]}),
    "fenced.json": json.dumps({"script": FENCED}),
    "not-json.json": "{not json",
    "list.json": json.dumps(["not", "an", "object"]),
    "http-model-only.json": json.dumps({"model": "m"}),
    "schema-error.json": json.dumps({"Statement": [{"Effect": "Allow"}]}),
    # Nested deeper than the JSON decoder's recursion limit, as a policy and as a provider config.
    "deep.json": "[" * 100000 + "]" * 100000,
    "nested-groups.json": json.dumps({"script": ["(" * 400 + "a" + ")" * 400]}),
    # 1,200 nested star-unions: cubic follow-set work would take seconds to score it.
    "star-unions.json": json.dumps({"script": ["(" * 1200 + "z" + "|ya)*" * 1200]}),
    # Rejected when the provider is built, so no request is made.
    **{
        f"http-{name}.json": json.dumps({"endpoint": "http://127.0.0.1:9/", "model": "m", **setting})
        for name, setting in (("timeout-negative", {"timeout": -1}), ("timeout-zero", {"timeout": 0}),
                              ("retries-negative", {"retries": -1}))
    },
    **{name: json.dumps(doc) for name, doc in KEYED.items()},
}
REPORT = "TMP/report.out"


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
    out += [["diff", p1, p2, "-n", "200", *s] for p1 in policies for p2 in policies if p1 != p2]
    return [argv + ["--no-timestamp"] for argv in out]


def cube_capped_cases(policies: list[str]) -> list[list[str]]:
    s = ["--seed", "0"]
    out = [["compare", p1, p2, *s] for p1 in policies for p2 in policies if p1 != p2]
    out += [["requests", p, "-k", "3", *s] for p in policies]
    return [argv + ["--no-timestamp"] for argv in out]


def edge_cases(policies: list[str]) -> list[list[str]]:
    script = ["--provider-config", "TMP/script.json"]
    out = []
    for p in policies:
        out += [
            ["summarize", p, *script],
            ["summarize", p, *script, "--threshold", "0"],
            ["summarize", p, "--provider-config", "TMP/timeout.json", "--no-fallback"],
        ]
    for p1 in TRIO:
        for p2 in TRIO:
            out += [["diff", p1, p2, "-n", "200", *script], ["diff", p1, p2, "-n", "200", *script, "--threshold", "0"]]
    for p in TRIO:
        out += [
            ["summarize", p, "-n", "200", "--include-extracted-regex-in-prompt"],
            ["summarize", p, "-n", "200", "--provider-config", "TMP/fenced.json"],
        ]
    music, deny = TRIO[0], TRIO[2]
    small = ["-n", "50", "-b", "8"]
    commands = [
        ["summarize", music, *small],
        ["compare", music, deny],
        ["diff", music, deny, *small],
        ["count", music],
        ["requests", music, "-k", "2"],
    ]
    for argv in commands:
        out += [argv + ["--out", REPORT], argv + ["--format", "text", "--out", REPORT]]
        out.append(argv + ["--out", "no/such/dir/report.json"])
    # Input errors: the policy first, so each command's policies precede its settings.
    for bad in ("policies/missing.json", "TMP/not-json.json", "TMP/schema-error.json", "TMP/deep.json"):
        out += [
            ["summarize", bad],
            ["summarize", bad, "--threshold", "2"],
            ["compare", bad, music],
            ["compare", music, bad],
            ["diff", bad, music],
            ["diff", music, bad, "--provider-config", "TMP/not-json.json"],
            ["count", bad],
            ["requests", bad],
        ]
    settings = [
        ["--threshold", "2"], ["--threshold", "-0.5"], ["--attempts", "0"], ["-n", "0"], ["-b", "-1"],
        ["--dim", "galaxy"], ["--provider-config", "policies/no-such-provider.json"],
        ["--provider-config", "TMP/not-json.json"], ["--provider-config", "TMP/list.json"],
        ["--provider", "http"], ["--provider", "http", "--provider-config", "TMP/http-model-only.json"],
        ["--threshold", "2", "--provider-config", "TMP/not-json.json"], ["--provider-config", "TMP/deep.json"],
        *(["--provider", "http", "--provider-config", f"TMP/http-{name}.json"]
          for name in ("timeout-negative", "timeout-zero", "retries-negative")),
    ]
    for extra in settings:
        out += [["summarize", music, *extra], ["diff", music, deny, *extra]]
    out += [
        ["summarize", deny, "--dim", "galaxy"],
        ["compare", music, deny, "--witnesses", "-1"],
        ["compare", "policies/missing.json", music, "--witnesses", "-1"],
        ["count", music, "-b", "-1"],
        ["count", music, "--dim", "galaxy"],
        ["count", "policies/missing.json", "-b", "-1"],
        ["requests", music, "-k", "-1"],
        ["requests", "policies/missing.json", "-k", "-1"],
        ["summarize", music, "--provider-config", "TMP/nested-groups.json"],
        ["summarize", music, "--provider-config", "TMP/star-unions.json"],
    ]
    ac, b = (f"TMP/{name}" for name in KEYED)
    for p1, p2 in ((ac, b), (b, ac), (ac, music), (b, music)):
        out.append(["compare", p1, p2, "--witnesses", "5"])
        out += [["diff", p1, p2, "-n", "200", *dim] for dim in ([], ["--dim", "a"], ["--dim", "b"])]
    for p in (ac, b):
        out += [["requests", p, "-k", "3"], ["count", p, "--dim", "b"]]
    return [argv + ["--no-timestamp"] for argv in out]


def run(main, argv: list[str], tmp: str) -> str:
    """The digest of one case and its exit code, or ``raised``."""
    out, err = io.StringIO(), io.StringIO()
    code: object = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=[a.replace("TMP/", f"{tmp}/") for a in argv], prog_name="policylens")
        except SystemExit as e:
            code = e.code
        except Exception as e:  # an uncaught error is part of the behaviour
            code = f"raised {type(e).__name__}: {e}"
    result = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    report = Path(REPORT.replace("TMP/", f"{tmp}/"))
    if report.exists():
        result += f"\0{report.read_text(encoding='utf-8')}"
        report.unlink()
    # The temporary directory's name differs on every run; a report names it as TMP/.
    result = result.replace(f"{tmp}/", "TMP/")
    return f"{hashlib.sha256(result.encode('utf-8')).hexdigest()} {'raised' if isinstance(code, str) else code}"


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/cli_digests.py CHECKOUT")
    root = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    os.chdir(root)
    from policylens import automata, requestsets
    from policylens.cli import main as cli

    policies = sorted(f"policies/{p.name}" for p in Path("policies").glob("*.json"))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in TMP_FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for argv in cases(policies):
            print(run(cli, argv, tmp), " ".join(argv))
        for cap in CAPS:
            with mock.patch.object(automata, "DEFAULT_STATE_CAP", cap):
                for argv in capped_cases(policies):
                    print(run(cli, argv, tmp), f"cap={cap}", " ".join(argv))
        with mock.patch.object(requestsets, "DEFAULT_CUBE_CAP", CUBE_CAP):
            for argv in cube_capped_cases(policies):
                print(run(cli, argv, tmp), f"cube-cap={CUBE_CAP}", " ".join(argv))
        for argv in edge_cases(policies):
            print(run(cli, argv, tmp), " ".join(argv))


if __name__ == "__main__":
    main()
