"""Per-operation correctness checks, independent of the engine's own answers.

Requests and compare witnesses are re-decided by the statement-by-statement
evaluator in ``tests/oracles.py``; summarize samples are matched under Python
``re`` against the extracted regex and the generator's gold regex.  Each check
returns a list of problems; an empty list means the operation is correct.
"""

from __future__ import annotations

import json
import re
import warnings

from oracles import ref_decide

VERDICT_DIRECTIONS = {
    "second-wider": {"Equivalent", "SecondMorePermissive"},
    "first-wider": {"Equivalent", "FirstMorePermissive"},
    "any": {"Equivalent", "FirstMorePermissive", "SecondMorePermissive", "Incomparable"},
}

# Strings of length 0..100 over the 95 printable characters: what an
# allow-all policy's resource count must be at bound 100.
ALL_STRINGS_TO_100 = sum(95**n for n in range(101))


def _report(stdout: str) -> dict:
    """The JSON report after the one-line human summary."""
    _, _, body = stdout.partition("\n")
    return json.loads(body)


def _fullmatch(pattern: str):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # nested-set warnings for '[' inside classes
        return re.compile(pattern).fullmatch


def check_summarize(case, docs, calls) -> list[str]:
    (code, stdout, _), = calls
    if code != 0:
        return [f"exit {code}"]
    report = _report(stdout)
    problems = []
    if report["empty_language"]:
        if report["samples"]:
            problems.append("empty language with samples")
        return problems
    extracted = _fullmatch(report["extracted_regex"])
    for s in report["samples"]:
        if not extracted(s):
            problems.append(f"sample {s!r} does not match the extracted regex")
            break
    if case.gold is not None:
        gold = _fullmatch(case.gold)
        for s in report["samples"]:
            if not gold(s):
                problems.append(f"sample {s!r} is outside the gold language")
                break
    if case.script is not None:
        if report["chosen_source"] != "candidate" or report["similarity"] != "1.0":
            problems.append(f"scripted gold not chosen at J=1.0: {report['chosen_source']} {report['similarity']}")
        elif report["chosen"] != case.gold:
            problems.append(f"chosen {report['chosen']!r} is not the gold regex")
    return problems


def check_compare(case, docs, calls) -> list[str]:
    (code, stdout, _), = calls
    if code != 0:
        return [f"exit {code}"]
    report = _report(stdout)
    first, second = docs
    problems = []
    verdict = report["verdict"]
    if verdict not in VERDICT_DIRECTIONS[case.expect]:
        problems.append(f"verdict {verdict} contradicts the edit ({case.expect})")
    only_first, only_second = report["witnesses_first_only"], report["witnesses_second_only"]
    if bool(only_first) != (verdict in ("FirstMorePermissive", "Incomparable")):
        problems.append(f"verdict {verdict} with {len(only_first)} first-only witnesses")
    if bool(only_second) != (verdict in ("SecondMorePermissive", "Incomparable")):
        problems.append(f"verdict {verdict} with {len(only_second)} second-only witnesses")
    for w in only_first:
        if not (ref_decide(first, w) and not ref_decide(second, w)):
            problems.append(f"witness {w} is not allowed by the first policy only")
    for w in only_second:
        if not (ref_decide(second, w) and not ref_decide(first, w)):
            problems.append(f"witness {w} is not allowed by the second policy only")
    return problems


def check_requests(case, docs, calls) -> list[str]:
    (count_code, count_out, _), (code, stdout, _) = calls
    (doc,) = docs
    if count_code != 0:
        return [f"count exit {count_code}"]
    if code != case.expect:
        return [f"requests exit {code}, expected {case.expect}"]
    count = int(_report(count_out)["count"])
    report = _report(stdout)
    problems = []
    for r in report["allowed"]:
        if not ref_decide(doc, r):
            problems.append(f"allowed request {r} is denied by the reference evaluator")
    for r in report["denied"]:
        if ref_decide(doc, r):
            problems.append(f"denied request {r} is allowed by the reference evaluator")
    if bool(report["allowed"]) != (count > 0):
        problems.append(f"count {count} with {len(report['allowed'])} allowed requests")
    if code == 4 and not report["denied"] and count != ALL_STRINGS_TO_100:
        problems.append(f"allow-all count {count} is not every string up to length 100")
    return problems


CHECKS = {
    "summarize": check_summarize,
    "compare-edit": check_compare,
    "requests-count": check_requests,
}
