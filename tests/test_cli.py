from __future__ import annotations

import contextlib
import errno
import gc
import io
import json
import os
import subprocess
import sys
import threading
import weakref

import pytest
from click.testing import CliRunner

from policylens import automata, cli
from policylens.automata import Dfa
from policylens.cli import main
from policylens.errors import (
    CubeBlowup,
    PolicyLensError,
    ProviderError,
    SchemaError,
    StateBlowup,
    VerificationError,
)
from policylens.policy import parse_policy
from policylens.providers import MOCK_TIMEOUT
from policylens.requestsets import compare_policies, compile_policy, sample_requests
from policylens.simplifier import count_str

from conftest import ALLOW_ALL_POLICY, DENY_ALL_POLICY, MUSIC_POLICY, MUSIC_REGEX, corpus_paths
from test_kernels import _explored
from test_requestsets import _hand_over

MUSIC = str(MUSIC_POLICY)
DENY_ALL = str(DENY_ALL_POLICY)
ALLOW_ALL = str(ALLOW_ALL_POLICY)


@pytest.fixture()
def runner():
    return CliRunner()


def provider_config(tmp_path, **payload) -> str:
    path = tmp_path / "provider.json"
    path.write_text(json.dumps(payload))
    return str(path)


def body_json(output: str) -> dict:
    # everything after the one-line human summary is the report body
    _, _, rest = output.partition("\n")
    return json.loads(rest)


def test_summarize_accepted_candidate(runner, tmp_path):
    cfg = provider_config(tmp_path, script=[MUSIC_REGEX])
    result = runner.invoke(
        main,
        ["summarize", MUSIC, "--provider", "mock", "--provider-config", cfg,
         "-n", "40", "-b", "14", "--attempts", "1"],
    )
    assert result.exit_code == 0, result.output
    assert result.output.startswith("summary (candidate, J=1.0): ")
    report = body_json(result.output)
    assert report["command"] == "summarize"
    assert report["chosen"] == MUSIC_REGEX
    assert report["chosen_source"] == "candidate"
    assert report["similarity"] == "1.0"
    assert report["samples"]
    assert "timestamp" in report and "timings" in report


def test_summarize_empty_policy(runner):
    result = runner.invoke(main, ["summarize", DENY_ALL, "--no-timestamp"])
    assert result.exit_code == 0
    assert result.output.startswith("summary: ∅")
    report = body_json(result.output)
    assert report["empty_language"] is True
    assert report["chosen"] == "∅"
    assert report["candidates"] == []
    assert "timestamp" not in report and "timings" not in report


def test_summarize_fallback(runner, tmp_path):
    cfg = provider_config(tmp_path, script=["zzz"])
    result = runner.invoke(
        main, ["summarize", MUSIC, "--provider-config", cfg, "-n", "20", "-b", "6", "--attempts", "1"]
    )
    assert result.exit_code == 0
    assert result.output.startswith("summary (exact, fallback): ")
    report = body_json(result.output)
    assert report["fallback"] is True
    assert report["chosen"] == report["extracted_regex"]


def test_summarize_no_fallback_provider_failure(runner, tmp_path):
    cfg = provider_config(tmp_path, script=[MOCK_TIMEOUT])
    result = runner.invoke(
        main,
        ["summarize", MUSIC, "--provider-config", cfg, "--no-fallback", "-n", "5", "--attempts", "2"],
    )
    assert result.exit_code == 3
    assert "error:" in result.output


def test_summarize_missing_file(runner):
    result = runner.invoke(main, ["summarize", "no/such/file.json"])
    assert result.exit_code == 1


def test_summarize_invalid_policy(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"Statement": [{"Effect": "Allow"}]}')
    result = runner.invoke(main, ["summarize", str(bad)])
    assert result.exit_code == 1
    assert "error:" in result.output


def test_summarize_bad_config_value(runner):
    result = runner.invoke(main, ["summarize", MUSIC, "--threshold", "2.0"])
    assert result.exit_code == 1


def test_summarize_out_file_and_text_format(runner, tmp_path):
    out = tmp_path / "report.txt"
    result = runner.invoke(
        main,
        ["summarize", DENY_ALL, "--format", "text", "--out", str(out), "--no-timestamp"],
    )
    assert result.exit_code == 0
    assert result.output == "summary: ∅ (policy allows nothing)\n"
    text = out.read_text()
    assert "command: summarize" in text
    assert "empty_language: true" in text


def test_summarize_deterministic_with_no_timestamp(runner, tmp_path):
    cfg = provider_config(tmp_path, script=[MUSIC_REGEX])
    args = ["summarize", MUSIC, "--provider-config", cfg, "--seed", "7",
            "-n", "30", "-b", "6", "--attempts", "1", "--no-timestamp"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_compare_command(runner):
    result = runner.invoke(main, ["compare", DENY_ALL, MUSIC, "--no-timestamp"])
    assert result.exit_code == 0
    assert result.output.startswith("verdict: SecondMorePermissive")
    report = body_json(result.output)
    assert report["verdict"] == "SecondMorePermissive"
    assert report["witnesses_first_only"] == []
    assert 0 < len(report["witnesses_second_only"]) <= 3
    for witness in report["witnesses_second_only"]:
        assert set(witness) == {"principal", "action", "resource"}


@pytest.mark.parametrize("witnesses", ["-1", "-3"])
def test_compare_rejects_negative_witnesses(runner, witnesses):
    result = runner.invoke(main, ["compare", MUSIC, ALLOW_ALL, "--witnesses", witnesses])
    assert result.exit_code == 1
    assert result.output.startswith("error: --witnesses must be non-negative")


def test_compare_equivalent(runner):
    result = runner.invoke(main, ["compare", MUSIC, MUSIC, "--witnesses", "2"])
    assert result.exit_code == 0
    assert body_json(result.output)["verdict"] == "Equivalent"


def test_diff_command(runner, tmp_path):
    cfg = provider_config(tmp_path, script=["x"])
    result = runner.invoke(
        main,
        ["diff", MUSIC, DENY_ALL, "--provider-config", cfg, "-n", "10", "-b", "6",
         "--attempts", "1", "--no-timestamp"],
    )
    assert result.exit_code == 0, result.output
    report = body_json(result.output)
    assert report["command"] == "diff"
    assert report["first_only"]["empty_language"] is False
    assert report["second_only"]["empty_language"] is True
    assert report["second_only"]["chosen"] == "∅"


def test_count_command(runner):
    result = runner.invoke(main, ["count", ALLOW_ALL, "-b", "2", "--no-timestamp"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "9121"
    report = json.loads("\n".join(lines[1:]))
    assert report["count"] == "9121"
    assert report["bound"] == 2
    assert report["dimension"] == "resource"


def test_count_empty_language(runner):
    result = runner.invoke(main, ["count", DENY_ALL, "-b", "5"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "0"


def test_count_negative_bound(runner):
    result = runner.invoke(main, ["count", MUSIC, "-b", "-1"])
    assert result.exit_code == 1


def _pinned(text: str, n: int) -> bool:
    """Whether ``text`` is the decimal digits of ``n``, by its length and its
    first and last 30 digits: ``n`` is never converted to a string."""
    head = 10 ** (len(text) - 30)
    in_range = 10 ** (len(text) - 1) <= n < 10 ** len(text)
    return in_range and int(text[:30]) == n // head and int(text[-30:]) == n % 10**30


@pytest.mark.parametrize("n", [0, 1, 9, 10, 9121, 95**100, 10**4299, 10**4300 - 1])
def test_a_count_within_the_int_str_limit_prints_as_str(n):
    assert count_str(n) == str(n)


def _int_str_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()  # Python 3.10.7 and later


def test_count_longer_than_the_int_str_limit_prints(runner):
    limit = _int_str_limit()
    result = runner.invoke(main, ["count", ALLOW_ALL, "-b", "2175", "--no-timestamp"])
    assert_handled(result, 0)
    lines = result.output.splitlines()
    assert len(lines[0]) > 4300 and _pinned(lines[0], (95**2176 - 1) // 94)
    assert json.loads("\n".join(lines[1:]))["count"] == lines[0]
    assert _int_str_limit() == limit


@pytest.mark.parametrize(
    "args, side",
    [
        (["summarize", ALLOW_ALL], None),
        (["summarize", MUSIC, "--threshold", "0"], None),
        (["diff", ALLOW_ALL, DENY_ALL], "first_only"),
    ],
    ids=["summarize", "summarize-threshold-0", "diff"],
)
def test_model_counts_longer_than_the_int_str_limit_print(runner, tmp_path, args, side):
    limit = _int_str_limit()
    cfg = provider_config(tmp_path, script=[".*"])
    options = ["--bound", "2200", "--provider", "mock", "--provider-config", cfg, "--no-timestamp"]
    result = runner.invoke(main, args + options)
    assert_handled(result, 0)
    report = body_json(result.output)
    counts = (report[side] if side else report)["model_counts"]
    assert _pinned(counts["union"], (95**2201 - 1) // 94)  # .* within the bound
    assert len(counts["intersection"]) > 4300
    assert _int_str_limit() == limit


def test_requests_command(runner):
    result = runner.invoke(main, ["requests", MUSIC, "-k", "2", "--no-timestamp"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("allowed: 2, denied: 2")
    report = body_json(result.output)
    assert len(report["allowed"]) == 2 and len(report["denied"]) == 2
    for req in report["allowed"] + report["denied"]:
        assert set(req) == {"principal", "action", "resource"}


def test_requests_zero(runner):
    result = runner.invoke(main, ["requests", MUSIC, "-k", "0", "--no-timestamp"])
    assert result.exit_code == 0
    report = body_json(result.output)
    assert report["allowed"] == [] and report["denied"] == []


def test_requests_partial_sides(runner):
    # nothing is allowed: the allowed side is empty, output is partial
    result = runner.invoke(main, ["requests", DENY_ALL, "-k", "1", "--no-timestamp"])
    assert result.exit_code == 4
    report = body_json(result.output.replace("warning: no allowed requests exist; emitting partial output\n", ""))
    assert report["allowed"] == [] and len(report["denied"]) == 1
    # everything is allowed: the denied side is empty
    result = runner.invoke(main, ["requests", ALLOW_ALL, "-k", "1", "--no-timestamp"])
    assert result.exit_code == 4


@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_requests_report_is_sample_requests(runner, path):
    allowed, denied = sample_requests(parse_policy(path.read_text()), 3, seed=5)
    result = runner.invoke(main, ["requests", str(path), "-k", "3", "--seed", "5", "--no-timestamp"])
    partial = not allowed or not denied
    assert result.exit_code == (4 if partial else 0), result.output
    warnings = [f"warning: no {label} requests exist; emitting partial output\n"
                for label, side in (("allowed", allowed), ("denied", denied)) if not side]
    assert result.output.startswith("".join(warnings) + f"allowed: {len(allowed)}, denied: {len(denied)}\n")
    report = body_json(result.output[len("".join(warnings)):])
    assert report == {"command": "requests", "policy": str(path), "k": 3, "allowed": allowed, "denied": denied}


def test_requests_negative_k(runner):
    result = runner.invoke(main, ["requests", MUSIC, "-k", "-2"])
    assert result.exit_code == 1


def test_unknown_dimension_is_input_error(runner):
    result = runner.invoke(main, ["count", MUSIC, "--dim", "galaxy"])
    assert result.exit_code == 1


@pytest.mark.parametrize("argv", [["summarize", DENY_ALL], ["diff", DENY_ALL, DENY_ALL]])
def test_unknown_dimension_fails_on_an_empty_set(runner, argv):
    result = runner.invoke(main, [*argv, "--dim", "bogus", "--no-timestamp"])
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    assert result.stderr == "error: unknown dimension 'bogus'\n"


def test_lowered_state_cap_stops_policy_compilation(runner, monkeypatch):
    # Each pattern's subset construction runs under the module's one state cap.
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 3)
    message = "subset construction exceeded the state cap of 3"
    with pytest.raises(StateBlowup, match=message):
        compile_policy(parse_policy(MUSIC_POLICY.read_text()))
    for command in ("count", "summarize"):
        result = runner.invoke(main, [command, MUSIC, "--no-timestamp"])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"


def test_failed_verification_exits_5(runner, monkeypatch, tmp_path):
    # Each command's first sampled side is handed the other side's requests.
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for path, resource in ((first, "a/*"), (second, "b/*")):
        path.write_text(json.dumps({"Statement": [
            {"Effect": "Allow", "Principal": "*", "Action": "*", "Resource": resource}]}))
    doc1, doc2 = (parse_policy(p.read_text()) for p in (first, second))
    cases = [
        (["requests", MUSIC, "-k", "2"], sample_requests(parse_policy(MUSIC_POLICY.read_text()), 2)[1]),
        (["compare", str(first), str(second)], compare_policies(doc1, doc2).witnesses_second),
    ]
    for argv, other_side in cases:
        with monkeypatch.context() as m:
            _hand_over(m, 0, other_side)
            result = runner.invoke(main, argv + ["--no-timestamp"])
        assert result.exit_code == 5, result.output
        assert result.stdout == ""
        assert result.stderr.startswith("error: sampled request ")
        assert result.stderr.count("\n") == 1 and "failed verification" in result.stderr


def test_http_provider_config_missing_keys(runner, tmp_path):
    cfg = provider_config(tmp_path, model="m")
    result = runner.invoke(main, ["summarize", MUSIC, "--provider", "http", "--provider-config", cfg])
    assert result.exit_code == 1


@pytest.mark.parametrize("value", ["hot", None])
def test_non_numeric_http_provider_setting_is_an_input_error(runner, tmp_path, value):
    cfg = provider_config(tmp_path, endpoint="e", model="m", temperature=value)
    result = runner.invoke(main, ["summarize", MUSIC, "--provider", "http", "--provider-config", cfg])
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    assert result.stderr == f"error: http provider config 'temperature' is not a number: {value!r}\n"


@pytest.mark.parametrize("script", [5, "abc", None, ["ok", 7]])
def test_mistyped_mock_script_is_an_input_error(runner, tmp_path, script):
    cfg = provider_config(tmp_path, script=script)
    result = runner.invoke(main, ["summarize", MUSIC, "--provider-config", cfg, "-n", "10", "-b", "6"])
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    assert result.stderr == "error: mock provider config 'script' is not a list of strings\n"


@pytest.mark.parametrize("by_prompt", [["x"], "x", {"digest": 3}])
def test_mistyped_mock_by_prompt_is_an_input_error(runner, tmp_path, by_prompt):
    cfg = provider_config(tmp_path, by_prompt=by_prompt)
    result = runner.invoke(main, ["diff", MUSIC, DENY_ALL, "--provider-config", cfg, "-n", "10", "-b", "6"])
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    assert result.stderr == "error: mock provider config 'by_prompt' is not an object of strings\n"


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0


def test_in_process_runs_release_redirected_streams():
    # One command's stdout and stderr, each a fresh stream, must not outlive it.
    refs = []
    for argv in (["count", MUSIC, "--no-timestamp"], ["requests", DENY_ALL, "-k", "1"],
                 ["count", MUSIC, "--dim", "galaxy"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with contextlib.suppress(SystemExit):
                main.main(args=argv, prog_name="policylens", standalone_mode=False)
        assert out.getvalue() or err.getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert all(ref() is None for ref in refs)


COMMANDS = {
    "summarize": ["summarize", MUSIC, "-n", "10", "-b", "6", "--attempts", "1"],
    "compare": ["compare", MUSIC, ALLOW_ALL],
    "diff": ["diff", MUSIC, DENY_ALL, "-n", "10", "-b", "6", "--attempts", "1"],
    "count": ["count", MUSIC, "-b", "6"],
    "requests": ["requests", MUSIC, "-k", "2"],
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
@pytest.mark.parametrize("stamped", [True, False], ids=["timestamp", "no-timestamp"])
def test_every_command_writes_out_in_text_format(runner, tmp_path, argv, stamped):
    out = tmp_path / "report.txt"
    extra = [] if stamped else ["--no-timestamp"]
    result = runner.invoke(main, argv + ["--format", "text", "--out", str(out)] + extra)
    assert result.exit_code == 0, result.output
    assert len(result.output.splitlines()) == 1  # only the summary line
    lines = out.read_text().splitlines()
    assert lines[0] == f"command: {argv[0]}"
    assert any(line.startswith("timestamp: ") for line in lines) == stamped
    # Every command reports its timings (diff per side) and its scope's stats.
    assert any(line.strip() == "timings:" for line in lines) == stamped
    assert ("stats:" in lines) == stamped


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_every_command_reports_stats_and_timings_with_a_total(runner, argv):
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    report = body_json(result.output)
    stats = report["stats"]
    assert list(stats) == sorted(stats) and set(stats) >= {"products", "products_cached", "states", "draws"}
    assert all(type(value) is int and value >= 0 for value in stats.values())
    sides = [report["first_only"], report["second_only"]] if argv[0] == "diff" else [report]
    for timings in (side["timings"] for side in sides):
        assert "total" in timings and timings["total"] >= sum(v for k, v in timings.items() if k != "total")
    assert ("timings" in report) == (argv[0] != "diff")


@pytest.mark.parametrize("command", COMMANDS)
def test_reported_products_are_the_misses_and_hits_of_the_product(runner, monkeypatch, command):
    scopes, call = [], getattr(cli, LIBRARY_CALLS[command])

    def spy(*args, **kwargs):
        scopes.append(automata._ACTIVE.get())
        return call(*args, **kwargs)

    monkeypatch.setattr(cli, LIBRARY_CALLS[command], spy)
    result = runner.invoke(main, COMMANDS[command])
    assert result.exit_code == 0, result.output
    [scope] = scopes
    stats = body_json(result.output)["stats"]
    assert (stats["products"], stats["products_cached"]) == (scope.misses[Dfa.intersect], scope.hits[Dfa.intersect])


@pytest.mark.parametrize("command", COMMANDS)
def test_reported_states_are_the_keys_every_exploration_numbered(runner, command):
    results = []
    tables = _explored(lambda: results.append(runner.invoke(main, COMMANDS[command])))
    assert results[0].exit_code == 0, results[0].output
    assert body_json(results[0].output)["stats"]["states"] == sum(len(keys) for _, keys, _ in tables) > 0


def test_summarize_reports_its_draws_and_a_failed_provider_attempt(runner, tmp_path):
    cfg = provider_config(tmp_path, script=[MOCK_TIMEOUT, MUSIC_REGEX])
    argv = ["summarize", MUSIC, "-n", "20", "-b", "14", "--attempts", "2", "--provider-config", cfg]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    stats = body_json(result.output)["stats"]
    assert (stats["draws"], stats["provider_calls"], stats["provider_failures"], stats["http_retries"]) == (20, 2, 1, 0)


# Runs each argument list of the JSON list in argv[1] through the CLI, in one process.
STATS_CHILD = """
import json, sys
from policylens.cli import main
for argv in json.loads(sys.argv[1]):
    main.main(args=argv, prog_name="policylens", standalone_mode=False)
"""


def test_stats_do_not_depend_on_the_hash_seed(tmp_path):
    stats = []
    for seed in ("1", "2"):
        outs = {command: tmp_path / f"{seed}-{command}.json" for command in COMMANDS}
        cases = [COMMANDS[command] + ["--out", str(out)] for command, out in outs.items()]
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", STATS_CHILD, json.dumps(cases)], env=env, capture_output=True, check=True)
        stats.append({command: json.loads(out.read_text())["stats"] for command, out in outs.items()})
    assert stats[0] == stats[1]


# The library call each command makes, by the name the CLI module binds it to.
LIBRARY_CALLS = {
    "summarize": "generate_summarization",
    "compare": "compare_policies",
    "diff": "summarize_difference",
    "count": "compile_policy",
    "requests": "sample_requests",
}

TYPED_ERRORS = {
    "StateBlowup": (StateBlowup("too many states"), 2),
    "CubeBlowup": (CubeBlowup("too many cubes"), 2),
    "ProviderError": (ProviderError("provider down"), 3),
    "VerificationError": (VerificationError("sampled request failed verification"), 5),
    "SchemaError": (SchemaError("bad schema"), 1),
    "PolicyLensError": (PolicyLensError("bad input"), 1),
    "OSError": (OSError("disk gone"), 1),
}


@pytest.mark.parametrize("command", LIBRARY_CALLS)
@pytest.mark.parametrize("error, code", TYPED_ERRORS.values(), ids=TYPED_ERRORS.keys())
def test_runner_turns_each_typed_error_into_one_line_and_its_exit_code(runner, monkeypatch, command, error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, LIBRARY_CALLS[command], fail)
    result = runner.invoke(main, COMMANDS[command] + ["--no-timestamp"])
    assert result.exit_code == code, result.output
    assert result.stdout == ""
    assert result.stderr == f"error: {error}\n"


def test_closed_standard_output_exits_1_without_an_error_line(runner, monkeypatch):
    def fail(*args, **kwargs):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(cli, "compile_policy", fail)
    result = runner.invoke(main, ["count", MUSIC])
    assert result.exit_code == 1
    assert result.stdout == result.stderr == ""


@pytest.mark.parametrize("command", LIBRARY_CALLS)
def test_every_command_runs_in_one_operation_cache_scope(runner, monkeypatch, command):
    scopes = []
    call, emit = getattr(cli, LIBRARY_CALLS[command]), cli._emit

    def spy(inner):
        def wrapped(*args, **kwargs):
            scopes.append(automata._ACTIVE.get())
            return inner(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(cli, LIBRARY_CALLS[command], spy(call))
    monkeypatch.setattr(cli, "_emit", spy(emit))
    result = runner.invoke(main, COMMANDS[command] + ["--no-timestamp"])
    assert result.exit_code == 0, result.output
    assert len(scopes) == 2 and scopes[0] is not None and scopes[0] is scopes[1]
    assert automata._ACTIVE.get() is None


# Each command with the policy argument at ``position`` replaced: the first, and the second of compare and diff.
POLICY_POSITIONS = [(command, 1) for command in COMMANDS] + [("compare", 2), ("diff", 2)]


@pytest.mark.parametrize("command, position", POLICY_POSITIONS)
def test_policy_file_that_is_not_utf8_is_an_input_error(runner, tmp_path, command, position):
    argv = list(COMMANDS[command])
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    argv[position] = str(bad)
    result = runner.invoke(main, argv + ["--no-timestamp"])
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: policy file {bad} is not valid UTF-8: ")
    assert result.stderr.count("\n") == 1


# --- hostile input: every case ends in an exit code from the table, never a traceback

DEEP_JSON = "[" * 100_000 + "]" * 100_000


def assert_handled(result, code: int) -> None:
    """``code`` is 0 or a code from ``cli.EXIT_CODES``; the run raised nothing
    past the runner and wrote at most one ``error:`` line."""
    assert code == 0 or code in cli.EXIT_CODES.values()
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == code, result.output
    assert result.stderr.count("error:") <= 1
    assert "Traceback" not in result.stdout + result.stderr


@pytest.mark.parametrize("command, position", POLICY_POSITIONS)
def test_policy_nested_too_deep_is_an_input_error(runner, tmp_path, command, position):
    argv = list(COMMANDS[command])
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    argv[position] = str(deep)
    result = runner.invoke(main, argv + ["--no-timestamp"])
    assert_handled(result, 1)
    assert result.stdout == ""
    assert result.stderr.startswith("error: invalid policy JSON: ")


@pytest.mark.parametrize("command", ["summarize", "diff"])
def test_provider_config_nested_too_deep_is_an_input_error(runner, tmp_path, command):
    cfg = tmp_path / "deep.json"
    cfg.write_text(DEEP_JSON)
    result = runner.invoke(main, COMMANDS[command] + ["--provider-config", str(cfg), "--no-timestamp"])
    assert_handled(result, 1)
    assert result.stdout == ""
    assert result.stderr.startswith("error: invalid provider config: ")


def test_candidate_with_hundreds_of_nested_groups_is_scored(runner, tmp_path):
    cfg = provider_config(tmp_path, script=["(" * 400 + "a" + ")" * 400])
    result = runner.invoke(main, COMMANDS["summarize"] + ["--provider-config", cfg, "--no-timestamp"])
    assert_handled(result, 0)
    candidate = body_json(result.stdout)["candidates"][0]
    assert candidate["error"] is None and candidate["similarity"] is not None


def test_candidate_too_large_to_score_falls_back(runner, monkeypatch):
    # The echo mock's candidates need more states than the lowered cap; the
    # exact summary does not.
    monkeypatch.setattr(automata, "DEFAULT_STATE_CAP", 32)
    result = runner.invoke(main, ["summarize", MUSIC, "-n", "200", "--no-timestamp"])
    assert_handled(result, 0)
    report = body_json(result.stdout)
    assert report["fallback"] and report["chosen_source"] == "extracted"
    assert len(report["candidates"]) == 3
    for candidate in report["candidates"]:
        assert candidate["error"].startswith("too large to score: ")
        assert candidate["error"].endswith(" exceeded the state cap of 32")
        assert candidate["similarity"] is None


@pytest.mark.parametrize("command", ["summarize", "diff"])
@pytest.mark.parametrize(
    "setting, message",
    [
        ({"retries": 1e400}, "config 'retries' is not a number: inf"),
        ({"api_key": None}, "config 'api_key' is not a string: None"),
        ({"model": 5}, "config 'model' is not a string: 5"),
        ({"temperature": 1e400}, "temperature must be a finite number: inf"),
        ({"temperature": float("nan")}, "temperature must be a finite number: nan"),
        ({"temperature": True}, "config 'temperature' is not a number: True"),
        ({"timeout": True}, "config 'timeout' is not a number: True"),
        ({"retries": True}, "config 'retries' is not a number: True"),
        ({"retries": 1.9}, "config 'retries' is not a whole number: 1.9"),
        ({"timeout": 1e12}, f"timeout must be at most {threading.TIMEOUT_MAX} seconds: 1000000000000.0"),
    ],
    ids=[
        "retries-overflow", "api-key-null", "model-number",
        "temperature-overflow", "temperature-nan", "temperature-true", "timeout-true", "retries-true",
        "retries-fractional", "timeout-past-the-socket-limit",
    ],
)
def test_malformed_http_provider_setting_is_an_input_error(runner, tmp_path, command, setting, message):
    # json writes 1e400 as Infinity and nan as NaN, which it reads back as inf and nan.
    cfg = provider_config(tmp_path, **{"endpoint": "http://127.0.0.1:9/", "model": "m", **setting})
    result = runner.invoke(main, COMMANDS[command] + ["--provider", "http", "--provider-config", cfg])
    assert_handled(result, 1)
    assert result.stdout == ""
    assert result.stderr == f"error: http provider {message}\n"


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"timeout": -1}, "timeout must be a finite positive number of seconds: -1.0"),
        ({"timeout": 0}, "timeout must be a finite positive number of seconds: 0.0"),
        ({"timeout": float("nan")}, "timeout must be a finite positive number of seconds: nan"),
        ({"timeout": float("inf")}, "timeout must be a finite positive number of seconds: inf"),
        ({"retries": -1}, "retries must be non-negative: -1"),
    ],
    ids=["timeout-negative", "timeout-zero", "timeout-nan", "timeout-inf", "retries-negative"],
)
def test_out_of_range_http_provider_setting_is_an_input_error(runner, tmp_path, setting, message):
    # A loopback endpoint: the provider is rejected before any request is made.
    cfg = provider_config(tmp_path, endpoint="http://127.0.0.1:9/", model="m", **setting)
    result = runner.invoke(main, COMMANDS["summarize"] + ["--provider", "http", "--provider-config", cfg])
    assert_handled(result, 1)
    assert result.stdout == ""
    assert result.stderr == f"error: http provider {message}\n"
