"""Benchmark for policylens: one workload per process, driven through the CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload summarize --seed 1 --seconds 30 --trace 0

Each operation calls ``policylens.cli.main`` in-process, one after another
(a closed loop with one client).  ``--trace 0`` measures the end-to-end
metrics for ``--seconds`` of operation time; ``--trace 1`` runs a fixed list
of operations with every public function of the traced modules wrapped, and
reports the per-module metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Inputs come from ``inputs.py``; every operation is checked by ``checks.py``
and its output digest compared with ``digests.json``.  ``--record`` writes
that file by running every member of every workload's input family.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from inputs import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench-work")
DIGESTS = HERE / "digests.json"

# A hit counts as a failed operation.  The slowest operations at the seed
# commit (the music shape of summarize) take up to 5 s.
DEADLINE_S = 15.0
# Set-up runs measured per run; setup_s is their median.
SETUP_REPEATS = 5
# Rounds in a traced run: 51, 36 and 32 operations, 8 to 15 seconds
# untraced at the seed commit.
TRACE_ROUNDS = {"summarize": 1, "compare-edit": 3, "requests-count": 1}
TAIL_BEYOND = 10


class Deadline(BaseException):
    """Raised by the alarm when an operation exceeds DEADLINE_S."""


def _alarm(signum, frame):
    raise Deadline()


# -- set-up ---------------------------------------------------------------------


def _check_tree() -> None:
    missing = [p for p in ("src/policylens/cli.py", "tests/oracles.py", "policies") if not (ROOT / p).exists()]
    if missing:
        sys.exit(f"perfbench: not a policylens checkout, missing {', '.join(missing)}")


def setup(workload: str, seed: int | None, work: Path):
    """Import the package and prepare the first round of inputs.  Returns the
    CLI entry point and an iterator over rounds of operations, each operation
    a tuple (case, argument lists, parsed policies); later rounds are
    generated and written when the loop reaches them, outside the timed
    operations.  Without a seed there is one round: the whole input family."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    from policylens.cli import main
    from policylens.policy import parse_policy

    import inputs

    if seed is None:
        family = [inputs.case(workload, i) for i in range(inputs.FAMILY_SIZE)]
        if workload == "summarize":
            family += [inputs.corpus_case(name) for name in inputs.CORPUS] + [inputs.blowup_case()]
        rounds = iter([family])
    else:
        rounds = inputs.plan(workload, seed)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def prepare(block):
        return [_operation(workload, case, work, parse_policy) for case in block]

    first = prepare(next(rounds))
    return main, itertools.chain([first], map(prepare, rounds))


def _operation(workload: str, case, work: Path, parse_policy):
    """Write the case's files; return (case, CLI argument lists, parsed policies)."""
    if case.corpus is not None:
        paths = [f"policies/{case.corpus}"]
    else:
        paths = []
        for j, text in enumerate(case.policies):
            path = work / f"{case.index}-{'ab'[j]}.json"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
    docs = [parse_policy((ROOT / p).read_text(encoding="utf-8")) for p in paths]
    if workload == "summarize":
        argv = ["summarize", paths[0], "--no-timestamp"]
        if case.script is not None:
            config = work / f"{case.index}-provider.json"
            config.write_text(json.dumps({"script": list(case.script)}), encoding="utf-8")
            argv += ["--provider-config", str(config)]
        calls = [argv]
    elif workload == "compare-edit":
        calls = [["compare", paths[0], paths[1], "--no-timestamp"]]
    else:
        calls = [
            ["count", paths[0], "-b", "100", "--no-timestamp"],
            ["requests", paths[0], "-k", "3", "--no-timestamp"],
        ]
    return case, calls, docs


def _key(case) -> str:
    return f"corpus/{case.corpus}" if case.corpus is not None else str(case.index)


# -- one operation ----------------------------------------------------------------


def _invoke(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="policylens", standalone_mode=False)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def run_op(main, calls) -> tuple[float, list | None, str | None]:
    """Time one operation under the deadline.  Returns (seconds, outputs, error)."""
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    t0 = time.perf_counter()
    try:
        results = [_invoke(main, argv) for argv in calls]
        error = None
    except Deadline:
        results, error = None, f"deadline of {DEADLINE_S} s"
    except Exception as e:  # an untyped error is a failed operation, not a crash
        results, error = None, f"{type(e).__name__}: {e}"
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, results, error


def digest(results) -> str:
    h = hashlib.sha256()
    for code, stdout, stderr in results:
        h.update(json.dumps([code, stdout, stderr]).encode("utf-8"))
    return h.hexdigest()[:32]


def verify(workload, case, docs, results, recorded) -> list[str]:
    from checks import CHECKS

    try:
        problems = CHECKS[workload](case, docs, results)
    except (ValueError, KeyError, TypeError) as e:
        problems = [f"unreadable output: {type(e).__name__}: {e}"]
    if recorded is not None:
        want = recorded.get(_key(case))
        if want is None:
            problems.append("no recorded digest")
        elif digest(results) != want:
            problems.append("output differs from the recorded digest")
    return problems


# -- loops ---------------------------------------------------------------------------


def measure(main, rounds, workload, seconds=None, count=None, tracer=None):
    """Run whole rounds in plan order until ``seconds`` of operation time or
    ``count`` rounds.  Returns per-operation times (inf when failed), the
    number failed and the operation time."""
    recorded = json.loads(DIGESTS.read_text())[workload]
    times: list[float] = []
    failed = 0
    busy = 0.0
    done = 0
    while (seconds is None or busy < seconds) and (count is None or done < count):
        block = next(rounds, None)
        if block is None:
            break
        done += 1
        for case, calls, docs in block:
            elapsed, problem = _measure_one(main, workload, case, calls, docs, recorded, len(times), tracer)
            busy += elapsed
            if problem:
                failed += 1
                times.append(float("inf"))
            else:
                times.append(elapsed)
    return times, failed, busy


def _measure_one(main, workload, case, calls, docs, recorded, op_id, tracer) -> tuple[float, bool]:
    """Run and check one operation.  Returns (seconds, failed)."""
    if tracer is not None:
        tracer.begin_op(op_id)
    elapsed, results, error = run_op(main, calls)
    problems = [error] if error else verify(workload, case, docs, results, recorded)
    if tracer is not None:
        tracer.end_op(elapsed, ok=not problems)
    if problems:
        print(f"FAILED {workload} {_key(case)} ({case.shape}): {'; '.join(problems)}", file=sys.stderr)
    return elapsed, bool(problems)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND operations beyond it,
    and its value; with fewer operations, the slowest one."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def setup_seconds(args) -> list[float]:
    """Wall time of complete set-ups in fresh processes, start to ready."""
    out = []
    for k in range(SETUP_REPEATS):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only", str(WORK / f"setup-{k}")]
        t0 = time.perf_counter()
        subprocess.run(argv, check=True)
        out.append(time.perf_counter() - t0)
        shutil.rmtree(WORK / f"setup-{k}", ignore_errors=True)
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, main, rounds, own_setup: float) -> dict:
    times, failed, busy = measure(main, rounds, args.workload, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = setup_seconds(args)
    n = len(times)
    pct, tail_value = tail(times)
    metrics = {
        "op_p50_s": _metric(statistics.median(times), "s"),
        "op_tail_s": _metric(tail_value, "s"),
        "ops_per_s": _metric((n - failed) / busy, "1/s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {n} operations in {busy:.2f} s of operation time")
    print(f"  op_p50_s     {metrics['op_p50_s']['value']:.6f} s")
    print(f"  op_tail_s    {tail_value:.6f} s  (p{pct:.1f}, {TAIL_BEYOND} of {n} operations beyond it)")
    print(f"  ops_per_s    {metrics['ops_per_s']['value']:.4f} 1/s")
    print(f"  failed_ratio {failed / n:.4f}  ({failed} of {n} attempted)")
    print(f"  setup_s      {metrics['setup_s']['value']:.4f} s  (median of {len(setups)}; this process {own_setup:.4f} s)")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}


def untraced_times(args) -> list[float]:
    """Times of the traced run's operations, run untraced in a fresh process.
    It uses the same input files, so it must finish before set-up here."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--times-only", str(TRACE_ROUNDS[args.workload])]
    child = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(child.stdout.splitlines()[-1])["times"]


def run_traced(args, main, rounds, untraced: list[float]) -> dict:
    from spans import Tracer

    count = TRACE_ROUNDS[args.workload]
    tracer = Tracer()
    tracer.install()
    try:
        times, failed, _ = measure(main, rounds, args.workload, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.dump(str(WORK / f"spans-{args.workload}-{args.seed}.json"))
    overhead = statistics.median(times) - statistics.median(untraced)
    values = tracer.metrics()
    values["trace.overhead_s"] = overhead
    gaps = tracer.stage_gaps()
    values["trace.timings_gap_s"] = sum(abs(g) for g in gaps.values())
    print(f"workload {args.workload} seed {args.seed}: {len(times)} traced operations, "
          f"{len(tracer.start)} spans in {WORK}/spans-{args.workload}-{args.seed}.json")
    for name, value in values.items():
        print(f"  {name:40s} {value}")
    print("  report timings minus spans, summed over summarize operations: "
          + ", ".join(f"{k} {v:+.6f} s" for k, v in gaps.items()))
    metrics = {name: _metric(value, _unit(name)) for name, value in values.items()}
    n = len(times)
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_chars"):
        return "chars"
    if name.endswith("_states"):
        return "states"
    return "count"


def record(workloads: list[str]) -> None:
    """Run every family member once and write its output digest."""
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload in workloads:
        main, (family,) = setup(workload, None, WORK / workload)
        out = {}
        for case, calls, docs in family:
            elapsed, results, error = run_op(main, calls)
            problems = [error] if error else verify(workload, case, docs, results, None)
            if problems:
                sys.exit(f"{workload} {_key(case)} ({case.shape}): {'; '.join(problems)}")
            out[_key(case)] = digest(results)
            print(f"{workload} {_key(case):28s} {case.shape:18s} {elapsed:.3f} s", flush=True)
        digests[workload] = out
        DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
        shutil.rmtree(WORK / workload, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--times-only", type=int, metavar="ROUNDS", help=argparse.SUPPRESS)
    parser.add_argument("--record", nargs="*", metavar="WORKLOAD",
                        help="write digests.json for these workloads (default all)")
    args = parser.parse_args()
    _check_tree()
    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, _alarm)
    if args.record is not None:
        record(args.record or list(WORKLOADS))
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        for workload in WORKLOADS:
            subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)], check=True)
        return
    if args.setup_only:
        setup(args.workload, args.seed, Path(args.setup_only))
        return
    work = WORK / args.workload
    untraced = untraced_times(args) if args.trace and not args.times_only else None
    try:
        main_fn, rounds = setup(args.workload, args.seed, work)
        own_setup = time.perf_counter() - PROCESS_START
        if args.times_only:
            times, _, _ = measure(main_fn, rounds, args.workload, count=args.times_only)
            result = {"times": times}
        elif args.trace:
            result = run_traced(args, main_fn, rounds, untraced)
        else:
            result = run_untraced(args, main_fn, rounds, own_setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, allow_nan=False))


if __name__ == "__main__":
    main()
