"""Print the scale table: CLI wall time and peak RSS of ``compare``,
``diff``, ``requests -k 3``, ``summarize`` and ``count -b 100`` on seeded
random policies of n statements.

Usage: ``python tests/scale_table.py [CHECKOUT]``

Each command runs as its own child process with ``--no-timestamp``,
importing ``policylens`` from ``CHECKOUT/src`` (default: this checkout), so
a time includes interpreter start.  For each n in ``SIZES`` the first policy
is ``perfbench/inputs.random_policy(random.Random(f"scale/{n}/0"), n)``; the
second replaces one clause of one statement drawn from the same stream
(``rng.randrange(n)``, then ``inputs._edit_statement``).  ``compare`` and
``diff`` run on the pair; ``requests -k 3``, ``summarize`` (its defaults,
so the mock provider) and ``count -b 100`` on the first policy.  Each cell
is the child's wall time and peak RSS.

A second table runs the same way on policies of 18 Allows whose resources
start with ``*``, so a projection's components do not die apart as the
random policies' anchored prefixes do (:data:`UNANCHORED`): ``count -b 100``
and ``summarize`` on ``bucket/*/<word>/*.pdf``, and ``count -b 100`` alone
on ``*<word>*``, whose ``summarize`` does not finish printing its exact
regex (ROADMAP item 4).

The tables report; they check nothing, since times depend on the machine
and its load.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import inputs  # noqa: E402

SIZES = (20, 40, 80, 160)
CLI = "from policylens.cli import main; main()"
WORDS = "secret password token private key admin backup config credential internal finance payroll hr legal ops dev audit billing".split()
COUNT, SUMMARIZE = ("count", "-b", "100"), ("summarize",)
# (resource pattern, the commands run on its policy)
UNANCHORED = (("bucket/*/{}/*.pdf", (COUNT, SUMMARIZE)), ("*{}*", (COUNT,)))


def scale_pair(n: int) -> tuple[str, str]:
    """JSON texts of the size-n policy and its one-clause edit."""
    rng = random.Random(f"scale/{n}/0")
    first = inputs.random_policy(rng, n)
    second = list(first)
    i = rng.randrange(n)
    second[i] = inputs._edit_statement(rng, second[i])
    return inputs._doc(first), inputs._doc(second)


def unanchored_policy(pattern: str) -> str:
    """JSON text of one Allow per word of :data:`WORDS` on ``pattern`` filled with it."""
    return inputs._doc([{"Effect": "Allow", "Principal": "*", "Action": "s3:GetObject", "Resource": pattern.format(w)} for w in WORDS])


def run(checkout: Path, *args: str) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of one CLI child."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", CLI, *args, "--no-timestamp"], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - start, usage.ru_maxrss / 1024, child.returncode


def cell(checkout: Path, *args: str) -> str:
    seconds, rss, code = run(checkout, *args)
    return f"{seconds:.2f} s, {rss:.0f} MB" + (f" (exit {code})" if code else "")


def main(argv: list[str]) -> int:
    checkout = Path(argv[1] if len(argv) > 1 else ROOT).resolve()
    print(f"scale table of {checkout} (CLI wall time and peak RSS; exit code when not 0)")
    print("| n | `compare` | `diff` | `requests -k 3` | `summarize` | `count -b 100` |")
    print("|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            paths = [Path(tmp, f"scale-{n}-{side}.json") for side in (1, 2)]
            for path, text in zip(paths, scale_pair(n)):
                path.write_text(text)
            first, second = map(str, paths)
            commands = (
                ("compare", first, second),
                ("diff", first, second),
                ("requests", "-k", "3", first),
                ("summarize", first),
                ("count", "-b", "100", first),
            )
            cells = [cell(checkout, *args) for args in commands]
            print(f"| {n} | {' | '.join(cells)} |", flush=True)
        print(f"\n{len(WORDS)} Allows, one per word, on an unanchored resource (-: not run)")
        print("| resource | `count -b 100` | `summarize` |")
        print("|---|---|---|")
        for pattern, run_on in UNANCHORED:
            path = Path(tmp, "unanchored.json")
            path.write_text(unanchored_policy(pattern))
            cells = [cell(checkout, *args, str(path)) if args in run_on else "-" for args in (COUNT, SUMMARIZE)]
            print(f"| `{pattern.format('<word>')}` | {' | '.join(cells)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
