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
is the child's wall time and peak RSS.  The table reports; it checks
nothing, since times depend on the machine and its load.  The file name
keeps pytest from collecting it.
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


def scale_pair(n: int) -> tuple[str, str]:
    """JSON texts of the size-n policy and its one-clause edit."""
    rng = random.Random(f"scale/{n}/0")
    first = inputs.random_policy(rng, n)
    second = list(first)
    i = rng.randrange(n)
    second[i] = inputs._edit_statement(rng, second[i])
    return inputs._doc(first), inputs._doc(second)


def run(checkout: Path, *args: str) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of one CLI child."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", CLI, *args, "--no-timestamp"], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - start, usage.ru_maxrss / 1024, child.returncode


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
            cells = []
            commands = (
                ("compare", first, second),
                ("diff", first, second),
                ("requests", "-k", "3", first),
                ("summarize", first),
                ("count", "-b", "100", first),
            )
            for args in commands:
                seconds, rss, code = run(checkout, *args)
                cells.append(f"{seconds:.2f} s, {rss:.0f} MB" + (f" (exit {code})" if code else ""))
            print(f"| {n} | {' | '.join(cells)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
