"""The README's library example runs as written, so a documented name that
is removed or renamed fails the suite."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_block_runs_from_the_repo_root():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", blocks[0]], cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
