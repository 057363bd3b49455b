"""The README's quick example, its semiring table and the demo script still
match what the code does."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

from sgk.semirings import CANONICAL_NAMES

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_example_prints_what_its_comments_show():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick example\s+```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == ["((1, True),)", "((0, 0), (1, 1), (2, 2))"]


def test_demo_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_algorithms.py"), "--n", "20", "--seed", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_semiring_table_matches_the_registry():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = re.search(r"## Semirings\n.*?(\| Family .*?)\n\n", readme, re.S).group(1)
    header, _rule, *rows = [
        [cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()
    ]
    family, domain = header.index("Family"), header.index("Canonical domain")
    documented = tuple(f"{row[family].strip('`')}/{row[domain]}" for row in rows)
    assert documented == CANONICAL_NAMES
