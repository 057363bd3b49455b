#!/usr/bin/env python3
"""List the lines of src/sgk that compile to code but that no test runs.

    python3 scripts/untested_lines.py

Runs the tier-1 suite in this process under a `sys.settrace` line tracer,
using only the standard library, then prints one `path:line: source` line
for each untested line of `src/sgk/*.py`, in file and line order.  The
tests' subprocesses run untraced, so a line only they run (`cli.main`,
say) is listed too.  `test_criterion_10_suite_runtime` is deselected,
because tracing slows the suite about fourfold, to near or past that
test's 120 s budget.  Exits with pytest's status.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent


def executable_lines(code) -> set[int]:
    """The lines that `code` and the code objects nested in it run."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def untested(paths, run):
    """What `run()` returns, and the (path, line) pairs of the files
    `paths` that compile to code but that `run()` never runs, in the order
    of `paths` and then by line."""
    wanted = {os.path.realpath(p) for p in paths}
    traced: dict[str, bool] = {}  # co_filename -> whether it is one of `paths`
    hits = set()

    def line(frame, event, _arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in traced:
            traced[name] = os.path.realpath(name) in wanted
        return line if traced[name] else None

    outer = sys.gettrace()
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(outer)
    ran = {(os.path.realpath(name), n) for name, n in hits}
    missing = []
    for path in paths:
        code = compile(Path(path).read_text(), str(path), "exec")
        real = os.path.realpath(path)
        missing += [(path, n) for n in sorted(executable_lines(code)) if (real, n) not in ran]
    return result, missing


def main() -> int:
    os.chdir(ROOT)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # The tests' subprocesses import sgk too, though they run untraced.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    paths = sorted((ROOT / "src" / "sgk").glob("*.py"))
    status, missing = untested(paths, lambda: pytest.main([
        "-q", "--continue-on-collection-errors",
        "--deselect", "tests/test_acceptance.py::test_criterion_10_suite_runtime"]))
    sources = {path: path.read_text().splitlines() for path in paths}
    for path, n in missing:
        print(f"{path.relative_to(ROOT)}:{n}: {sources[path][n - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
