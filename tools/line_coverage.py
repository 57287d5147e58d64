#!/usr/bin/env python3
"""List the lines of ``src/memsched`` that tier-1's tests never run.

    python3 tools/line_coverage.py

Runs the ``testpaths`` of ``pyproject.toml`` in this process, through
``pytest.main`` from the repository root, under a ``sys.settrace``
collector that records only the lines of files under ``src/memsched``.
Then, for each of those files, it lists every line a code object compiled
from it can run (``co_lines``) that the suite never ran, one
``path:line: kind: source`` line each. A line in the body of a module's
``if __name__ == "__main__":`` guard is listed as such and excused: the
tests call ``main`` instead of running the module. The tool exits 1 when
the suite fails or when a missed line lies outside such a guard, and 0
otherwise. Only the standard library and pytest are used. Lines that run
only in a subprocess the tests start are not seen, and the collector
makes the suite two to three times slower.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "memsched"


def collect(root: Path, run: Callable[[], object]) -> tuple[object, dict[str, set[int]]]:
    """Call ``run()`` under a line tracer; return what it returned and the
    lines it ran in each file under ``root``, keyed on the file's path. The
    tracer that was set before is set again afterwards."""
    prefix = str(root.absolute()) + os.sep
    ran: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None  # no line events for this frame
        lines = ran.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    before, threads_before = sys.gettrace(), threading.gettrace()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        value = run()
    finally:
        sys.settrace(before)
        threading.settrace(threads_before)
    return value, ran


def runnable_lines(path: Path) -> set[int]:
    """Every line that a code object compiled from ``path`` can run."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main_guard_lines(path: Path) -> set[int]:
    """The lines in the body of each module-level ``__main__`` guard."""
    lines: set[int] = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            for stmt in node.body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def missed_lines(root: Path, ran: dict[str, set[int]]) -> list[tuple[Path, int, bool]]:
    """(file, line, in a ``__main__`` guard) for each runnable line under
    ``root`` that ``ran`` lacks, in file and line order."""
    missed = []
    for path in sorted(root.rglob("*.py")):
        guard = main_guard_lines(path)
        seen = ran.get(str(path.absolute()), set())
        missed.extend((path, line, line in guard)
                      for line in sorted(runnable_lines(path) - seen))
    return missed


def main() -> int:
    import pytest

    os.chdir(ROOT)  # testpaths apply to a run from the root with no paths
    status, ran = collect(SRC, lambda: pytest.main(["-q", "--continue-on-collection-errors"]))
    if status != 0:
        print(f"the suite failed (pytest exit {int(status)}); coverage not reported")
        return 1
    failing = 0
    for path, line, guarded in missed_lines(SRC, ran):
        source = path.read_text(encoding="utf-8").splitlines()[line - 1].strip()
        kind = "__main__ guard" if guarded else "never run"
        print(f"{path.relative_to(ROOT)}:{line}: {kind}: {source}")
        failing += not guarded
    print(f"{failing} line(s) never run outside a __main__ guard")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
