"""Run the tier-1 tests under a line tracer and list the lines of src/tenkit they never reach.

Usage, from the repository root with tenkit importable from src/:

    python .github/line_trace.py [pytest arguments]

A line counts when it is in a function body of the package: a line that
the instructions of a function's code object (nested functions, lambdas
and comprehensions included) map to, or the function's first line, which
counts as reached when the function is called. Module and class bodies run
at import and are not counted. Lines run in this process and in the
threads it starts are traced with the standard library's sys.settrace and
threading.settrace; no coverage package is needed. The script exits with
pytest's status if a test fails, else with 1 after printing file:line for
each unreached line, else with 0.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tenkit"


def body_lines(code) -> set[int]:
    """The lines of every function body nested in a code object."""
    lines = set()
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= body_lines(const)
            # Function code objects have fresh locals; module and class bodies do not.
            if const.co_flags & inspect.CO_NEWLOCALS:
                lines.add(const.co_firstlineno)
                lines.update(line for _, _, line in const.co_lines() if line is not None)
    return lines


def main(argv: list[str]) -> int:
    files = {os.path.realpath(p): p for p in sorted(PACKAGE.glob("*.py"))}
    reached = {name: set() for name in files}
    seen = {}  # co_filename -> its set in reached, or None for other files

    def local(frame, event, arg):
        seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in seen:
            seen[code.co_filename] = reached.get(os.path.realpath(code.co_filename))
        lines = seen[code.co_filename]
        if lines is None:
            return None
        lines.add(code.co_firstlineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        return int(status)
    import tenkit

    if Path(tenkit.__file__).resolve().parent != PACKAGE:
        print(f"tenkit was imported from {tenkit.__file__}, not from {PACKAGE}")
        return 1
    unreached = []
    total = 0
    for name, path in files.items():
        expected = body_lines(compile(path.read_text(encoding="utf-8"), name, "exec"))
        total += len(expected)
        unreached += [f"{path.relative_to(ROOT)}:{line}" for line in sorted(expected - reached[name])]
    print(f"{total - len(unreached)} of {total} function-body lines reached")
    for where in unreached:
        print(where)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
