"""List the statements of ``src/decid`` that the tier-1 suite never runs.

    python3 tools/untested.py                 # the whole tier-1 suite
    python3 tools/untested.py tests/test_cli.py -k infer

The suite runs in this process under a ``sys.settrace`` line tracer
that follows only frames whose code lives in ``src/decid``; every other
call returns at once.  A statement is its first line, as ``ast`` gives
it, among the lines its module's compiled code runs (so a docstring or
a bare ``else:`` is no statement).  Each statement no traced frame ran
is printed as ``path:line: source``; code run only in a subprocess,
such as ``cli.main``, counts as never run.  Extra arguments go to
pytest in place of the tier-1 ones.  The trace costs a Python call per
line, so the whole suite takes a few minutes.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

from tier1_times import TIER1

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "decid"


def statements(path: Path) -> set[int]:
    """The first line of every statement that compiles to code."""
    text = path.read_text(encoding="utf-8")
    code_lines, stack = set(), [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    firsts = {node.lineno for node in ast.walk(ast.parse(text))
              if isinstance(node, ast.stmt)}
    return firsts & code_lines


def main(argv) -> int:
    prefix = str(SRC) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or TIER1)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for n in sorted(statements(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{n}: {lines[n - 1].strip()}")
            missed += 1
    print(f"{missed} statements never run (pytest exit {int(code)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
