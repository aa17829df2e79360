"""List the `src/grouppc` statements that a pytest run never reaches.

A line tracer built on the standard library (`sys.settrace` and
`threading.settrace`), for hosts without coverage.py.  It runs pytest in
this process, records every line executed in `src/grouppc`, and prints
each statement none of whose lines ran, split into `raise` statements
(refusals of bad input) and the rest.  Code that runs in child
processes, such as the `python -m grouppc.cli` subprocess test and the
demos a test starts as scripts, is not traced, and the
``if __name__ == "__main__":`` block that only such a process runs is
left out of the count.  Tracing slows the suite about twofold, so a test
with a wall-time budget (acceptance criterion 01) can fail under it; the
list of statements is still complete.

Usage, from the repository root:

    python tools/untested_lines.py [PYTEST_ARGS ...]

with pytest's arguments defaulting to ``-q -p no:cacheprovider tests``.
The exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grouppc"


def _code_lines(code):
    """Every line that bytecode in ``code`` or its nested code maps to."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path):
    """(first line, is a raise, own lines) for each statement of a module.

    A statement owns the lines of its span that no nested statement
    covers, and a decorated definition owns its decorator lines too.
    Statements that compile to no bytecode (docstrings, ``global``) and
    the ``if __name__ == "__main__":`` block are left out.
    """
    source = path.read_text()
    owner = {}

    def claim(node):
        if isinstance(node, ast.If) and ast.unparse(node.test) == (
                "__name__ == '__main__'"):
            return
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in getattr(
                node, "decorator_list", ())])
            for line in range(first, node.end_lineno + 1):
                owner[line] = node
        for child in ast.iter_child_nodes(node):
            claim(child)

    claim(ast.parse(source))
    executable = _code_lines(compile(source, str(path), "exec"))
    lines = {}
    for line, node in owner.items():
        if line in executable:
            lines.setdefault(node, set()).add(line)
    return [(node.lineno, isinstance(node, ast.Raise), own)
            for node, own in lines.items()]


def main(argv):
    import pytest

    prefix = str(PACKAGE) + "/"
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                      "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached = {False: [], True: []}
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        for first, is_raise, own in sorted(_statements(path)):
            total += 1
            if not own & ran:
                unreached[is_raise].append(
                    f"{path.relative_to(ROOT)}:{first}")
    print(f"\n{total} statements in {PACKAGE.relative_to(ROOT)}; "
          "child processes are not traced")
    for is_raise, label in ((False, "unreached statements"),
                            (True, "unreached raise statements")):
        print(f"{len(unreached[is_raise])} {label}")
        for where in unreached[is_raise]:
            print(f"  {where}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
