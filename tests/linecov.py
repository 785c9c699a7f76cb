"""Lines of ``src/adaptreg`` that no tier-1 test runs.

Runs the tier-1 suite in this process under ``sys.settrace``, tracing only
frames whose code lives under ``src/adaptreg``, and compares the lines that
ran with each module's executable lines, taken from its code objects
(``co_lines``). Prints every line that no test ran as ``path:line`` and
exits 1 when there is one, or with pytest's status when the suite fails.
Arguments are passed on to pytest. Run from the repository root with::

    PYTHONPATH=src python tests/linecov.py
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adaptreg"


def executable_lines(path):
    """The line numbers that the code objects compiled from ``path`` map
    their instructions to."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args):
    prefix = str(PACKAGE) + "/"
    ran = {}  # file name -> lines that ran

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines = ran.setdefault(name, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        unrun = executable_lines(path) - ran.get(str(path), set())
        missed += [f"{path.relative_to(ROOT)}:{line}" for line in sorted(unrun)]
    print("\n".join(missed) if missed else "every line of src/adaptreg ran")
    return int(status) or (1 if missed else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
