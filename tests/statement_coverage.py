"""List every statement of the riskboot package that no tier-1 test runs.

    python tests/statement_coverage.py              # the whole tier-1 suite
    python tests/statement_coverage.py -k TestRunGrid  # extra pytest arguments

The script runs the tier-1 suite (tests/) in this process under
sys.settrace and threading.settrace, so the threads that run_grid starts
are traced too, and records each line of src/riskboot that runs. Then it
prints, per module, every statement none of whose lines ran, as
`path:line: text`, and a count. Code that a test runs in a subprocess
(python -m riskboot, the start-up checks) is not traced, so its
statements are listed unless an in-process test runs them as well.
Docstrings, global and nonlocal statements, which execute nothing, are
not statements here. A statement that holds others, such as an if or a
def, counts as run when any line of it runs.

It needs the standard library alone; the tests it runs need pytest and
numpy. Tracing slows the suite several times over, so a test that bounds
its own time may fail under it; the listing is still complete. Exits with
pytest's exit code.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "riskboot"


def statements(path: Path):
    """(first line, lines) of each statement of a module that executes
    something, in source order."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring or a string standing alone
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        out.append((first, range(first, node.end_lineno + 1)))
    return sorted(out)


def main(args) -> int:
    import pytest  # imported here, so that riskboot is imported under the trace

    ran = {str(path): set() for path in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename in ran:
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for name in sorted(ran):
        path = Path(name)
        source = path.read_text(encoding="utf-8").splitlines()
        for first, lines in statements(path):
            if not ran[name].intersection(lines):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{missed} statements of src/riskboot not run in process by tier-1")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
