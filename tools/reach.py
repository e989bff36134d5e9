"""List the statements of compext that no benchmark or off-pool request executes.

    python3 tools/reach.py

Sends every request that tools/diff_outputs.py sends (the pools of
bench/workloads.py, then its OFF_POOL list) through compext.cli.main in this
process, by that tool's runner (diff_outputs.responses), under a
sys.settrace hook that is installed before compext is imported, so
module-level statements count as executed too.  It then prints, for each
module of src/compext, how many of its statements no request executed,
followed by the source of each.  A simple statement counts as
executed when any of its lines ran, a compound one (def, if, for, with, ...)
when its header did; a statement that compiles to no code (a docstring, say)
is not counted.  It takes no options; the requests' own output is discarded.
A run takes about a minute on one core.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "compext"


def _code_lines(code) -> set:
    """The lines that code and the code objects nested in it compile to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> list:
    """(first, last) line of each statement of the file that compiles to
    code: a simple statement whole, a compound one its header (decorators
    included)."""
    source = path.read_text()
    compiled = _code_lines(compile(source, str(path), "exec"))
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        if compiled.intersection(range(first, last + 1)):
            spans.append((first, last))
    return sorted(spans)


def executed_lines(requests: list, send) -> dict:
    """Send the requests with send (diff_outputs.responses) under a line
    trace; the lines each compext file executed.  The trace is installed
    before send imports compext."""
    executed = defaultdict(set)
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(hook)
    try:
        for _ in send(requests):
            pass
    finally:
        sys.settrace(None)
    return executed


def main() -> int:
    # BLAS on one thread, as diff_outputs.py runs it; numpy is not loaded yet
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]  # tools/ is sys.path[0]
    import diff_outputs
    import workloads

    requests = [list(req.argv) for w in workloads.WORKLOADS for req in workloads.pool(w)]
    requests += diff_outputs.OFF_POOL
    executed = executed_lines(requests, diff_outputs.responses)
    print(f"{len(requests)} requests")
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path), set())
        missed = [(a, b) for a, b in statements(path) if not ran.intersection(range(a, b + 1))]
        print(f"{path.stem}: {len(missed)} statements not executed")
        lines = path.read_text().splitlines()
        for a, b in missed:
            for n in range(a, b + 1):
                print(f"  {n:5d}  {lines[n - 1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
