"""List the lines of ``src/mechpoly`` that a pytest run never executes.

Usage::

    python scripts/untested_lines.py [pytest arguments ...]

Runs pytest in this process (default arguments: the ``tests`` directory,
quietly) under a line tracer installed with ``sys.settrace`` and
``threading.settrace``, so threads started by the tests are traced too.  Only
frames whose code lives in ``src/mechpoly`` are traced line by line.  Then,
for each module, it prints the executable lines (those ``co_lines`` of the
module's code objects names) that never ran, as ranges::

    src/mechpoly/game.py: 210-212, 247

It stands in for a coverage tool where none is installed.  Lines that run
only in a subprocess (CLI tests that start ``python -m mechpoly``, the demo
scripts, perfbench workers) are not seen, because the tracer lives in this
process alone; they are listed as never run.  Each module's source is read
before pytest starts, so the line numbers are those of the code the tests
ran; if a file of the package changes during the run, the script prints an
error naming it instead of the lists and exits with status 1.  Otherwise
the exit status is pytest's.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mechpoly"


def executable_lines(source: bytes, path: Path) -> set:
    """Every line number that some code object compiled from ``source``, the
    bytes of ``path``, maps an instruction to, nested functions, classes and
    comprehensions included."""
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """'3-5, 9' for [3, 4, 5, 9]."""
    spans = []
    for n in sorted(lines):
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in spans)


def sources() -> dict:
    """The bytes of each module of the package, by path."""
    return {path: path.read_bytes() for path in sorted(PACKAGE.glob("*.py"))}


def main(argv) -> int:
    import pytest

    before = sources()
    lines = {path: executable_lines(source, path) for path, source in before.items()}
    ran = {}          # resolved path -> lines run, for files in the package
    paths = {}        # co_filename -> resolved path if in the package, else None

    def local(frame, event, arg):
        if event == "line":
            ran[paths[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:
            path = Path(name).resolve()
            paths[name] = path if path.parent == PACKAGE else None
            if paths[name]:
                ran.setdefault(path, set())
        return local if paths[name] else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    after = sources()
    changed = sorted(path for path in before.keys() | after.keys()
                     if before.get(path) != after.get(path))
    if changed:
        names = ", ".join(str(path.relative_to(ROOT)) for path in changed)
        print(f"error: {names} changed during the run; no lines listed", file=sys.stderr)
        return 1
    for path, executable in lines.items():
        missed = executable - ran.get(path, set())
        if missed:
            print(f"{path.relative_to(ROOT)}: {ranges(missed)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
