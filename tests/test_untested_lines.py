"""scripts/untested_lines.py: run on one test that builds a game and never
validates one, it lists every line of ``validate_game`` and no line of
``FiniteGame.__post_init__`` but the two branches for given ids."""

import inspect
import subprocess
import sys
from pathlib import Path

from mechpoly import game

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "untested_lines.py"


def _listed(stdout, module):
    """The line numbers the script lists for ``src/mechpoly/<module>``."""
    lines = set()
    for row in stdout.splitlines():
        if row.startswith(f"src/mechpoly/{module}: "):
            for span in row.split(": ", 1)[1].split(", "):
                first, _, last = span.partition("-")
                lines.update(range(int(first), int(last or first) + 1))
    return lines


def _body_lines(func):
    """The lines a call of ``func`` can run (its def line runs at import)."""
    code = func.__code__
    return {line for _, _, line in code.co_lines() if line} - {code.co_firstlineno}


def test_lists_the_lines_a_test_never_runs():
    res = subprocess.run(
        [sys.executable, str(SCRIPT), "-q", "-p", "no:cacheprovider",
         "tests/test_game.py::test_profile_enumeration_order"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    listed = _listed(res.stdout, "game.py")
    assert _body_lines(game.validate_game) <= listed
    # random_game names no agents or principals, so only the copies of given
    # ids never run
    source, start = inspect.getsourcelines(game.FiniteGame.__post_init__)
    given_ids = {start + n for n, text in enumerate(source)
                 if "tuple(self.agent_ids)" in text or "tuple(self.principal_ids)" in text}
    assert len(given_ids) == 2
    assert _body_lines(game.FiniteGame.__post_init__) & listed == given_ids
