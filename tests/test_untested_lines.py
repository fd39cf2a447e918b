"""scripts/untested_lines.py: run on one test that builds a game and never
validates one, it lists every line of ``validate_game`` and no line of
``FiniteGame.__post_init__`` but the two branches for given ids; run on a
copy of itself over a package that a test edits, it lists the lines of the
source the test imported, or refuses when the edit lands during the run."""

import inspect
import shutil
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


_EDIT = """
from pathlib import Path

import mechpoly.mod


def test_edit():
    assert mechpoly.mod.f(1) == 2
    if {edit}:
        path = Path(mechpoly.mod.__file__)
        path.write_text("# one more line\\n" + path.read_text())
"""


def test_refuses_when_a_source_file_changes_during_the_run(tmp_path):
    # a copy of the script over a two-line package: the line a test never
    # runs is found in the source the test imported, and a run whose test
    # edits that source lists nothing and fails, naming the file
    (tmp_path / "scripts").mkdir()
    shutil.copy(SCRIPT, tmp_path / "scripts")
    package = tmp_path / "src" / "mechpoly"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    results = {}
    for edit in (False, True):
        (package / "mod.py").write_text("def f(x):\n    return 2 * x\n\n\ndef g():\n    pass\n")
        test = tmp_path / f"test_edit_{edit}.py"
        test.write_text(_EDIT.format(edit=edit))
        results[edit] = subprocess.run(
            [sys.executable, str(tmp_path / "scripts" / SCRIPT.name), "-q", "-p",
             "no:cacheprovider", str(test)],
            cwd=tmp_path, capture_output=True, text=True, timeout=300)
    kept, edited = results[False], results[True]
    assert kept.returncode == 0, kept.stdout + kept.stderr
    assert _listed(kept.stdout, "mod.py") == {6}
    assert edited.returncode == 1
    assert "src/mechpoly/mod.py" not in edited.stdout
    assert edited.stderr == ("error: src/mechpoly/mod.py changed during the run; "
                             "no lines listed\n")
