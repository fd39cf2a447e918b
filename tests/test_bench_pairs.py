"""scripts/bench_pairs.py: a perfbench run that fails stops the script with
the side, pair, exit code and end of stderr of that run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_once_reports_a_failed_run(tmp_path, capsys):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "for n in range(30):\n"
        "    print(f'line {n}', file=sys.stderr)\n"
        "sys.exit(3)\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        _bench_pairs().run_once(tmp_path, "floor_support", 101, "parent", 4)
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == ("parent run of pair 4 (floor_support, seed 101) exited with code 3; "
                      "the last 20 lines of its stderr:")
    assert err[1:] == [f"line {n}" for n in range(10, 30)]
