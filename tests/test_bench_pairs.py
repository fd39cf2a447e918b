"""scripts/bench_pairs.py: a perfbench run that fails stops the script with
the side, pair, exit code and end of stderr of that run; a run that exits 0
but reports wrong outputs stops it with the side, pair and failed count."""

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


@pytest.mark.parametrize("correct, failed", [(False, 0), (False, 2), (True, 1)])
def test_run_once_rejects_a_run_with_wrong_outputs(tmp_path, capsys, correct, failed):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        f"print(json.dumps({{'correct': {correct}, 'attempted': 40, 'failed': {failed}, "
        "'metrics': {}}))\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        _bench_pairs().run_once(tmp_path, "values2", 7, "change", 3)
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"change run of pair 3 (values2, seed 7) reported wrong outputs: "
        f"correct {correct}, failed {failed} of 40"]
