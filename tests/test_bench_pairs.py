"""scripts/bench_pairs.py: a perfbench run that fails stops the script with
the side, pair, exit code and end of stderr of that run; a run that exits 0
but reports wrong outputs stops it with the side, pair and failed count; a
change to ``src/`` during the runs stops it before it writes its file."""

import importlib.util
import json
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


@pytest.mark.parametrize("digests, code", [(["a" * 64, "a" * 64], 0),
                                           (["a" * 64, "b" * 64], 1)])
def test_main_rejects_sources_changed_during_the_runs(tmp_path, monkeypatch, capsys,
                                                      digests, code):
    module = _bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "items_per_s", "better": "higher"}]}), encoding="utf-8")
    trees = iter(digests)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(module, "export", lambda rev, dest: None)
    monkeypatch.setattr(module, "working_tree", lambda: {
        "rev": "working tree", "head": "0" * 40, "dirty": True, "src_sha256": next(trees)})
    monkeypatch.setattr(module, "run_once", lambda checkout, workload, seed, side, pair: {
        "metrics": {"items_per_s": 10.0}, "failed_frac": 0.0, "items": 5, "correct": True,
        "inputs_sha256": "c" * 64, "seconds": 1, "machine": {"cpus": 2}})
    assert module.main(["--pr", "99", "--workload", "values2", "--pairs", "3"]) == code
    assert next(trees, None) is None          # the digest was taken before and after
    written = tmp_path / "BENCH_99.json"
    assert written.exists() == (code == 0)
    if code:
        assert capsys.readouterr().err.splitlines() == [
            "src/ changed during the runs (sha256 aaaaaaaaaaaa -> bbbbbbbbbbbb); "
            "BENCH_99.json not written"]
    else:
        entry = json.loads(written.read_text(encoding="utf-8"))["entries"]["values2/seed101"]
        assert entry["change"]["src_sha256"] == "a" * 64 and len(entry["runs"]) == 6
