"""scripts/bench_pairs.py: a perfbench run that fails stops the script with
the side, pair, exit code and end of stderr of that run; a run that exits 0
but reports wrong outputs stops it with the side, pair and failed count; a
change to ``src/`` during the runs stops it before it writes its file; a
SIGTERM kills the perfbench run's processes and removes the parent's
export."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
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


@pytest.mark.parametrize("digests, code", [(["a" * 64] * 4, 0),
                                           (["a" * 64, "a" * 64, "b" * 64], 1)])
def test_main_rejects_sources_changed_during_the_runs(tmp_path, monkeypatch, capsys,
                                                      digests, code):
    # the digest is taken before the first pair and after each of 3 pairs;
    # in the second case src/ changes during pair 1, so pair 2 never runs
    module = _bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "items_per_s", "better": "higher"}]}), encoding="utf-8")
    trees = iter(digests)
    pairs_run = []
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(module, "export", lambda rev, dest: None)
    monkeypatch.setattr(module, "working_tree", lambda: {
        "rev": "working tree", "head": "0" * 40, "dirty": True, "src_sha256": next(trees)})

    def run_once(checkout, workload, seed, side, pair):
        pairs_run.append(pair)
        return {"metrics": {"items_per_s": 10.0}, "failed_frac": 0.0, "items": 5,
                "correct": True, "inputs_sha256": "c" * 64, "seconds": 1,
                "machine": {"cpus": 2}}

    monkeypatch.setattr(module, "run_once", run_once)
    assert module.main(["--pr", "99", "--workload", "values2", "--pairs", "3"]) == code
    assert next(trees, None) is None          # one digest per pair, and one before
    assert pairs_run == ([0, 0, 1, 1, 2, 2] if code == 0 else [0, 0, 1, 1])
    written = tmp_path / "BENCH_99.json"
    assert written.exists() == (code == 0)
    if code:
        assert capsys.readouterr().err.splitlines() == [
            "src/ changed by the end of pair 1 (sha256 aaaaaaaaaaaa -> bbbbbbbbbbbb); "
            "BENCH_99.json not written"]
    else:
        entry = json.loads(written.read_text(encoding="utf-8"))["entries"]["values2/seed101"]
        assert entry["change"]["src_sha256"] == "a" * 64 and len(entry["runs"]) == 6


def _alive(pid):
    """Whether pid runs and is not a zombie waiting for its parent."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_sigterm_stops_the_perfbench_run_and_removes_the_export(tmp_path):
    # a repository whose perfbench run starts one child that writes its pid
    # and sleeps; the script is stopped while that child runs
    repo, tmp = tmp_path / "repo", tmp_path / "tmp"
    (repo / "scripts").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    tmp.mkdir()
    shutil.copy(SCRIPT, repo / "scripts" / "bench_pairs.py")
    (repo / "BENCHMARK.json").write_text('{"end_to_end": []}', encoding="utf-8")
    pid_file = tmp_path / "child.pid"
    (repo / "perfbench" / "run.py").write_text(
        "import subprocess, sys\n"
        "subprocess.run([sys.executable, 'perfbench/child.py'])\n", encoding="utf-8")
    (repo / "perfbench" / "child.py").write_text(
        "import os, pathlib, time\n"
        f"pathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()))\n"
        "time.sleep(120)\n", encoding="utf-8")
    for args in (["init", "-q"], ["add", "-A"],
                 ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "stub"]):
        subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True)
    script = subprocess.Popen(
        [sys.executable, "scripts/bench_pairs.py", "--pr", "99", "--workload", "values2",
         "--pairs", "1"], cwd=repo, env=dict(os.environ, TMPDIR=str(tmp)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (pid_file.exists() and pid_file.read_text(encoding="utf-8")):
            assert time.monotonic() < deadline and script.poll() is None
            time.sleep(0.05)
        child = int(pid_file.read_text(encoding="utf-8"))
        assert _alive(child) and any(tmp.glob("bench_pairs_*"))
        script.send_signal(signal.SIGTERM)
        assert script.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        script.kill()
        script.wait(timeout=30)
    deadline = time.monotonic() + 10
    while _alive(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(child)
    assert list(tmp.iterdir()) == []
    assert not (repo / "BENCH_99.json").exists()
