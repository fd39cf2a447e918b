"""Alternating parent/change benchmark pairs, merged into BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --pr <n> --workload values2 --seed 101 --pairs 10

Each pair runs ``python3 perfbench/run.py --workload W --seed S --trace 0``
(the benchmark's own run length) once on the parent and once on the change;
the parent goes first in even-numbered pairs and second in odd ones, so
drift in host speed falls on both sides alike.  The parent is ``HEAD``,
exported with ``git archive`` into a temporary directory; the change is the
working tree of this checkout.

The output file keeps one entry per (workload, seed): every run's gated
metrics and failed_frac, and per metric each side's median, quartiles and
IQR, the ratio of medians and the number of pairs the change won.  It also
records both sides' revisions and the machine fingerprint perfbench reports.
The change side's source digest is taken again after every pair; at the
first pair after which ``src/`` differs, the script exits 1 and writes
nothing.
Run from the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, dest):
    """Write the committed files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def working_tree():
    """The checkout's HEAD, whether it has local changes, and a digest of
    the package sources as they are on disk."""
    files = sorted(git("ls-files", "-co", "--exclude-standard", "src").splitlines())
    digest = hashlib.sha256()
    for name in files:
        digest.update(name.encode() + b"\0" + (ROOT / name).read_bytes())
    return {"rev": "working tree", "head": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain")), "src_sha256": digest.hexdigest()}


def run_once(checkout, workload, seed, side, pair):
    """One perfbench run: its metrics, failed_frac and machine fingerprint.
    A run that exits non-zero ends the script with exit code 1, after
    printing which side and pair it was, its exit code and the end of its
    stderr; so does a run that reports ``correct`` false or failed items,
    after printing its side, pair and ``failed`` count, so that no run with
    wrong outputs enters a median."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    # its own session, so that its workers go with it however this run ends
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        print(f"{side} run of pair {pair} ({workload}, seed {seed}) exited with code "
              f"{proc.returncode}; the last 20 lines of its stderr:", file=sys.stderr)
        print("\n".join(err.splitlines()[-20:]), file=sys.stderr)
        sys.exit(1)
    line = json.loads(out.strip().splitlines()[-1])
    if not line["correct"] or line["failed"] > 0:
        print(f"{side} run of pair {pair} ({workload}, seed {seed}) reported wrong outputs: "
              f"correct {line['correct']}, failed {line['failed']} of {line['attempted']}",
              file=sys.stderr)
        sys.exit(1)
    record_path = Path(checkout) / ".perfbench_out" / f"result-{workload}-seed{seed}-trace0.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return {"metrics": {k: m["value"] for k, m in line["metrics"].items()},
            "failed_frac": record["failed_frac"], "items": record["items"],
            "correct": line["correct"], "inputs_sha256": record["inputs_sha256"],
            "seconds": record["seconds"], "machine": record["machine"]}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs, better):
    """Per gated metric: both sides' spread, the ratio of medians and wins."""
    out = {}
    pairs = sorted({r["pair"] for r in runs})
    side = {(r["side"], r["pair"]): r["metrics"] for r in runs}
    for name, direction in better.items():
        parent = [side["parent", p][name] for p in pairs]
        change = [side["change", p][name] for p in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        out[name] = {"better": direction, "parent": quartiles(parent),
                     "change": quartiles(change),
                     "ratio_of_medians": statistics.median(change) / statistics.median(parent),
                     "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                     "pairs": len(pairs)}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    out_path = ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(out_path.read_text(encoding="utf-8")) if out_path.exists() else {}

    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        checkouts = {"parent": Path(tmp) / "parent", "change": ROOT}
        revisions = {"parent": {"rev": "HEAD", "sha": git("rev-parse", "HEAD")},
                     "change": working_tree()}
        checkouts["parent"].mkdir()
        export("HEAD", checkouts["parent"])
        runs = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for position, name in enumerate(order):
                run = run_once(checkouts[name], args.workload, args.seed, name, pair)
                run.update(side=name, pair=pair, position=position)
                runs.append(run)
                print(f"pair {pair} {name:6s} items_per_s {run['metrics']['items_per_s']:.4g} "
                      f"failed_frac {run['failed_frac']}", flush=True)
            digest = working_tree()["src_sha256"]
            if digest != revisions["change"]["src_sha256"]:
                print(f"src/ changed by the end of pair {pair} (sha256 "
                      f"{revisions['change']['src_sha256'][:12]} -> {digest[:12]}); "
                      f"{out_path.name} not written", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    machine = dict(runs[0]["machine"], git_sha=None)
    for run in runs:
        run.pop("machine")
    doc.update(pr=args.pr, machine=machine)
    doc.setdefault("entries", {})[f"{args.workload}/seed{args.seed}"] = {
        "workload": args.workload, "seed": args.seed, "seconds": runs[0]["seconds"],
        "parent": revisions["parent"], "change": revisions["change"],
        "summary": summarise(runs, better), "runs": runs}
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    s = doc["entries"][f"{args.workload}/seed{args.seed}"]["summary"]["items_per_s"]
    print(f"{args.workload} seed {args.seed}: items_per_s median {s['parent']['median']:.4g} -> "
          f"{s['change']['median']:.4g} ({s['ratio_of_medians']:.3f}x), "
          f"change won {s['change_wins']} of {s['pairs']}; wrote {out_path.name}")
    return 0


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so every finally block runs: the
    # perfbench run's process group is killed and the export is removed
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main())
