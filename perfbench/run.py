"""Run the mechpoly benchmark.

    python3 perfbench/run.py --workload values2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1

One workload: its end-to-end metrics (``--trace 0``) or its per-layer
metrics (``--trace 1``), printed by name with units, and as the last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload and prints a table; with
``--trace 1`` it runs each workload untraced and traced and reports the
tracing overhead.  Full results, with input and machine fingerprints, are
written to ``.perfbench_out/`` at the repository root.

Run from the repository root; the package is imported from ``src/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("values2", "gap3", "floor_support", "cli_session")
SETUP_REPS = 3           # set-up is timed in this many fresh processes
SETUP_TIMEOUT_S = 90     # a worker's set-up, warm-up, checks and last cycle
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# the metrics BENCHMARK.json gates; item_tail_ms and failed_frac are printed
# and stored but not gated (see README.md)
END_TO_END = {"items_per_s": "1/s", "item_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_FUNCTIONS = (
    "bic.enumerate_vertices", "bic.build_bic_polytope", "bic.sample_bic",
    "bic.is_profile_bic", "bic.is_individually_bic",
    "solver.solve_lp", "solver.maxmin", "solver.minmax", "solver.best_response",
    "solver.robust_pbe_membership",
    "mechanisms.check_equilibrium_notion", "mechanisms.check_continuation_equilibrium",
    "mechanisms.build_deviator_reporting", "mechanisms.build_type_and_dm_mechanism",
    "mechanisms.simulate",
    "game.expected_principal_payoff", "game.load_game", "game.game_hash",
    "cli.main",
)
COUNTERS = ("bic.vertices_out", "solver.lp_rows", "solver.lp_cols", "solver.grid_points",
            "solver.vertex_products", "mechanisms.continuation_equilibria",
            "mechanisms.deviation_checks", "mechanisms.infeasible_subgames",
            "mechanisms.simulate.rounds", "cli.report_bytes")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_ms"] = "ms"
    units.update({"solver.linprog.calls": "count", "solver.linprog.ms": "ms",
                  "solver.lp_refinements": "count", "solver.lp_failures": "count"})
    units.update({name: "count" for name in COUNTERS})
    units["trace.items_per_s"] = "1/s"
    return units


def per_layer_values(result):
    layers = result["layers"]
    fns = layers["functions"]
    values = {}
    for fn in LAYER_FUNCTIONS:
        values[f"{fn}.calls"] = fns[fn]["calls"]
        values[f"{fn}.self_ms"] = fns[fn]["self_ms"]
    values["solver.linprog.calls"] = fns["solver.linprog"]["calls"]
    values["solver.linprog.ms"] = fns["solver.linprog"]["ms"]
    values["solver.lp_refinements"] = (fns["solver.linprog"]["calls"]
                                       - fns["solver.solve_lp"]["calls"])
    values["solver.lp_failures"] = sum(n for key, n in layers["errors"].items()
                                       if key.endswith(":NumericalFailure"))
    for name in COUNTERS:
        values[name] = layers["counters"].get(name, 0)
    values["trace.items_per_s"] = result["items_per_s"]
    return values


def machine_fingerprint():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {k: worker_env()[k] for k in BLAS_ENV},
        "git_sha": sha,
    }


def worker_env():
    """One thread of work per process; MECHPOLY_SEED would override CLI seeds."""
    env = {k: v for k, v in os.environ.items() if k != "MECHPOLY_SEED"}
    for k in BLAS_ENV:
        env.setdefault(k, "1")
    return env


def run_worker(workload, seed, seconds, trace, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    # untimed checks and calibration add up to about as much as the timed work
    timeout = SETUP_TIMEOUT_S + (0 if setup_only else 3 * seconds)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=worker_env(),
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload} worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace):
    """Run one workload; return its result record (the worker's, plus
    set-up repetitions, correctness and the machine fingerprint)."""
    reps = [] if trace else [run_worker(workload, seed, seconds, trace, setup_only=True)
                             for _ in range(SETUP_REPS - 1)]
    result = run_worker(workload, seed, seconds, trace)
    reps.append(result)
    result["setup_s_reps"] = [r["setup_s"] for r in reps]
    result["setup_s"] = statistics.median(result["setup_s_reps"])
    problems = list(result["run_failures"])
    if len({r["inputs_sha256"] for r in reps}) != 1:
        problems.append("set-up repetitions generated different inputs")
    if any(r["warmup_failed"] for r in reps):
        problems.append("the warm-up item failed")
    if trace and result["layers"]["unwrapped"]:
        problems.append(f"unwrapped originals: {result['layers']['unwrapped']}")
    result["problems"] = problems
    result["correct"] = result["failed"] == 0 and not problems
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  machine=machine_fingerprint())
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def metrics_of(result, trace):
    if trace:
        units = per_layer_units()
        values = per_layer_values(result)
    else:
        units = END_TO_END
        values = result
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def print_result(result, metrics):
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['items']} items in {result['cycles']} cycles, "
          f"inputs sha256 {result['inputs_sha256'][:16]}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    if not result["trace"]:
        print(f"  {'item_tail_ms':48s} {result['item_tail_ms']:>14.6g} ms")
    print(f"  {'failed_frac':48s} {result['failed_frac']:>14.6g} "
          f"({result['failed']} of {result['items']})")
    print(f"  item_tail_ms is the p{result['tail_percentile']:.2f} of {result['items']} items; "
          f"setup_s is the median of {[round(s, 4) for s in result['setup_s_reps']]}")
    raw = result["raw"]
    print(f"  times scaled by {result['time_scale']:.4f} on average to the reference host speed; "
          f"unscaled: items_per_s {raw['items_per_s']:.4g}, item_p50_ms {raw['item_p50_ms']:.4g}, "
          f"item_tail_ms {raw['item_tail_ms']:.4g}, setup_s {result['setup_raw_s']:.4g}")
    print(f"  machine {json.dumps(result['machine'], sort_keys=True)}")
    if "layers" in result:
        print(f"  {result['layers']['wrapped']} functions wrapped, none left unwrapped: "
              f"{not result['layers']['unwrapped']}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mechpoly" / "__init__.py").is_file():
        print(f"error: no mechpoly package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        metrics = metrics_of(result, args.trace)
        print_result(result, metrics)
        print(json.dumps({"correct": result["correct"], "attempted": result["items"],
                          "failed": result["failed"], "metrics": metrics}))
        return 0

    summary = {}
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, 0)
        print_result(result, metrics_of(result, 0))
        summary[workload] = {"correct": result["correct"], "failed": result["failed"],
                             "items_per_s": result["items_per_s"]}
        if args.trace:
            traced = run_workload(workload, args.seed, args.seconds, 1)
            print_result(traced, metrics_of(traced, 1))
            # both runs start at the same item, so compare the same items,
            # each at the reference host speed
            n = min(traced["items"], result["items"])
            overhead = (sum(traced["scaled_times_ms"][:n])
                        / sum(result["scaled_times_ms"][:n]) - 1.0)
            print(f"  tracing overhead on {workload}: {100 * overhead:.1f} % of item time "
                  f"over the first {n} items (traced items_per_s {traced['items_per_s']:.4g}, "
                  f"untraced {result['items_per_s']:.4g})")
            summary[workload].update(correct=result["correct"] and traced["correct"],
                                     traced_items_per_s=traced["items_per_s"],
                                     tracing_overhead=overhead)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
