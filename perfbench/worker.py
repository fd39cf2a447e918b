"""One workload in one process: set up, warm up, run timed items, report.

Run by ``run.py``; prints one JSON object as its last line of output.  The
loop is closed with a single caller: the next item starts when the previous
one has finished and been checked.  Only ``workload.run`` is timed; input
generation, checks and bookkeeping are not.

The host's speed drifts, so every reported time is scaled to a reference
host speed.  A fixed calibration block (interpreter work and HiGHS solves,
the mix whose speed tracks mechpoly's items most closely) runs between
items, untimed, about every CALIBRATE_EVERY_S of item time.  Each item's
time is multiplied by REF_CALIBRATION_S over the median time of the
2 * LOCAL_BLOCKS blocks nearest to it, so drift within a run is followed
too.  Set-up is scaled by blocks run right after it.  Raw times are stored
beside the scaled ones.
"""

import argparse
import bisect
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
MAX_TRACEBACKS = 3
MIN_ITEMS = 11          # the tail needs ten items beyond it
CALIBRATE_EVERY_S = 0.25
LOCAL_BLOCKS = 3
SETUP_CALIBRATIONS = 5
REF_CALIBRATION_S = 0.0125  # the block's median between items on a 2-core Xeon VM

_CAL_RNG = np.random.default_rng(12345)
_CAL_A = _CAL_RNG.random((30, 20))
_CAL_C = -_CAL_RNG.random(20)


def calibrate():
    """Time one fixed block of interpreter and HiGHS work; seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i
    for _ in range(2):
        linprog(_CAL_C, A_ub=_CAL_A, b_ub=np.ones(30), bounds=(0, None), method="highs")
    return time.perf_counter() - t0


def time_scale(seconds):
    """Factor that takes times measured beside these blocks to the
    reference host speed."""
    return REF_CALIBRATION_S / statistics.median(seconds)


def item_scales(calibrations, n):
    """Per item, the time scale of the calibration blocks nearest to it.

    ``calibrations`` holds (items run before the block, block seconds).
    """
    before = [k for k, _ in calibrations]
    seconds = [s for _, s in calibrations]
    scales = []
    for i in range(n):
        c = bisect.bisect_right(before, i)      # blocks run before item i
        scales.append(time_scale(seconds[max(0, c - LOCAL_BLOCKS):c + LOCAL_BLOCKS]))
    return scales


def tail(times_ms):
    """Value at the highest percentile that has at least ten items beyond it.

    Returns (value, percentile, item count); the value is the item at rank
    n - 10 in ascending order, which is the 100 * (n - 10) / n percentile.
    """
    n = len(times_ms)
    if n < MIN_ITEMS:
        raise ValueError(f"need at least 11 items for a tail, got {n}")
    return sorted(times_ms)[n - 11], 100.0 * (n - 10) / n, n


def fingerprint(inputs):
    """sha256 over nested arrays, numbers, strings, bytes and containers."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, bytes):
            h.update(b"b%d:" % len(obj) + obj)
        elif isinstance(obj, dict):
            h.update(b"{")
            for key in sorted(obj):
                feed(key)
                feed(obj[key])
            h.update(b"}")
        elif isinstance(obj, (list, tuple)):
            h.update(b"(")
            for x in obj:
                feed(x)
            h.update(b")")
        elif obj is None or isinstance(obj, (bool, int, float, str, np.generic)):
            h.update(f"{type(obj).__name__}:{obj!r};".encode())
        else:
            raise TypeError(f"cannot fingerprint {type(obj).__name__}")

    feed(inputs)
    return h.hexdigest()


def run_items(workload, cycle_items, seconds=None, cycles=None, min_cycles=1, tracer=None,
              calibrations=None):
    """Run whole cycles of items, timing each ``workload.run`` call.

    ``cycle_items(n)`` gives the items of cycle n.  Stops after ``cycles``
    cycles when given, otherwise at the first cycle boundary after
    ``seconds`` of timed work, once ``min_cycles`` cycles and MIN_ITEMS items
    have run.  An item fails when ``run`` raises or ``check`` rejects its
    output.  When ``calibrations`` is a list, a calibration block runs after
    every CALIBRATE_EVERY_S of timed work, and (items run before it, its
    seconds) is appended to the list.  Returns
    (per-item seconds, failed count, cycles run).
    """
    times = []
    failed = 0
    total = 0.0
    since_calibration = CALIBRATE_EVERY_S
    done = 0
    while (done < cycles) if cycles is not None else (
            total < seconds or done < min_cycles or len(times) < MIN_ITEMS):
        for item in cycle_items(done):
            if tracer is not None:
                tracer.item = len(times)
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                out = workload.run(item.data)
                error = None
            except Exception:
                error = traceback.format_exc()
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
            if error is None:
                try:
                    workload.check(item.data, out)
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                failed += 1
                if failed <= MAX_TRACEBACKS:
                    print(f"item {len(times)} failed:\n{error}", file=sys.stderr)
            times.append(dt)
            total += dt
            since_calibration += dt
            if calibrations is not None and since_calibration >= CALIBRATE_EVERY_S:
                calibrations.append((len(times), calibrate()))
                since_calibration = 0.0
        done += 1
    return times, failed, done


def summarize(times, failed, scales=None):
    """The end-to-end figures of one run from its per-item seconds, each
    multiplied by its scale; the unscaled figures under ``raw``."""
    def figures(ms):
        tail_ms, _, _ = tail(ms)
        return {"items_per_s": len(ms) / (sum(ms) / 1000.0),
                "item_p50_ms": statistics.median(ms), "item_tail_ms": tail_ms}

    raw_ms = [t * 1000.0 for t in times]
    scaled_ms = raw_ms if scales is None else [t * f for t, f in zip(raw_ms, scales)]
    _, tail_pct, n = tail(raw_ms)
    return {
        "items": n,
        "failed": failed,
        "failed_frac": failed / n,
        **figures(scaled_ms),
        "raw": figures(raw_ms),
        "time_scale": sum(scaled_ms) / sum(raw_ms),
        "tail_percentile": tail_pct,
        "times_ms": raw_ms,
        "scaled_times_ms": scaled_ms,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import mechpoly
    if Path(mechpoly.__file__).resolve().parent != ROOT / "src" / "mechpoly":
        raise SystemExit(f"mechpoly imported from {mechpoly.__file__}, not {ROOT / 'src'}")
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        wrapped = tracer.install()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    # a fixed path relative to the root, because CLI reports quote input paths
    workdir = OUT_DIR / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    built = {}          # cycle index -> items, for cycles not yet run
    cycle_sha256 = []   # a fingerprint of each cycle's inputs

    def build(n):
        built[n] = workload.build_cycle(args.seed, n, os.path.relpath(workdir, ROOT))
        cycle_sha256.append(fingerprint([item.inputs for item in built[n]]))

    def cycle_items(n):
        # a run's items are dropped once run, so the heap does not grow
        built.pop(n - 1, None)
        if n not in built:
            build(n)
        return built[n]

    try:
        # set-up builds the cycles every run makes; later ones are built on demand
        for n in range(workload.min_cycles):
            build(n)
        inputs_sha256 = fingerprint(cycle_sha256)
        _, warm_failed, _ = run_items(workload, lambda n: built[0][:1], cycles=1)
        setup_raw_s = time.monotonic() - args.t0
        calibrate()   # the first block pays one-off costs
        scale = time_scale([calibrate() for _ in range(SETUP_CALIBRATIONS)])
        result = {"setup_s": setup_raw_s * scale, "setup_raw_s": setup_raw_s,
                  "setup_time_scale": scale, "inputs_sha256": inputs_sha256,
                  "warmup_failed": warm_failed}
        if not args.setup_only:
            # a traced run does a fixed amount of work, so its counts repeat exactly
            calibrations = []
            times, failed, cycles = run_items(
                workload, cycle_items, seconds=args.seconds,
                cycles=workload.trace_cycles if tracer else None,
                min_cycles=workload.min_cycles, tracer=tracer, calibrations=calibrations)
            result.update(summarize(times, failed, item_scales(calibrations, len(times))))
            result["calibrations"] = calibrations
            result["cycles"] = cycles
            result["cycle_sha256"] = cycle_sha256[:cycles]
            result["run_failures"] = workload.finish()
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                per_fn, counters, errors = tracer.summary()
                result["layers"] = {"wrapped": wrapped, "unwrapped": tracer.unwrapped(),
                                   "functions": per_fn, "counters": counters,
                                   "errors": errors}
                tracer.save_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
