"""Tests of the benchmark's own helpers and a short run of each workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import BENCH
from worker import REF_CALIBRATION_S, fingerprint, item_scales, run_items, summarize, tail
from workloads import WORKLOADS, CheckFailed, Item, _stream


def test_tail_is_the_item_with_ten_beyond_it():
    value, pct, n = tail([float(x) for x in range(100, 0, -1)])
    assert (value, pct, n) == (90.0, 90.0, 100)
    value, pct, n = tail([5.0] * 3 + [1.0] * 8)
    assert (value, pct, n) == (1.0, 100.0 / 11, 11)
    with pytest.raises(ValueError):
        tail([1.0] * 10)


class _Flaky:
    """Item 2 raises in run, item 4 fails its check."""

    def run(self, data):
        if data == 2:
            raise RuntimeError("boom")
        return data

    def check(self, data, out):
        if data == 4:
            raise CheckFailed("wrong output")


def test_failed_items_count_toward_failed_frac():
    items = [Item(n, n) for n in range(12)]
    times, failed, cycles = run_items(_Flaky(), lambda n: items, cycles=2)
    assert (len(times), failed, cycles) == (24, 4, 2)
    figures = summarize(times, failed)
    assert figures["items"] == 24
    assert figures["failed_frac"] == pytest.approx(4 / 24)


def test_a_short_run_still_makes_min_cycles():
    built = []

    def cycle_items(n):
        built.append(n)
        return [Item(n, n)] * 3

    times, failed, cycles = run_items(_Flaky(), cycle_items, seconds=0.0, min_cycles=5)
    assert (cycles, built, len(times)) == (5, [0, 1, 2, 3, 4], 15)


def test_scaled_figures_keep_the_raw_ones():
    times = [0.01 * (n + 1) for n in range(20)]
    figures = summarize(times, 0, scales=[2.0] * 20)
    assert figures["time_scale"] == pytest.approx(2.0)
    for name in ("item_p50_ms", "item_tail_ms"):
        assert figures[name] == pytest.approx(2 * figures["raw"][name])
    assert figures["items_per_s"] == pytest.approx(figures["raw"]["items_per_s"] / 2)
    assert figures["raw"]["item_tail_ms"] == pytest.approx(100.0)


def test_each_item_is_scaled_by_the_blocks_nearest_to_it():
    ref = REF_CALIBRATION_S
    # a block after every item; the host halves its speed after item 9
    calibrations = [(k, ref if k < 10 else 2 * ref) for k in range(1, 21)]
    scales = item_scales(calibrations, 20)
    assert scales[:7] == [1.0] * 7
    assert scales[-7:] == [0.5] * 7
    assert all(0.5 <= f <= 1.0 for f in scales)


def _values2_variables(types, actions, j):
    return int(np.prod(types)) * actions[j]


def test_values2_tail_falls_on_a_twelve_variable_item():
    """The tail is the 11th-largest item; a minimum-length run must hold
    more than 11 of the costly 12-variable items."""
    workload = WORKLOADS["values2"]
    heavy = sum(_values2_variables(types, actions, j) == 12
                for types, actions in workload.SHAPES for j in range(2))
    assert heavy == 2
    assert heavy * workload.min_cycles >= 16


def test_every_minimum_run_has_a_tail():
    for workload in WORKLOADS.values():
        assert workload.min_cycles >= 1
    assert WORKLOADS["gap3"].min_cycles >= 11


def _cycles(name, seed, tmp_path, n_cycles):
    workload = WORKLOADS[name]()
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workload, [workload.build_cycle(seed, n, str(workdir)) for n in n_cycles]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fingerprint_fixed_per_seed_and_changes_with_it(name, tmp_path):
    prints = {}
    for seed, tag in ((3, "a"), (3, "b"), (4, "c")):
        _, cycles = _cycles(name, seed, tmp_path / tag, range(2))
        prints[tag] = fingerprint([item.inputs for items in cycles for item in items])
    assert prints["a"] == prints["b"]
    assert prints["a"] != prints["c"]


def test_cycle_inputs_do_not_depend_on_other_cycles(tmp_path):
    _, alone = _cycles("floor_support", 7, tmp_path / "a", [2])
    _, after = _cycles("floor_support", 7, tmp_path / "b", range(3))
    assert ([fingerprint(item.inputs) for item in alone[0]]
            == [fingerprint(item.inputs) for item in after[2]])


def test_streams_match_seed_sequence_spawn():
    spawned = np.random.SeedSequence(9).spawn(4)[3]
    assert (np.random.default_rng(spawned).random(3) == _stream(9, 3).random(3)).all()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_of_each_workload(name, tmp_path):
    n = 5 if name == "gap3" else 1     # gap3 has one item per cycle
    workload, cycles = _cycles(name, 5, tmp_path, range(n))
    times, failed, done = run_items(workload, lambda k: cycles[k], cycles=n)
    assert failed == 0 and done == n
    assert len(times) == sum(len(items) for items in cycles)
    assert workload.finish() == []


def test_an_exception_is_counted_once_at_the_innermost_wrapper():
    from tracing import Tracer

    tracer = Tracer()

    def inner():
        raise ValueError("no")

    wrapped_inner = tracer._wrap("mod.inner", inner)
    wrapped_outer = tracer._wrap("mod.outer", lambda: wrapped_inner())
    tracer.recording = True
    for _ in range(2):
        with pytest.raises(ValueError):
            wrapped_outer()
    assert tracer.errors == {"mod.inner:ValueError": 2}


def test_tracer_wraps_every_namespace_and_counts():
    code = textwrap.dedent(f"""
        import json, sys
        import numpy as np
        sys.path[:0] = [{str(BENCH.parent / 'src')!r}, {str(BENCH)!r}]
        from tracing import Tracer
        tracer = Tracer()
        wrapped = tracer.install()
        import mechpoly as mp
        g = mp.GapFamily().candidate(0, np.random.default_rng(0))
        tracer.recording = True
        mp.maxmin(g, 0, mode="exact")
        mp.minmax(g, 0, mode="grid", step=0.05)
        tracer.recording = False
        per_fn, counters, errors = tracer.summary()
        print(json.dumps([wrapped, tracer.unwrapped(), per_fn, counters]))
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True)
    wrapped, unwrapped, per_fn, counters = json.loads(out.stdout.strip().splitlines()[-1])
    assert wrapped > 40 and unwrapped == []
    assert per_fn["solver.maxmin"]["calls"] == 1
    assert per_fn["bic.enumerate_vertices"]["calls"] >= 2   # also reached by local import
    assert per_fn["solver.linprog"]["calls"] == per_fn["solver.solve_lp"]["calls"] >= 1
    assert counters["solver.grid_points"] > 0
    for fn in per_fn.values():
        assert fn["self_ms"] <= fn["ms"] + 1e-9


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gap3",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_metric_names_match_benchmark_json():
    from run import END_TO_END, per_layer_units

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
