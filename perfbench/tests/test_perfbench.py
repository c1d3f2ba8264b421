"""Tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

from bench import END_TO_END, result_line  # noqa: E402
from checks import Checks, compare_events, reference_events  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from spans import Tracer, layer_self_times, self_times, tail_percentile  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def _flat(inputs):
    arrays = list(inputs.occupancies)
    arrays += [p for params in inputs.net_params for p in params]
    arrays += list(inputs.standardisation[:3])
    return arrays, inputs.rng_seeds


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_pure_function_of_workload_and_seed(name):
    a_arrays, a_seeds = _flat(make_inputs(name, 7))
    b_arrays, b_seeds = _flat(make_inputs(name, 7))
    assert a_seeds == b_seeds
    assert all(np.array_equal(x, y) for x, y in zip(a_arrays, b_arrays))

    c_arrays, c_seeds = _flat(make_inputs(name, 8))
    assert c_seeds != a_seeds
    assert not all(np.array_equal(x, y) for x, y in zip(a_arrays, c_arrays))


def test_self_time_of_a_synthetic_nested_trace():
    #   root [0, 10]
    #     a [1, 4]
    #     b [5, 9]
    #       c [6, 7]
    names = ["root", "a", "b", "c"]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    got = self_times(names, starts, ends, parents)
    assert got == pytest.approx({"root": 3.0, "a": 3.0, "b": 3.0, "c": 1.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_wrapped_calls_nest_and_self_times_add_up():
    class Layer:
        def __init__(self, inner=None):
            self.inner = inner

        def work(self, n):
            time.sleep(0.002)
            if self.inner is not None:
                self.inner.work(n)
            return n

    inner = Layer()
    outer = Layer(inner)
    tracer = Tracer("test")
    tracer.wrap(outer, "work", "outer", lambda args, result: float(result))
    tracer.wrap(inner, "work", "inner")
    tracer.wrap(inner, "work", "inner-again")  # second wrap is a no-op
    assert outer.work(3) == 3
    assert tracer.names == ["outer", "inner"]
    assert tracer.parents == [-1, 0]
    assert tracer.samples["outer"] == [(0, 3.0)]
    selfs = layer_self_times(tracer)
    total = tracer.ends[0] - tracer.starts[0]
    assert selfs["outer"] + selfs["inner"] == pytest.approx(total)
    assert selfs["inner"] > 0.0015


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(20000) == 99.9
    assert tail_percentile(1500) == 99.0
    assert tail_percentile(120) == 90.0
    assert tail_percentile(26) == 50.0


def test_a_tampered_reference_counts_as_failed():
    spec = WORKLOADS["dilute-short-cutoff"]
    reference = reference_events(spec, 3, 4)
    assert len(reference) == 4

    clean = Checks()
    compare_events(clean, list(reference), reference)
    assert (clean.attempted, clean.failed) == (4, 0)

    frm, to, t = reference[2]
    tampered = list(reference)
    tampered[2] = (to, frm, t)  # one hop with its sites swapped
    checks = Checks()
    compare_events(checks, tampered, reference)
    assert (checks.attempted, checks.failed) == (4, 1)
    result = json.loads(result_line({}, checks))
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] == 0.25


def test_a_crashing_check_is_a_failure_not_a_skip():
    checks = Checks()
    assert checks.run("boom", lambda: 1 / 0) is None
    assert (checks.attempted, checks.failed) == (1, 1)


def test_benchmark_json_names_match_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u, _ in PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cutoff",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
