"""Tests of the benchmark itself: every workload runs at a tiny size and
reports every metric that BENCHMARK.json declares, inputs depend on the
seed alone, and a wrong expected value counts as a failed operation.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import argparse
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "global-heights": {"curves": {"two-component": 1, "one-component": 0}},
    "local-heights": {"rounds": 1, "reports": (("p~1e3", 1),), "duals": 4},
    "theta-terms": {"sets": 1, "ranks": (1, 2)},
    "riemann-theta": {"per_class": 1},
}


def declared(section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def measure(name, trace, seed=3):
    args = argparse.Namespace(workload=name, seed=seed, seconds=0, trace=trace)
    return run.measure(args, TINY[name])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_declared_metric(name, trace):
    result = measure(name, trace)
    section = "per_layer" if trace else "end_to_end"
    assert {k: unit for k, (_, unit) in result.metrics.items()} == declared(section)
    assert result.outcome.failures == []
    assert result.outcome.latencies
    assert result.info["precision_bits"] == 128 and result.info["n_max"] == 10
    assert all(isinstance(v, (int, float)) for v, _ in result.metrics.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    first = workloads.build(name, 5)
    again = workloads.build(name, 5)
    other = workloads.build(name, 6)
    assert run.input_hash(first) == run.input_hash(again)
    assert run.input_hash(first) != run.input_hash(other)


def test_corrupted_expected_value_is_a_failure():
    rng = random.Random(1)
    curve, p, point, ell = workloads._band_curve(rng, *workloads.LOCAL_BANDS["p~1e3"])
    outcome = run.Outcome()
    run.run_op(workloads._report_op("p~1e3", curve, p, point, ell), outcome)
    assert outcome.failures == []
    # The check expects v_p(disc) = ell and lambda' = ell/12; a wrong ell
    # is a wrong expected value.
    run.run_op(workloads._report_op("p~1e3", curve, p, point, ell + 1), outcome)
    assert len(outcome.failures) == 1


def test_library_error_is_a_failure():
    def broken():
        raise ValueError("boom")

    outcome = run.Outcome()
    run.run_op(workloads.Op("broken", broken, lambda result: 0), outcome)
    assert outcome.failures == ["broken: ValueError: boom"]
    assert len(outcome.latencies) == 1


def test_tracer_nests_spans_and_restores_the_library():
    from tropical_heights import tropical

    original = tropical.closest_lattice_point
    work = workloads.build("riemann-theta", 2, **TINY["riemann-theta"])
    tracer = tracing.Tracer()
    with tracer.install():
        assert tropical.closest_lattice_point is not original
        run.run_op(work.ops[0], run.Outcome(), tracer, 0)
    assert tropical.closest_lattice_point is original
    summary = tracer.summary()
    # closest_lattice_vector, tropical_riemann_theta (which calls the
    # normalized form) and the normalized form: three CVP calls per op.
    assert summary["calls"]["cvp.closest_lattice_point"] == 3
    assert 0 < summary["coverage"] <= 1
    assert sum(summary["self_s"].values()) <= summary["op_wall_s"]


def test_tail_has_ten_operations_above_it():
    pct, value = run.tail(list(range(100)))
    assert value == 89 and pct == 90.0
    # Never below the median.
    assert run.tail([1, 2, 3]) == (pytest.approx(200 / 3), 2)


def test_every_operation_is_timed_in_every_pass():
    work = workloads.build("riemann-theta", 2, **TINY["riemann-theta"])
    outcome, readings = run.closed_loop(work.ops, 0)
    assert sorted(outcome.samples) == list(range(len(work.ops)))
    assert all(len(v) == run.MIN_PASSES for v in outcome.samples.values())
    assert len(outcome.latencies) == run.MIN_PASSES * len(work.ops)
    assert len(readings) >= run.MIN_PASSES + 1 and min(readings) > 0
