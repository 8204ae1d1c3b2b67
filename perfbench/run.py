"""Seeded benchmark of tropical-heights: four closed-loop workloads, checked
outputs, end-to-end metrics, and a traced run for per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload global-heights --seed 1 --seconds 15 --trace 0

One caller in one process, no threads: each operation starts when the
previous one and its check have finished.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Earlier lines give a readable report and the stamp that
identifies the machine, the library settings and the inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "tropical_heights" / "__init__.py").is_file():
    sys.exit(f"perfbench: no tropical_heights package under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402  (the library's one dependency, for the stamp)

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# Untraced runs make at least this many passes over the operations.
MIN_PASSES = 2


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


class Outcome:
    """Latencies, failures and agreement of the operations run so far.
    ``samples`` maps each operation's index in the workload to its
    latencies at reference speed (see closed_loop)."""

    def __init__(self):
        self.latencies = []
        self.kinds = []
        self.samples = {}
        self.failures = []
        self.min_digits = math.inf

    def record(self, op, seconds, error, diff):
        self.latencies.append(seconds)
        self.kinds.append(op.kind)
        if error is not None:
            self.failures.append(f"{op.kind}: {error}")
        elif diff is not None:
            self.min_digits = min(self.min_digits, workloads.digits(diff))

    def extend(self, other: "Outcome"):
        self.latencies += other.latencies
        self.kinds += other.kinds
        self.failures += other.failures
        self.min_digits = min(self.min_digits, other.min_digits)

    def costs(self):
        """Each operation's cost: the mean of its latencies at reference
        speed over the run's passes.  (The least latency would read lower
        the more passes a run fits, that is the faster the machine.)"""
        return [sum(values) / len(values) for _, values in sorted(self.samples.items())]


def run_op(op, outcome, tracer=None, op_id=None):
    """Time one operation, then check its output outside the timed region.
    Returns the operation's wall time in seconds."""
    error = diff = None
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.call()
        else:
            with tracer.op(op_id, op.kind):
                result = op.call()
    except Exception as exc:  # a library error is a failed operation
        result, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if error is None:
        try:
            diff = op.check(result)
        except Exception as exc:  # CheckFailed, or an error inside the check
            error = f"check: {type(exc).__name__}: {exc}"
    outcome.record(op, elapsed, error, diff)
    return elapsed


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

# The shared machine's speed moves by a fifth from second to second and by
# up to half between minutes, in CPU time as in wall time.  Every run
# therefore times a fixed piece of pure-Python work, which uses no library
# code, before and after each stretch of about CALIBRATE_EVERY_S of
# operations, and scales the stretch's latencies to the speed at which
# that work takes REFERENCE_S.  Times are reported at that reference speed.
# The work is a scan of a table the size of a large theta term list plus
# Fraction arithmetic: across slow and fast phases of a 2-core shared VM,
# the library's operations slowed in proportion to it (log-log slope
# 0.8-1.1 on all four workloads), where a mix of small integer loops and
# big-integer products slowed only about two thirds as much.
REFERENCE_S = 0.005
CALIBRATE_EVERY_S = 0.25
CALIBRATE_REPEATS = 3
_rng = random.Random(0)
REFERENCE_TABLE = {
    tuple(_rng.randint(-30, 30) for _ in range(3)): F(_rng.randint(-99, 99), _rng.randint(1, 9))
    for _ in range(20000)
}


def reference_work():
    """A minimum over a large table keyed by integer vectors, and a sum of
    Fraction products."""
    best = None
    for key, value in REFERENCE_TABLE.items():
        score = 3 * key[0] + 5 * key[1] - key[2]
        if best is None or score < best[0]:
            best = (score, value)
    total = F(0)
    for i in range(1, 400):
        total += F(i, i + 7) * F(3, i + 1)
    return best, total


def machine_time() -> float:
    """Least wall time of reference_work over CALIBRATE_REPEATS calls."""
    best = math.inf
    for _ in range(CALIBRATE_REPEATS):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedScale:
    """Scales wall times measured since the last calibration to reference
    speed, by the mean of the calibrations before and after them."""

    def __init__(self):
        self.before = machine_time()
        self.readings = [self.before]

    def close(self) -> float:
        """Calibrate, and return the factor for the stretch just ended."""
        after = machine_time()
        self.readings.append(after)
        factor = 2 * REFERENCE_S / (self.before + after)
        self.before = after
        return factor


def closed_loop(ops, seconds):
    """Run whole passes over the operations until ``seconds`` of wall time
    have passed and MIN_PASSES are done; a pass begun before then is
    finished, so that every run weighs each input alike.  Returns the
    outcome and the calibration readings."""
    outcome = Outcome()
    scale = SpeedScale()
    stretch = []  # (index, wall seconds) since the last calibration
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        for index, op in enumerate(ops):
            stretch.append((index, run_op(op, outcome)))
            if sum(wall for _, wall in stretch) >= CALIBRATE_EVERY_S or index == len(ops) - 1:
                factor = scale.close()
                for i, wall in stretch:
                    outcome.samples.setdefault(i, []).append(wall * factor)
                stretch = []
        passes += 1
    return outcome, scale.readings


def traced_loop(ops, seconds, tracer):
    """Like closed_loop, but each operation runs twice, untraced and traced
    in turn, so that the overhead compares the same work under the same
    conditions.  The wrappers are installed only around traced runs."""
    untraced, traced = Outcome(), Outcome()
    deadline = time.perf_counter() + seconds
    while not traced.latencies or time.perf_counter() < deadline:
        for op in ops:
            i = len(traced.latencies)
            if i % 2:
                run_op(op, untraced)
            with tracer.install():
                run_op(op, traced, tracer, i)
            if not i % 2:
                run_op(op, untraced)
    return untraced, traced


def setup(name, seed, size, scale):
    """Seeded input generation plus a warm-up run of one operation; the
    time is at reference speed."""
    start = time.perf_counter()
    work = workloads.build(name, seed, **size)
    run_op(work.warmup, Outcome())
    return work, (time.perf_counter() - start) * scale.close()


def input_hash(work) -> str:
    text = json.dumps(work.inputs, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(costs):
    """(percentile, value) at the highest percentile of the operations'
    costs that leaves at least ten operations beyond it (nearest rank, and
    no lower than the median).  It depends on the workload's size alone,
    not on how many passes a run fits."""
    ordered = sorted(costs)
    n = len(ordered)
    index = max(n - 11, (n - 1) // 2)
    return 100.0 * (index + 1) / n, ordered[index]


def end_to_end(outcome, setup_times, readings):
    """(metrics of BENCHMARK.json, further printed figures).  Times are at
    reference speed, and latency and throughput come from the operations'
    costs (Outcome.costs).  The raw throughput over the run's wall time
    and the machine's speed are printed beside them."""
    costs = outcome.costs()
    pct, tail_value = tail(costs)
    digits = outcome.min_digits if math.isfinite(outcome.min_digits) else 0.0
    lat = outcome.latencies
    return {
        "ops_per_s": (len(costs) / sum(costs), "1/s"),
        "latency_p50_ms": (1000 * median(costs), "ms"),
        "latency_tail_ms": (1000 * tail_value, "ms"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "agreement_digits": (digits, "digits"),
    }, {
        "failed_ratio": (len(outcome.failures) / len(lat), "1"),
        "latency_tail_percentile": (pct, "%"),
        "operations": (len(costs), "count"),
        "wall_ops_per_s": (len(lat) / sum(lat), "1/s"),
        "samples": (len(lat), "count"),
        "passes": (len(lat) / len(costs), "count"),
        "machine_speed": (REFERENCE_S / median(readings), "1"),
    }


def per_layer(summary, untraced_wall, traced_wall):
    wall = summary["op_wall_s"]
    ops = summary["ops"]
    metrics = {}
    for name in tracing.LAYER_NAMES:
        metrics[f"{name}.busy_share"] = (summary["self_s"].get(name, 0.0) / wall, "1")
        metrics[f"{name}.calls_per_op"] = (summary["calls"].get(name, 0) / ops, "1/op")
    for name in tracing.COUNTER_NAMES:
        metrics[name] = (summary["counters"].get(name, 0), "count")
    metrics["tate.local_height_report.max_prime"] = (summary["max_prime"], "count")
    arch_errors = sum(v for k, v in summary["errors"].items() if k.startswith("arch."))
    metrics["arch.errors"] = (arch_errors, "count")
    metrics["trace.coverage"] = (summary["coverage"], "1")
    metrics["trace.overhead"] = (traced_wall / untraced_wall - 1, "1")
    return metrics


# ---------------------------------------------------------------------------
# Stamp
# ---------------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout's git repository, read without running git;
    'none' outside a repository (then src_sha256 identifies the code)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tropical_heights").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(args, work) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "precision_bits": workloads.CONFIG.precision_bits,
        "n_max": workloads.CONFIG.n_max,
        "tolerance": workloads.CONFIG.tolerance,
        "input_sha256": input_hash(work),
        "git_sha": git_sha(),
        "src_sha256": source_hash(),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


@dataclass
class Run:
    info: dict          # the stamp
    outcome: Outcome
    metrics: dict       # name -> (value, unit), as in the final JSON line
    extra: dict = field(default_factory=dict)  # printed only
    summary: dict = None  # trace summary (traced runs)
    spans: list = None


def measure(args, size=None) -> Run:
    """One run.  ``size`` overrides the workload's default input size."""
    size = size or {}
    setup_times = []
    hashes = set()
    scale = SpeedScale()
    for _ in range(SETUP_REPEATS):
        work, seconds = setup(args.workload, args.seed, size, scale)
        setup_times.append(seconds)
        hashes.add(input_hash(work))
    if len(hashes) != 1:
        raise RuntimeError("the same seed generated different inputs")
    info = stamp(args, work)
    if not args.trace:
        outcome, readings = closed_loop(work.ops, args.seconds)
        return Run(info, outcome, *end_to_end(outcome, setup_times, readings))
    tracer = tracing.Tracer()
    untraced, traced = traced_loop(work.ops, args.seconds, tracer)
    summary = tracer.summary()
    metrics = per_layer(summary, sum(untraced.latencies), sum(traced.latencies))
    traced.extend(untraced)
    return Run(info, traced, metrics, summary=summary, spans=tracer.spans)


def write_trace(result: Run) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{result.info['workload']}-seed{result.info['seed']}.json"
    path.write_text(json.dumps(
        {"stamp": result.info, "summary": result.summary, "spans": result.spans}))
    return path


def report_lines(result: Run):
    info, outcome = result.info, result.outcome
    yield f"perfbench {info['workload']} seed={info['seed']} inputs={info['input_sha256']}"
    yield "stamp " + json.dumps(info, sort_keys=True)
    for name, (value, unit) in {**result.metrics, **result.extra}.items():
        yield f"  {name:<58} {value:>14.6g} {unit}"
    by_kind = {}
    for kind, seconds in zip(outcome.kinds, outcome.latencies):
        by_kind.setdefault(kind, []).append(seconds)
    for kind, values in sorted(by_kind.items()):
        yield f"  op {kind:<30} n={len(values):<6} median {1000 * median(values):10.3f} ms"
    if result.summary:
        for kind, layers in sorted(result.summary["kind_self_s"].items()):
            wall = result.summary["kind_wall_s"][kind]
            top = sorted(layers.items(), key=lambda item: -item[1])[:4]
            shares = ", ".join(f"{name} {own / wall:.0%}" for name, own in top)
            yield f"  self-time share of {kind}: {shares}"
    for failure in outcome.failures[:20]:
        yield f"  FAILED {failure}"


def pin_to_one_cpu():
    """Run on one CPU: migrations between the two CPUs of a small shared
    machine spread repeated timings of the same call by a third."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    result = measure(args)
    for line in report_lines(result):
        print(line)
    if result.spans is not None:
        print(f"  trace written to {write_trace(result)}")
    failed = len(result.outcome.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result.outcome.latencies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
