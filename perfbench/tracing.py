"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces the module attributes listed in ``LAYERS``
with wrappers for the duration of a ``with`` block.  Callers that look a
function up through that attribute, the benchmark and the library's own
modules alike, then record a span (name, start, end, parent, op id).
Spans are kept in memory; ``summary`` turns them into self times.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

# (module whose attribute is wrapped, attribute, span name).  The module is
# where the caller looks the name up: heights.local_height_report is the
# name global_height calls, tate.local_height_report the one the benchmark
# calls.  Both record the same span.
LAYERS = [
    ("heights", "global_height", "heights.global_height"),
    ("heights", "place_list", "heights.place_list"),
    ("heights", "local_height_report", "tate.local_height_report"),
    ("heights", "arch_context", "arch.arch_context"),
    ("arch", "elliptic_log", "arch.elliptic_log"),
    ("arch", "local_height_from_uniformizer", "arch.local_height_from_uniformizer"),
    ("heights", "doubling_oracle", "heights.doubling_oracle"),
    ("tate", "local_height_report", "tate.local_height_report"),
    ("tate", "tate_parameter", "tate.tate_parameter"),
    ("tate", "tate_curve", "tate.tate_curve"),
    ("tate", "tate_curve_point", "tate.tate_curve_point"),
    ("tate", "local_height_from_parameter", "tate.local_height_from_parameter"),
    ("tate", "local_height_multiplicative", "tate.local_height_multiplicative"),
    ("tropical", "generate_theta_terms", "tropical.generate_theta_terms"),
    ("tropical.TropicalTheta", "normalized_value", "tropical.normalized_value"),
    ("tropical", "theta_characteristic", "tropical.theta_characteristic"),
    ("tropical", "quantization_check", "tropical.quantization_check"),
    ("tropical", "component_group", "degeneration.component_group"),
    ("tropical", "closest_lattice_vector", "tropical.closest_lattice_vector"),
    ("tropical", "tropical_riemann_theta", "tropical.tropical_riemann_theta"),
    ("tropical", "normalized_tropical_riemann_theta",
     "tropical.normalized_tropical_riemann_theta"),
    ("tropical", "closest_lattice_point", "cvp.closest_lattice_point"),
]

LAYER_NAMES = sorted({name for _, _, name in LAYERS})


def _final_bits(result):
    if not result.estimates:
        return 0
    steps = len(result.estimates)
    return result.estimates[-1] * 4**steps / 0.6931471805599453


# Counters read from a layer's return value: span name -> (counter, reader).
READERS = {
    "heights.place_list": ("heights.places", len),
    "heights.doubling_oracle": ("heights.doubling_oracle.final_bits", _final_bits),
    "tropical.generate_theta_terms": ("tropical.terms", lambda theta: len(theta.terms)),
    "degeneration.component_group": ("degeneration.component_group.order",
                                     lambda group: group.order),
}
COUNTER_NAMES = sorted(counter for counter, _ in READERS.values())


def _resolve(path: str):
    module, _, attr = path.partition(".")
    target = importlib.import_module(f"tropical_heights.{module}")
    return getattr(target, attr) if attr else target


class Tracer:
    """Records spans only while an operation is open (``op_id`` set), so
    the benchmark's own checks, which call the library too, stay out."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id, error]
        self.values = defaultdict(list)   # counter -> values read from results
        self.prime_arguments = []         # p of each tate.local_height_report
        self.op_id = None
        self._stack = []

    def _wrap(self, fn, name):
        reader = READERS.get(name)

        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op_id, False]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if reader is not None:
                self.values[reader[0]].append(reader[1](result))
            if name == "tate.local_height_report":
                self.prime_arguments.append(args[1])
            return result

        return traced

    @contextmanager
    def install(self):
        saved = []
        try:
            for owner, attr, name in LAYERS:
                target = _resolve(owner)
                fn = getattr(target, attr)
                saved.append((target, attr, fn))
                setattr(target, attr, self._wrap(fn, name))
            yield self
        finally:
            for target, attr, fn in reversed(saved):
                setattr(target, attr, fn)

    @contextmanager
    def op(self, op_id, kind):
        """The span of one operation; layer spans opened inside are its
        descendants."""
        self.op_id = op_id
        index = len(self.spans)
        span = [f"op:{kind}", time.perf_counter(), None, None, op_id, False]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.op_id = None

    def summary(self) -> dict:
        """Self time per layer, overall and per operation kind, and the
        coverage: the share of operation wall time spent in layer spans one
        level below the operation's top-level library call.  The top-level
        call itself is left out, since it always spans nearly the whole
        operation; its children account for less when the call does work
        outside the listed layers."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        kinds = {}
        for index, (name, start, end, parent, op_id, _) in enumerate(self.spans):
            if parent is None:
                kinds[op_id] = name[3:]
        op_wall = defaultdict(float)
        self_time = defaultdict(float)
        by_kind = defaultdict(lambda: defaultdict(float))
        calls = defaultdict(int)
        errors = defaultdict(int)
        covered = 0.0
        for index, (name, start, end, parent, op_id, error) in enumerate(self.spans):
            if parent is None:
                op_wall[kinds[op_id]] += end - start
                continue
            own = end - start - child_time[index]
            self_time[name] += own
            by_kind[kinds[op_id]][name] += own
            calls[name] += 1
            errors[name] += error
            grandparent = self.spans[parent][3]
            if grandparent is not None and self.spans[grandparent][3] is None:
                covered += end - start
        total_wall = sum(op_wall.values())
        return {
            "ops": len(kinds),
            "op_wall_s": total_wall,
            "coverage": covered / total_wall if total_wall else 0.0,
            "self_s": dict(self_time),
            "calls": dict(calls),
            "errors": dict(errors),
            "kind_wall_s": dict(op_wall),
            "kind_self_s": {k: dict(v) for k, v in by_kind.items()},
            "counters": {k: median(v) for k, v in self.values.items()},
            "max_prime": max(self.prime_arguments, default=0),
        }
