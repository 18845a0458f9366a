"""Spans recorded from outside the package.

`Tracer.install` rebinds each traced public name where its caller looks it
up (for example `unicusp.cli.check_single` and
`unicusp.classify.check_single`, which are two bindings of one function),
so the package itself is unchanged.  Spans stay in memory until the run
ends; `Tracer.dump` then writes them out, and `layer_metrics` turns a span
file into per-op layer figures.

A span is (id, parent id, op index, name, start, end, info).  The layer is
the part of the name before the first dot.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def _construct_info(args, kwargs, result):
    a, b = args[:2]
    return [a, b]


def _check_info(args, kwargs, result):
    genus, degree = args[-2:]
    return [degree, genus, result.checks_performed, result.admissible]


def _len_info(args, kwargs, result):
    return len(result)


def _candidates_info(args, kwargs, result):
    return len(result.candidates)


# (module, attribute, span name, info extractor); each line is one binding
# that a caller inside the package looks up at call time.
FUNCTION_PATCHES = (
    ("unicusp.cli", "enumerate_candidates", "classify.enumerate", _candidates_info),
    ("unicusp.cli", "check_single", "obstruction.check_single", _check_info),
    ("unicusp.cli", "check_multi", "obstruction.check_multi", _check_info),
    ("unicusp.classify", "check_single", "obstruction.check_single", _check_info),
    ("unicusp.obstruction", "Semigroup", "semigroup.construct", _construct_info),
    ("unicusp.obstruction", "convolve", "semigroup.convolve", None),
    ("unicusp.classify", "pair_to_element", "families.pair_to_element", None),
    ("unicusp.families", "pair_to_element", "families.pair_to_element", None),
    ("unicusp.cli", "germ_sequence", "germs.sequence", _len_info),
    ("unicusp.cli", "flex_check", "germs.flex", None),
)

# (module, class, method, span name): methods looked up on the class.
METHOD_PATCHES = (
    ("unicusp.quadring", "QuadInt", "from_sqrt5", "quadring.from_sqrt5"),
    ("unicusp.quadring", "QuadInt", "norm", "quadring.norm"),
)


class Tracer:
    """Span recorder that can be switched on and off between ops."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.series_mul: dict[int, int] = defaultdict(int)
        self.op = -1
        self._stack = [0]
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, info=None):
        """Wrap fn so that each call records one span."""
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
            tracer.spans.append((sid, parent, tracer.op, name, t0, t1,
                                 info(args, kwargs, result) if info else None))
            return result

        return traced

    def _counted_mul(self, fn):
        tracer = self

        def counted(a, b):
            if type(b) is type(a):
                tracer.series_mul[tracer.op] += 1
            return fn(a, b)

        return counted

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, info in FUNCTION_PATCHES:
            mod = importlib.import_module(module)
            self._set(mod, attr, self.span(name, getattr(mod, attr), info))
        for module, cls_name, attr, name in METHOD_PATCHES:
            cls = getattr(importlib.import_module(module), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.span(name, raw.__func__)))
            else:
                self._set(cls, attr, self.span(name, raw))
        series = importlib.import_module("unicusp.germs").PowerSeries
        mul = series.__dict__["__mul__"]
        self._set(series, "__mul__", self._counted_mul(mul))
        self._set(series, "__rmul__", self._counted_mul(mul))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def run_op(self, op: int, fn, *args):
        """Call fn(*args) as the root span "cli.run" of op number `op`."""
        self.op = op
        return self.span("cli.run", fn)(*args)

    def dump(self, path) -> None:
        """Write the per-op series product counts, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"series_mul": self.series_mul}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(path, traced_ops: list[dict]) -> dict[str, tuple[float, str]]:
    """(value, unit) of each per-op layer figure of one traced run.

    `traced_ops` are the worker's lines for the traced ops, each with its
    speed factor.  Counts and times are divided by their number, so a
    faster program that completes more ops in the same seconds reads the
    same.  Times are scaled to the reference speed, as the end-to-end op
    times are.  Ratios with no base (a layer the workload never calls)
    read 0.
    """
    with open(path) as fh:
        series_mul = json.loads(fh.readline())["series_mul"]
        raw_spans = [json.loads(line) for line in fh]
    n = len(traced_ops)
    speed = {op["i"]: op["speed"] for op in traced_ops}
    # durations at the reference speed, as for the end-to-end op times
    spans = [(sid, parent, name, (t1 - t0) * speed[op], info)
             for sid, parent, op, name, t0, t1, info in raw_spans]
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _, dur, _ in spans:
        child_time[parent] += dur
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    seen_pairs: set[tuple[int, int]] = set()
    repeats = delta_sum = cells = grid = admissible = 0
    for sid, _, name, dur, info in spans:
        layer = name.split(".", 1)[0]
        self_s[layer] += dur - child_time[sid]
        total_s[name] += dur
        calls[name] += 1
        calls[layer] += 1
        if name == "semigroup.construct":
            pair = (info[0], info[1])
            repeats += pair in seen_pairs
            seen_pairs.add(pair)
            delta_sum += (pair[0] - 1) * (pair[1] - 1) // 2
        elif name.startswith("obstruction."):
            degree, genus, performed, ok = info
            cells += performed
            grid += degree * (genus + 1)
            admissible += ok
        elif name == "classify.enumerate":
            calls["classify.candidates"] += info
        elif name == "germs.sequence":
            calls["germs.steps"] += info
    constructs = calls["semigroup.construct"]
    checks = calls["obstruction"]
    per_op, secs = "count/op", "s/op"
    return {
        "semigroup.construct_calls": (constructs / n, per_op),
        "semigroup.construct_s": (total_s["semigroup.construct"] / n, secs),
        "semigroup.delta_sum": (delta_sum / n, per_op),
        "semigroup.repeat_frac": (repeats / constructs if constructs else 0.0, "frac"),
        "semigroup.convolve_calls": (calls["semigroup.convolve"] / n, per_op),
        "semigroup.convolve_s": (total_s["semigroup.convolve"] / n, secs),
        "obstruction.checks": (checks / n, per_op),
        "obstruction.self_s": (self_s["obstruction"] / n, secs),
        "obstruction.cells": (cells / n, per_op),
        "obstruction.grid_frac": (cells / grid if grid else 0.0, "frac"),
        "obstruction.admissible_frac": (admissible / checks if checks else 0.0, "frac"),
        "classify.self_s": (self_s["classify"] / n, secs),
        "classify.candidates": (calls["classify.candidates"] / n, per_op),
        "families.calls": (calls["families"] / n, per_op),
        "families.self_s": (self_s["families"] / n, secs),
        "quadring.calls": (calls["quadring"] / n, per_op),
        "quadring.self_s": (self_s["quadring"] / n, secs),
        "germs.sequence_s": (total_s["germs.sequence"] / n, secs),
        "germs.flex_s": (total_s["germs.flex"] / n, secs),
        "germs.series_mul_calls": (sum(series_mul.values()) / n, per_op),
        "germs.steps": (calls["germs.steps"] / n, per_op),
        "cli.self_s": (self_s["cli"] / n, secs),
        "cli.bytes_out": (sum(op["bytes"] for op in traced_ops) / n, "B/op"),
        "cli.exit_nonzero": (sum(op["rc"] != 0 for op in traced_ops) / n, per_op),
    }
