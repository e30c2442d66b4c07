"""Spans and counts around the program's layer functions, recorded from
outside the program.

A `Probe` replaces a program function at every module attribute of the
`paramvariety` package that refers to it, so a call is seen whether it
goes through `paramvariety.cli.buchberger`, `paramvariety.ioeq.buchberger`
or the package root. Nothing under `src/` is edited; `uninstall` puts the
original functions back.

With spans on, each call records (name, start, end, parent span, operation
id) in memory. A layer's self time is its span's duration minus the time
its direct child spans cover.
"""

import importlib
import sys
import time
from collections import defaultdict

# per-layer time metrics: metric name -> (function, self time?)
TIME_METRICS = {
    "model.load_model_ms": ("model.load_model", False),
    "model.prolong_ms": ("model.prolong", False),
    "groebner.buchberger_ms": ("groebner.buchberger", False),
    "groebner.reduce_basis_ms": ("groebner.reduce_basis", False),
    "ioeq.derive_io_basis_ms": ("ioeq.derive_io_basis", True),
    "extension.run_extension_check_ms": ("extension.run_extension_check", False),
    "datalab.integrate_model_ms": ("datalab.integrate_model", False),
    "datalab.make_dataset_ms": ("datalab.make_dataset", True),
    "datalab.read_dataset_ms": ("datalab.read_dataset", False),
    "variety.build_linear_system_ms": ("variety.build_linear_system", False),
    "variety.solve_coefficients_ms": ("variety.solve_coefficients", False),
    "variety.variety_constraints_ms": ("variety.variety_constraints", False),
    "variety.sample_variety_ms": ("variety.sample_variety", False),
    "cli.main_ms": ("cli.main", True),
}
# the layer functions, as "<module>.<function>" under the paramvariety package
LAYER_FUNCTIONS = tuple(fn for fn, _ in TIME_METRICS.values())


def _coeff_terms(basis):
    return sum(len(c.num.terms) + len(c.den.terms) for c in basis.coeffs)


# counts taken from return values: function -> [(count name, fn(result))]
COUNTERS = {
    "groebner.buchberger": [("groebner.buchberger_calls", lambda r: 1),
                            ("groebner.basis_size", len)],
    "groebner.reduce_basis": [("groebner.reduced_size", len)],
    "ioeq.derive_io_basis": [("ioeq.coeff_terms", _coeff_terms)],
    "variety.sample_variety": [
        ("variety.sample_points", lambda r: len(r.points)),
        ("variety.sample_tried", lambda r: len(r.points) + r.skipped)],
}
COUNT_METRICS = ("groebner.buchberger_calls", "groebner.basis_size",
                 "groebner.reduced_size", "ioeq.coeff_terms",
                 "variety.sample_points")


def _resolve(qualname):
    module, func = qualname.split(".")
    return getattr(importlib.import_module("paramvariety." + module), func)


class Probe:
    """Wraps the named program functions.

    capture: functions whose return values are kept per operation (the
    checks need them); spans: whether every wrapped call records a span
    and its counts.
    """

    def __init__(self, names, capture=(), spans=False):
        self.names = tuple(names)
        self.capture = frozenset(capture)
        self.spans_on = spans
        self.spans = []          # (name, start, end, parent, op)
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> name -> n
        self.returned = defaultdict(list)                    # name -> results
        self.op = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        capture = name in self.capture
        if not self.spans_on:
            def plain(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.returned[name].append(result)
                return result
            return plain
        counters = COUNTERS.get(name, ())
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, self.op)
            counts = self.counts[self.op]
            for cname, count in counters:
                counts[cname] += count(result)
            if capture:
                self.returned[name].append(result)
            return result
        return traced

    def install(self):
        originals = {_resolve(n): n for n in self.names}
        wrappers = {fn: self._wrap(n, fn) for fn, n in originals.items()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "paramvariety"
                                      or modname.startswith("paramvariety.")):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._restore.append((module, attr, value))
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def take(self, name):
        """Return values of `name` since the last take."""
        return self.returned.pop(name, [])

    # -- aggregation ------------------------------------------------------

    def busy_ms(self):
        """Total and self milliseconds per function over all spans."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += (end - start) * 1e3
            own[name] += (end - start - child[sid]) * 1e3
        return total, own

    def layer_metrics(self, ops):
        """Per-operation means of every per-layer time and count."""
        total, own = self.busy_ms()
        out = {}
        for metric, (name, self_time) in TIME_METRICS.items():
            out[metric] = ((own if self_time else total)[name] / ops, "ms")
        sums = defaultdict(int)
        for counts in self.counts.values():
            for cname, n in counts.items():
                sums[cname] += n
        for cname in COUNT_METRICS:
            out[cname] = (sums[cname] / ops, "count")
        tried = sums["variety.sample_tried"]
        out["variety.sample_yield"] = (
            sums["variety.sample_points"] / tried if tried else 0.0, "ratio")
        return out

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
