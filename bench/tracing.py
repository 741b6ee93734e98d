"""Spans and counting wrappers for the traced run.

Everything here lives in the benchmark: spans wrap the public functions
in SPANS and ``Trajectory.to_csv`` by swapping the package and module
attributes for the traced pass only (the workloads look these functions
up when they call them, and so does the library), and counting wrappers
wrap the plant and reference callables that the benchmark supplies as
inputs.  Callback spans are aggregated per parent span (count and
seconds) instead of being stored one by one.

A span's self time is its duration minus the time covered by its child
spans and by the plant/reference callbacks made directly inside it.
"""

import itertools
import time
from collections import Counter
from contextlib import contextmanager

_now = time.perf_counter

CALLBACKS = ("drift", "gain", "ref_derivative")
SPANS = (("run_scenario", "sim"), ("sweep", "sim"), ("overshoot_report", "sim"),
         ("simulate_averaged", "averaging"), ("deviation_study", "averaging"))


class Tracer:
    def __init__(self, nn):
        self.nn = nn
        self.spans = []          # finished spans, in end order
        self.request = None      # label of the current pass; spans carry it
        self._stack = []         # open span frames
        self._ids = itertools.count()
        tracer = self

        class CountedReference(nn.Reference):
            def __init__(self, inner):
                self._derivative = tracer.callback("ref_derivative", inner.derivative)

            def derivative(self, t, k):
                return self._derivative(t, k)

        self._reference_cls = CountedReference

    # --- spans around API calls -----------------------------------------------

    def span(self, name, layer, fn):
        """Wrap fn so that each call records one span."""
        def traced(*args, **kwargs):
            frame = {"id": next(self._ids), "name": name, "layer": layer,
                     "parent": self._stack[-1]["id"] if self._stack else None,
                     "request": self.request, "child_s": 0.0,
                     "callbacks": {kind: [0, 0.0] for kind in CALLBACKS}}
            self._stack.append(frame)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                self._stack.pop()
                frame.update(start=t0, end=t1, self_s=t1 - t0 - frame.pop("child_s"))
                self.spans.append(frame)
                if self._stack:
                    self._stack[-1]["child_s"] += t1 - t0
        return traced

    # --- counting wrappers on benchmark-supplied callables ----------------------

    def callback(self, kind, fn):
        """Count and time the calls of fn made inside a span.  Arguments,
        plain floats or nested Dual numbers, pass through untouched."""
        def counted(*args):
            if not self._stack:
                return fn(*args)
            t0 = _now()
            try:
                return fn(*args)
            finally:
                dt = _now() - t0
                top = self._stack[-1]
                top["child_s"] += dt
                slot = top["callbacks"][kind]
                slot[0] += 1
                slot[1] += dt
        return counted

    def plant(self, sysm):
        return self.nn.SystemModel(
            n=sysm.n, drift=tuple(self.callback("drift", d) for d in sysm.drift),
            gain=self.callback("gain", sysm.gain), xi1=sysm.xi1, name=sysm.name)

    def reference(self, ref):
        return self._reference_cls(ref)

    # --- spans on the library's functions ---------------------------------------

    @contextmanager
    def patched(self):
        """While active, every call to a function in SPANS or to
        Trajectory.to_csv records a span, whether the benchmark or the
        library makes it."""
        nn = self.nn
        modules = (nn, nn.sim, nn.averaging)
        to_csv = self.span("to_csv", "sim", nn.Trajectory.to_csv)
        swaps = [(nn.Trajectory, "to_csv", to_csv)]
        for name, layer in SPANS:
            fn = getattr(getattr(nn, layer), name)
            traced = self.span(name, layer, fn)
            swaps += [(mod, name, traced) for mod in modules
                      if getattr(mod, name, None) is fn]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in swaps]
        try:
            for obj, attr, fn in swaps:
                setattr(obj, attr, fn)
            yield
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)

    # --- summaries ----------------------------------------------------------------

    def self_seconds(self, request):
        """Self time per layer over one request's spans; callback time
        counts to the model layer."""
        out = Counter()
        for s in self.spans:
            if s["request"] == request:
                out[s["layer"]] += s["self_s"]
                out["model"] += sum(secs for _, secs in s["callbacks"].values())
        return out

    def callback_counts(self, request):
        out = Counter()
        for s in self.spans:
            if s["request"] == request:
                for kind, (count, _) in s["callbacks"].items():
                    out[kind] += count
        return out
