"""Span recorder installed from outside around the library's layer boundaries.

The library has no tracing of its own, so the recorder replaces the names
that callers bind (module attributes in every `stieltjes` module, the law
classes' CDF and survival methods, and callables that workloads built during
set-up) with wrappers that record a span per call: name, layer, start, end,
parent span and op id.  Spans are kept in memory and summarised into
per-layer metrics at the end.  Nothing is recorded while no op is running,
so the checks between ops stay out of the trace.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# module -> functions wrapped as spans of the module's layer
SPAN_TARGETS = {
    "stieltjes._quadrature": ("tensor_quad", "adaptive_quad"),
    "stieltjes.transforms": ("transform_value", "verify_identity", "ls_direct", "ls_carson",
                             "ls_survival_route", "_ls_survival_1d", "closed_form_ls",
                             "_carson_integral"),
    "stieltjes.fingerprint": ("compute_fingerprint", "compare"),
    "stieltjes.muntz": ("golitschek_coeffs", "sup_norm_estimate", "qn_eval"),
    "stieltjes.inversion": ("post_widder_density", "feller_cdf", "synthesize_derivatives",
                            "oracle_from_distribution"),
    "stieltjes.specio": ("parse_spec",),
}
LAYER = {
    "stieltjes.dist_model": "dist_model",
    "stieltjes._quadrature": "quadrature",
    "stieltjes.transforms": "transforms",
    "stieltjes.fingerprint": "fingerprint",
    "stieltjes.muntz": "muntz",
    "stieltjes.inversion": "inversion",
    "stieltjes.specio": "specio",
}
LAW_METHODS = ("cdf", "survival", "cdf_tensor", "survival_tensor")

NAME, LAYER_I, START, END, PARENT, OP, SIZE = range(7)
SUMMARY_MARK = "PERFBENCH_TRACE "
COUNTERS = ("integrand_calls", "integrand_points", "muntz_prec", "inversion_prec")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.integrand_calls = 0
        self.integrand_points = 0
        self.muntz_prec = 0
        self.inversion_prec = 0
        self.cli_self_s = 0.0

    # -- recording ---------------------------------------------------------

    def _open(self, name, layer):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, layer, 0.0, 0.0, parent, self.op, 0]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, layer, size_of=None, on_result=None):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if size_of is not None:
                rec[SIZE] = size_of(out)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def _wrap_integrand(self, f):
        def counted(*args):
            out = f(*args)
            if self.op is not None:
                self.integrand_calls += 1
                self.integrand_points += int(np.size(out))
            return out

        return counted

    def _wrap_quad(self, fn, name):
        traced = self.wrap(fn, name, "quadrature")

        def quad(f, *args, **kwargs):
            return traced(self._wrap_integrand(f), *args, **kwargs)

        return quad

    def _wrap_triangle(self, fn):
        """coefficient_triangle is a generator: one span per step."""

        def triangle(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = None if self.op is None else self._open("coefficient_triangle", "muntz")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if rec is not None:
                        self._close(rec)
                if rec is not None:
                    self.muntz_prec = max(self.muntz_prec, item.prec)
                yield item

        return triangle

    # -- installation ------------------------------------------------------

    def _set(self, obj, attr, new):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _rebind(self, original, replacement):
        """Replace every binding of `original` in the stieltjes modules."""
        for modname, mod in list(sys.modules.items()):
            if modname != "stieltjes" and not modname.startswith("stieltjes."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, replacement)

    def install(self, instance_callables=()):
        from stieltjes import dist_model, inversion, muntz  # loads every submodule

        for modname, names in SPAN_TARGETS.items():
            mod = sys.modules[modname]
            layer = LAYER[modname]
            for name in names:
                fn = getattr(mod, name)
                if layer == "quadrature":
                    new = self._wrap_quad(fn, name)
                elif name == "compute_fingerprint":
                    new = self.wrap(fn, name, layer, size_of=lambda fp: int(fp.values.size))
                elif name == "oracle_from_distribution":
                    new = self.wrap(fn, name, layer, on_result=self._wrap_oracle)
                else:
                    new = self.wrap(fn, name, layer)
                self._rebind(fn, new)
        self._rebind(muntz.coefficient_triangle, self._wrap_triangle(muntz.coefficient_triangle))

        work_prec = inversion._work_prec

        def noted_prec(*args):
            bits = work_prec(*args)
            if self.op is not None:
                self.inversion_prec = max(self.inversion_prec, bits)
            return bits

        self._set(inversion, "_work_prec", noted_prec)

        law_classes = [c for c in vars(dist_model).values()
                       if isinstance(c, type) and issubclass(
                           c, (dist_model.Distribution1D, dist_model.JointDist))]
        for cls in law_classes:
            for meth in LAW_METHODS:
                if meth in vars(cls):
                    self._set(cls, meth, self.wrap(vars(cls)[meth], f"{cls.__name__}.{meth}",
                                                   "dist_model", size_of=np.size))
        for obj, attr, layer in instance_callables:
            fn = getattr(obj, attr)
            size_of = np.size if layer == "dist_model" else None
            self._set(obj, attr, self.wrap(fn, f"{type(obj).__name__}.{attr}", layer,
                                           size_of=size_of))

    def _wrap_oracle(self, oracle):
        for attr in ("eval", "deriv"):
            fn = getattr(oracle, attr)
            if fn is not None:
                setattr(oracle, attr, self.wrap(fn, f"oracle.{attr}", "oracle"))

    def uninstall(self):
        while self._restore:
            obj, attr, old = self._restore.pop()
            setattr(obj, attr, old)

    def counters(self) -> dict:
        return {k: getattr(self, k) for k in COUNTERS}

    def absorb(self, stderr_text, wall_s):
        """Merge a traced CLI child's summary into this trace, under the
        current op.  The child's own spans carry its clock; only their
        durations and nesting are used."""
        line = stderr_text.rstrip().rsplit("\n", 1)[-1]
        if not line.startswith(SUMMARY_MARK):
            raise ValueError("traced CLI child wrote no trace summary")
        doc = json.loads(line[len(SUMMARY_MARK):])
        base = len(self.spans)
        api_s = 0.0
        for s in doc["spans"]:
            if s[PARENT] < 0:
                api_s += s[END] - s[START]
            else:
                s[PARENT] += base
            s[OP] = self.op
            self.spans.append(s)
        self.integrand_calls += doc["integrand_calls"]
        self.integrand_points += doc["integrand_points"]
        self.muntz_prec = max(self.muntz_prec, doc["muntz_prec"])
        self.inversion_prec = max(self.inversion_prec, doc["inversion_prec"])
        self.cli_self_s += wall_s - doc["import_s"] - api_s

    # -- export ------------------------------------------------------------

    def dump(self, path, extra=None):
        doc = {"fields": ["name", "layer", "start", "end", "parent", "op", "size"],
               "spans": self.spans, **(extra or {})}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def span_times(spans):
    """(duration, self time) per span; self = duration - direct children."""
    dur = np.array([s[END] - s[START] for s in spans]) if spans else np.zeros(0)
    child = np.zeros(len(spans))
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return dur, dur - child


def layer_summary(spans) -> dict:
    """Totals per layer: top-level calls, size, busy time and self time.

    A span is top-level in its layer when its parent belongs to another
    layer (or there is none); busy time sums top-level durations only, so a
    law method calling another law method is not counted twice.
    """
    dur, self_t = span_times(spans)
    out = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        layer = s[LAYER_I]
        row = out[layer]
        row["self_s"] += self_t[i]
        row[f"n:{s[NAME]}"] += 1
        row[f"s:{s[NAME]}"] += dur[i]
        row[f"size:{s[NAME]}"] += s[SIZE]
        parent = s[PARENT]
        if parent < 0 or spans[parent][LAYER_I] != layer:
            row["top_calls"] += 1
            row["busy_s"] += dur[i]
            row["size"] += s[SIZE]
    return out
