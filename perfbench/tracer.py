"""Spans and counters around alexkit's public functions, for the traced run.

The wrappers live here, not in the program: ``Tracer.install`` rebinds names
on the ``alexkit.*`` modules (and the classes in them) and ``uninstall`` puts
the originals back.  A name imported with ``from .trig import f`` is a
separate binding in the importing module, so each kernel is rebound in the
modules whose code calls it, ``comparison`` and ``spaces``.

Layer boundaries get one span per call (name, start, end, parent).  The
scalar trig kernels run about a million times per sweep workload, so they
are only counted and timed in aggregate under the enclosing span; the
binding inside ``alexkit.trig`` itself (where ``f_inverse`` calls ``f``) only
counts, so a nested call is never timed twice.

Everything is thread-safe: ``batch_angle`` runs on the scan's thread pool.
Span lists are appended under a lock, call counters are ``itertools.count``
objects (advanced atomically by the interpreter), and a span started on a
pool thread takes the main thread's open span as its parent.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

import numpy as np

SCALAR_KERNELS = ("model_side", "angle_from_sides", "f", "f_inverse")
CLI_COMMANDS = ("lemma_verify", "domain_generate", "space_scan", "space_local_check",
                "convexity_estimate", "convexity_search", "completion_compare")

# computed traffic of one batch_angle element: three float64 side lengths in,
# one float64 angle and one bool mask out
BATCH_ANGLE_BYTES_PER_ELEMENT = 3 * 8 + 8 + 1


class Span:
    __slots__ = ("name", "parent", "start", "end", "scalar_s", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.scalar_s = 0.0
        self.attrs = {}

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._calls = {k: itertools.count() for k in SCALAR_KERNELS}
        self._nested_f = itertools.count()
        self._scalar_s = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run ``fn`` inside a span; ``attrs(args, kwargs, result)`` adds counts."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, parent)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        return result

    # -- wrappers

    def _spanned(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return wrapper

    def _timed_scalar(self, kernel, fn):
        counter = self._calls[kernel]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack = self._stack()
                owner = stack[-1] if stack else None
                with self._lock:
                    self._scalar_s += dt
                    if owner is not None:
                        owner.scalar_s += dt

        return wrapper

    def _counted_scalar(self, kernel, fn):
        counter = self._calls[kernel]
        nested = self._nested_f if kernel == "f" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            if nested is not None:
                next(nested)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _patch_method(self, cls, name, span_name, attrs=None):
        raw = vars(cls)[name]
        if isinstance(raw, classmethod):
            self._patch(cls, name, classmethod(self._spanned(span_name, raw.__func__, attrs)))
        else:
            self._patch(cls, name, self._spanned(span_name, raw, attrs))

    def install(self):
        from alexkit import comparison, convexity, domains, reporting, spaces, trig

        for kernel in SCALAR_KERNELS:
            original = vars(trig)[kernel]
            self._patch(trig, kernel, self._counted_scalar(kernel, original))
            for module in (comparison, spaces):
                if kernel in vars(module):
                    self._patch(module, kernel, self._timed_scalar(kernel, original))
        batch = self._spanned("trig.batch_angle", vars(trig)["batch_angle"], _batch_attrs)
        self._patch(trig, "batch_angle", batch)
        self._patch(spaces, "batch_angle", batch)

        self._patch(spaces, "dijkstra",
                    self._spanned("spaces.dijkstra", vars(spaces)["dijkstra"], _dijkstra_attrs))
        length_space = spaces.DiscreteLengthSpace
        metric_space = spaces.FiniteMetricSpace
        self._patch_method(length_space, "load", "spaces.load", _path_bytes(1))
        self._patch_method(metric_space, "from_csv", "spaces.load", _path_bytes(1))
        self._patch_method(length_space, "save", "spaces.save", _path_bytes(1))
        self._patch_method(metric_space, "to_csv", "spaces.save", _path_bytes(1))
        self._patch_method(length_space, "shortest_path", "spaces.shortest_path",
                           lambda a, k, r: {"vertices": len(r.vertices)})
        for name in ("scan_quadruples", "local_kappa_domain_check"):
            self._patch(spaces, name,
                        self._spanned(f"spaces.{name}", vars(spaces)[name], _report_attrs))

        for name in ("verify_weighted_pair", "verify_weighted_multi", "verify_alternating",
                     "verify_extension", "verify_alexandrov"):
            self._patch(comparison, name,
                        self._spanned(f"comparison.{name}", vars(comparison)[name], _report_attrs))
        for name in ("prob_convexity", "weak_lambda_search", "ae_convexity_estimate"):
            self._patch(convexity, name,
                        self._spanned(f"convexity.{name}", vars(convexity)[name], _report_attrs))

        generate = vars(domains)["generate"]

        def traced_generate(spec, *args, **kwargs):
            return self.call(f"domains.generate.{spec.kind}", generate,
                             (spec, *args), kwargs, lambda a, k, r: {"edges": len(r.edges)})

        self._patch(domains, "generate", traced_generate)
        for name in ("unit_sphere_points", "completion_compare"):
            self._patch(domains, name,
                        self._spanned(f"domains.{name}", vars(domains)[name], _report_attrs))
        self._patch(reporting, "write_report",
                    self._spanned("reporting.write_report", vars(reporting)["write_report"],
                                  _path_bytes(0)))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results

    def export(self) -> list[dict]:
        """Finished spans in start order, with parents as list indices."""
        spans = sorted(self.spans, key=lambda s: s.start)
        index = {id(s): i for i, s in enumerate(spans)}
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": index.get(id(s.parent)), "scalar_s": s.scalar_s,
                 **{k: v for k, v in s.attrs.items() if k != "report"}}
                for s in spans]

    def counts(self) -> dict:
        """Scalar kernel call counts; read once, at the end of the run."""
        # next() on an itertools.count returns how many times it was advanced
        out = {k: next(c) for k, c in self._calls.items()}
        out["f_nested"] = next(self._nested_f)
        return out

    def scalar_seconds(self) -> float:
        return self._scalar_s


def _batch_attrs(args, kwargs, result):
    opposite = args[1] if len(args) > 1 else kwargs["opposite"]
    return {"elements": int(np.size(opposite))}


def _dijkstra_attrs(args, kwargs, result):
    indices = kwargs.get("indices", args[2] if len(args) > 2 else None)
    sources = np.size(indices) if indices is not None else np.shape(args[0])[0]
    return {"sources": int(sources)}


def _path_bytes(position):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[position])}

    return attrs


def _report_attrs(args, kwargs, result):
    return {"report": result}


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span duration minus the union of its children's intervals and scalar time."""
    covered = 0.0
    end = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, end)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            end = hi
    return span.duration - covered - span.scalar_s


def _under(span: Span, prefix: str) -> bool:
    node = span.parent
    while node is not None:
        if node.name.startswith(prefix):
            return True
        node = node.parent
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the spans and counters of one traced process."""
    spans = tracer.spans
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    by_name = defaultdict(list)
    self_by_layer = defaultdict(float)
    self_by_name = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        own = self_seconds(s, children[id(s)])
        self_by_layer[s.layer] += own
        self_by_name[s.name] += own

    def total(name, attr=None):
        group = by_name.get(name, [])
        if attr is None:
            return sum(s.duration for s in group)
        return sum(s.attrs.get(attr, 0) for s in group)

    def reports(prefix):
        # a call that raised has no report
        return [s.attrs["report"] for n, g in by_name.items() if n.startswith(prefix)
                for s in g if "report" in s.attrs]

    m = {}
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = total(f"cli.{command}")
    m["cli.self_s"] = self_by_layer["cli"]
    m["reporting.write_report.s"] = total("reporting.write_report")
    m["reporting.write_report.bytes"] = total("reporting.write_report", "bytes")

    sweeps = reports("comparison.")
    for name in ("verify_weighted_pair", "verify_weighted_multi", "verify_alternating",
                 "verify_extension", "verify_alexandrov"):
        m[f"comparison.{name}.s"] = total(f"comparison.{name}")
    m["comparison.self_s"] = self_by_layer["comparison"]
    m["comparison.evaluated_frac"] = _ratio(sum(r.evaluated for r in sweeps),
                                            sum(r.trials for r in sweeps))

    calls = tracer.counts()
    for kernel in SCALAR_KERNELS:
        m[f"trig.{kernel}.calls"] = calls[kernel]
    m["trig.f_evals_per_inverse"] = _ratio(calls["f_nested"], calls["f_inverse"])
    m["trig.scalar.s"] = tracer.scalar_seconds()

    scans = reports("spaces.scan_quadruples")
    quadruples = sum(r.samples for r in scans)
    elements = total("trig.batch_angle", "elements")
    m["trig.batch_angle.calls"] = len(by_name.get("trig.batch_angle", []))
    m["trig.batch_angle.elements"] = elements
    m["trig.batch_angle.s"] = total("trig.batch_angle")
    m["trig.batch_angle.bytes_computed"] = elements * BATCH_ANGLE_BYTES_PER_ELEMENT
    m["trig.batch_angle.elements_per_quadruple"] = _ratio(elements, quadruples)

    for name in ("spaces.load", "spaces.save"):
        m[f"{name}.s"] = total(name)
        m[f"{name}.bytes"] = total(name, "bytes")
    m["spaces.dijkstra.calls"] = len(by_name.get("spaces.dijkstra", []))
    m["spaces.dijkstra.sources"] = total("spaces.dijkstra", "sources")
    m["spaces.dijkstra.s"] = total("spaces.dijkstra")
    m["spaces.shortest_path.calls"] = len(by_name.get("spaces.shortest_path", []))
    m["spaces.shortest_path.s"] = total("spaces.shortest_path")
    m["spaces.shortest_path.self_s"] = self_by_name["spaces.shortest_path"]
    m["spaces.shortest_path.vertices"] = total("spaces.shortest_path", "vertices")

    checks = reports("spaces.local_kappa_domain_check")
    trials = sum(r.trials for r in checks)
    in_checks = sum(1 for s in by_name.get("spaces.dijkstra", [])
                    if _under(s, "spaces.local_kappa_domain_check"))
    m["spaces.local_kappa_domain_check.s"] = total("spaces.local_kappa_domain_check")
    m["spaces.local_check.evaluated_frac"] = _ratio(sum(r.evaluated for r in checks), trials)
    m["spaces.local_check.dijkstra_per_trial"] = _ratio(in_checks, trials)

    m["spaces.scan_quadruples.s"] = total("spaces.scan_quadruples")
    m["spaces.scan_quadruples.self_s"] = self_by_name["spaces.scan_quadruples"]
    m["spaces.scan.defined_frac"] = _ratio(sum(r.evaluated for r in scans), quadruples)

    searches = reports("convexity.weak_lambda_search")
    m["convexity.prob_convexity.calls"] = len(by_name.get("convexity.prob_convexity", []))
    m["convexity.prob_convexity.s"] = total("convexity.prob_convexity")
    m["convexity.weak_lambda_search.s"] = total("convexity.weak_lambda_search")
    m["convexity.ae_convexity_estimate.s"] = total("convexity.ae_convexity_estimate")
    m["convexity.self_s"] = self_by_layer["convexity"]
    m["convexity.search.evaluated_frac"] = _ratio(
        sum(r.detail["candidates_evaluated"] for r in searches),
        sum(r.detail["candidates_requested"] for r in searches))

    for kind in ("cap", "punctured", "dense_square"):
        m[f"domains.generate.{kind}.s"] = total(f"domains.generate.{kind}")
        m[f"domains.generate.{kind}.edges"] = total(f"domains.generate.{kind}", "edges")
    m["domains.unit_sphere_points.s"] = total("domains.unit_sphere_points")
    completions = reports("domains.completion_compare")
    m["domains.completion_compare.s"] = total("domains.completion_compare")
    m["domains.completion_compare.self_s"] = self_by_name["domains.completion_compare"]
    m["domains.completion.matched_frac"] = _ratio(sum(r.matched for r in completions),
                                                  sum(r.pairs for r in completions))
    return m
