"""Wrappers that count calls into neckflow and, in a traced run, record spans.

A wrapper replaces an attribute where callers look it up (for example
`neckflow.harness.generate`, which harness imported by name), so it sees
exactly the calls the program makes.  Two modes:

* counting (timed runs): only `neckflow.harness.solve`, `scipy.sparse.linalg.splu`
  and `neckflow.meshing.Delaunay` are wrapped, and each wrapper only adds to
  integer counters.  They give the work counts of every run (Newton
  iterations, factorizations, Delaunay calls); no clock is read.
* tracing (traced runs): every target in TARGETS is wrapped and each call
  records a span (name, layer, start, end, parent, trace id).  Spans stay in
  memory until the run ends.

A target that no longer exists is recorded in `Tracer.absent`; the metrics
that depend on it are reported as absent, never as 0.
"""

import functools
import importlib
import inspect
import time
from collections import Counter

# (dotted target, layer).  Harness imports generate/solve/load_mesh/save_mesh
# by name, so those are wrapped in neckflow.harness, not where they are defined.
TARGETS = (
    ("neckflow.harness.run_sweep", "harness"),
    ("neckflow.harness.case_mesh", "harness"),
    ("neckflow.harness.run_case", "harness"),
    ("neckflow.harness.write_report", "harness"),
    ("neckflow.harness.generate", "meshing"),
    ("neckflow.harness.load_mesh", "meshing"),
    ("neckflow.harness.save_mesh", "meshing"),
    ("neckflow.meshing.generate", "meshing"),
    ("neckflow.meshing.check_mesh", "meshing"),
    ("neckflow.meshing.Delaunay", "meshing"),
    ("neckflow.harness.solve", "solver"),
    ("neckflow.solver.ElementOps.energy_grad", "solver"),
    ("neckflow.solver.ElementOps.hessian", "solver"),
    ("neckflow.solver.Condenser.reduce_hess", "solver"),
    ("scipy.sparse.linalg.splu", "solver"),
    ("neckflow.analysis.max_gradient", "analysis"),
    ("neckflow.analysis.cross_section_flux", "analysis"),
    ("neckflow.analysis.gradient_probe", "analysis"),
    ("neckflow.asymptotics.fit_ugap_limit", "asymptotics"),
    ("neckflow.asymptotics.extrapolated_window_rows", "asymptotics"),
    ("neckflow.asymptotics.extrapolate_flux", "asymptotics"),
    ("neckflow.geometry.Geometry.validate", "geometry"),
)

COUNTING_TARGETS = ("neckflow.harness.solve", "scipy.sparse.linalg.splu",
                    "neckflow.meshing.Delaunay")

# targets whose hooks read call arguments; the others are never bound
_READS_ARGS = ("neckflow.harness.solve", "neckflow.harness.case_mesh",
               "neckflow.harness.run_case")


def _resolve(dotted):
    """Return (owner, attribute name, current value) or None if it is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        value = getattr(owner, parts[-1], None)
        return None if value is None else (owner, parts[-1], value)
    return None


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "trace", "attrs")

    def __init__(self, name, layer, start, parent, trace):
        self.name, self.layer, self.start = name, layer, start
        self.parent, self.trace = parent, trace
        self.end = None
        self.attrs = {}

    def as_dict(self, ids):
        return {"id": ids[id(self)], "name": self.name, "layer": self.layer,
                "start": self.start, "end": self.end,
                "parent": None if self.parent is None else ids[id(self.parent)],
                "trace": self.trace, "attrs": self.attrs}


class Tracer:
    """Owns the wrappers of one run and what they record."""

    def __init__(self, traced):
        self.traced = traced
        self.absent = []
        self.reset()

    def reset(self):
        """Drop what set-up recorded; the timed part starts from zero."""
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self._p = None
        self.trace_id = None

    # -- installation ---------------------------------------------------------

    def install(self):
        targets = TARGETS if self.traced else [(t, None) for t in COUNTING_TARGETS]
        for dotted, layer in targets:
            found = _resolve(dotted)
            if found is None:
                self.absent.append(dotted)
                continue
            owner, attr, orig = found
            wrapper = (self._span_wrapper(dotted, layer, orig) if self.traced
                       else self._count_wrapper(dotted, orig))
            setattr(owner, attr, wrapper)

    # -- hooks shared by both modes ---------------------------------------------

    def _before(self, name, args):
        """Per-target bookkeeping before a call; returns span attributes."""
        self.counts[name] += 1
        if name == "neckflow.harness.solve":
            self._p = float(args["cfg"].p)
            return {"p": self._p}
        if name == "scipy.sparse.linalg.splu":
            if self._p is not None:
                self.counts[f"splu.p{self._p:g}"] += 1
            return {"p": self._p}
        if not self.traced:
            return {}
        if name == "neckflow.harness.case_mesh":
            eps = float(args["eps"])
            self.trace_id = f"eps={eps:g}"
            return {"eps": eps}
        if name == "neckflow.harness.run_case":
            p, eps = float(args["p"]), float(args["eps"])
            case = f"p={p:g},eps={eps:g}"
            # the case's mesh was built just before it; give it the case's id
            for s in self.spans:
                if s.trace == f"eps={eps:g}":
                    s.trace = case
            self.trace_id = case
            return {"p": p, "eps": eps}
        return {}

    def _after(self, name, result, attrs):
        if name == "neckflow.harness.solve":
            self.counts[f"newton.p{self._p:g}"] += int(result.newton_iters)
            attrs["newton_iters"] = int(result.newton_iters)
            attrs["kkt_residual"] = float(result.kkt_residual)
            self._p = None
        elif name == "neckflow.harness.run_case":
            self.trace_id = None
        elif name == "neckflow.asymptotics.extrapolate_flux":
            attrs["fallback"] = bool(result.fallback)
        elif name == "neckflow.asymptotics.fit_ugap_limit":
            attrs["warning"] = bool(result.warning)

    # -- wrappers -------------------------------------------------------------

    @staticmethod
    def _binder(name, orig):
        if name not in _READS_ARGS:
            return lambda a, kw: None
        sig = inspect.signature(orig)
        return lambda a, kw: sig.bind(*a, **kw).arguments

    def _count_wrapper(self, name, orig):
        bind = self._binder(name, orig)

        @functools.wraps(orig)
        def wrapper(*a, **kw):
            self._before(name, bind(a, kw))
            result = orig(*a, **kw)
            self._after(name, result, {})
            return result
        return wrapper

    def _span_wrapper(self, name, layer, orig):
        bind = self._binder(name, orig)

        @functools.wraps(orig)
        def wrapper(*a, **kw):
            attrs = self._before(name, bind(a, kw))
            parent = self._stack[-1] if self._stack else None
            span = Span(name, layer, time.perf_counter(), parent, self.trace_id)
            self._stack.append(span)
            try:
                result = orig(*a, **kw)
                self._after(name, result, attrs)
                return result
            finally:
                span.end = time.perf_counter()
                span.attrs = attrs
                self._stack.pop()
                self.spans.append(span)
        return wrapper


def to_dicts(spans):
    ids = {id(s): k for k, s in enumerate(spans)}
    return [s.as_dict(ids) for s in spans]


def self_times(spans):
    """Span duration minus the time its child spans cover (children of one
    span never overlap: the program is single-threaded)."""
    child = Counter()
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] += s.end - s.start
    return {id(s): (s.end - s.start) - child[id(s)] for s in spans}
