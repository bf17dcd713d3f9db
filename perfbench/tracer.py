"""Span tracing of kfplab's public functions, installed from outside.

The tracer replaces public names in the modules that call them (for example
``verification.solve_duhamel`` and ``weights.symmetrized_distance_batch``)
with wrappers that record one span per call: name, start, end, parent span,
thread and request id.  Nothing under ``src/kfplab`` is edited; ``uninstall``
puts every original back.  Spans stay in memory until ``write_jsonl``.

A span opened on a thread with no open span of its own (a worker of the
CLI's thread pool) takes the innermost open span of the client thread as its
parent, so work fanned out by ``cli.main`` nests under it.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict

from kfplab.maximal import CylinderFamily

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "request")

# (module, attribute owner inside the module or None, attribute, span name).
# Each entry patches the binding the calling module actually looks up.
_SPANS = (
    ("kfplab.solver", None, "solve_duhamel", "solver.solve_duhamel"),
    ("kfplab.verification", None, "solve_duhamel", "solver.solve_duhamel"),
    ("kfplab.solver", None, "apply_operator", "solver.apply_operator"),
    ("kfplab.solver", "AnalyticSource", "sample", "solver.AnalyticSource.sample"),
    ("kfplab.fractional", "SpectralField", "to_grid",
     "fractional.SpectralField.to_grid"),
    ("kfplab.verification", None, "frac_laplacian_x", "fractional.frac_laplacian_x"),
    ("kfplab.verification", None, "dv_frac_sixth_magnitude",
     "fractional.dv_frac_sixth_magnitude"),
    ("kfplab.verification", None, "mixed_norm", "norms.mixed_norm"),
    ("kfplab.maximal", None, "mixed_norm", "norms.mixed_norm"),
    ("kfplab.verification", None, "transport_derivative",
     "norms.transport_derivative"),
    ("kfplab.verification", None, "v_gradient_magnitude",
     "norms.v_gradient_magnitude"),
    ("kfplab.verification", None, "v_hessian_magnitude",
     "norms.v_hessian_magnitude"),
    ("kfplab.cli", None, "solve_corpus", "verification.solve_corpus"),
    ("kfplab.verification", None, "estimate_ratio", "verification.estimate_ratio"),
    ("kfplab.cli", None, "random_source_corpus",
     "verification.random_source_corpus"),
    ("kfplab.verification", "EstimateReport", "to_csv",
     "verification.EstimateReport.to_csv"),
    ("kfplab.cli", None, "main", "cli.main"),
    ("kfplab.cli", None, "make_corpus", "maximal.make_corpus"),
    ("kfplab.cli", None, "hl_check", "maximal.hl_check"),
    ("kfplab.cli", None, "fs_check", "maximal.fs_check"),
    ("kfplab.grids", "GridField", "from_callable", "grids.GridField.from_callable"),
    ("kfplab.weights", None, "kinetic_ap_functional",
     "weights.kinetic_ap_functional"),
    ("kfplab.weights", None, "symmetrized_distance_batch",
     "geometry.symmetrized_distance_batch"),
)

# Names that are only counted: they run so often, or so briefly, that a span
# per call would mostly measure the tracer.
_COUNTS = (
    ("kfplab.norms", None, "spectral_derivative", "norms.spectral_derivative.calls"),
    ("kfplab.solver", None, "spectral_derivative", "norms.spectral_derivative.calls"),
    ("kfplab.coefficients", "CoefficientField", "eval",
     "coefficients.CoefficientField.eval.calls"),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []          # tuples laid out as SPAN_FIELDS
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client_stack = None
        self._request = None
        self._patched = []
        self._kinetic_r = threading.local()
        self._family_sizes = {}

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name, sid, parent, start):
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent,
                           threading.get_ident(), self._request))

    @contextlib.contextmanager
    def request(self, request_id):
        """One client request: the root span of everything it calls."""
        self._request = request_id
        self._client_stack = self._stack()
        handle = self._open()
        try:
            yield
        finally:
            self._close("request", *handle)
            self._client_stack = None
            self._request = None

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    # -- patching ------------------------------------------------------------

    def _wrap_span(self, fn, name):
        tracer = self
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            cleanup = before(tracer, args, kwargs) if before else None
            sid, parent, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, sid, parent, start)
                if cleanup is not None:
                    cleanup()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _wrap_count(self, fn, key):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for table, make in ((_SPANS, self._wrap_span), (_COUNTS, self._wrap_count)):
            for module_name, owner_name, attr, label in table:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                raw = owner.__dict__[attr] if owner_name else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    patched = classmethod(make(raw.__func__, label))
                else:
                    patched = make(raw, label)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched = []

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> duration minus the part of it covered by child spans."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _, _, _ in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[sid] = max(0.0, (end - start) - covered)
        return out

    def totals(self) -> dict:
        """Per span name: calls, busy (summed duration), self, and the busy
        time of direct children summed (for the concurrency ratio)."""
        selfs = self.self_times()
        by_id = {s[0]: s for s in self.spans}
        agg = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0,
                                   "child_busy": 0.0})
        for sid, name, start, end, parent, _, _ in self.spans:
            row = agg[name]
            row["calls"] += 1
            row["busy"] += end - start
            row["self"] += selfs[sid]
            if parent in by_id:
                agg[by_id[parent][1]]["child_busy"] += end - start
        return dict(agg)

    def write_jsonl(self, path) -> None:
        """Gzipped JSON lines: a header naming the fields, then one array
        per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- work counts recorded after a traced call returns ---------------------------


def _after_solve(tracer, args, kwargs, result):
    spec = result.spec
    tracer.count("solver.lattice_points",
                 spec.n_t * spec.n_x ** spec.d * spec.n_v ** spec.d)


def _after_to_csv(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("verification.csv_bytes", os.path.getsize(path))


def _after_sweep_check(tracer, args, kwargs, result):
    corpus, nspec = args[0], args[1]
    c = kwargs.get("c", args[2] if len(args) > 2 else 1.0)
    spec = corpus[0].spec
    key = (spec, c, nspec.T)
    size = tracer._family_sizes.get(key)
    if size is None:
        fam = CylinderFamily.for_grid(spec, c=c, T=nspec.T)
        size = sum(1 for r in fam.radii for _ in fam.centers(spec, r))
        tracer._family_sizes[key] = size
    tracer.count("maximal.cylinders", size)


def _before_kinetic(tracer, args, kwargs):
    """Expose the ball radius to the distance wrapper, which counts the
    draws that land inside the ball (rho < r)."""
    tracer._kinetic_r.value = kwargs["r"] if "r" in kwargs else args[2]

    def cleanup():
        tracer._kinetic_r.value = None

    return cleanup


def _after_distance(tracer, args, kwargs, result):
    tracer.count("geometry.symmetrized_distance_batch.points", len(result))
    r = getattr(tracer._kinetic_r, "value", None)
    if r is not None:
        tracer.count("weights.draws", len(result))
        tracer.count("weights.accepted", int((result < r).sum()))


_BEFORE = {"weights.kinetic_ap_functional": _before_kinetic}

_AFTER = {
    "solver.solve_duhamel": _after_solve,
    "verification.EstimateReport.to_csv": _after_to_csv,
    "maximal.hl_check": _after_sweep_check,
    "maximal.fs_check": _after_sweep_check,
    "geometry.symmetrized_distance_batch": _after_distance,
}
