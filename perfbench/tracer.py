"""Span tracer that wraps gausscov's functions from outside the package.

``Tracer.install`` replaces each function in ``WRAPS`` at the module
attribute its callers look up (``gausscov.select.scan_best`` is what ``f1st``
calls), so no source file of the package changes.  Every wrapped call records
a span on a per-thread stack; spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its children on
the same thread, so nested spans are never counted twice.  Work handed to the
package's worker pool starts a root span on the worker thread whose parent is
the submitting ``ordered_map`` call.  The submitting thread's time inside
``ordered_map`` that its own children do not cover is waiting, not work: it is
kept under ``parallel.wait`` and left out of busy time.
"""

import contextlib
import functools
import importlib
import itertools
import os
import threading
import time

# (module, attribute, span key, kind).  The key names the layer a span's self
# time is charged to; the kind selects the extra bookkeeping below.
WRAPS = [
    ("gausscov.select", "scan_best", "matrix.scan", "scan"),
    ("gausscov.select", "extend", "matrix.extend", "extend"),
    ("gausscov.select", "extend_intercept", "matrix.extend", "extend"),
    ("gausscov.matrix", "standardize", "matrix.standardize", None),
    ("gausscov.sim", "standardize", "matrix.standardize", None),
    ("gausscov.select", "f1st", "select", "f1st"),
    ("gausscov.graph", "f1st", "select", "f1st"),
    ("gausscov.sim", "f1st", "select", "f1st"),
    ("gausscov.cli", "f1st", "select", "f1st"),
    ("gausscov.select", "f3st", "select", None),
    ("gausscov.pvalues", "pf_from_rss_ratio", "pvalues", None),
    ("gausscov.pvalues", "pg_stepwise", "pvalues", None),
    ("gausscov.pvalues", "pg_all_subset", "pvalues", None),
    ("gausscov.pvalues", "pf_threshold", "pvalues", None),
    ("gausscov.pvalues", "beta_cdf_inv", "pvalues", None),
    ("gausscov.graph", "ordered_map", "parallel.wait", "map"),
    ("gausscov.sim", "ordered_map", "parallel.wait", "map"),
    ("gausscov.graph", "fgr1st", "graph", None),
    ("gausscov.sim", "run_sim", "sim", None),
    ("gausscov.cli", "load_csv", "featurize.load_csv", "load"),
]


class Span:
    """One timed call.  ``n`` carries the kind's count (bytes, steps, cells, workers)."""

    __slots__ = ("id", "parent", "thread", "op", "key", "kind", "t0", "t1",
                 "child_s", "root", "n", "scanned")

    def __init__(self, sid, parent, thread, op, key, kind, root):
        self.id = sid
        self.parent = parent
        self.thread = thread
        self.op = op
        self.key = key
        self.kind = kind
        self.root = root
        self.child_s = 0.0
        self.n = 0
        self.scanned = False
        self.t0 = self.t1 = 0.0

    @property
    def dur(self):
        return self.t1 - self.t0

    @property
    def self_s(self):
        return self.dur - self.child_s

    def record(self):
        parent = None if self.parent is None else self.parent.id
        return [self.id, parent, self.thread, self.op, self.key, self.kind,
                self.t0, self.t1, self.child_s, self.root, self.n]


def _enclosing_f1st(stack):
    for span in reversed(stack):
        if span.kind == "f1st":
            return span
    return None


def _passes_bytes(m, passes):
    # computed from the call structure: 8 bytes per cell per pass over X
    return 8 * int(m.n) * int(m.q) * passes


class Tracer:
    """Collects spans from every thread; install, run, uninstall, then summarize."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread = []
        self._ids = itertools.count()
        self._patched = []
        self._cache_start = None
        self.cache_hits = 0
        self.cache_misses = 0
        self.missing = []
        self.op = None

    # -- span bookkeeping -------------------------------------------------

    def _thread_state(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            done = self._local.done = []
            with self._lock:
                self._per_thread.append(done)
        return st, self._local.done

    def _open(self, key, kind, foreign_parent=None):
        stack, _ = self._thread_state()
        if stack:
            parent, root = stack[-1], False
        else:
            parent, root = foreign_parent, True
        span = Span(next(self._ids), parent, threading.get_ident(), self.op,
                    key, kind, root)
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _close(self, span):
        span.t1 = time.perf_counter()
        stack, done = self._thread_state()
        stack.pop()
        if not span.root:
            span.parent.child_s += span.dur
        done.append(span)

    @contextlib.contextmanager
    def span(self, key, kind=None):
        """A span opened by the benchmark itself."""
        span = self._open(key, kind)
        try:
            yield span
        finally:
            self._close(span)

    def spans(self):
        return [s for done in self._per_thread for s in done]

    def absorb(self, dump):
        """Merge a child process's ``dump()`` under the innermost open span."""
        stack, _ = self._thread_state()
        self.adopt(dump["spans"], stack[-1])
        self.cache_hits += dump["cache_hits"]
        self.cache_misses += dump["cache_misses"]

    def adopt(self, records, parent):
        """Add spans recorded by a child process under ``parent`` (already closed).

        The child's root spans become children of ``parent``; their time is
        subtracted from the parent's self time, as for same-thread children.
        """
        _, done = self._thread_state()
        by_id = {}
        for sid, pid, thread, _op, key, kind, t0, t1, child_s, root, n in records:
            # the child's top span is accounted in ``parent``; pool tasks stay roots
            span = Span(next(self._ids), None, f"child-{thread}", parent.op,
                        key, kind, root and pid is not None)
            span.t0, span.t1, span.child_s, span.n = t0, t1, child_s, n
            by_id[sid] = span
        for rec in records:
            span, pid = by_id[rec[0]], rec[1]
            if pid is None:
                span.parent = parent
                parent.child_s += span.dur
            else:
                span.parent = by_id[pid]
            done.append(span)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, module, fn, key, kind):
        tracer = self

        if kind == "scan":
            @functools.wraps(fn)
            def traced_scan(state, m, *args, **kwargs):
                stack, _ = tracer._thread_state()
                f1 = _enclosing_f1st(stack)
                if f1 is not None and not f1.scanned:
                    # the first scan of an f1st call builds the column-norm cache:
                    # one pass for the norms, one per basis vector, one for X^T r
                    f1.scanned = True
                    span = tracer._open("matrix.scan_setup", kind)
                    span.n = _passes_bytes(m, 2 + len(state.basis))
                else:
                    span = tracer._open(key, kind)
                    span.n = _passes_bytes(m, 1)
                try:
                    return fn(state, m, *args, **kwargs)
                finally:
                    tracer._close(span)

            return traced_scan

        if kind == "extend":
            @functools.wraps(fn)
            def traced_extend(state, *args, **kwargs):
                f1 = _enclosing_f1st(tracer._thread_state()[0])
                span = tracer._open(key, kind)
                if args and f1 is not None and f1.scanned:
                    # once the norm cache exists, each extension downdates it
                    # with one pass X^T u
                    span.n = _passes_bytes(args[0], 1)
                try:
                    return fn(state, *args, **kwargs)
                finally:
                    tracer._close(span)

            return traced_extend

        if kind == "map":
            task_key = module.rsplit(".", 1)[1]

            @functools.wraps(fn)
            def traced_map(task, items):
                items = list(items)
                span = tracer._open(key, kind)
                span.n = min(_thread_cap(), len(items))

                def traced_task(item):
                    tspan = tracer._open(task_key, "task", foreign_parent=span)
                    try:
                        return task(item)
                    finally:
                        tracer._close(tspan)

                try:
                    return fn(traced_task, items)
                finally:
                    tracer._close(span)

            return traced_map

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(key, kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if kind == "f1st":
                span.n = len(result.trace)
            elif kind == "load":
                span.n = int(result.n) * int(result.q)
            return result

        return traced

    def install(self):
        """Wrap every function in ``WRAPS`` that exists; names that do not are listed in ``missing``."""
        self.missing = []
        self._cache_start = _cache_info()
        for module, attr, key, kind in WRAPS:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                owner = None
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(module, fn, key, kind))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []
        end = _cache_info()
        if self._cache_start is not None and end is not None:
            self.cache_hits += end[0] - self._cache_start[0]
            self.cache_misses += end[1] - self._cache_start[1]
        self._cache_start = None

    def dump(self):
        return {
            "spans": [s.record() for s in self.spans()],
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "missing": self.missing,
        }


def _thread_cap():
    try:
        from gausscov.parallel import thread_cap
    except ImportError:
        return os.cpu_count() or 1
    return thread_cap()


def _cache_info():
    """(hits, misses) of the Beta-quantile cache, or None when it has none."""
    try:
        from gausscov import pvalues
    except ImportError:
        return None
    info = getattr(pvalues.beta_cdf_inv, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def summarize(spans, ops):
    """Per-op layer totals from a list of closed spans.

    Returns ``{key: {"self_s", "calls", "n"}}`` divided by ``ops``, plus the
    parallel totals and busy time computed two ways: from root spans (minus
    waiting) and as the sum of layer self times.  The two agree exactly when
    every nested span is subtracted from its parent once.
    """
    layers = {}
    wait = roots = map_wall = map_capacity = task_busy = 0.0
    for s in spans:
        d = layers.setdefault(s.key, {"self_s": 0.0, "calls": 0, "n": 0})
        d["self_s"] += s.self_s
        d["calls"] += 1
        d["n"] += s.n
        if s.root:
            roots += s.dur
        if s.kind == "map":
            wait += s.self_s
            map_wall += s.dur
            map_capacity += s.dur * s.n
        elif s.kind == "task":
            task_busy += s.dur
    busy_layers = sum(d["self_s"] for k, d in layers.items() if k != "parallel.wait")
    f1st = [s for s in spans if s.kind == "f1st"]
    per_op = {
        k: {"self_s": d["self_s"] / ops, "calls": d["calls"] / ops, "n": d["n"] / ops}
        for k, d in layers.items()
    }
    return {
        "layers": per_op,
        "f1st_calls": len(f1st) / ops,
        "steps": sum(s.n for s in f1st) / ops,
        "busy_s": busy_layers / ops,
        "busy_from_roots_s": (roots - wait) / ops,
        "parallel_wall_s": map_wall / ops,
        "parallel_task_busy_s": task_busy / ops,
        "parallel_efficiency": task_busy / map_capacity if map_capacity > 0 else 0.0,
    }
