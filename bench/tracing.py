"""Span tracing for the traced benchmark run.

The tracer wraps harmlab's public functions from outside: each function is
replaced in every harmlab module namespace that binds it (so
`from .graphs import ball` bindings are covered), methods are replaced on
their class, and the solver entry points harmlab calls into are replaced on
the scipy/numpy modules it looks them up in.  Nested calls become child
spans.  Spans are kept in memory as [name, start, end, parent, op] lists
and aggregated per layer after the pass; nothing under src/ changes.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter

import numpy as np
import scipy.optimize
import scipy.sparse.linalg

SPAN_FIELDS = ("name", "start", "end", "parent", "op")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_bfs(tr, span, args, kwargs, dist):
    tr.counts["graphs.bfs_distances.vertices"] += int(
        np.count_nonzero(dist >= 0))


def _count_ball(tr, span, args, kwargs, ball):
    tr.counts["cayley.cayley_ball.vertices"] += ball.n
    # computed, not observed: BFS multiplies every vertex by every generator
    tr.counts["cayley.cayley_ball.products"] += ball.n * ball.group.degree


def _count_interior(tr, span, args, kwargs, ex):
    tr.counts["walk.exit_distribution.interior_vertices"] += \
        len(_arg(args, kwargs, 1, "A").members)


def _cheeger_path(args, kwargs):
    # the path is chosen from the vertex count alone
    from harmlab import spectral
    n = _arg(args, kwargs, 0, "G").n
    if n <= spectral.BITMASK_LIMIT:
        return "spectral.cheeger_kappa1.bitmask"
    if n <= spectral.MILP_LIMIT:
        return "spectral.cheeger_kappa1.milp"
    return "spectral.cheeger_kappa1.sweep"


def _count_cg(tr, span, args, kwargs, result):
    tr.counts["solver.cg_calls"] += 1
    if result[1] != 0:
        tr.counts["solver.cg_nonconverged"] += 1


def _count(metric):
    def after(tr, span, args, kwargs, result):
        tr.counts[metric] += 1
    return after


def _count_milp(tr, span, args, kwargs, result):
    """Attribute an integer program to the nearest traced harmlab caller."""
    p = span[3]
    while p >= 0:
        module = tr.spans[p][0].split(".")[0]
        if module in ("spectral", "isoperimetry"):
            tr.counts[f"{module}.milp_solves"] += 1
            return
        p = tr.spans[p][3]


# (harmlab module, attribute or Class.method, span name, after-hook)
LIBRARY = (
    ("graphs", "bfs_distances", None, _count_bfs),
    ("graphs", "ball", None, None),
    ("cayley", "cayley_ball", None, _count_ball),
    ("cayley", "CayleyBall.translation_table", "cayley.translation_table",
     None),
    ("cayley", "path_of_element", None, None),
    ("walk", "exit_distribution", None, _count_interior),
    ("walk", "StoppedWalk.__init__", "walk.StoppedWalk", None),
    ("walk", "green_partial", None, None),
    ("walk", "entropy_profile", None, None),
    ("harmonic", "liouville_probe", None, None),
    ("harmonic", "dirichlet_extend", None, None),
    ("harmonic", "divergence_profile", None, None),
    ("transport", "stopped_exit_transport", None, None),
    ("transport", "random_step_transport", None, None),
    ("transport", "wasserstein1", None, None),
    ("transport", "central_transport", None, None),
    ("transport", "cycle_cancel", None, None),
    ("spectral", "cheeger_kappa1", _cheeger_path, None),
    ("spectral", "lambda2", None, None),
    ("spectral", "kappa_p_estimate", None, None),
    ("spectral", "lambda_p_estimate", None, None),
    ("isoperimetry", "profile", None, None),
    ("isoperimetry", "min_boundary_exact", None, None),
    ("window", "window_projection_stats", None, None),
    ("window", "build_window", None, None),
    ("cli", "main", None, None),
)

# (module harmlab looks the solver up in, attribute, span name, after-hook)
SOLVERS = (
    (scipy.sparse.linalg, "cg", "solver.cg", _count_cg),
    (scipy.sparse.linalg, "spsolve", "solver.spsolve",
     _count("solver.spsolve_calls")),
    (scipy.optimize, "milp", "solver.milp", _count_milp),
    (np.linalg, "lstsq", "solver.lstsq", _count("solver.lstsq_calls")),
)


class Tracer:
    """Records spans while `op` is set; `install()` patches harmlab and
    `uninstall()` restores it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [label, perf_counter(), None, parent, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer, span, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, fn, metric):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.op is not None:
                    tracer.counts[metric] += 1
                yield item

        return counted

    def _patch_everywhere(self, owner, attr, wrapped, original):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "harmlab" or mod is owner:
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, val))
                    setattr(mod, key, wrapped)

    def install(self):
        for modname, path, name, after in LIBRARY:
            owner = sys.modules[f"harmlab.{modname}"]
            cls, _, attr = path.rpartition(".")
            if cls:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None)
            # a function a later version of harmlab no longer has reads 0
            if fn is None:
                continue
            wrapped = self._wrap(fn, name or f"{modname}.{path}", after)
            if cls:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
            else:
                self._patch_everywhere(owner, attr, wrapped, fn)
        iso = sys.modules["harmlab.isoperimetry"]
        gen = getattr(iso, "connected_subsets", None)
        if gen is not None:
            self._patch_everywhere(
                iso, "connected_subsets",
                self._wrap_generator(gen, "isoperimetry.connected_sets"), gen)
        for owner, attr, name, after in SOLVERS:
            fn = getattr(owner, attr)
            self._patch_everywhere(owner, attr, self._wrap(fn, name, after),
                                   fn)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(self):
        """Per span name: `.s` (inclusive), `.self_s` (minus direct child
        spans) and `.calls`; plus the counters and W1's median call time."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = Counter()
        w1 = []
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[f"{name}.s"] += t1 - t0
            out[f"{name}.self_s"] += t1 - t0 - child[i]
            out[f"{name}.calls"] += 1
            if name == "transport.wasserstein1":
                w1.append(t1 - t0)
        out.update(self.counts)
        if w1:
            out["transport.wasserstein1.p50_ms"] = 1e3 * statistics.median(w1)
        return dict(out)
