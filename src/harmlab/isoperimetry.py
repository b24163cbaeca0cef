"""Isoperimetric profiles and the geometry of finite vertex sets.

The profile G_down(x) = min { |boundary F| / |F| : |F| <= x } is computed
exactly by duplicate-free enumeration of connected subsets (a minimizing
set can be replaced by its best connected component).  An independent
integer-programming route gives exact minimal boundaries for spot checks
without the connectivity restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
import scipy.sparse as sp

from .errors import (ComplementDisconnected, DisconnectedSet,
                     EnumerationBudgetExceeded, IntegerProgramFailure)
from .graphs import SubsetView, bfs_distances, subset_view

ENUM_BUDGET = 10 ** 7


@dataclass
class IsoProfile:
    max_size: int
    table: dict = field(default_factory=dict)  # size -> (boundary, witness)
    complete: bool = True

    def ratio(self, size):
        b, _ = self.table[size]
        return b / size

    def envelope(self):
        """Nonincreasing envelope: size -> min ratio over sizes <= size."""
        out = {}
        best = np.inf
        for s in range(1, self.max_size + 1):
            if s in self.table:
                best = min(best, self.ratio(s))
            out[s] = best
        return out

    def kappa1(self, n_vertices):
        sizes = [s for s in self.table if s <= n_vertices // 2]
        return min(self.ratio(s) for s in sizes)


def connected_subsets(G, max_size, allowed=None, budget=ENUM_BUDGET):
    """Yield every connected vertex set of size <= max_size exactly once,
    as (members, boundary_size).  Boundary edges are counted in the full
    graph, including edges leaving the allowed region."""
    if allowed is None:
        allowed_mask = np.ones(G.n, dtype=bool)
    else:
        allowed_mask = np.zeros(G.n, dtype=bool)
        allowed_mask[np.asarray(list(allowed))] = True
    produced = 0
    nbrs = [list(map(int, G.neighbors(v))) for v in range(G.n)]
    deg = G.degrees
    for root in range(G.n):
        if not allowed_mask[root]:
            continue
        # binary branch-and-extend: include or forbid one candidate at a time
        stack = [([root], {root}, set(), int(deg[root]))]
        while stack:
            S, Sset, X, b = stack.pop()
            produced += 1
            if produced > budget:
                raise EnumerationBudgetExceeded(
                    f"more than {budget} connected sets", partial=None)
            yield S, b
            if len(S) >= max_size:
                continue
            cand = [u for v in S for u in nbrs[v]
                    if u > root and u not in Sset and u not in X
                    and allowed_mask[u]]
            seen = set()
            cand = [u for u in cand if not (u in seen or seen.add(u))]
            forb = set(X)
            for u in cand:
                join = sum(1 for w in nbrs[u] if w in Sset)
                stack.append((S + [u], Sset | {u}, set(forb),
                              b + int(deg[u]) - 2 * join))
                forb.add(u)
    _ = produced


def profile(G, max_size, allowed=None, budget=ENUM_BUDGET):
    """Exact isoperimetric table size -> (min boundary, witness set)."""
    prof = IsoProfile(max_size=max_size)
    try:
        for S, b in connected_subsets(G, max_size, allowed, budget):
            s = len(S)
            cur = prof.table.get(s)
            if cur is None or b < cur[0]:
                prof.table[s] = (b, list(S))
    except EnumerationBudgetExceeded as exc:
        prof.complete = False
        exc.partial = prof
        raise
    return prof


def cut_program(G, edge_cost, vertex_cost, size, allowed=None):
    """Least edge_cost |boundary F| + vertex_cost |F| over vertex sets F
    with size[0] <= |F| <= size[1], inside `allowed` if given.

    Solved as the integer program over binary x and y_e >= |x_u - x_v|.
    The costs must be integers, so the objective is an integer and a
    HiGHS dual bound above (value - 1) proves the incumbent optimal.
    Returns (F as a SubsetView, value), with value recomputed exactly
    from F; raises IntegerProgramFailure without that proof.
    """
    n, m = G.n, G.m
    is_x = np.repeat([1.0, 0.0], [n, m])
    # rows 2e, 2e + 1: x_u - x_v - y_e <= 0 and x_v - x_u - y_e <= 0
    cols = np.column_stack([G.tails, G.heads, n + np.arange(m)])
    A = sp.csr_matrix((np.tile([1.0, -1.0, -1.0, -1.0, 1.0, -1.0], m),
                       (np.repeat(np.arange(2 * m), 3),
                        cols.repeat(2, axis=0).ravel())), shape=(2 * m, n + m))
    upper = np.ones(n + m)
    if allowed is not None:
        upper[:n] = subset_view(G, allowed).mask
    res = scipy.optimize.milp(
        np.where(is_x, vertex_cost, edge_cost).astype(float),
        constraints=[scipy.optimize.LinearConstraint(A, -np.inf, 0),
                     scipy.optimize.LinearConstraint(is_x, *size)],
        integrality=is_x, bounds=scipy.optimize.Bounds(0.0, upper))
    if res.status != 0:
        raise IntegerProgramFailure(f"integer program: {res.message}")
    F = subset_view(G, np.flatnonzero(res.x[:n] > 0.5))
    value = edge_cost * F.boundary_size + vertex_cost * F.size
    if not (size[0] <= F.size <= size[1] and res.mip_dual_bound > value - 1):
        raise IntegerProgramFailure(
            f"integer program: incumbent {value} of size {F.size} is not "
            f"proved optimal (dual bound {res.mip_dual_bound})")
    return F, value


def min_boundary_exact(G, size, allowed=None):
    """Exact min |boundary F| over |F| = size via integer programming.

    Connectivity is not required, so the value can only be <= the
    enumeration table's entry; on profiles it agrees (best-component
    argument).  Returns (boundary, witness).
    """
    F, boundary = cut_program(G, 1, 0, (size, size), allowed)
    return boundary, [int(v) for v in F.members]


# -- geometric quantities --------------------------------------------------


def inradius(G, F):
    """Largest r such that some ball B(x, r), x in F, stays inside F."""
    F = F if isinstance(F, SubsetView) else subset_view(G, F)
    comp = np.flatnonzero(~F.mask)
    if len(comp) == 0:
        # F = V: every ball fits; report the largest radius that matters
        return int(bfs_distances(G, 0).max())
    dist = bfs_distances(G, comp)
    return int(dist[F.members].max() - 1)


def diameter(G, F):
    """Diameter of the graph induced on F."""
    F = F if isinstance(F, SubsetView) else subset_view(G, F)
    sub, _ = F.induced_graph()
    best = 0
    for v in range(sub.n):
        d = bfs_distances(sub, v)
        if d.min() < 0:
            raise DisconnectedSet("induced graph on F is disconnected")
        best = max(best, int(d.max()))
    return best


def mean_boundary_distance(G, F):
    """Average over x in F of the induced-graph distance from x to an
    endpoint of a boundary edge lying in F (0 on boundary-adjacent
    vertices)."""
    F = F if isinstance(F, SubsetView) else subset_view(G, F)
    sub, members = F.induced_graph()
    remap = {int(v): i for i, v in enumerate(members)}
    sources = set()
    for e in F.boundary_edges:
        x, y = int(G.tails[e]), int(G.heads[e])
        sources.add(remap[x] if F.mask[x] else remap[y])
    if not sources:
        return 0.0
    d = bfs_distances(sub, sorted(sources))
    if d.min() < 0:
        # vertices cut off from the boundary inside F: treat distance as the
        # largest finite value (thick components of closed regions)
        d[d < 0] = d.max()
    return float(d.mean())


def growth_functions(G, R, vertices=None):
    """Minimal and maximal ball volumes f_v(r), f_V(r) for r = 0..R."""
    if vertices is None:
        vertices = range(G.n)
    lo = np.full(R + 1, np.inf)
    hi = np.zeros(R + 1)
    for v in vertices:
        d = bfs_distances(G, v)
        sizes = np.array([(np.count_nonzero((d >= 0) & (d <= r)))
                          for r in range(R + 1)], dtype=float)
        lo = np.minimum(lo, sizes)
        hi = np.maximum(hi, sizes)
    return lo, hi


def radial_iso_check(G, A, K=1.0, k=1.0):
    """Evaluate K |boundary A| (1 + inrad A)^k >= |A| and the diameter
    variant (which holds with K = k = 1 whenever the complement of A is
    connected)."""
    A = A if isinstance(A, SubsetView) else subset_view(G, A)
    comp = np.flatnonzero(~A.mask)
    if len(comp):
        sub = subset_view(G, comp)
        g, _ = sub.induced_graph()
        if not g.is_connected:
            raise ComplementDisconnected("complement of A is disconnected")
    lhs = K * A.boundary_size * (1.0 + inradius(G, A)) ** k
    rhs = float(A.size)
    dia = diameter(G, A)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "holds": bool(lhs >= rhs),
        "diameter_lhs": float(A.boundary_size * (1 + dia)),
        "diameter_holds": bool(A.boundary_size * (1 + dia) >= A.size),
    }
