"""Harmonicity diagnostics: Dirichlet extension, truncation, decay and
divergence profiles, Liouville probing, tree flows and approximate-kernel
witnesses.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, shortest_path

from .errors import NotATree, SupportHitsBoundary
from .graphs import (EdgeField, VertexField, ball_from_distances,
                     bfs_distances, divergence, gradient, lp_norm,
                     subset_view)
from .walk import (direct_solve, exit_distribution, exit_distributions,
                   green_partial)


def harmonic_residual(f, G=None, interior=None):
    """sup |div grad f| over the given interior vertices (all by default)."""
    G = G or f.graph
    r = divergence(gradient(f, G), G).a
    if interior is not None:
        r = r[interior]
    return float(np.abs(r).max()) if len(r) else 0.0


def dirichlet_extend(G, A, boundary_values, method="solve"):
    """Unique function harmonic inside A with the given values on the
    outer boundary.  method="exit" instead averages the boundary data
    against per-vertex exit distributions (slow; cross-check path).
    Raises SingularSystem if some vertex of A cannot reach the boundary,
    ValueError for any other method."""
    if method not in ("solve", "exit"):
        raise ValueError(f"method must be 'solve' or 'exit', not {method!r}")
    bv = np.zeros(G.n)
    for v, val in boundary_values.items():
        bv[v] = val
    missing = [int(v) for v in A.outer_boundary
               if int(v) not in boundary_values]
    if missing:
        raise ValueError(f"boundary values missing on {missing[:5]}...")
    if method == "exit":
        out = bv.copy()
        for x in A.members:
            ex = exit_distribution(G, A, int(x))
            out[x] = float(np.dot(ex.a, bv))
        return VertexField(G, out)
    P, E = A.interior_operator()
    sol = direct_solve(sp.identity(A.size) - P, E @ bv)
    out = bv.copy()
    out[A.members] = sol
    return VertexField(G, out)


def truncate(f, t):
    """Clamp f at height t: unchanged where |f| < t, +-t elsewhere."""
    if t <= 0:
        raise ValueError("threshold must be positive")
    return VertexField(f.graph, np.clip(f.a, -t, t))


def _live_components(G, outside, shell):
    """Component label of each vertex of the set `outside` (-1 elsewhere)
    and the labels of the components that meet `shell` (stand-in for the
    infinite components of a ball complement)."""
    remap = np.full(G.n, -1, dtype=np.int64)
    remap[outside] = np.arange(len(outside))
    t, h = remap[G.tails], remap[G.heads]
    keep = (t >= 0) & (h >= 0)
    adj = sp.csr_matrix((np.ones(np.count_nonzero(keep)), (t[keep], h[keep])),
                        shape=(len(outside), len(outside)))
    _, labels = connected_components(adj, directed=False)
    comp = np.full(G.n, -1, dtype=np.int64)
    comp[outside] = labels
    live = comp[shell]
    return comp, np.unique(live[live >= 0])


def gradient_decay(f, G, root, n_max=None):
    """gd_f(n): sup of |grad f| over edges outside the ball B(root, n),
    restricted to components of the complement that reach the outermost
    shell (finite stand-in for infinite components).  Nonincreasing."""
    dist = bfs_distances(G, root)
    R = int(dist.max())
    if n_max is None:
        n_max = R - 1
    g = np.abs(gradient(f, G).a)
    shell = np.flatnonzero(dist == R)
    out = []
    for n in range(n_max + 1):
        outside = np.flatnonzero(dist > n)
        if len(outside) == 0:
            out.append(0.0)
            continue
        comp, live = _live_components(G, outside, shell)
        t, h = G.tails, G.heads
        sel = ((dist[t] > n) & (dist[h] > n)
               & np.isin(comp[t], live) & (comp[t] == comp[h]))
        out.append(float(g[sel].max()) if sel.any() else 0.0)
    return np.array(out)


def divergence_profile(G, root, K, n_max, h=None):
    """Annulus profile: S(n) is the complement of B(root, n) minus the
    far components of the complement of B(root, Kn); S_out its members
    next to the sphere of radius Kn + 1.  D(n) is the largest induced
    distance between members of S_out, per reachable pairs; unreachable
    pairs are reported as inf.

    If h is given, the products D(n) * gd_h(n) are included.
    """
    if K < 2 or int(K) != K:
        raise ValueError("K must be an integer >= 2")
    dist = bfs_distances(G, root)
    R = int(dist.max())
    gd = gradient_decay(h, G, root, n_max=n_max) if h is not None else None
    shell = np.flatnonzero(dist == R)
    rows = []
    for n in range(1, n_max + 1):
        if K * n + 1 > R:
            break
        outside_far = np.flatnonzero(dist > K * n)
        comp, live = _live_components(G, outside_far, shell)
        in_far_live = np.zeros(G.n, dtype=bool)
        if len(outside_far):
            in_far_live[outside_far] = np.isin(comp[outside_far], live)
        S = np.flatnonzero((dist > n) & ~in_far_live)
        # members of S with a neighbour on the sphere of radius Kn + 1
        at_knp1 = dist == K * n + 1
        near = np.zeros(G.n, dtype=bool)
        near[G.tails[at_knp1[G.heads]]] = True
        near[G.heads[at_knp1[G.tails]]] = True
        s_out = S[near[S]]
        D = 0.0
        if len(s_out) > 1:
            sub, _ = subset_view(G, S).induced_graph()
            # S is sorted, so searchsorted maps vertices to sub's labels
            idx = np.searchsorted(S, s_out)
            d = shortest_path(sub.adjacency_matrix(), unweighted=True,
                              indices=idx)
            D = float(d[:, idx].max())  # inf if a pair is unreachable
        row = {"n": n, "S_size": len(S), "S_out_size": len(s_out), "D": D}
        if gd is not None:
            row["gd"] = float(gd[n])
            row["product"] = D * float(gd[n])
        rows.append(row)
    return rows


def liouville_probe(G, center, v, w, radii):
    """l^1 distance between the exit laws of v and w through balls of
    growing radius; decay to 0 is Liouville-type evidence, a positive
    floor is evidence against.  Also reports max atom sums for the
    2 - eps criterion."""
    dist = bfs_distances(G, center)
    out = []
    for r in radii:
        A = ball_from_distances(G, dist, r)
        if len(A.outer_boundary) == 0:
            raise SupportHitsBoundary(f"radius {r} swallows the graph")
        exv, exw = exit_distributions(G, A, [v, w])
        diff = exv.a - exw.a
        out.append({
            "r": r,
            "l1": float(np.abs(diff).sum()),
            "linf": float(np.abs(diff).max()),
        })
    return out


def tree_flow(G, root_edge):
    """Unit flow through root_edge on a tree, split evenly at every branch
    so all interior vertices have zero divergence.  The value on an edge
    separated from the root edge by vertices of degrees d_1..d_k is
    1/((d_1 - 1)...(d_k - 1))."""
    if G.m != G.n - 1 or not G.is_connected:
        raise NotATree("tree flow needs a connected tree")
    x0, y0 = (int(root_edge[0]), int(root_edge[1]))
    e0 = G.edge_ids(x0, y0)
    if e0 < 0:
        raise ValueError("root_edge is not an edge")
    tau = EdgeField(G)
    tau.a[e0] = 1.0 if x0 < y0 else -1.0
    # push flow outward from both endpoints; at each vertex the incoming
    # value splits over the deg-1 remaining edges
    stack = [(y0, x0, 1.0), (x0, y0, -1.0)]
    while stack:
        v, parent, inflow = stack.pop()
        ej, _ = G.incident_edges(v)
        others = [e for e in ej
                  if (int(G.tails[e]) if G.heads[e] == v else int(G.heads[e]))
                  != parent]
        if not others:
            continue
        share = inflow / len(others)
        for e in others:
            u = int(G.tails[e]) if G.heads[e] == v else int(G.heads[e])
            # positive share moves away from the root edge through v
            tau.a[e] += share if int(G.tails[e]) == v else -share
            stack.append((u, v, share))
    return tau


def tree_flow_level_sums(G, root_edge, tau, p):
    """l^p power sums of the flow per edge level (distance from the root
    edge)."""
    x0, y0 = int(root_edge[0]), int(root_edge[1])
    dist = np.minimum(bfs_distances(G, x0), bfs_distances(G, y0))
    # the root edge sits at level 0; an edge whose nearer endpoint is at
    # distance k - 1 from the root edge is at level k
    level = np.maximum(dist[G.tails], dist[G.heads])
    sums = {}
    for e in range(G.m):
        sums.setdefault(int(level[e]), 0.0)
        sums[int(level[e])] += abs(tau.a[e]) ** p
    return dict(sorted(sums.items()))


def laplacian_witness(G_or_ball, kind, n, center=0):
    """Witness families with small Laplacian-to-norm ratio.

    kind="c0": f = averaged ball indicators, sup-norm gradient <= 1/(n+1).
    kind="l1": f = Green partial sum over n+1 steps, ||Delta f||_1
    <= 2/(n+1).  Returns (field, ratio).
    """
    if kind == "c0":
        if hasattr(G_or_ball, "graph"):
            G = G_or_ball.graph
            if n + 1 > G_or_ball.radius:
                raise SupportHitsBoundary("ball too small for this n")
        else:
            G = G_or_ball
        dist = bfs_distances(G, center)
        vals = np.clip((n + 1 - dist) / (n + 1.0), 0.0, None)
        vals[dist < 0] = 0.0
        f = VertexField(G, vals)
        return f, lp_norm(gradient(f, G), np.inf)
    if kind == "l1":
        return green_partial(G_or_ball, center, n + 1)
    raise ValueError("kind must be 'c0' or 'l1'")
