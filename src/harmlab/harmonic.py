"""Harmonicity diagnostics: Dirichlet extension, truncation, decay and
divergence profiles, Liouville probing, tree flows and approximate-kernel
witnesses.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import connected_components, shortest_path

from .errors import InvalidInput
from .graphs import (EdgeField, VertexField, ball_from_distances,
                     bfs_distances, check_count, divergence, gradient,
                     lp_norm, subset_view)
from .walk import (closed_members, direct_solve, exit_distributions,
                   green_partial)


def harmonic_residual(f, interior):
    """sup |div grad f| over the given interior vertices."""
    r = divergence(gradient(f)).a[interior]
    return float(np.abs(r).max()) if len(r) else 0.0


def dirichlet_extend(G, A, boundary_values):
    """Unique function harmonic inside A with the given values on the
    outer boundary.  Raises NumericalFailure if some vertex of A cannot
    reach the boundary."""
    A = subset_view(G, A)
    bv = VertexField.from_dict(G, boundary_values).a
    given = np.zeros(G.n, dtype=bool)
    given[np.fromiter(boundary_values, np.int64, len(boundary_values))] = True
    missing = A.outer_boundary[~given[A.outer_boundary]]
    if len(missing):
        raise ValueError(
            f"boundary values missing on {missing[:5].tolist()}...")
    # a component of A that no step leaves makes M singular, and its values
    # are not determined however the solver's pivots fall
    closed_members(A)
    M, (rows, to, prob) = A.killed_walk()
    # M^T is I - P as CSR; b is E bv, each row summed in slot order
    sol = direct_solve(M.T, np.bincount(rows, weights=prob * bv[to],
                                        minlength=A.size))
    out = bv.copy()
    out[A.members] = sol
    return VertexField(G, out)


def truncate(f, t):
    """Clamp f at height t: unchanged where |f| < t, +-t elsewhere."""
    if not t > 0:
        raise ValueError(f"threshold must be positive, not {t!r}")
    return VertexField(f.graph, np.clip(f.a, -t, t))


def _live_components(G, outside, shell):
    """Component label of each vertex of the sorted set `outside` (-1
    elsewhere) and the labels of the components that meet `shell`
    (stand-in for the infinite components of a ball complement)."""
    A = G.adjacency_matrix()[outside][:, outside]
    _, labels = connected_components(A, directed=False)
    comp = np.full(G.n, -1, dtype=np.int64)
    comp[outside] = labels
    live = comp[shell]
    return comp, np.unique(live[live >= 0])


def gradient_decay(f, root, n_max=None):
    """gd_f(n): sup of |grad f| over edges outside the ball B(root, n),
    restricted to components of the complement that reach the outermost
    shell (finite stand-in for infinite components).  Nonincreasing."""
    if n_max is not None:
        check_count(n_max, "n_max", 0)
    G = f.graph
    dist = bfs_distances(G, root)
    R = int(dist.max())
    if n_max is None:
        n_max = R - 1
    g = np.abs(gradient(f).a)
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


def divergence_profile(G, root, K, n_max):
    """Annulus profile: S(n) is the complement of B(root, n) minus the
    far components of the complement of B(root, Kn); S_out its members
    next to the sphere of radius Kn + 1.  D(n) is the largest induced
    distance between members of S_out, per reachable pairs; unreachable
    pairs are reported as inf.
    """
    check_count(K, "K", 2)
    check_count(n_max, "n_max", 0)
    dist = bfs_distances(G, root)
    R = int(dist.max())
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
            # S is sorted, so searchsorted maps vertices to rows of A
            A = G.adjacency_matrix()[S][:, S]
            idx = np.searchsorted(S, s_out)
            d = shortest_path(A, unweighted=True, indices=idx)
            D = float(d[:, idx].max())  # inf if a pair is unreachable
        rows.append(dict(n=n, S_size=len(S), S_out_size=len(s_out), D=D))
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
            raise InvalidInput(f"radius {r} swallows the graph")
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
        raise InvalidInput("tree flow needs a connected tree")
    x0, y0 = (int(root_edge[0]), int(root_edge[1]))
    e0 = G.edge_ids(x0, y0)
    if e0 < 0:
        raise ValueError("root_edge is not an edge")
    # an edge joins a child to its parent one step nearer the root edge;
    # the flow into the parent splits over the parent's deg - 1 children
    dist = bfs_distances(G, [x0, y0])
    down = dist[G.tails] > dist[G.heads]
    child = np.where(down, G.tails, G.heads)
    parent = np.where(down, G.heads, G.tails)
    inflow = np.zeros(G.n)
    inflow[[x0, y0]] = -1.0, 1.0
    order = np.argsort(dist[child], kind="stable")
    bounds = np.searchsorted(dist[child[order]], np.arange(dist.max() + 2))
    for lo, hi in zip(bounds[1:], bounds[2:]):
        e = order[lo:hi]
        inflow[child[e]] = inflow[parent[e]] / (G.degrees[parent[e]] - 1)
    # positive flow moves away from the root edge
    tau = EdgeField(G, np.where(G.tails == parent, inflow[child],
                                -inflow[child]))
    tau.a[e0] = 1.0 if x0 < y0 else -1.0
    return tau


def tree_flow_level_sums(G, root_edge, tau, p):
    """l^p power sums of the flow per edge level (distance from the root
    edge)."""
    dist = bfs_distances(G, [int(root_edge[0]), int(root_edge[1])])
    # the root edge sits at level 0; an edge whose nearer endpoint is at
    # distance k - 1 from the root edge is at level k
    level = np.maximum(dist[G.tails], dist[G.heads])
    # bincount adds in edge order; -1 (unreachable) is a level of its own
    levels, slot = np.unique(level, return_inverse=True)
    sums = np.bincount(slot, weights=np.abs(tau.a) ** p)
    return dict(zip(levels.tolist(), sums))


def laplacian_witness(ball, kind, n):
    """Witness families with small Laplacian-to-norm ratio on a ball,
    centred at the identity.

    kind="c0": f = averaged ball indicators, sup-norm gradient <= 1/(n+1).
    kind="l1": f = Green partial sum over n+1 steps, ||Delta f||_1
    <= 2/(n+1).  Returns (field, ratio).
    """
    check_count(n, "n", 0)
    if kind == "c0":
        G = ball.graph
        if n + 1 > ball.radius:
            raise InvalidInput("ball too small for this n")
        vals = np.clip((n + 1 - ball.word_length) / (n + 1.0), 0.0, None)
        f = VertexField(G, vals)
        return f, lp_norm(gradient(f), np.inf)
    if kind == "l1":
        return green_partial(ball, ball.identity_vertex, n + 1)
    raise ValueError("kind must be 'c0' or 'l1'")
