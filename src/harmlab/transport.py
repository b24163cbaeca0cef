"""Transport patterns: edge fields tau with prescribed divergence.

A pattern moves the signed measure pi = target - source; its l^1 norm at
optimality is the Wasserstein-1 distance.  Constructions: optimal flow,
one random-walk step, inverse-Laplacian gradient on a region, and paths
labelled by a fixed group element.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

import networkx as nx

from .errors import (DisconnectedRegion, Infeasible, MassMismatch,
                     NonRegularGraph, NonZeroSum, PathExitsBall)
from .graphs import (Distribution, EdgeField, VertexField, adjacency_slots,
                     divergence, lp_norm)
from .walk import _interior_solve, direct_solve

FLOW_SCALE = 10 ** 15
RESIDUAL_TOL = 1e-9


class TransportPattern:
    """tau with divergence target - source; residual = ||div tau - pi||_1."""

    def __init__(self, tau, source, target):
        self.tau = tau
        self.source = source
        self.target = target
        err = divergence(tau).a - (target.a - source.a)
        self.residual = float(np.abs(err).sum())

    def norm(self, p):
        return lp_norm(self.tau, p)


def wasserstein1(G, source, target):
    """Optimal (minimal l^1) transport between two equal-mass measures.

    Returns (cost, TransportPattern).  Solved as integer min-cost flow
    after scaling masses by 10^15; the scaling residual is folded into the
    pattern's reported residual.
    """
    if abs(source.a.sum() - target.a.sum()) > RESIDUAL_TOL:
        raise MassMismatch("source and target masses differ")
    demand = np.round((target.a - source.a) * FLOW_SCALE).astype(object)
    # force exact balance by adjusting the largest-demand entry
    gap = -sum(demand)
    if gap:
        j = int(np.argmax(np.abs(target.a - source.a)))
        demand[j] += gap
    g = nx.DiGraph()
    total = 0
    for v in range(G.n):
        dv = int(demand[v])
        g.add_node(v, demand=dv)
        if dv > 0:
            total += dv
    # finite capacities are vacuous for a transport problem but keep the
    # solver off its buggy uncapacitated code path
    for x, y in zip(G.tails, G.heads):
        g.add_edge(int(x), int(y), weight=1, capacity=total)
        g.add_edge(int(y), int(x), weight=1, capacity=total)
    try:
        cost, flow = nx.network_simplex(g)
    except nx.NetworkXUnfeasible as exc:
        raise Infeasible("no feasible flow between the supports") from exc
    tau = EdgeField(G)
    for e, (x, y) in enumerate(zip(G.tails, G.heads)):
        f = flow[int(x)].get(int(y), 0) - flow[int(y)].get(int(x), 0)
        if f:
            tau.a[e] = f / FLOW_SCALE
    return cost / FLOW_SCALE, TransportPattern(tau, source, target)


def random_step_transport(G, mu, A):
    """One simple-walk step applied to the part of mu inside A: each vertex
    splits its mass evenly over all d neighbours.  The divergence is
    P_A mu - mu restricted to moves out of A-vertices.  Raises
    NonRegularGraph if the vertices of A carrying mass have mixed
    degrees."""
    active = np.flatnonzero((mu.a != 0) & A.mask)
    deg = G.degrees[active]
    bad = np.flatnonzero(deg != deg[:1])
    if len(bad):
        raise NonRegularGraph(f"vertex {active[bad[0]]} has degree "
                              f"{deg[bad[0]]} != {deg[0]}")
    d = int(deg[0]) if len(active) else G.d_max
    slots, _ = adjacency_slots(G, active)
    w = np.repeat(mu.a[active] / d, d)
    tau = EdgeField(G, np.bincount(G._adj_edge[slots],
                                   weights=G._adj_sign[slots] * w,
                                   minlength=G.m))
    out = mu.a.copy()
    out[active] = 0.0
    out += np.bincount(G._adj_nbr[slots], weights=w, minlength=G.n)
    return TransportPattern(tau, mu, VertexField(G, out))


def laplacian_transport(G, F, g):
    """tau = grad h with L h = g on the region F, L the Laplacian of the
    graph induced on F, so div tau = g up to the solver residual.  g is
    centred on F and h grounded to 0 at the first vertex of F: one sparse
    LU solve of the reduced, positive definite Laplacian."""
    if np.any(g.a[~F.mask] != 0):
        raise NonZeroSum("g must be supported on the region")
    b = g.a[F.members]
    if abs(b.sum()) > RESIDUAL_TOL * max(1.0, np.abs(b).sum()):
        raise NonZeroSum("g must sum to zero on the region")
    sub, members = F.induced_graph()
    if not sub.is_connected:
        raise DisconnectedRegion("induced graph on F is not connected")
    L = (sp.diags(sub.degrees.astype(float))
         - sub.adjacency_matrix()).tocsr()
    b = b - b.mean()
    h = np.zeros(G.n)
    if sub.n > 1:
        h[members[1:]] = direct_solve(L[1:, 1:], b[1:])
    tau = EdgeField(G)
    tau.a[F.induced_edges] = (h[G.heads[F.induced_edges]]
                              - h[G.tails[F.induced_edges]])
    zero = VertexField(G)
    return TransportPattern(tau, zero, g)


def central_transport(ball, word, mu):
    """Transport mu to its right translate by z = product of `word`, by
    routing each atom along the path labelled by the word.  The l^1 cost
    is at most len(word) per unit of mass, uniformly in mu."""
    G = ball.graph
    supp = np.flatnonzero(mu.a)
    w = mu.a[supp]
    tau = EdgeField(G)
    cur = supp.copy()
    for gen in word:
        nxt = ball.translation_table(gen)[cur]
        if np.any(nxt < 0):
            raise PathExitsBall("translation leaves the ball; increase the "
                                "radius by the word length")
        eid = ball.edge_ids(cur, nxt)
        if np.any(eid < 0):
            raise PathExitsBall("missing edge along the word path")
        sign = np.where(cur < nxt, 1.0, -1.0)
        np.add.at(tau.a, eid, sign * w)
        cur = nxt
    target = VertexField(G)
    np.add.at(target.a, cur, w)
    src = VertexField(G, np.zeros(G.n))
    src.a[supp] = w
    return TransportPattern(tau, src, target)


def cycle_cancel(pattern):
    """Remove directed cycles from the positive-flow support; pointwise
    |tau'| <= |tau| with the same divergence."""
    G = pattern.tau.graph
    flow = {}
    for e in np.flatnonzero(pattern.tau.a):
        v = pattern.tau.a[e]
        x, y = int(G.tails[e]), int(G.heads[e])
        if v > 0:
            flow[(x, y)] = (v, e, 1.0)
        else:
            flow[(y, x)] = (-v, e, -1.0)
    succ = {}
    for (x, y) in flow:
        succ.setdefault(x, set()).add(y)
    while True:
        cyc = _find_cycle(succ)
        if cyc is None:
            break
        arcs = list(zip(cyc, cyc[1:] + cyc[:1]))
        c = min(flow[a][0] for a in arcs)
        for a in arcs:
            v, e, s = flow[a]
            if v - c <= 1e-15 * max(1.0, c):
                del flow[a]
                succ[a[0]].discard(a[1])
                if not succ[a[0]]:
                    del succ[a[0]]
            else:
                flow[a] = (v - c, e, s)
    tau = EdgeField(G)
    for (x, y), (v, e, s) in flow.items():
        tau.a[e] += s * v
    return TransportPattern(tau, pattern.source, pattern.target)


def _find_cycle(succ):
    state = {}
    for root in succ:
        if state.get(root):
            continue
        stack = [(root, iter(sorted(succ.get(root, ()))))]
        state[root] = 1
        path = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state.get(nxt) == 1:
                    return path[path.index(nxt):]
                if state.get(nxt) is None:
                    state[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, iter(sorted(succ.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                path.pop()
                stack.pop()
    return None


def stopped_exit_transport(G, A, v):
    """Pattern transporting delta_v to its exit law ex through A: the sum
    over t >= 0 of the random-step patterns of the law mu_t of the walk
    from v stopped on leaving A.

    That sum is linear in mu_t, so it is a single random-step pattern of
    the Green measure h = sum_t mu_t restricted to A, the expected number
    of visits to each vertex of A before the exit.  h solves
    h = delta_v + P_A^T h, so one interior solve gives both h and, as the
    flux of h out of A, the endpoint ex; the pattern's divergence is
    ex - delta_v up to the solver residual.

    Returns (pattern, ex).  Raises SingularSystem if the walk cannot leave
    A and NonRegularGraph if A has mixed degrees.
    """
    h, (ex,) = _interior_solve(G, A, [v])
    green = VertexField(G)
    green.a[A.members] = h[:, 0]
    step = random_step_transport(G, green, A)
    return TransportPattern(step.tau, Distribution.dirac(G, v), ex), ex


def exit_transport_chain(G, v, w, regions, p=2.0):
    """For each region A: the pattern carrying ex_v^A to ex_w^A built from
    stopped-walk transports and the edge v -> w (both transports reuse A's
    interior operator); reports p- and sup-norms after cycle cancellation.

    Returns a list of dicts with norms, residual and the pattern.
    """
    out = []
    for A in regions:
        pv, exv = stopped_exit_transport(G, A, v)
        pw, exw = stopped_exit_transport(G, A, w)
        tau = EdgeField(G, pw.tau.a - pv.tau.a)
        a, b = (v, w) if v < w else (w, v)
        e = G.edge_index[(a, b)]
        tau.a[e] += 1.0 if v < w else -1.0
        pat = TransportPattern(tau, exv, exw)
        pat = cycle_cancel(pat)
        out.append({
            "interior_size": A.size,
            "norm_p": pat.norm(p),
            "norm_inf": pat.norm(np.inf),
            "exit_diff_l1": float(np.abs(exv.a - exw.a).sum()),
            "exit_diff_inf": float(np.abs(exv.a - exw.a).max()),
            "residual": pat.residual,
            "pattern": pat,
        })
    return out
