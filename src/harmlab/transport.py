"""Transport patterns: edge fields tau with prescribed divergence.

A pattern moves the signed measure pi = target - source; its l^1 norm at
optimality is the Wasserstein-1 distance.  Constructions: the optimal
pattern (one linear program on the edges), one random-walk step,
inverse-Laplacian gradient on a region, and paths labelled by a fixed
group element.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from .errors import InvalidInput, NumericalFailure
from .graphs import (EdgeField, VertexField, check_exponent, divergence,
                     lp_norm, subset_view)
from .tolerances import LP_TOL, MASS_TOL, ROUNDING

# HiGHS settings of the W1 program.  Presolve is off so that the tolerances
# bind the program as built.
LP_OPTIONS = {"presolve": False, "primal_feasibility_tolerance": LP_TOL,
              "dual_feasibility_tolerance": LP_TOL}


def _check_graph(G, *fields):
    """ValueError unless each field belongs to the graph object G."""
    if any(f.graph is not G for f in fields):
        raise ValueError("measure of another graph")


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

    Returns (cost, TransportPattern): tau = tau+ - tau- for the least
    sum(tau+ + tau-) with div(tau+ - tau-) = target - source and tau+,
    tau- >= 0, one linear program on the edges (HiGHS dual simplex).
    Raises InvalidInput if the masses differ or no flow joins the
    supports, NumericalFailure if HiGHS finds no optimum or the residual
    exceeds MASS_TOL, ValueError if a measure belongs to another graph
    object.
    """
    _check_graph(G, source, target)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = abs(source.a.sum() - target.a.sum())
    if not gap <= MASS_TOL:  # also when a total overflows: inf - inf
        raise InvalidInput("source and target masses differ")
    m = G.m
    if m == 0:  # nothing to solve: tau = 0 is the only pattern
        pat = TransportPattern(EdgeField(G), source, target)
        if pat.residual > MASS_TOL:
            raise InvalidInput("no feasible flow between the supports")
        return 0.0, pat
    # the rows sum to zero, so vertex 0's is implied; leaving it out puts the
    # mass gap that the check above allows on vertex 0, not in infeasibility
    res = linprog(np.ones(2 * m), A_eq=G.transport_rows,
                  b_eq=(target.a - source.a)[1:],
                  method="highs-ds", options=LP_OPTIONS)
    if res.status == 2:
        raise InvalidInput("no feasible flow between the supports")
    if res.status != 0:
        raise NumericalFailure(f"transport program not solved: {res.message}")
    pat = TransportPattern(EdgeField(G, res.x[:m] - res.x[m:]), source, target)
    if pat.residual > MASS_TOL:
        raise NumericalFailure(
            f"W1 residual {pat.residual:.3g} above tolerance")
    return float(res.fun), pat


def random_step_transport(G, mu, A):
    """One simple-walk step applied to the part of mu inside A: each vertex
    splits its mass evenly over all d neighbours.  The divergence is
    P_A mu - mu restricted to moves out of A-vertices.  Raises
    InvalidInput if the vertices of A carrying mass have mixed degrees,
    ValueError if mu belongs to another graph object."""
    _check_graph(G, mu)
    A = subset_view(G, A)
    active = np.flatnonzero((mu.a != 0) & A.mask)
    deg = G.degrees[active]
    bad = np.flatnonzero(deg != deg[:1])
    if len(bad):
        raise InvalidInput(f"vertex {active[bad[0]]} has degree "
                           f"{deg[bad[0]]} != {deg[0]}")
    w = np.zeros(G.n)
    w[active] = mu.a[active] / deg
    # B @ -w, not -(B @ w), which would put -0.0 on edges carrying nothing
    tau = EdgeField(G, G.incidence_matrix() @ -w)
    out = mu.a.copy()
    out[active] = 0.0
    out += G.adjacency_matrix() @ w
    return TransportPattern(tau, mu, VertexField(G, out))


def laplacian_transport(G, F, g):
    """tau = grad h with L h = g on the region F, L the Laplacian of the
    graph induced on F, so div tau = g up to the solver residual.  g is
    centred on F and h grounded to 0 at the first vertex of F: one sparse
    LU solve of the reduced, positive definite Laplacian.  Raises
    ValueError if g belongs to another graph object."""
    _check_graph(G, g)
    F = subset_view(G, F)
    if np.any(g.a[~F.mask] != 0):
        raise InvalidInput("g must be supported on the region")
    b = g.a[F.members]
    if abs(b.sum()) > MASS_TOL * max(1.0, np.abs(b).sum()):
        raise InvalidInput("g must sum to zero on the region")
    B, labels, _, _ = F.grounded_laplacian()
    if labels.max(initial=0):
        raise InvalidInput("induced graph on F is not connected")
    tau = EdgeField(G)
    tau.a[F.induced_edges] = B @ F.grounded_solve(b - b.mean())
    return TransportPattern(tau, VertexField(G), g)


def central_transport(ball, word, mu):
    """Transport mu to its right translate by z = product of `word`, by
    routing each atom along the path labelled by the word.  The l^1 cost
    is at most len(word) per unit of mass, uniformly in mu.  Raises
    ValueError if mu belongs to another graph object than the ball's."""
    G = ball.graph
    _check_graph(G, mu)
    cur = (mu.a != 0).nonzero()[0]  # as flatnonzero, faster
    w = mu.a[cur]
    tau = EdgeField(G)
    for gen in word:
        nxt = ball.translation_table(gen)[cur]
        if np.any(nxt < 0):
            raise InvalidInput("translation leaves the ball; increase the "
                               "radius by the word length")
        sign = np.where(cur < nxt, 1.0, -1.0)
        np.add.at(tau.a, ball.edge_column(gen)[cur], sign * w)
        cur = nxt
    target = VertexField(G)
    np.add.at(target.a, cur, w)
    return TransportPattern(tau, mu, target)


def cycle_cancel(pattern):
    """Remove directed cycles from the positive-flow support; pointwise
    |tau'| <= |tau| with the same divergence.

    One depth-first search, successors ascending: an arc back into the
    path closes a cycle, whose least flow is subtracted; the search
    resumes at the first emptied arc in cycle order.  Finished vertices
    reach no cycle and deletions make none, so a search restarted after
    each cancellation would find the same cycles in the same order."""
    G = pattern.tau.graph
    flow = {}
    for e in np.flatnonzero(pattern.tau.a):
        v, x, y = pattern.tau.a[e], int(G.tails[e]), int(G.heads[e])
        flow[(x, y) if v > 0 else (y, x)] = (abs(v), e, 1.0 if v > 0 else -1.0)
    succ = {}
    for (x, y) in flow:
        succ.setdefault(x, []).append(y)
    state = {}  # 1 on the search path, 2 finished
    for root in succ:
        if root in state:
            continue
        state[root] = 1
        path, its = [root], [iter(sorted(succ[root]))]
        while path:
            for y in its[-1]:
                if (path[-1], y) not in flow or state.get(y) == 2:
                    continue
                if y not in state:
                    state[y] = 1
                    path.append(y)
                    its.append(iter(sorted(succ.get(y, ()))))
                    break
                j = path.index(y)
                arcs = list(zip(path[j:], path[j + 1:] + [y]))
                c = min(flow[a][0] for a in arcs)
                for a in arcs:
                    v, e, s = flow[a]
                    if v - c <= ROUNDING * max(1.0, c):
                        del flow[a]
                    else:
                        flow[a] = (v - c, e, s)
                # resume at the first emptied arc, path[k - 1] -> path[k]
                k = j + 1 + [a in flow for a in arcs].index(False)
                for u in path[k:]:
                    del state[u]
                del path[k:], its[k:]
                break
            else:
                state[path.pop()] = 2
                its.pop()
    tau = EdgeField(G)
    for (x, y), (v, e, s) in flow.items():
        tau.a[e] += s * v
    return TransportPattern(tau, pattern.source, pattern.target)


def exit_transport_chain(G, v, w, regions, p=2.0):
    """For each region A: the pattern carrying ex_v^A to ex_w^A built from
    the stopped-walk transports of v and w and the edge v -> w; reports p-
    and sup-norms after cycle cancellation.

    The stopped-walk transport from v is the random-step pattern of its
    Green measure h (h[i] the expected visits to members[i] of the walk
    from v stopped on leaving A): the step patterns of the stopped walk's
    laws add up to it, so it carries delta_v to the exit law from v.  One
    interior solve on A gives h for v and w.

    Returns a list of dicts with norms, residual and the pattern.  Raises,
    before any solve, ValueError if v and w are not adjacent and
    InvalidInput if p is no exponent of lp_norm; InvalidInput if the
    members of A carrying Green mass have mixed degrees.
    """
    e = G.edge_ids(v, w)
    if e < 0:
        raise ValueError(f"vertices {v} and {w} are not adjacent")
    check_exponent(p)
    out = []
    for A in regions:
        A = subset_view(G, A)
        h, (exv, exw) = A.exit_solve([v, w])
        steps = []
        for hj in h.T:
            green = VertexField(G)
            green.a[A.members] = hj
            steps.append(random_step_transport(G, green, A).tau.a)
        tau = EdgeField(G, steps[1] - steps[0])
        tau.a[e] += 1.0 if v < w else -1.0
        pat = cycle_cancel(TransportPattern(tau, exv, exw))
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
