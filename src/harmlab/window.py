"""Finite-window cut and cycle spaces and projection statistics.

For a window F, the cut vectors are gradients of Diracs on F and the
cycle vectors are fundamental cycles of the graph induced on F, both
living in l^2 of the edges incident with F.  Their span V_F has
codimension |boundary F| - 1 on the windows of interest; projecting onto
the part of V_F supported on one generator's edges yields large diagonal
entries, quantified here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DenseBudgetExceeded, PathExitsBall
from .graphs import SubsetView, adjacency_slots, subset_view

DENSE_EDGE_BUDGET = 4000
RANK_TOL = 1e-9


@dataclass
class WindowSpaces:
    graph: object
    F: SubsetView
    edge_ids: np.ndarray       # E_F: induced + boundary edges (global ids)
    cut: np.ndarray            # |E_F| x |F|, gradients of Diracs
    cycles: np.ndarray         # |E_F| x c, fundamental cycles
    n_components: int

    @property
    def dim_cut(self):
        return int(np.linalg.matrix_rank(self.cut, tol=RANK_TOL))

    @property
    def dim_cycle(self):
        if self.cycles.shape[1] == 0:
            return 0
        return int(np.linalg.matrix_rank(self.cycles, tol=RANK_TOL))

    def basis(self):
        """Orthonormal basis of V_F = cut + cycle."""
        M = np.hstack([self.cut, self.cycles])
        u, s, _ = np.linalg.svd(M, full_matrices=False)
        keep = s > RANK_TOL * max(1.0, s[0] if len(s) else 1.0)
        return u[:, keep]


def _spanning_forest(sub):
    """BFS forest: (parent array, parent-edge array, #components)."""
    parent = np.full(sub.n, -1, dtype=np.int64)
    pedge = np.full(sub.n, -1, dtype=np.int64)
    seen = np.zeros(sub.n, dtype=bool)
    ncomp = 0
    for root in range(sub.n):
        if seen[root]:
            continue
        ncomp += 1
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            ej, _ = sub.incident_edges(v)
            for e in ej:
                u = int(sub.tails[e]) if sub.heads[e] == v else int(sub.heads[e])
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    pedge[u] = e
                    queue.append(u)
    return parent, pedge, ncomp


def build_window(G, F):
    """Assemble cut and cycle bases for the window F."""
    F = F if isinstance(F, SubsetView) else subset_view(G, F)
    edge_ids = np.sort(np.concatenate([F.induced_edges, F.boundary_edges]))
    nE = len(edge_ids)
    # every edge at a vertex of F lies in E_F; grad delta_x = -1 on edges
    # with tail x, +1 on edges with head x
    slots, deg = adjacency_slots(G, F.members)
    cut = np.zeros((nE, F.size))
    cut[np.searchsorted(edge_ids, G._adj_edge[slots]),
        np.repeat(np.arange(F.size), deg)] = -G._adj_sign[slots]
    # the row of each induced edge
    row = np.searchsorted(edge_ids, F.induced_edges)
    sub, old = F.induced_graph()
    parent, pedge, ncomp = _spanning_forest(sub)
    intree = np.zeros(sub.m, dtype=bool)
    intree[pedge[pedge >= 0]] = True
    cyc_cols = []
    for e in np.flatnonzero(~intree):
        u, v = int(sub.tails[e]), int(sub.heads[e])
        vec = np.zeros(nE)
        vec[row[e]] = 1.0
        # close the cycle along tree paths u -> root and v -> root
        for start, sign in ((v, 1.0), (u, -1.0)):
            x = start
            while parent[x] >= 0:
                pe = pedge[x]
                orient = 1.0 if sub.heads[pe] == x else -1.0
                vec[row[pe]] -= sign * orient
                x = int(parent[x])
        cyc_cols.append(vec)
    cycles = (np.column_stack(cyc_cols) if cyc_cols
              else np.zeros((nE, 0)))
    return WindowSpaces(G, F, edge_ids, cut, cycles, ncomp)


def window_projection_stats(ball, F, label):
    """Projection of V_F onto the functions supported on `label`-edges.

    Returns a dict with the codimension of V_F in l^2(E_F), the diagonal
    entries of the projection on the label-edge coordinates, the max
    diagonal, the guaranteed lower bound 1 - (|bd F|-1)/|F|, and the trace
    identity value.
    """
    G = ball.graph
    F = F if isinstance(F, SubsetView) else subset_view(G, F)
    nE = len(F.induced_edges) + len(F.boundary_edges)
    if nE > DENSE_EDGE_BUDGET:
        raise DenseBudgetExceeded(f"window has {nE} edges > "
                                  f"{DENSE_EDGE_BUDGET}")
    ws = build_window(G, F)
    B = ws.basis()
    dimV = B.shape[1]
    codim = nE - dimV
    # one s-edge per window vertex: x -> x*s, |F| edges in total
    targets = ball.translation_table(ball.group.gen(label))[F.members]
    if np.any(targets < 0):
        raise DenseBudgetExceeded("window touches the truncation sphere; "
                                  "enlarge the ball")
    eids = G.edge_ids(F.members, targets)
    if np.any(eids < 0):
        raise PathExitsBall(f"a {label} step is not an edge of the ball")
    s_rows = np.searchsorted(ws.edge_ids, eids)
    # V' = V_F intersected with the coordinate subspace of label edges:
    # combinations of the basis vanishing on all other rows
    other = np.setdiff1d(np.arange(nE), s_rows)
    if len(other):
        _, sv, Vt = np.linalg.svd(B[other], full_matrices=True)
        null = Vt[np.sum(sv > RANK_TOL):].T
    else:
        null = np.eye(dimV)
    W = B.dot(null)
    if W.shape[1]:
        u, sv2, _ = np.linalg.svd(W, full_matrices=False)
        keep = sv2 > RANK_TOL * max(1.0, sv2[0])
        Q = u[:, keep]
    else:
        Q = np.zeros((nE, 0))
    diag = (Q ** 2).sum(axis=1)
    s_diag = diag[s_rows]
    k = F.boundary_size - 1
    N = F.size
    bound = 1.0 - k / N
    frac = np.sqrt(k / N)
    return {
        "codim": int(codim),
        "boundary_minus_one": int(k),
        "dim_Vprime": int(Q.shape[1]),
        "diag": s_diag,
        "max_diag": float(s_diag.max()) if len(s_diag) else 0.0,
        "bound": float(bound),
        "trace": float(diag.sum()),
        "small_diag_fraction": float(np.mean(s_diag < 1.0 - frac))
        if len(s_diag) else 0.0,
        "fraction_bound": float(frac),
        "window": ws,
    }
