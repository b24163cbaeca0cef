"""Finite-window cut and cycle spaces and projection statistics.

For a window F, the cut vectors are gradients of Diracs on F and the
cycle vectors are fundamental cycles of the graph induced on F, both
living in l^2 of the edges incident with F.  Their span V_F has
codimension |boundary F| - c + k0, where c counts the components of F and
k0 those that no boundary edge leaves; that is |boundary F| - 1 on the
connected windows of interest.  Projecting onto the part of V_F supported
on one generator's edges yields large diagonal entries, quantified here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .errors import BudgetExceeded, InvalidInput
from .graphs import SubsetView, subset_view
from .tolerances import RANK_TOL

DENSE_EDGE_BUDGET = 4000


@dataclass
class WindowSpaces:
    graph: object
    F: SubsetView
    edge_ids: np.ndarray       # E_F: induced + boundary edges (global ids)
    cut: np.ndarray            # |E_F| x |F|, gradients of Diracs
    cycles: np.ndarray         # |E_F| x c, fundamental cycles
    n_components: int
    # |F| - k0: the gradient of f vanishes iff f is constant on each
    # component of F and 0 on those that a boundary edge leaves
    dim_cut: int

    @property
    def dim_cycle(self):
        # each fundamental cycle has its own non-tree edge
        return self.cycles.shape[1]

    def basis(self):
        """Orthonormal basis of V_F = cut + cycle.  Cycles are divergence
        free, so the two spaces are orthogonal and their dimensions add."""
        M = np.hstack([self.cut, self.cycles])
        u, _, _ = np.linalg.svd(M, full_matrices=False)
        return u[:, :self.dim_cut + self.dim_cycle]


def _spanning_forest(sub):
    """BFS forest: (parent array, parent-edge array, component labels).
    Each component is searched from its least vertex, neighbours in
    adjacency order; a csgraph built by `adjacency_matrix()` would sort
    them and change the fundamental cycles."""
    A = sp.csr_matrix((np.ones(len(sub._adj_nbr)), sub._adj_nbr,
                       sub._adj_ptr), shape=(sub.n, sub.n))
    _, labels = connected_components(A, directed=False)
    parent = np.full(sub.n, -1, dtype=np.int64)
    for root in np.unique(labels, return_index=True)[1]:
        _, pred = breadth_first_order(A, root, return_predecessors=True)
        seen = pred >= 0
        parent[seen] = pred[seen]
    return parent, sub.edge_ids(parent, np.arange(sub.n)), labels


def build_window(G, F):
    """Assemble cut and cycle bases for the window F."""
    F = subset_view(G, F)
    edge_ids = np.sort(np.concatenate([F.induced_edges, F.boundary_edges]))
    nE = len(edge_ids)
    # every edge at a vertex of F lies in E_F; grad delta_x = -1 on edges
    # with tail x, +1 on edges with head x
    cut = G.incidence_matrix()[edge_ids][:, F.members].toarray()
    # the row of each induced edge
    row = np.searchsorted(edge_ids, F.induced_edges)
    sub = F.induced_graph()
    parent, pedge, labels = _spanning_forest(sub)
    ncomp = len(np.unique(labels))
    # minus the components of F that no boundary edge leaves
    dim_cut = F.size - ncomp + len(np.unique(
        labels[G.degrees[F.members] > sub.degrees]))
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
    return WindowSpaces(G, F, edge_ids, cut, cycles, ncomp, dim_cut)


def window_projection_stats(ball, F, label):
    """Projection of V_F onto the functions supported on `label`-edges.

    Returns a dict with the codimension of V_F in l^2(E_F), the diagonal
    entries of the projection on the label-edge coordinates, the max
    diagonal, the guaranteed lower bound 1 - (|bd F|-1)/|F|, and the trace
    identity value.
    """
    G = ball.graph
    F = subset_view(G, F)
    nE = len(F.induced_edges) + len(F.boundary_edges)
    if nE > DENSE_EDGE_BUDGET:
        raise BudgetExceeded(f"window has {nE} edges > {DENSE_EDGE_BUDGET}")
    ws = build_window(G, F)
    B = ws.basis()
    dimV = B.shape[1]
    codim = nE - dimV
    # one s-edge per window vertex: x -> x*s, |F| edges in total
    targets = ball.translation_table(ball.group.gen(label))[F.members]
    if np.any(targets < 0):
        raise InvalidInput("window touches the truncation sphere; "
                           "enlarge the ball")
    eids = G.edge_ids(F.members, targets)
    if np.any(eids < 0):
        raise InvalidInput(f"a {label} step is not an edge of the ball")
    s_rows = np.searchsorted(ws.edge_ids, eids)
    # V' = V_F intersected with the coordinate subspace of label edges:
    # combinations of the basis vanishing on all other rows
    # (with no other rows, numpy's SVD of the empty B[other] gives Vt = I)
    other = np.setdiff1d(np.arange(nE), s_rows)
    _, sv, Vt = np.linalg.svd(B[other], full_matrices=True)
    # B and the null space basis both have orthonormal columns, so Q does
    Q = B @ Vt[np.sum(sv > RANK_TOL):].T
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
