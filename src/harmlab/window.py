"""Finite-window cut and cycle spaces and projection statistics.

For a window F, the cut vectors are gradients of Diracs on F and the cycle
vectors are the cycles of the graph induced on F, both in l^2 of the edges
E_F incident with F.  Their span V_F is reached through its complement, with
no cycle basis: by Kirchhoff's laws x is orthogonal to V_F iff x = B phi on
the induced edges with L_F phi = -B_bd^T x_bd (L_F the Laplacian induced on
F), which is solvable iff B_bd^T x_bd sums to zero on each component of F.
So V_F has codimension |boundary F| - 1 on a connected window that some
boundary edge leaves.  Projecting onto the part of V_F supported on one
generator's edges yields large diagonal entries, quantified here.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import null_space

from .errors import BudgetExceeded, InvalidInput
from .graphs import subset_view
from .tolerances import RANK_TOL

# bounds the dense |E_F| x (|bd F| - 1) complement; a side-44 square
# (3,960 edges) takes about 0.3 s
DENSE_EDGE_BUDGET = 4000


def complement_basis(G, F):
    """(edge_ids, Q): E_F, the induced and boundary edges of the window F
    in ascending id order, and an orthonormal basis Q of V_F^perp in
    l^2(E_F), one row per edge of E_F."""
    F = subset_view(G, F)
    BI, labels, _, _ = F.grounded_laplacian()
    Bd = G.incidence_matrix()[F.boundary_edges][:, F.members]
    # the boundary parts x_bd whose B_bd^T x_bd sums to zero on each
    # component of F
    S = sp.csr_matrix((np.ones(F.size), (labels, np.arange(F.size))),
                      shape=(labels.max(initial=-1) + 1, F.size))
    X = null_space((S @ Bd.T).toarray())
    phi = F.grounded_solve(-(Bd.T @ X))
    E = np.concatenate([F.induced_edges, F.boundary_edges])
    order = np.argsort(E)
    return E[order], np.linalg.qr(np.vstack([BI @ phi, X])[order])[0]


def window_projection_stats(ball, F, label):
    """Projection of V_F onto the functions supported on `label`-edges.

    Returns a dict with the codimension of V_F in l^2(E_F), the diagonal
    entries of the projection on the label-edge coordinates, the max
    diagonal, the guaranteed lower bound 1 - (|bd F|-1)/|F|, and the trace
    identity value.
    """
    G = ball.graph
    F = subset_view(G, F)
    if F.size == 0:
        raise InvalidInput("empty window")
    nE = len(F.induced_edges) + len(F.boundary_edges)
    if nE > DENSE_EDGE_BUDGET:
        raise BudgetExceeded(f"window has {nE} edges > {DENSE_EDGE_BUDGET}")
    # one label step per window vertex: x -> x*s
    eids = ball.edge_column(ball.group.gen(label))[F.members]
    if np.any(eids < 0):
        raise InvalidInput("window touches the truncation sphere; "
                           "enlarge the ball")
    edge_ids, Q = complement_basis(G, F)
    # an involution reaches each of its edges from both ends, so each label
    # row is taken once
    rows, inv = np.unique(np.searchsorted(edge_ids, eids),
                          return_inverse=True)
    # V' = V_F intersected with the coordinate subspace of label edges: the
    # vectors on those rows orthogonal to Q, whose projection is 1 - U U^T
    # for the left singular vectors U of Q's label rows
    U, sv, _ = np.linalg.svd(Q[rows], full_matrices=False)
    U = U[:, sv > RANK_TOL]
    diag = 1.0 - (U ** 2).sum(axis=1)
    s_diag = diag[inv]
    k = F.boundary_size - 1
    bound = 1.0 - k / F.size
    frac = np.sqrt(k / F.size)
    return {
        "codim": int(Q.shape[1]),
        "boundary_minus_one": int(k),
        "dim_Vprime": int(len(rows) - U.shape[1]),
        "diag": s_diag,
        "max_diag": float(s_diag.max()) if len(s_diag) else 0.0,
        "bound": float(bound),
        "trace": float(diag.sum()),
        "small_diag_fraction": float(np.mean(s_diag < 1.0 - frac))
        if len(s_diag) else 0.0,
        "fraction_bound": float(frac),
    }
