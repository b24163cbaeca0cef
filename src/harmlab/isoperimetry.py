"""Isoperimetric profiles and the geometry of finite vertex sets.

The profile G_down(x) = min { |boundary F| / |F| : |F| <= x } is computed
exactly by enumerating the connected subsets size by size, as bitmask
rows (a minimizing set can be replaced by its best connected component).
An independent integer-programming route gives exact minimal boundaries
for spot checks without the connectivity restriction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
import scipy.sparse as sp

from .errors import BudgetExceeded, InvalidInput, NumericalFailure
from .graphs import (_sorted_unique, adjacency_slots, bfs_distances,
                     bitmask_rows, boundary_gain, check_count,
                     neighbour_masks, subset_view)

ENUM_BUDGET = 10 ** 7


@dataclass
class IsoProfile:
    max_size: int
    table: dict = field(default_factory=dict)  # size -> (boundary, witness)

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


# Candidates for the next level are built and deduplicated this many words
# at a time: the 9 * 10^6 candidates of size 12 in profile(torus_grid(5, 5),
# 12) took the process to a 696 MiB peak when built at once, 232 MiB in
# slices.
SLICE_WORDS = 1 << 20
# Sets are enumerated by their least vertex, this many least vertices at a
# time.  A connected set of size <= s lies within distance s - 1 of its
# least vertex, so each block needs bitmask rows only as wide as that
# window: on torus_grid(100, 100) to size 4, at most 466 vertices, not
# 10^4.
ROOT_BLOCK = 64


def _members(rows):
    # (row, vertex) pairs of bitmask rows, by row and ascending vertex
    return np.nonzero(np.unpackbits(rows.view(np.uint8), axis=-1,
                                    bitorder="little"))


def _distinct(sets, *cols):
    # the distinct rows of `sets` in ascending order (np.lexsort sorts on
    # its last key, the top word, first), with their entries of `cols`
    order = np.lexsort(sets.T)
    sets = sets[order]
    keep = np.ones(len(sets), dtype=bool)
    keep[1:] = np.any(sets[1:] != sets[:-1], axis=1)
    return (sets[keep],) + tuple(c[order[keep]] for c in cols)


class _Block:
    """The connected sets of one size whose least vertex is one of
    a..a + ROOT_BLOCK - 1: ascending bitmask rows `sets` over `window`,
    their boundaries `bnd` in all of G and their neighbourhoods `reach`.
    A set of size s + 1 is a set S of size s plus a vertex of N(S) outside
    S."""

    def __init__(self, G, a, max_size):
        window = np.arange(a, min(a + ROOT_BLOCK, G.n))
        k = len(window)
        for _ in range(max_size - 1):  # vertices >= a within reach
            window = _sorted_unique(np.concatenate(
                [window, G._adj_nbr[adjacency_slots(G, window)[0]]]))
            window = window[window >= a]
        self.window, self.deg = window, G.degrees[window]
        self.nbr = neighbour_masks(G, window)
        self.sets = self.rows(np.arange(k))
        self.bnd, self.reach = self.deg[:k], self.nbr[:k]

    def rows(self, v):
        # one bitmask row per vertex of v
        return bitmask_rows(len(self.window), np.arange(len(v)), v, len(v))

    def candidates(self):
        return self.reach & ~self.sets

    def grow(self, last):
        """Move to the next size: each set S plus each vertex of N(S) \\ S,
        deduplicated slice by slice and then once more.  The `last` size
        needs no neighbourhoods."""
        cand = self.candidates()
        most = int(np.bitwise_count(cand).sum(axis=1).max(initial=1))
        step = max(SLICE_WORDS // (cand.shape[1] * most), 1)

        def part(lo):  # the sets of one slice, deduplicated
            row, v = _members(cand[lo:lo + step])
            row += lo
            S = self.sets[row]
            cols = [self.bnd[row] + boundary_gain(self.deg, self.nbr, v, S)]
            if not last:
                cols.append(self.reach[row] | self.nbr[v])
            return _distinct(S | self.rows(v), *cols)

        # no list of the slices outlives the concatenation
        self.sets, self.bnd, *reach = _distinct(*map(
            np.concatenate, zip(*map(part, range(0, len(cand), step)))))
        self.reach = reach[0] if reach else None


def _levels(G, max_size, budget):
    """Yield, for each size 1..max_size, the connected vertex sets of that
    size, as the list of the blocks of least vertices that have such
    sets."""
    blocks = [_Block(G, a, max_size) for a in range(0, G.n, ROOT_BLOCK)]

    def check(count):
        if count > budget:
            raise BudgetExceeded(f"more than {budget} connected sets")

    total = 0
    for size in range(1, max_size + 1):
        if size > 1:
            # a set of this size is a set of the last size plus one of its
            # candidates in at most `size` ways: the budget is checked
            # before the level is built
            check(total + sum(int(np.bitwise_count(b.candidates()).sum())
                              for b in blocks) / size)
            for b in blocks:
                b.grow(size == max_size)
            blocks = [b for b in blocks if len(b.sets)]
        total += sum(len(b.sets) for b in blocks)
        check(total)
        if not blocks:
            return
        yield blocks


def profile(G, max_size, budget=ENUM_BUDGET):
    """Exact isoperimetric table size -> (min boundary, witness set); the
    witness is the least bitmask among the minimisers."""
    check_count(max_size, "max_size", 1)
    prof = IsoProfile(max_size=max_size)
    for size, level in enumerate(_levels(G, max_size, budget), 1):
        # per block the first minimiser is the least; across blocks the
        # least bitmask is the least list of members, top first
        bnd, top_first = min(
            (int(b.bnd.min()), b.window[_members(
                b.sets[np.argmin(b.bnd)])[0]][::-1].tolist())
            for b in level)
        prof.table[size] = (bnd, top_first[::-1])
    return prof


def cut_program(G, edge_cost, vertex_cost, size):
    """Least edge_cost |boundary F| + vertex_cost |F| over vertex sets F
    with size[0] <= |F| <= size[1].

    Solved as the integer program over binary x and y_e >= |x_u - x_v|.
    The costs must be integers, so the objective is an integer and a
    HiGHS dual bound above (value - 1) proves the incumbent optimal.
    Returns (F as a SubsetView, value), with value recomputed exactly
    from F; raises NumericalFailure without that proof.
    """
    n, m = G.n, G.m
    is_x = np.repeat([1.0, 0.0], [n, m])
    # rows 2e, 2e + 1: x_u - x_v - y_e <= 0 and x_v - x_u - y_e <= 0
    A = sp.hstack([sp.kron(G.incidence_matrix(), [[-1.0], [1.0]]),
                   sp.kron(sp.identity(m), [[-1.0], [-1.0]])], format="csr")
    res = scipy.optimize.milp(
        np.where(is_x, vertex_cost, edge_cost).astype(float),
        constraints=[scipy.optimize.LinearConstraint(A, -np.inf, 0),
                     scipy.optimize.LinearConstraint(is_x, *size)],
        integrality=is_x, bounds=scipy.optimize.Bounds(0.0, 1.0))
    if res.status != 0:
        raise NumericalFailure(f"integer program: {res.message}")
    F = subset_view(G, np.flatnonzero(res.x[:n] > 0.5))
    value = edge_cost * F.boundary_size + vertex_cost * F.size
    if not (size[0] <= F.size <= size[1] and res.mip_dual_bound > value - 1):
        raise NumericalFailure(
            f"integer program: incumbent {value} of size {F.size} is not "
            f"proved optimal (dual bound {res.mip_dual_bound})")
    return F, value


def min_boundary_exact(G, size):
    """Exact min |boundary F| over |F| = size via integer programming.

    Connectivity is not required, so the value can only be <= the
    enumeration table's entry; on profiles it agrees (best-component
    argument).  Returns (boundary, witness).
    """
    check_count(size, "size", 1)
    if size > G.n:
        raise ValueError(f"size must be in 1..{G.n}, not {size}")
    F, boundary = cut_program(G, 1, 0, (size, size))
    return boundary, [int(v) for v in F.members]


# -- geometric quantities --------------------------------------------------


def inradius(G, F):
    """Largest r such that some ball B(x, r), x in F, stays inside F."""
    F = subset_view(G, F)
    if F.size == 0:
        raise InvalidInput("empty set")
    comp = np.flatnonzero(~F.mask)
    if len(comp) == 0:
        # F = V: every ball fits; report the largest radius that matters
        return int(bfs_distances(G, 0).max())
    dist = bfs_distances(G, comp)
    return int(dist[F.members].max() - 1)


def diameter(G, F):
    """Diameter of the graph induced on F."""
    F = subset_view(G, F)
    sub = F.induced_graph()
    best = 0
    for v in range(sub.n):
        d = bfs_distances(sub, v)
        if d.min() < 0:
            raise InvalidInput("induced graph on F is disconnected")
        best = max(best, int(d.max()))
    return best


def mean_boundary_distance(G, F):
    """Average over x in F of the induced-graph distance from x to an
    endpoint of a boundary edge lying in F (0 on boundary-adjacent
    vertices)."""
    F = subset_view(G, F)
    if not F.boundary_size:
        return 0.0
    sub = F.induced_graph()
    # the endpoint of each boundary edge inside F, in sub's labels
    t, h = G.tails[F.boundary_edges], G.heads[F.boundary_edges]
    d = bfs_distances(sub, np.searchsorted(F.members,
                                           np.where(F.mask[t], t, h)))
    if d.min() < 0:
        # vertices cut off from the boundary inside F: treat distance as the
        # largest finite value (thick components of closed regions)
        d[d < 0] = d.max()
    return float(d.mean())


def radial_iso_check(G, A, K=1.0, k=1.0):
    """Evaluate K |boundary A| (1 + inrad A)^k >= |A| and the diameter
    variant (which holds with K = k = 1 whenever the complement of A is
    connected)."""
    if not np.isfinite([K, k]).all():
        raise ValueError(f"K and k must be finite, not {K!r} and {k!r}")
    A = subset_view(G, A)
    if A.size == 0:
        raise InvalidInput("empty set")
    comp = np.flatnonzero(~A.mask)
    if len(comp):
        if not subset_view(G, comp).induced_graph().is_connected:
            raise InvalidInput("complement of A is disconnected")
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
