"""Discrete calculus on finite oriented graphs.

Conventions: every adjacent pair {x, y} carries exactly one oriented edge,
canonically (x, y) with x < y.  The gradient of a vertex function f is
(grad f)(x, y) = f(y) - f(x); the divergence is its adjoint for the counting
inner product, div g (x) = -sum_{(x,y)} g(x,y) + sum_{(y,x)} g(y,x).
"""

from __future__ import annotations

import functools
import json

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import BudgetExceeded, InvalidInput, NumericalFailure
from .tolerances import ATOM_TOL, MASS_TOL

DEFAULT_BALL_CAP = 2_000_000  # vertices of a Cayley ball or builtin graph


def _sorted_unique(a):
    """np.unique of an int array, by sorting: numpy 2's hash-based
    np.unique is far slower on arrays of 10^5 and more entries."""
    a = np.sort(a, axis=None)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


class OrientedGraph:
    """Immutable finite graph with one canonical orientation per edge.

    Vertices are dense integers 0..n-1.  Edges are stored as parallel arrays
    (tails, heads) with tails < heads.  Construction computes the degrees
    only; the CSR adjacency (`neighbors`, BFS, region operators), the edge
    keys (`edge_ids`), the adjacency matrix and the incidence matrix are
    each built on first use.  `symmetries` are vertex permutations claimed
    to generate a transitive group of automorphisms; they are not trusted
    until `is_vertex_transitive` has checked them.
    """

    def __init__(self, n, edges, validate=True, symmetries=()):
        self.n = int(n)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if validate and len(edges):
            if edges.min() < 0 or edges.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loops are not allowed")
            if np.any(edges[:, 0] > edges[:, 1]):
                raise ValueError("edges must be canonically oriented (x < y)")
            keys = edges[:, 0] * self.n + edges[:, 1]
            if len(_sorted_unique(keys)) != len(keys):
                raise ValueError("duplicate edge (or both orientations present)")
        self.tails = np.ascontiguousarray(edges[:, 0])
        self.heads = np.ascontiguousarray(edges[:, 1])
        self.m = len(self.tails)

        deg = np.bincount(np.concatenate([self.tails, self.heads]),
                          minlength=self.n)
        self.degrees = deg

        self._A = self._B = None
        self._keys = None
        self.symmetries = tuple(symmetries)

    # -- structure ---------------------------------------------------------

    # CSR adjacency, built on first use: the neighbours of v are
    # _adj_nbr[_adj_ptr[v]:_adj_ptr[v + 1]], first the heads of the edges
    # with tail v, then the tails of those with head v, each in edge order

    @functools.cached_property
    def _adj_nbr(self):
        order = np.argsort(np.concatenate([self.tails, self.heads]),
                           kind="stable")
        return np.concatenate([self.heads, self.tails])[order]

    @functools.cached_property
    def _adj_ptr(self):
        ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=ptr[1:])
        return ptr

    def neighbors(self, v):
        return self._adj_nbr[self._adj_ptr[v]:self._adj_ptr[v + 1]]

    def edge_ids(self, x, y):
        """Edge ids of the vertex pairs (x, y), scalars or arrays, in
        either orientation; -1 where a pair is not an edge or an endpoint
        lies outside 0..n-1.  A search in the sorted keys tail * n + head,
        built on first use, through a permutation only if the edges are
        not in key order."""
        if self._keys is None:
            keys, order = self.tails * self.n + self.heads, None
            if np.any(keys[1:] < keys[:-1]):
                order = np.append(np.argsort(keys), -1)
                keys = keys[order[:-1]]
            # the last key, n * n, lies above every pair's, so each search
            # lands on a key
            self._keys = np.append(keys, self.n * self.n), order
        keys, order = self._keys
        x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        key = lo * self.n + hi
        e = np.minimum(np.searchsorted(keys, key), self.m)
        hit = (keys[e] == key) & (lo >= 0) & (hi < self.n)
        return np.where(hit, e if order is None else order[e], -1)

    def adjacency_matrix(self):
        """n x n CSR matrix with 1 at (x, y) and (y, x) for each edge, its
        indices sorted: the sorted keys x * n + y of both orientations."""
        if self._A is None:
            keys = np.sort(np.concatenate([self.tails * self.n + self.heads,
                                           self.heads * self.n + self.tails]))
            self._A = sp.csr_matrix((np.ones(2 * self.m), keys % self.n,
                                     self._adj_ptr), shape=(self.n, self.n))
        return self._A

    def incidence_matrix(self):
        """m x n CSR matrix B with (B f)(e) = f(head) - f(tail): row e
        holds -1 at its tail and +1 at its head."""
        if self._B is None:
            self._B = sp.csr_matrix(
                (np.tile([-1.0, 1.0], self.m),
                 np.column_stack([self.tails, self.heads]).ravel(),
                 np.arange(0, 2 * self.m + 1, 2)), shape=(self.m, self.n))
        return self._B

    @functools.cached_property
    def transport_rows(self):
        """The W1 program's equality rows: [B^T, -B^T] less vertex 0's."""
        BT = self.incidence_matrix().T
        return sp.hstack([BT, -BT], format="csr")[1:]

    @property
    def regular_degree(self):
        """Common degree if the graph is regular, else None."""
        if self.n == 0:
            return None
        d = int(self.degrees[0])
        return d if np.all(self.degrees == d) else None

    def require_regular(self):
        d = self.regular_degree
        if d is None:
            raise InvalidInput("operation requires a regular graph")
        return d

    @functools.cached_property
    def is_vertex_transitive(self):
        """Whether `symmetries` prove the graph vertex-transitive: each is
        a permutation of 0..n-1 (one sort) that maps every edge to an edge,
        hence the edge set onto itself, and vertex 0's orbit, its component
        in the graph of the moves v -> g(v), is every vertex."""
        n, gens = self.n, [np.asarray(g) for g in self.symmetries]
        if not gens or not all(
                g.shape == (n,) and g.dtype.kind in "iu"
                and np.array_equal(np.sort(g), np.arange(n))
                and np.all(self.edge_ids(g[self.tails], g[self.heads]) >= 0)
                for g in gens):
            return False
        moves = sp.coo_matrix(
            (np.ones(len(gens) * n),
             (np.tile(np.arange(n), len(gens)), np.concatenate(gens))),
            shape=(n, n))
        return connected_components(moves, directed=False)[0] == 1

    @functools.cached_property
    def is_connected(self):
        dist = bfs_distances(self, 0) if self.n else np.empty(0)
        return bool(self.n == 0 or np.all(dist >= 0))

    def __repr__(self):
        return f"OrientedGraph(n={self.n}, m={self.m})"


def check_count(value, name, low):
    """ValueError unless value is an integer >= low, bools excluded."""
    if isinstance(value, bool) or not (
            isinstance(value, (int, np.integer)) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")


def check_vertices(G, verts):
    """verts as int64; ValueError unless each is an integer in 0..n-1
    (numpy indexing would let -1 stand for vertex n - 1, and a cast would
    truncate 1.5 and read True as 1, also among ints)."""
    a = np.asarray(verts)
    if a.size and (a.dtype.kind not in "iu" or isinstance(verts, (list, tuple))
                   and not {bool, np.bool_}.isdisjoint(map(type, verts))):
        raise ValueError(f"vertices must be integers, not {verts!r:.40}")
    verts = a.astype(np.int64, copy=False)
    bad = verts[(verts < 0) | (verts >= G.n)]
    if bad.size:
        raise ValueError(f"{bad.flat[0]} is not a vertex of the graph "
                         f"(0..{G.n - 1})")
    return verts


def adjacency_slots(G, verts):
    """Positions in the CSR adjacency array _adj_nbr of the neighbours
    of each vertex of `verts`, concatenated in that order, and the degree
    of each vertex."""
    starts = G._adj_ptr[verts]
    counts = G._adj_ptr[verts + 1] - starts
    # output position j belongs to verts[i] and reads starts[i] + (j - j_i),
    # j_i being the first output position of verts[i]
    shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return shift + np.arange(len(shift)), counts


# -- vertex sets as bitmask rows of ceil(n / 64) uint64 words, vertex v
# being bit v % 64 of word v // 64


def bitmask_rows(n, rows, vertices, k):
    """k bitmask rows, with vertices[i] put into row rows[i]."""
    out = np.zeros((k, -(-n // 64)), dtype=np.uint64)
    np.bitwise_or.at(out, (rows, vertices // 64),
                     np.uint64(1) << (vertices % 64).astype(np.uint64))
    return out


def neighbour_masks(G, verts):
    """Bitmask rows of N(u) & verts for u in the sorted vertex array
    `verts`, over positions in `verts`."""
    slots, deg = adjacency_slots(G, verts)
    nbr = G._adj_nbr[slots]
    pos = np.minimum(np.searchsorted(verts, nbr), len(verts) - 1)
    hit = verts[pos] == nbr
    rows = np.repeat(np.arange(len(verts)), deg)
    return bitmask_rows(len(verts), rows[hit], pos[hit], len(verts))


def boundary_gain(deg, nbr, v, sets):
    """|bd(S + v)| - |bd S| for v outside the bitmask rows S: deg v minus
    twice the edges from v into S, read off the neighbour masks `nbr`.
    v is one vertex or one per row."""
    gain = np.bitwise_count(nbr[v] & sets).sum(axis=-1, dtype=np.int32)
    gain *= -2
    gain += deg[v]
    return gain


def bfs_distances(G, sources):
    """Distances from the given source vertex/vertices; -1 if unreachable."""
    dist = np.full(G.n, -1, dtype=np.int64)
    frontier = _sorted_unique(check_vertices(G, sources))
    dist[frontier] = 0
    last = np.empty(G.n, dtype=np.int64)
    d = 0
    while len(frontier):
        d += 1
        cand = G._adj_nbr[adjacency_slots(G, frontier)[0]]
        cand = cand[dist[cand] < 0]
        # dedupe without sorting: of the positions written for a vertex one
        # wins, so exactly one occurrence survives
        pos = np.arange(len(cand))
        last[cand] = pos
        frontier = cand[last[cand] == pos]
        dist[frontier] = d
    return dist


# -- sparse-semantics fields (array backed) -------------------------------


class _Field:
    """Real-valued array on the vertices or edges of a graph; zero outside
    its support.  A subclass names its size attribute and what it counts."""

    __slots__ = ("graph", "a")

    def __init__(self, graph, values=None):
        self.graph = graph
        size = getattr(graph, self._size)
        self.a = (np.zeros(size) if values is None
                  else np.asarray(values, dtype=float))
        if self.a.shape != (size,):
            raise ValueError(f"value array does not match {self._item} count")

    @property
    def support(self):
        return np.flatnonzero(self.a)


class VertexField(_Field):
    """Real-valued function on vertices."""

    __slots__ = ()
    _size, _item = "n", "vertex"

    @classmethod
    def from_dict(cls, graph, mapping):
        f = cls(graph)
        f.a[check_vertices(graph, list(mapping))] = np.fromiter(
            mapping.values(), float, len(mapping))
        return f

    def __getitem__(self, v):
        return float(self.a[v])


class EdgeField(_Field):
    """Real-valued function on oriented edges."""

    __slots__ = ()
    _size, _item = "m", "edge"


class Distribution(VertexField):
    """Nonnegative vertex field of total mass one."""

    def __init__(self, graph, values=None, check=True):
        super().__init__(graph, values)
        if check and self.graph.n:
            if not self.a.min() >= -ATOM_TOL:
                raise ValueError("distribution has negative or NaN mass")
            if not abs(self.a.sum() - 1.0) <= MASS_TOL:
                raise ValueError("distribution mass differs from 1")

    @classmethod
    def dirac(cls, graph, v):
        d = cls(graph, check=False)
        check_vertices(graph, v)
        d.a[v] = 1.0
        return d

    @classmethod
    def uniform(cls, graph, vertices):
        """Equal mass on the distinct vertices of `vertices`."""
        vertices = _sorted_unique(check_vertices(graph, vertices))
        if not len(vertices):
            raise ValueError("uniform distribution on no vertices")
        d = cls(graph, check=False)
        d.a[vertices] = 1.0 / len(vertices)
        return d


# -- operations ------------------------------------------------------------


def gradient(f):
    """(grad f)(x, y) = f(y) - f(x) on every oriented edge."""
    G = f.graph
    return EdgeField(G, f.a[G.heads] - f.a[G.tails])


def divergence(g):
    """Adjoint of the gradient: <div g, h> = <g, grad h>, summed over the
    support of g: from +0.0 no sum reaches -0.0, so zeros change no bit."""
    G, e = g.graph, (g.a != 0).nonzero()[0]  # as flatnonzero, faster
    out = np.zeros(G.n)
    np.add.at(out, G.heads[e], g.a[e])
    np.subtract.at(out, G.tails[e], g.a[e])
    return VertexField(G, out)


def check_laziness(laziness):
    """A lazy walk stays put with probability `laziness`, in [0, 1)."""
    if not 0.0 <= laziness < 1.0:
        raise ValueError("laziness must lie in [0, 1)")


def check_exponent(p):
    """InvalidInput unless p is 0, inf or >= 1 (NaN is none of them)."""
    if not (p == 0 or p >= 1):
        raise InvalidInput(f"p={p} not in {{0}} | [1, inf]")


def lp_norm(field, p):
    """l^p norm; p=0 counts the support, p=inf is the max absolute value."""
    check_exponent(p)
    a = field.a if hasattr(field, "a") else np.asarray(field, dtype=float)
    if p == 0:
        return float(np.count_nonzero(a))
    if p == np.inf:
        return float(np.max(np.abs(a))) if len(a) else 0.0
    if p == 1:
        return float(np.abs(a).sum())
    if p == 2:
        return float(np.sqrt((a * a).sum()))
    return float((np.abs(a) ** p).sum() ** (1.0 / p))


# SuperLU settings of every region solve.  Each matrix solved is column
# diagonally dominant (M = I - P^T), row diagonally dominant (M^T) or
# symmetric positive definite (a grounded Laplacian), so elimination in any
# symmetric order needs no pivoting: the pivots stay on the diagonal and the
# growth factor is at most 2 (Higham, Accuracy and Stability of Numerical
# Algorithms, sec. 9.5).  That lets SuperLU order by minimum degree on
# M + M^T, which on a Heisenberg region fills less than half as much as
# its default column ordering with partial pivoting.
LU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
              "options": {"SymmetricMode": True}}


def direct_solve(M, b):
    """Solve the square sparse system M x = b (b a vector or one column per
    right-hand side) by SuperLU with LU_OPTIONS.  Raises NumericalFailure
    when SuperLU meets a zero pivot or the solution is not finite."""
    try:
        lu = spla.splu(M.tocsc(), **LU_OPTIONS)
    except RuntimeError as err:  # "Factor is exactly singular"
        if "singular" not in str(err):
            raise
        raise NumericalFailure("singular sparse system") from None
    x = lu.solve(np.asarray(b, dtype=float))
    if not np.all(np.isfinite(x)):
        raise NumericalFailure("sparse solve gave a non-finite solution")
    return x


def closed_members(A, at=slice(None)):
    """Mask over A.members, True in each component of A that no step
    leaves: the walk from there never exits, and M is singular there
    unless the component is a vertex without neighbours.  Raises
    NumericalFailure naming the first member at the positions `at` (all
    members by default) that lies in such a component."""
    M, (rows, _, _) = A.killed_walk()
    _, labels = connected_components(M, directed=False)
    closed = ~np.isin(labels, labels[rows])
    hit = np.flatnonzero(closed[at])
    if len(hit):
        v = A.members[at][hit[0]]
        raise NumericalFailure(f"singular system: vertex {v} of the region "
                               "cannot reach the boundary")
    return closed


class SubsetView:
    """A vertex subset F with its edge boundary, outer boundary and
    induced edges precomputed; its region operators and their solves."""

    __slots__ = ("graph", "members", "mask", "boundary_edges",
                 "induced_edges", "outer_boundary", "_operator", "_grounded")

    def __init__(self, graph, members):
        self.graph = graph
        if not isinstance(members, np.ndarray):
            members = list(members)
        members = _sorted_unique(check_vertices(graph, members))
        self.members = members
        mask = np.zeros(graph.n, dtype=bool)
        mask[members] = True
        self.mask = mask
        tin = mask[graph.tails]
        hin = mask[graph.heads]
        self.boundary_edges = np.flatnonzero(tin ^ hin)
        self.induced_edges = np.flatnonzero(tin & hin)
        outer = np.concatenate([
            graph.heads[self.boundary_edges][~hin[self.boundary_edges]],
            graph.tails[self.boundary_edges][~tin[self.boundary_edges]],
        ])
        self.outer_boundary = _sorted_unique(outer)
        self._operator = self._grounded = None

    @property
    def size(self):
        return len(self.members)

    @property
    def boundary_size(self):
        return len(self.boundary_edges)

    def killed_walk(self):
        """The simple walk on the graph killed on leaving F, built on first
        use: M = I - P^T as canonical CSC, P[i, j] being the probability of
        a step from members[i] to members[j], and the exit slots (rows, to,
        prob), one per step from members[rows[s]] to the outside vertex
        to[s], in adjacency order."""
        if self._operator is None:
            G, k = self.graph, len(self.members)
            slots, deg = adjacency_slots(G, self.members)
            nbr = G._adj_nbr[slots]
            inside = self.mask[nbr]
            row = np.repeat(np.arange(k), deg)
            prob = np.repeat(1.0 / np.maximum(deg, 1), deg)
            # column j of M: -P[j, i] at row i and 1 at row j, sorted by i
            j = np.concatenate([row[inside], np.arange(k)])
            i = np.concatenate([(np.cumsum(self.mask) - 1)[nbr[inside]],
                                np.arange(k)])
            order = np.argsort(j * k + i, kind="stable")  # runs: j is sorted
            data = np.concatenate([-prob[inside], np.ones(k)])[order]
            ptr = np.append(0, np.cumsum(np.bincount(j, minlength=k)))
            M = sp.csc_matrix((data, i[order], ptr), shape=(k, k))
            self._operator = M, (row[~inside], nbr[~inside], prob[~inside])
        return self._operator

    def exit_solve(self, sources):
        """(h, exit laws): column j of h, the expected visits inside F of
        the walk from sources[j] killed on leaving F, solves M h = delta,
        M = I - P^T from killed_walk(), all columns by one sparse LU solve;
        law j is the flux of h[:, j] out of F.  Components of F that no
        step leaves are dropped when the solve fails.  Raises InvalidInput
        if F has no outer boundary, NumericalFailure if the walk from a
        source cannot leave F."""
        sources = [int(v) for v in check_vertices(self.graph, sources)]
        if not np.all(self.mask[sources]):
            raise ValueError("origin must lie inside the region")
        if len(self.outer_boundary) == 0:
            raise InvalidInput("region has no outer boundary")
        M, (rows, to, prob) = self.killed_walk()
        at = np.searchsorted(self.members, sources)
        b = np.zeros((self.size, len(sources)))
        b[at, np.arange(len(sources))] = 1.0
        try:
            h = direct_solve(M, b)
        except NumericalFailure:
            # only now label the components no step leaves: M is singular on
            # them, and b vanishes there unless a source lies in one
            live = ~closed_members(self, at)
            if live.all():
                raise
            h = np.zeros_like(b)
            h[live] = direct_solve(M[live][:, live], b[live])
        # the flux of each column of h out of F, summed in slot order
        exits = [np.bincount(to, weights=prob * col[rows],
                             minlength=self.graph.n) for col in h.T]
        for ex in exits:
            total = ex.sum()
            if abs(total - 1.0) > MASS_TOL:
                closed_members(self, at)  # names a source that cannot leave
                raise NumericalFailure(f"exit mass {total} differs from 1")
        return h, [Distribution(self.graph, ex, check=False) for ex in exits]

    def harmonic_solve(self, bv):
        """The values on the members of the function harmonic inside F that
        equals bv, an array over the vertices, on the outer boundary: one
        solve with M^T = I - P.  Raises NumericalFailure if a component of
        F cannot reach the boundary."""
        # a component of F that no step leaves makes M singular, and its
        # values are not determined however the solver's pivots fall
        closed_members(self)
        M, (rows, to, prob) = self.killed_walk()
        # M^T is I - P as CSR; b is E bv, each row summed in slot order
        return direct_solve(M.T, np.bincount(rows, weights=prob * bv[to],
                                             minlength=self.size))

    def grounded_laplacian(self):
        """The Laplacian of the graph induced on F, grounded once per
        component and built on first use: (B_I, labels, keep, L), B_I the
        incidence rows of the induced edges over the members, labels the
        component of each member, keep False at the first member of each
        component and L = B_I^T B_I without those rows and columns, as
        CSC."""
        if self._grounded is None:
            B = self.graph.incidence_matrix()[self.induced_edges][
                :, self.members]
            L = B.T @ B
            _, labels = connected_components(L, directed=False)
            keep = np.ones(self.size, dtype=bool)
            keep[np.unique(labels, return_index=True)[1]] = False
            self._grounded = B, labels, keep, L[keep][:, keep].tocsc()
        return self._grounded

    def grounded_solve(self, rhs):
        """h = 0 at each grounded member and B_I^T B_I h = rhs elsewhere,
        rhs one row per member (a vector or one column per right-hand
        side): one sparse LU solve of the grounded Laplacian."""
        _, _, keep, L = self.grounded_laplacian()
        h, b = np.zeros_like(rhs), rhs[keep]
        if b.size:
            h[keep] = direct_solve(L, b)
        return h

    def induced_graph(self):
        """Graph induced on F, vertex i being members[i]."""
        remap = np.full(self.graph.n, -1, dtype=np.int64)
        remap[self.members] = np.arange(len(self.members))
        e = np.column_stack([
            remap[self.graph.tails[self.induced_edges]],
            remap[self.graph.heads[self.induced_edges]],
        ])
        # relabelling preserves order, so canonical orientation survives
        return OrientedGraph(len(self.members), e, validate=False)


def subset_view(G, F):
    """F as a SubsetView of G; a SubsetView of G is returned as it is."""
    if isinstance(F, SubsetView):
        if F.graph is not G:
            raise ValueError("subset view of another graph")
        return F
    return SubsetView(G, F)


def ball(G, center, r):
    """BFS ball of radius r as a SubsetView."""
    return ball_from_distances(G, bfs_distances(G, center), r)


def ball_from_distances(G, dist, r):
    """Ball of radius r around the sources of a bfs_distances array; lets
    one BFS serve every radius."""
    check_count(r, "radius", 0)
    return SubsetView(G, np.flatnonzero((0 <= dist) & (dist <= r)))


# -- builtin graph families ------------------------------------------------


def _guard(n, cap):
    """Raise BudgetExceeded before a builtin graph of n vertices is built."""
    if n > cap:
        raise BudgetExceeded(f"graph of {n} vertices exceeds cap {cap}")


def cycle_graph(n, *, cap=DEFAULT_BALL_CAP):
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    _guard(n, cap)
    i = np.arange(n - 1)
    return OrientedGraph(n, np.column_stack([np.append(i, 0),
                                             np.append(i + 1, n - 1)]),
                         symmetries=[np.roll(np.arange(n), -1)])  # rotation


def path_graph(n):
    i = np.arange(n - 1)
    return OrientedGraph(n, np.column_stack([i, i + 1]))


def complete_graph(n, *, cap=DEFAULT_BALL_CAP):
    _guard(n, cap)
    return OrientedGraph(n, np.column_stack(np.triu_indices(n, 1)),
                         symmetries=[np.roll(np.arange(n), -1)])  # n-cycle


def hypercube_graph(d, *, cap=DEFAULT_BALL_CAP):
    _guard(1 << min(d, cap.bit_length()), cap)  # 2^d only once it is small
    n = 1 << d
    # edge (v, v + 2^b) for each bit b clear in v, in (v, b) order
    v, b = np.nonzero(~np.arange(n)[:, None] >> np.arange(d) & 1)
    return OrientedGraph(n, np.column_stack([v, v + (1 << b)]),
                         symmetries=[np.arange(n) ^ (1 << k)
                                     for k in range(d)])  # bit flips


def torus_grid(w, h, *, cap=DEFAULT_BALL_CAP):
    """Discrete 2-torus C_w x C_h, vertex (i, j) being i * h + j;
    4-regular, needs w, h >= 3."""
    if w < 3 or h < 3:
        raise ValueError("torus grid needs both sides >= 3")
    n = w * h
    _guard(n, cap)
    a = np.arange(n)
    # the neighbours (i + 1, j) and (i, j + 1) of a = (i, j)
    b = np.concatenate([(a + h) % n, a - a % h + (a + 1) % h])
    a = np.tile(a, 2)
    keys = _sorted_unique(np.minimum(a, b) * n + np.maximum(a, b))
    # the neighbour maps are the translations by (1, 0) and (0, 1)
    return OrientedGraph(n, np.column_stack([keys // n, keys % n]),
                         symmetries=[b[:n], b[n:]])


def regular_tree(d, depth, *, cap=DEFAULT_BALL_CAP):
    """Finite truncation of the d-regular tree; root 0, leaves at `depth`.
    Numbered level by level: vertex c has parent 0 if c <= d, else
    1 + (c - d - 1) // (d - 1); edge i is (parent, i + 1)."""
    n, width = 1, max(d, 0)
    for _ in range(depth):
        if not width:
            break
        n += width
        _guard(n, cap)
        width *= d - 1
    c = np.arange(1, n)
    parent = np.where(c <= d, 0, 1 + (c - d - 1) // max(d - 1, 1))
    return OrientedGraph(n, np.column_stack([parent, c]))


def random_regular_graph(d, n, seed):
    if n * d % 2 or not 0 <= d < n:
        raise ValueError(f"no {d}-regular graph on {n} vertices")
    import networkx as nx
    g = nx.random_regular_graph(d, n, seed=seed)
    if not nx.is_connected(g):
        raise ValueError("sampled regular graph is disconnected; change seed")
    e = [(min(u, v), max(u, v)) for u, v in g.edges()]
    return OrientedGraph(n, sorted(e))


# -- file format -----------------------------------------------------------


def save_graph(G, path):
    obj = {"vertices": G.n,
           "edges": [[int(x), int(y)] for x, y in zip(G.tails, G.heads)]}
    with open(path, "w") as fh:
        json.dump(obj, fh)


def load_graph(path, *, cap=DEFAULT_BALL_CAP):
    """The connected graph of a JSON file {"vertices": n, "edges": [[x, y],
    ...]}, n an int of at most `cap` and each endpoint an int in 0..n-1;
    other keys are ignored.  Anything else raises InvalidInput: a float,
    string or bool is not coerced to an int."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read graph file {path}: {exc}") from exc
    n = obj.get("vertices") if isinstance(obj, dict) else None
    if not (type(n) is int and n >= 0):  # bool is a subclass of int
        raise InvalidInput(f"invalid graph file {path}: \"vertices\" must "
                           f"be a non-negative integer, not {n!r}")
    _guard(n, cap)
    edges = obj.get("edges")
    if not (isinstance(edges, list) and all(
            isinstance(e, list) and len(e) == 2
            and all(type(v) is int and 0 <= v < n for v in e)
            for e in edges)):
        raise InvalidInput(f"invalid graph file {path}: \"edges\" must be "
                           f"a list of [x, y] pairs of integers in "
                           f"0..{n - 1}")
    try:
        G = OrientedGraph(n, edges)
    except ValueError as exc:
        raise InvalidInput(f"invalid graph file {path}: {exc}") from exc
    if not G.is_connected:
        raise InvalidInput(f"graph in {path} is not connected")
    return G
