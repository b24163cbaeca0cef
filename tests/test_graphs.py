import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from test_cayley import TABLE_CASES

from harmlab.cayley import build_group, cayley_ball
from harmlab.errors import BudgetExceeded, InvalidInput, NumericalFailure
from harmlab.graphs import (Distribution, EdgeField, OrientedGraph,
                            VertexField, ball, bfs_distances, bitmask_rows,
                            cycle_graph, complete_graph, direct_solve,
                            divergence, gradient, hypercube_graph, load_graph,
                            lp_norm, neighbour_masks, path_graph,
                            random_regular_graph, regular_tree, save_graph,
                            subset_view, torus_grid)

FIXTURES = Path(__file__).parent / "fixtures"


def rand_graph(seed, n_max=50):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    # random connected graph: spanning tree + extra edges
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    for _ in range(int(rng.integers(0, 2 * n))):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return OrientedGraph(n, sorted(edges))


class TestGradient:
    def test_single_edge(self):
        G = path_graph(2)
        f = VertexField.from_dict(G, {0: 0.0, 1: 1.0})
        assert gradient(f).a[G.edge_ids(0, 1)] == 1.0

    def test_constant(self):
        G = cycle_graph(5)
        f = VertexField(G, np.full(5, 3.7))
        assert np.all(gradient(f).a == 0)

    def test_dirac_on_c4(self):
        G = cycle_graph(4)
        g = gradient(VertexField.from_dict(G, {2: 1.0}))
        assert len(g.support) == 2
        assert np.all(np.abs(g.a[g.support]) == 1.0)


class TestDivergence:
    def test_single_edge(self):
        G = path_graph(2)
        g = EdgeField(G)
        g.a[G.edge_ids(0, 1)] = 1.0
        d = divergence(g)
        assert d[0] == -1.0 and d[1] == 1.0

    def test_total_divergence_zero(self):
        G = rand_graph(3)
        rng = np.random.default_rng(0)
        g = EdgeField(G, rng.normal(size=G.m))
        assert abs(divergence(g).a.sum()) < 1e-12

    def test_cyclic_flow_divergence_free(self):
        G = cycle_graph(4)
        # consistent cyclic orientation 0->1->2->3->0
        x = np.arange(4)
        y = (x + 1) % 4
        g = EdgeField(G)
        g.a[G.edge_ids(x, y)] = np.where(x < y, 1.0, -1.0)
        assert np.all(divergence(g).a == 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_adjointness(self, seed):
        G = rand_graph(seed)
        rng = np.random.default_rng(seed + 1)
        g = EdgeField(G, rng.normal(size=G.m))
        f = VertexField(G, rng.normal(size=G.n))
        lhs = float(np.dot(divergence(g).a, f.a))
        rhs = float(np.dot(g.a, gradient(f).a))
        assert abs(lhs - rhs) <= 1e-10

    def test_operator_norm_bound(self):
        for seed in range(20):
            G = rand_graph(seed)
            rng = np.random.default_rng(seed)
            g = EdgeField(G, rng.normal(size=G.m))
            for p in (1.0, 1.5, 2.0, 3.0):
                bound = 2 * G.degrees.max() ** (1 - 1 / p) * lp_norm(g, p)
                assert lp_norm(divergence(g), p) <= bound + 1e-12


class TestLaplacian:
    # the Laplacian d (I - P) f is div grad f; these check that route
    def test_constant_in_kernel(self):
        G = hypercube_graph(3)
        f = VertexField(G, np.ones(8))
        assert np.abs(divergence(gradient(f)).a).max() == 0

    def test_k4_dirac(self):
        G = complete_graph(4)
        out = divergence(gradient(VertexField.from_dict(G, {1: 1.0})))
        assert out.a.tolist() == [-1.0, 3.0, -1.0, -1.0]

    def test_two_routes_agree(self):
        # div grad f = d (I - P) f on a d-regular graph
        G = cycle_graph(4)
        rng = np.random.default_rng(5)
        f = VertexField(G, rng.normal(size=4))
        via_p = f.a - G.adjacency_matrix().dot(f.a) / 2
        via_div = divergence(gradient(f)).a / 2
        assert np.abs(via_p - via_div).max() <= 1e-14

    def test_requires_regular(self):
        with pytest.raises(InvalidInput, match="regular graph"):
            path_graph(4).require_regular()

    def test_zero_gradient_means_constant(self):
        G = rand_graph(11)
        f = VertexField(G, np.full(G.n, 2.5))
        assert np.all(gradient(f).a == 0)
        g = VertexField(G, np.arange(G.n, dtype=float))
        assert np.abs(gradient(g).a).max() > 0


class TestDistribution:
    @pytest.mark.parametrize("values, match", [
        ([0.5, 0.5, 0.0, 0.0, -0.0], None),
        ([np.nan] * 5, "negative or NaN mass"),
        ([1.0, np.nan, 0.0, 0.0, 0.0], "negative or NaN mass"),
        ([0.5, 0.6, 0.0, 0.0, 0.0], "differs from 1"),
        ([0.5, 0.5, 0.0, 0.0, np.inf], "differs from 1")])
    def test_mass_checks(self, values, match):
        # NaN masses failed neither comparison and passed the check
        G = cycle_graph(5)
        if match is None:
            Distribution(G, values)
        else:
            with pytest.raises(ValueError, match=match):
                Distribution(G, values)


class TestNorms:
    def test_uniform(self):
        G = cycle_graph(10)
        mu = Distribution.uniform(G, range(4))
        assert lp_norm(mu, 1) == 1.0
        assert lp_norm(mu, 0) == 4
        assert lp_norm(mu, np.inf) == 0.25

    def test_sign_invariance_inf(self):
        assert lp_norm(np.array([1.0, -1.0]), np.inf) == 1.0

    def test_invalid_exponent(self):
        with pytest.raises(InvalidInput, match="not in"):
            lp_norm(np.ones(3), 0.5)

    def test_nan_exponent(self):
        # p < 1 is False for NaN, which fell through to a NaN power sum
        g = gradient(VertexField(cycle_graph(8), np.arange(8.0)))
        with pytest.raises(InvalidInput, match="not in"):
            lp_norm(g, np.nan)


class TestSubsetsAndBalls:
    def test_single_vertex_c4(self):
        G = cycle_graph(4)
        F = subset_view(G, [2])
        assert F.boundary_size == 2 and len(F.outer_boundary) == 2

    def test_cube_face(self):
        G = hypercube_graph(3)
        face = [v for v in range(8) if v & 4 == 0]
        F = subset_view(G, face)
        assert F.boundary_size == 4

    def test_full_set(self):
        G = cycle_graph(6)
        F = subset_view(G, range(6))
        assert F.boundary_size == 0 and len(F.outer_boundary) == 0

    def test_ball_growth(self):
        T = regular_tree(3, 4)
        assert ball(T, 0, 0).size == 1
        assert ball(T, 0, 2).size == 10
        sizes = [ball(T, 0, r).size for r in range(4)]
        assert sizes == sorted(sizes)

    @pytest.mark.parametrize("r", [np.nan, 1.5, -1, True])
    def test_ball_radius_must_be_a_count(self, r):
        # NaN gave an empty view and 1.5 acted as 1
        with pytest.raises(ValueError, match="radius must be an integer"):
            ball(cycle_graph(8), 0, r)

    def test_grounded_laplacian_of_a_disconnected_window(self):
        # components {0, 1, 2}, {5, 6} and the isolated vertex 8
        G = cycle_graph(10)
        F = subset_view(G, [0, 1, 2, 5, 6, 8])
        B, labels, keep, L = F.grounded_laplacian()
        assert labels.tolist() == [0, 0, 0, 1, 1, 2]
        assert np.bincount(labels[~keep]).tolist() == [1, 1, 1]
        assert keep.tolist() == [False, True, True, False, True, False]
        full = (B.T @ B).toarray()
        assert B.shape == (len(F.induced_edges), F.size)
        assert full.diagonal().tolist() == [1, 2, 1, 1, 1, 0]
        assert L.format == "csc"
        assert np.array_equal(L.toarray(), full[keep][:, keep])

    def test_boundary_disjoint_from_induced(self):
        G = torus_grid(4, 4)
        F = subset_view(G, range(6))
        assert not set(F.boundary_edges) & set(F.induced_edges)


class TestVertexIndexGate:
    # numpy indexing lets -1 stand for vertex n - 1, and n raises a bare
    # IndexError; every entry point taking a vertex raises ValueError
    @pytest.mark.parametrize("v", [-1, 5])
    @pytest.mark.parametrize("call", [
        lambda G, v: Distribution.dirac(G, v),
        lambda G, v: VertexField.from_dict(G, {v: 2.0}),
        lambda G, v: bfs_distances(G, v),
        lambda G, v: bfs_distances(G, [0, v]),
        lambda G, v: Distribution.uniform(G, [v]),
        lambda G, v: subset_view(G, [v]),
    ], ids=["dirac", "from_dict", "bfs", "bfs_array", "uniform",
            "subset_view"])
    def test_out_of_range_vertex_raises(self, call, v):
        with pytest.raises(ValueError, match="vertex of the graph"):
            call(path_graph(5), v)

    # a cast to int64 searched from vertex 1 for 1.5 and True, and made
    # [0.5, 2.7] the set {0, 2} and [True, 2] the set {1, 2}; dirac and
    # from_dict ended in IndexError
    @pytest.mark.parametrize("call", [
        lambda G: bfs_distances(G, 1.5),
        lambda G: bfs_distances(G, True),
        lambda G: bfs_distances(G, (0, True)),
        lambda G: subset_view(G, [0.5, 2.7]),
        lambda G: subset_view(G, [True, 2]),
        lambda G: Distribution.uniform(G, [1.9]),
        lambda G: Distribution.dirac(G, 1.5),
        lambda G: VertexField.from_dict(G, {1.5: 2.0}),
        lambda G: VertexField.from_dict(G, {2: 1.0, True: 2.0}),
    ], ids=["bfs", "bfs_bool", "bfs_tuple_bool", "subset_view",
            "subset_view_bool", "uniform", "dirac", "from_dict",
            "from_dict_bool"])
    def test_non_integer_vertex_raises(self, call):
        with pytest.raises(ValueError, match="vertices must be integers"):
            call(cycle_graph(8))

    def test_from_dict_matches_item_loop(self):
        # from_dict writes the keys and values as two arrays; the reference
        # assigns item by item, with numpy keys and values among them
        G = cycle_graph(50)
        rng = np.random.default_rng(2)
        keys = rng.permutation(50)[:30]
        mapping = dict(zip(map(int, keys[:10]), rng.normal(size=10)))
        mapping.update(zip(keys[10:20],
                           rng.normal(size=10).astype(np.float32)))
        mapping.update(zip(map(int, keys[20:]),
                           map(int, rng.integers(-5, 5, 10))))
        ref = np.zeros(50)
        for v, x in mapping.items():
            ref[v] = x
        assert np.array_equal(VertexField.from_dict(G, mapping).a, ref)

    def test_no_vertices_is_valid(self):
        G = cycle_graph(8)
        assert subset_view(G, []).size == 0
        assert np.all(bfs_distances(G, []) == -1)

    def test_uniform_on_distinct_vertices(self):
        G = path_graph(5)
        mu = Distribution.uniform(G, [0, 0, 1])
        assert mu.a.tolist() == [0.5, 0.5, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="no vertices"):
            Distribution.uniform(G, [])

    def test_subset_view_of_a_view(self):
        G = path_graph(5)
        F = subset_view(G, [1, 2])
        assert subset_view(G, F) is F
        with pytest.raises(ValueError, match="another graph"):
            subset_view(path_graph(5), F)


class TestConstruction:
    def test_orientation_enforced(self):
        with pytest.raises(ValueError):
            OrientedGraph(3, [(1, 0)])
        with pytest.raises(ValueError):
            OrientedGraph(3, [(0, 1), (0, 1)])
        with pytest.raises(ValueError):
            OrientedGraph(3, [(1, 1)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="edge endpoint out of range"):
            OrientedGraph(3, [[0, 3]])

    def test_direct_solve_refuses_a_non_finite_solution(self):
        # the pivot is not zero, but x = 1e310 overflows
        with pytest.raises(NumericalFailure, match="non-finite solution"):
            direct_solve(sp.csr_matrix([[1e-300]]), [1e10])

    # an odd degree sum or d >= n was networkx's NetworkXError, which is
    # not a ValueError
    @pytest.mark.parametrize("d, n", [(3, 5), (4, 4), (-1, 4)])
    def test_random_regular_needs_a_possible_size(self, d, n):
        with pytest.raises(ValueError, match=f"no {d}-regular graph on {n}"):
            random_regular_graph(d, n, 1)

    def test_json_round_trip(self, tmp_path):
        G = random_regular_graph(3, 10, seed=4)
        path = tmp_path / "g.json"
        save_graph(G, path)
        H = load_graph(path)
        assert H.n == G.n
        assert np.array_equal(H.tails, G.tails)
        assert np.array_equal(H.heads, G.heads)

    def test_loader_rejects_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": 3, "edges": [[2, 1]]}))
        with pytest.raises(InvalidInput, match="canonically oriented"):
            load_graph(path)

    def test_bfs_distances(self):
        G = cycle_graph(6)
        d = bfs_distances(G, 0)
        assert list(d) == [0, 1, 2, 3, 2, 1]


def check_edge_ids(G):
    """OrientedGraph.edge_ids against a {(tail, head): id} dict, on every
    pair of vertices in both orientations (self pairs included), on
    scalars and on endpoints outside 0..n-1."""
    index = {(x, y): i for i, (x, y) in enumerate(
        zip(G.tails.tolist(), G.heads.tolist()))}
    x, y = np.divmod(np.arange(G.n * G.n), G.n)
    want = [index.get((min(a, b), max(a, b)), -1)
            for a, b in zip(x.tolist(), y.tolist())]
    assert G.edge_ids(x, y).tolist() == want
    assert G.edge_ids(y, x).tolist() == want
    for a, b in [(0, 1), (1, 0), (0, G.n - 1), (G.n - 1, 0), (0, 0)]:
        e = G.edge_ids(a, b)
        assert e.shape == () and e == index.get((min(a, b), max(a, b)), -1)
    n = G.n
    for a, b in [(-1, 0), (0, -1), (-1, -1), (0, n), (n, 0), (n, n),
                 (0, n + 5), (n - 1, n), (-1, n)]:
        assert G.edge_ids(a, b) == -1, (a, b)


class TestEdgeIds:
    def test_cycle(self):
        # the closing edge (0, n - 1) comes last, out of key order
        G = cycle_graph(9)
        assert G.tails[-1] == 0 and G.heads[-1] == 8
        check_edge_ids(G)

    def test_json_graph_with_shuffled_edges(self, tmp_path):
        obj = json.loads((FIXTURES / "random_regular_3_14.json").read_text())
        rng = np.random.default_rng(5)
        obj["edges"] = [obj["edges"][i]
                        for i in rng.permutation(len(obj["edges"]))]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(obj))
        G = load_graph(path)
        keys = G.tails * G.n + G.heads
        assert np.any(keys[1:] < keys[:-1])
        check_edge_ids(G)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_graphs(self, seed):
        G = rand_graph(seed)
        check_edge_ids(G)
        # the same graph with its edges in random order
        order = np.random.default_rng(seed).permutation(G.m)
        check_edge_ids(OrientedGraph(G.n, np.column_stack(
            [G.tails[order], G.heads[order]])))

    def test_keys_of_outside_endpoints_do_not_alias(self):
        # the key of (0, n + 5) is the key of the edge (1, 5)
        G = complete_graph(6)
        assert G.edge_ids(1, 5) >= 0
        assert G.edge_ids(0, 11) == -1 and G.edge_ids(11, 0) == -1

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_edgeless_graph(self, n):
        G = OrientedGraph(n, [])
        x, y = np.divmod(np.arange(n * n), max(n, 1))
        assert np.all(G.edge_ids(x, y) == -1)
        assert G.edge_ids(0, 1) == -1 and G.edge_ids(0, n + 5) == -1

    def test_edge_field_lookups(self):
        # an edge field stores the flow from the lesser endpoint, so the
        # unit flow x -> y is +1 at edge_ids(x, y) when x < y, else -1
        G = cycle_graph(5)
        for x, y in [(0, 1), (1, 0), (0, 4), (4, 0), (3, 2)]:
            g = EdgeField(G)
            g.a[G.edge_ids(x, y)] = 1.0 if x < y else -1.0
            d = divergence(g)
            assert d[x] == -1.0 and d[y] == 1.0
            assert np.count_nonzero(d.a) == 2


def frontier_bfs(n, edges, sources):
    """Reference BFS: expand one frontier level at a time, vertex by
    vertex."""
    adj = [[] for _ in range(n)]
    for x, y in edges:
        adj[x].append(y)
        adj[y].append(x)
    dist = [-1] * n
    frontier = sorted(set(sources))
    for s in frontier:
        dist[s] = 0
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


@st.composite
def graph_with_sources(draw):
    """Sparse random graphs, often disconnected, with 1-4 sources."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=2 * n))
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    return n, edges, sources


class TestBfsAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(graph_with_sources())
    def test_matches_frontier_bfs(self, case):
        n, edges, sources = case
        G = OrientedGraph(n, edges)
        for src in (sources[0], sources):
            d = bfs_distances(G, src)
            assert d.dtype == np.int64
            assert d.tolist() == frontier_bfs(n, edges, np.atleast_1d(src))

    def test_disconnected_marks_unreachable(self):
        G = OrientedGraph(5, [(0, 1), (2, 3)])
        assert bfs_distances(G, 0).tolist() == [0, 1, -1, -1, -1]
        assert bfs_distances(G, [0, 3]).tolist() == [0, 1, 1, 0, -1]


# -- the builtin families against per-vertex loop builders -----------------


def loop_cycle(n):
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def loop_path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def loop_complete(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def loop_hypercube(d):
    n = 1 << d
    return n, [(v, v ^ (1 << b)) for v in range(n) for b in range(d)
               if v < v ^ (1 << b)]


def loop_torus(w, h):
    if w < 3 or h < 3:
        raise ValueError("torus grid needs both sides >= 3")
    e = set()
    for i in range(w):
        for j in range(h):
            for ni, nj in ((i + 1, j), (i, j + 1)):
                a, b = i * h + j, (ni % w) * h + nj % h
                e.add((min(a, b), max(a, b)))
    return w * h, sorted(e)


def loop_tree(d, depth):
    edges, nxt, frontier = [], 1, [0]
    for level in range(depth):
        newf = []
        for v in frontier:
            for _ in range(d if level == 0 else d - 1):
                edges.append((v, nxt))
                newf.append(nxt)
                nxt += 1
        frontier = newf
    return nxt, edges


FAMILY_CASES = (
    [(regular_tree, loop_tree, (d, depth)) for d in (-1, 0, 1, 2, 3, 4)
     for depth in (-1, 0, 1, 2, 5)]
    + [(f, g, (n,)) for f, g in ((path_graph, loop_path),
                                 (complete_graph, loop_complete))
       for n in (-1, 0, 1, 2, 3, 7)]
    + [(cycle_graph, loop_cycle, (n,)) for n in (-1, 2, 3, 4, 9)]
    + [(hypercube_graph, loop_hypercube, (d,)) for d in (-1, 0, 1, 4)]
    + [(torus_grid, loop_torus, (w, h)) for w in (2, 3, 4, 7)
       for h in (2, 3, 4, 7)])


class TestFamiliesAgainstLoops:
    @pytest.mark.parametrize("family, loop, args", FAMILY_CASES,
                             ids=lambda x: getattr(x, "__name__", str(x)))
    def test_same_graph(self, family, loop, args):
        try:
            n, edges = loop(*args)
            want = OrientedGraph(n, edges)
        except Exception as exc:
            with pytest.raises(type(exc)):
                family(*args)
            return
        G = family(*args)
        assert G.n == want.n
        assert G.tails.dtype == G.heads.dtype == np.int64
        assert np.array_equal(G.tails, want.tails)
        assert np.array_equal(G.heads, want.heads)

    @pytest.mark.parametrize("family, args, n", [
        (regular_tree, (3, 8), 766), (regular_tree, (2, 10 ** 12), None),
        (torus_grid, (20, 21), 420), (complete_graph, (401,), 401),
        (cycle_graph, (401,), 401), (hypercube_graph, (9,), 512),
        (hypercube_graph, (10 ** 12,), None)])
    def test_cap(self, family, args, n):
        # raised from the vertex count, before any array is allocated
        with pytest.raises(BudgetExceeded, match="exceeds cap"):
            family(*args, cap=400)
        if n is not None:
            assert family(*args, cap=n).n == n
            with pytest.raises(BudgetExceeded, match="exceeds cap"):
                family(*args, cap=n - 1)


def with_symmetries(G, *symmetries):
    """G's edges with the given symmetries in place of its own."""
    return OrientedGraph(G.n, np.column_stack([G.tails, G.heads]),
                         symmetries=symmetries)


class TestSymmetries:
    @pytest.mark.parametrize("G", [
        cycle_graph(3), cycle_graph(26), torus_grid(3, 3), torus_grid(6, 4),
        torus_grid(5, 7), hypercube_graph(1), hypercube_graph(5),
        complete_graph(1), complete_graph(8)], ids=repr)
    def test_transitive_families(self, G):
        assert G.is_vertex_transitive
        assert not with_symmetries(G).is_vertex_transitive

    def test_other_graphs_carry_none(self):
        for G in (path_graph(5), regular_tree(3, 3),
                  random_regular_graph(3, 12, seed=0),
                  load_graph(FIXTURES / "random_regular_3_14.json"),
                  cayley_ball(build_group("zd:2"), 3).graph):
            assert G.symmetries == () and not G.is_vertex_transitive

    def test_non_automorphism_refused(self):
        # swapping 0 and 1 on C6 maps the edge (1, 2) to (0, 2)
        C = cycle_graph(6)
        assert not with_symmetries(C, *C.symmetries,
                                   [1, 0, 2, 3, 4, 5]).is_vertex_transitive

    @pytest.mark.parametrize("g", [
        [1, 2, 3, 4, 5, 5], [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5],
        [1.0, 2.0, 3.0, 4.0, 5.0, 0.0], [[1, 2, 3], [4, 5, 0]]])
    def test_non_permutation_refused(self, g):
        assert not with_symmetries(cycle_graph(6), g).is_vertex_transitive

    def test_intransitive_generators_refused(self):
        # one translation of the 4 x 4 torus moves 0 only to 4, 8 and 12;
        # the reflection j -> -j of C6 fixes 0
        T = torus_grid(4, 4)
        assert not with_symmetries(T, T.symmetries[0]).is_vertex_transitive
        assert not with_symmetries(cycle_graph(6),
                                   -np.arange(6) % 6).is_vertex_transitive


def reference_adjacency(n, tails, heads):
    """Degrees by np.add.at and the CSR arrays of (neighbour, edge, sign)
    by one stable argsort of the edge ends, sign +1 where the vertex is the
    tail."""
    deg = np.zeros(n, dtype=np.int64)
    np.add.at(deg, tails, 1)
    np.add.at(deg, heads, 1)
    m = len(tails)
    order = np.argsort(np.concatenate([tails, heads]), kind="stable")
    return (deg, np.concatenate([heads, tails])[order],
            np.concatenate([np.arange(m), np.arange(m)])[order],
            np.concatenate([np.ones(m, dtype=np.int8),
                            -np.ones(m, dtype=np.int8)])[order])


class TestAdjacencyArrays:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_reference(self, seed):
        G = rand_graph(seed)
        order = np.random.default_rng(seed).permutation(G.m)
        H = OrientedGraph(G.n + seed % 3, np.column_stack(
            [G.tails[order], G.heads[order]]))  # isolated vertices at the end
        deg, nbr, edge, sign = reference_adjacency(H.n, H.tails, H.heads)
        assert H.degrees.dtype == np.int64
        assert np.array_equal(H.degrees, deg)
        assert np.array_equal(H._adj_ptr, np.concatenate([[0], np.cumsum(deg)]))
        assert H._adj_nbr.dtype == nbr.dtype
        assert np.array_equal(H._adj_nbr, nbr)
        # the incidence matrix holds -1 at each edge's tail, +1 at its head
        want = np.zeros((H.m, H.n))
        want[edge, np.repeat(np.arange(H.n), deg)] = -sign
        B = H.incidence_matrix()
        assert B.format == "csr" and B.shape == (H.m, H.n)
        assert np.array_equal(B.toarray(), want)
        assert B.has_canonical_format and B.nnz == 2 * H.m

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_incidence_is_the_gradient(self, seed):
        G = rand_graph(seed)
        f = VertexField(G, np.random.default_rng(seed).normal(size=G.n))
        B = G.incidence_matrix()
        assert (B @ f.a).tobytes() == gradient(f).a.tobytes()
        assert G.incidence_matrix() is B  # built once

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_edgeless(self, n):
        G = OrientedGraph(n, [])
        assert G.degrees.tolist() == [0] * n
        assert G._adj_ptr.tolist() == [0] * (n + 1)
        assert len(G._adj_nbr) == 0
        assert G.incidence_matrix().shape == (0, n)


def coo_adjacency(G):
    """The adjacency matrix by scipy's COO -> CSR conversion."""
    return sp.csr_matrix((np.ones(2 * G.m),
                          (np.concatenate([G.tails, G.heads]),
                           np.concatenate([G.heads, G.tails]))),
                         shape=(G.n, G.n))


def assert_same_csr(A, B):
    assert A.format == B.format == "csr" and A.shape == B.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert A.has_canonical_format and B.has_canonical_format


BUILTIN_GRAPHS = [(cycle_graph, (7,)), (path_graph, (6,)),
                  (complete_graph, (5,)), (hypercube_graph, (4,)),
                  (torus_grid, (6, 6)), (regular_tree, (4, 5)),
                  (random_regular_graph, (3, 20, 1))]


class TestAdjacencyMatrix:
    @pytest.mark.parametrize("spec,R", TABLE_CASES)
    def test_cayley_balls(self, spec, R):
        G = cayley_ball(build_group(spec), R).graph
        assert_same_csr(G.adjacency_matrix(), coo_adjacency(G))

    @pytest.mark.parametrize("family,args", BUILTIN_GRAPHS)
    def test_builtin_graphs(self, family, args):
        G = family(*args)
        assert_same_csr(G.adjacency_matrix(), coo_adjacency(G))

    def test_edges_out_of_key_order(self):
        G = OrientedGraph(5, [(2, 3), (0, 4), (1, 3), (0, 2), (3, 4)])
        assert np.any(np.diff(G.tails * G.n + G.heads) < 0)
        assert_same_csr(G.adjacency_matrix(), coo_adjacency(G))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_graphs_in_any_edge_order(self, seed):
        G = rand_graph(seed)
        order = np.random.default_rng(seed).permutation(G.m)
        H = OrientedGraph(G.n + seed % 3, np.column_stack(
            [G.tails[order], G.heads[order]]))
        assert_same_csr(H.adjacency_matrix(), coo_adjacency(H))

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_edgeless(self, n):
        G = OrientedGraph(n, [])
        assert_same_csr(G.adjacency_matrix(), coo_adjacency(G))

    def test_neighbour_array_is_built_on_first_use(self):
        B = cayley_ball(build_group("heisenberg"), 6)
        G = B.graph
        G.adjacency_matrix()
        assert "_adj_nbr" not in G.__dict__
        deg, nbr, _, _ = reference_adjacency(G.n, G.tails, G.heads)
        ptr = np.concatenate([[0], np.cumsum(deg)])
        assert all(np.array_equal(G.neighbors(v), nbr[ptr[v]:ptr[v + 1]])
                   for v in range(G.n))
        assert np.array_equal(bfs_distances(G, 0), B.word_length)


def induced_neighbour_masks(G, verts):
    """Neighbour masks of the graph induced on `verts`, relabelled
    0..len(verts)-1: the construction that reads all of G."""
    sub = subset_view(G, verts).induced_graph()
    ends = np.concatenate([sub.tails, sub.heads])
    return bitmask_rows(sub.n, np.roll(ends, sub.m), ends, sub.n)


class TestNeighbourMasks:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_window_matches_induced_graph(self, seed):
        # 65..200 vertices give rows of two to four words
        rng = np.random.default_rng(seed)
        n = int(rng.integers(65, 201))
        pairs = rng.integers(0, n, size=(int(rng.integers(n, 4 * n)), 2))
        pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1),
                          axis=0)
        G = OrientedGraph(n, pairs)
        for q in (0.0, 0.05, rng.random(), 1.0):
            verts = np.flatnonzero(rng.random(n) < q)
            got = neighbour_masks(G, verts)
            want = induced_neighbour_masks(G, verts)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_whole_graph(self):
        G = torus_grid(9, 9)
        got = neighbour_masks(G, np.arange(G.n))
        for u in range(G.n):
            bits = np.unpackbits(got[u].view(np.uint8), bitorder="little")
            assert np.flatnonzero(bits).tolist() == sorted(
                G.neighbors(u).tolist())
