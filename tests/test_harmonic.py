import warnings

import numpy as np
import pytest

import harmlab.harmonic as H
from harmlab.cayley import build_group, cayley_ball
from harmlab.errors import InvalidInput, NumericalFailure
from harmlab.graphs import (EdgeField, OrientedGraph, VertexField, ball,
                            bfs_distances, cycle_graph, gradient, lp_norm,
                            path_graph, regular_tree, subset_view, torus_grid)
from harmlab.walk import exit_distributions


class TestDirichlet:
    def test_linear_on_segment(self):
        G = path_graph(8)
        A = subset_view(G, range(1, 7))
        f = H.dirichlet_extend(G, A, {0: 0.0, 7: 7.0})
        assert np.abs(f.a - np.arange(8.0)).max() < 1e-10

    def test_region_of_another_graph_raises(self):
        G = cycle_graph(8)
        with pytest.raises(ValueError, match="another graph"):
            H.dirichlet_extend(G, ball(path_graph(8), 3, 1),
                               {2: 0.0, 5: 1.0})

    def test_exit_method_cross_check(self):
        G = torus_grid(6, 6)
        A = ball(G, 0, 2)
        rng = np.random.default_rng(0)
        bv = {int(v): float(rng.normal()) for v in A.outer_boundary}
        f = H.dirichlet_extend(G, A, bv)
        # the boundary data averaged against each vertex's exit law
        laws = exit_distributions(G, A, A.members)
        assert np.abs(f.a[A.members] - [ex.a @ f.a for ex in laws]).max() \
            < 1e-9

    def test_harmonic_inside(self):
        G = torus_grid(7, 7)
        A = ball(G, 10, 2)
        bv = {int(v): float(v % 5) for v in A.outer_boundary}
        f = H.dirichlet_extend(G, A, bv)
        assert H.harmonic_residual(f, A.members) < 1e-10

    def test_maximum_principle(self):
        rng = np.random.default_rng(1)
        B = cayley_ball(build_group("zd:2"), 14)
        G = B.graph
        for trial in range(40):
            i0 = int(rng.integers(0, 5))
            j0 = int(rng.integers(0, 5))
            w = int(rng.integers(2, 4))
            members = [B.vertex_of[(i, j)]
                       for i in range(i0, i0 + w)
                       for j in range(j0, j0 + w)]
            A = subset_view(G, members)
            bv = {int(v): float(rng.normal()) for v in A.outer_boundary}
            f = H.dirichlet_extend(G, A, bv)
            lo, hi = min(bv.values()), max(bv.values())
            inner = f.a[A.members]
            assert inner.min() >= lo - 1e-10
            assert inner.max() <= hi + 1e-10

    def test_whole_component_inside_raises(self):
        # the triangle 0-1-2 is a whole component inside A
        G = OrientedGraph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5),
                              (5, 6)])
        A = subset_view(G, [0, 1, 2, 4])
        bv = {int(v): 1.0 for v in A.outer_boundary}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="singular"):
                H.dirichlet_extend(G, A, bv)

    @pytest.mark.parametrize("k", range(3, 13))
    def test_closed_complete_component_raises(self, k):
        # K_k on 0..k-1 is a whole component inside A, next to the path
        # k - (k+1) - (k+2); the error must not depend on whether SuperLU
        # meets a zero pivot there, which it does for k = 3, 5 and 9 only
        G = OrientedGraph(k + 3, [(x, y) for x in range(k)
                                  for y in range(x + 1, k)]
                          + [(k, k + 1), (k + 1, k + 2)])
        A = subset_view(G, list(range(k)) + [k + 1])
        with pytest.raises(NumericalFailure, match="singular.*vertex 0 "):
            H.dirichlet_extend(G, A, {k: 1.0, k + 2: 3.0})

    def test_missing_boundary_value(self):
        G = cycle_graph(8)
        A = subset_view(G, [0, 1])
        with pytest.raises(ValueError, match=r"missing on \[7\]"):
            H.dirichlet_extend(G, A, {2: 1.0})

    @pytest.mark.parametrize("v", [-1, 8])
    def test_out_of_range_boundary_vertex_raises(self, v):
        # -1 put its value on vertex 7, outside A and its boundary
        G = cycle_graph(8)
        A = subset_view(G, [1, 2, 3])
        with pytest.raises(ValueError, match="vertex of the graph"):
            H.dirichlet_extend(G, A, {0: 1.0, 4: 0.0, v: 7.0})


class TestTruncate:
    def test_clamp(self):
        G = path_graph(5)
        f = VertexField(G, np.array([-3.0, -1.0, 0.0, 1.0, 3.0]))
        t = H.truncate(f, 2.0)
        assert list(t.a) == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_gradient_never_grows(self):
        G = torus_grid(5, 5)
        rng = np.random.default_rng(2)
        for _ in range(20):
            f = VertexField(G, rng.normal(size=G.n) * 3)
            t = H.truncate(f, 1.0)
            assert np.all(np.abs(gradient(t).a)
                          <= np.abs(gradient(f).a) + 1e-15)

    def test_rejects_nonpositive(self):
        G = path_graph(3)
        with pytest.raises(ValueError):
            H.truncate(VertexField(G, np.zeros(3)), 0.0)

    def test_rejects_nan(self):
        # t <= 0 is False for NaN, and clipping at NaN gives an all-NaN field
        G = cycle_graph(8)
        with pytest.raises(ValueError, match="positive"):
            H.truncate(VertexField(G, np.arange(8.0)), np.nan)


class TestDecayProfiles:
    def test_coordinate_function_z2(self):
        B = cayley_ball(build_group("zd:2"), 10)
        f = VertexField(B.graph,
                        np.array([g[0] for g in B.elements], dtype=float))
        assert H.harmonic_residual(f, np.flatnonzero(B.interior)) < 1e-12
        gd = H.gradient_decay(f, 0, n_max=6)
        assert np.all(gd == 1.0)

    def test_gradient_decay_nonincreasing(self):
        B = cayley_ball(build_group("zd:2"), 10)
        rng = np.random.default_rng(3)
        f = VertexField(B.graph, rng.normal(size=B.n))
        gd = H.gradient_decay(f, 0, n_max=7)
        assert np.all(np.diff(gd) <= 1e-15)

    def test_divergence_profile_rows(self):
        B = cayley_ball(build_group("zd:2"), 16)
        rows = H.divergence_profile(B.graph, 0, K=2, n_max=6)
        assert [r["n"] for r in rows] == list(range(1, 7))
        for r in rows:
            n = r["n"]
            # S(n) is the annulus n < |x|_1 <= 2n and S_out its outer
            # sphere; the width-1 annulus is disconnected, wider ones are
            # crossed via the ring |x|_1 = n + 1
            assert r["S_size"] == 2 * n * (3 * n + 1)
            assert r["S_out_size"] == 8 * n
            assert r["D"] == (np.inf if n == 1 else 6 * n + 2)

    # a float n_max was a bare TypeError from range, and K = 2.0 passed a
    # check whose message asked for an integer
    @pytest.mark.parametrize("call, name", [
        (lambda f: H.gradient_decay(f, 0, 1.5), "n_max"),
        (lambda f: H.divergence_profile(f.graph, 0, 2, 1.5), "n_max"),
        (lambda f: H.divergence_profile(f.graph, 0, 2.0, 3), "K"),
        (lambda f: H.divergence_profile(f.graph, 0, 1, 3), "K"),
    ], ids=["decay_float", "divergence_float", "K_float", "K_one"])
    def test_counts_must_be_integers(self, call, name):
        f = VertexField(cycle_graph(8), np.arange(8.0))
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(f)

    def test_gradient_decay_ignores_finite_components(self):
        # rooted at 2, the path 0..10 leaves the branch {0, 1} short of
        # the outermost shell {10}, so its steep edge does not count
        G = path_graph(11)
        f = VertexField(G, np.arange(11.0))
        f.a[0] = 100.0
        gd = H.gradient_decay(f, 2, n_max=3)
        assert gd.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_probe_decay_on_z(self):
        B = cayley_ball(build_group("zd:1"), 40)
        v, w = B.vertex_of[(0,)], B.vertex_of[(1,)]
        out = H.liouville_probe(B.graph, v, v, w, radii=[5, 10, 20, 30])
        for row in out:
            # exit laws of 0 and 1 through [-r, r] differ by 2/(2r+2)
            assert abs(row["l1"] - 2.0 / (2 * row["r"] + 2)) < 1e-10

    def test_probe_monotone_on_tree(self):
        T = regular_tree(4, 8)
        out = H.liouville_probe(T, 0, 0, 1, radii=[3, 4, 5, 6])
        vals = [r["l1"] for r in out]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
        assert vals[-1] > 0.1


def stack_tree_flow(G, root_edge):
    """The depth-first tree flow that the level-by-level `tree_flow`
    replaced."""
    x0, y0 = (int(root_edge[0]), int(root_edge[1]))
    tau = np.zeros(G.m)
    tau[G.edge_ids(x0, y0)] = 1.0 if x0 < y0 else -1.0
    stack = [(y0, x0, 1.0), (x0, y0, -1.0)]
    while stack:
        v, parent, inflow = stack.pop()
        ej = G.edge_ids(v, G.neighbors(v))
        others = [e for e in ej
                  if (int(G.tails[e]) if G.heads[e] == v else int(G.heads[e]))
                  != parent]
        if not others:
            continue
        share = inflow / len(others)
        for e in others:
            u = int(G.tails[e]) if G.heads[e] == v else int(G.heads[e])
            tau[e] += share if int(G.tails[e]) == v else -share
            stack.append((u, v, share))
    return tau


class TestTreeFlow:
    def test_matches_stack_flow(self):
        # random trees with shuffled labels and edge lists, both
        # orientations of a random root edge, equal to the last bit
        rng = np.random.default_rng(5)
        for _ in range(150):
            n = int(rng.integers(2, 60))
            label = rng.permutation(n)
            pairs = [sorted((label[v], label[rng.integers(0, v)]))
                     for v in range(1, n)]
            T = OrientedGraph(n, rng.permutation(np.array(pairs)))
            x, y = int(T.tails[0]), int(T.heads[0])
            for root_edge in ((x, y), (y, x)):
                got, want = H.tree_flow(T, root_edge).a, stack_tree_flow(
                    T, root_edge)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_divergence_free_inside(self):
        T = regular_tree(3, 6)
        tau = H.tree_flow(T, (0, 1))
        from harmlab.graphs import EdgeField, divergence
        div = divergence(EdgeField(T, tau.a))
        dist = np.minimum(bfs_distances(T, 0), bfs_distances(T, 1))
        interior = dist < 5
        assert np.abs(div.a[interior]).max() < 1e-12

    def test_level_sums_closed_form(self):
        d = 3
        T = regular_tree(d, 8)
        tau = H.tree_flow(T, (0, 1))
        for p in (1.5, 2.0, 3.0):
            sums = H.tree_flow_level_sums(T, (0, 1), tau, p)
            assert abs(sums[0] - 1.0) < 1e-12
            for k in range(1, 8):
                want = 2.0 * (d - 1.0) ** ((1 - p) * k)
                assert abs(sums[k] - want) < 1e-12

    def test_level_sums_match_edge_loop(self):
        # the per-edge loop that bincount replaced, to the last bit, on
        # random trees with shuffled edge lists and on a forest, whose
        # unreachable edges form level -1.  The loop took each |tau|^p as
        # a scalar power, which may differ from numpy's array power in the
        # last bit (at p = 2 too), so both add the array's terms here
        rng = np.random.default_rng(7)
        for trial in range(60):
            n = int(rng.integers(2, 60))
            pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
            if trial % 10 == 0:
                pairs += [(n, n + 1), (n + 1, n + 2)]
            T = OrientedGraph(n + 3, rng.permutation(np.array(pairs)))
            tau = EdgeField(T, rng.normal(size=T.m))
            x, y = int(T.tails[0]), int(T.heads[0])
            for p in (1.5, 2.0, 3.0):
                dist = np.minimum(bfs_distances(T, x), bfs_distances(T, y))
                level = np.maximum(dist[T.tails], dist[T.heads])
                terms = np.abs(tau.a) ** p
                want = {}
                for e in range(T.m):
                    want.setdefault(int(level[e]), 0.0)
                    want[int(level[e])] += terms[e]
                got = H.tree_flow_level_sums(T, (x, y), tau, p)
                assert list(got) == sorted(want)
                assert all(got[k] == want[k] for k in want)

    def test_not_a_tree(self):
        with pytest.raises(InvalidInput, match="connected tree"):
            H.tree_flow(cycle_graph(5), (0, 1))

    def test_root_pair_must_be_an_edge(self):
        # 1 and 2 are both children of the root
        with pytest.raises(ValueError, match="not an edge"):
            H.tree_flow(regular_tree(3, 3), (1, 2))


class TestWitnesses:
    def test_c0_ratio(self):
        B = cayley_ball(build_group("zd:2"), 12)
        for n in (3, 6, 10):
            f, ratio = H.laplacian_witness(B, "c0", n)
            assert ratio <= 1.0 / (n + 1) + 1e-12
            assert abs(f.a.max() - 1.0) < 1e-12

    def test_c0_needs_room(self):
        B = cayley_ball(build_group("zd:1"), 4)
        with pytest.raises(InvalidInput, match="too small"):
            H.laplacian_witness(B, "c0", 5)

    # -1 gave NaN after two RuntimeWarnings and 1.5 a ratio of 0.4; the l1
    # branch named n + 1 in its message
    @pytest.mark.parametrize("kind, n", [("c0", -1), ("c0", 1.5),
                                         ("l1", 1.5), ("l1", True)])
    def test_n_must_be_a_count(self, kind, n):
        B = cayley_ball(build_group("zd:2"), 6)
        with pytest.raises(ValueError, match=rf"^n must be an integer >= 0, "
                                             rf"not {n}$"):
            H.laplacian_witness(B, kind, n)

    def test_l1_ratio(self):
        B = cayley_ball(build_group("zd:2"), 30)
        for n in (5, 12, 25):
            g, resid = H.laplacian_witness(B, "l1", n)
            assert resid <= 2.0 / (n + 1) + 1e-12
            assert abs(g.a.sum() - 1.0) < 1e-12
