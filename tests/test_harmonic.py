import warnings

import numpy as np
import pytest

import harmlab.harmonic as H
from harmlab.cayley import build_group, cayley_ball
from harmlab.errors import NotATree, SingularSystem, SupportHitsBoundary
from harmlab.graphs import (OrientedGraph, VertexField, ball, bfs_distances,
                            cycle_graph, gradient, lp_norm, path_graph,
                            regular_tree, subset_view, torus_grid)


class TestDirichlet:
    def test_linear_on_segment(self):
        G = path_graph(8)
        A = subset_view(G, range(1, 7))
        f = H.dirichlet_extend(G, A, {0: 0.0, 7: 7.0})
        assert np.abs(f.a - np.arange(8.0)).max() < 1e-10

    def test_exit_method_cross_check(self):
        G = torus_grid(6, 6)
        A = ball(G, 0, 2)
        rng = np.random.default_rng(0)
        bv = {int(v): float(rng.normal()) for v in A.outer_boundary}
        f1 = H.dirichlet_extend(G, A, bv)
        f2 = H.dirichlet_extend(G, A, bv, method="exit")
        assert np.abs(f1.a - f2.a).max() < 1e-9

    def test_unknown_method_raises(self):
        G = path_graph(8)
        A = subset_view(G, range(1, 7))
        with pytest.raises(ValueError, match="method"):
            H.dirichlet_extend(G, A, {0: 0.0, 7: 7.0}, method="exitt")

    def test_harmonic_inside(self):
        G = torus_grid(7, 7)
        A = ball(G, 10, 2)
        bv = {int(v): float(v % 5) for v in A.outer_boundary}
        f = H.dirichlet_extend(G, A, bv)
        assert H.harmonic_residual(f, G, A.members) < 1e-10

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
            with pytest.raises(SingularSystem):
                H.dirichlet_extend(G, A, bv)

    def test_missing_boundary_value(self):
        G = cycle_graph(8)
        A = subset_view(G, [0, 1])
        with pytest.raises(ValueError):
            H.dirichlet_extend(G, A, {2: 1.0})


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


class TestDecayProfiles:
    def test_coordinate_function_z2(self):
        B = cayley_ball(build_group("zd:2"), 10)
        f = VertexField(B.graph,
                        np.array([g[0] for g in B.elements], dtype=float))
        assert H.harmonic_residual(
            f, B.graph, np.flatnonzero(B.interior)) < 1e-12
        gd = H.gradient_decay(f, B.graph, 0, n_max=6)
        assert np.all(gd == 1.0)

    def test_gradient_decay_nonincreasing(self):
        B = cayley_ball(build_group("zd:2"), 10)
        rng = np.random.default_rng(3)
        f = VertexField(B.graph, rng.normal(size=B.n))
        gd = H.gradient_decay(f, B.graph, 0, n_max=7)
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

    def test_gradient_decay_ignores_finite_components(self):
        # rooted at 2, the path 0..10 leaves the branch {0, 1} short of
        # the outermost shell {10}, so its steep edge does not count
        G = path_graph(11)
        f = VertexField(G, np.arange(11.0))
        f.a[0] = 100.0
        gd = H.gradient_decay(f, G, 2, n_max=3)
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


class TestTreeFlow:
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

    def test_not_a_tree(self):
        with pytest.raises(NotATree):
            H.tree_flow(cycle_graph(5), (0, 1))


class TestWitnesses:
    def test_c0_ratio(self):
        B = cayley_ball(build_group("zd:2"), 12)
        for n in (3, 6, 10):
            f, ratio = H.laplacian_witness(B, "c0", n)
            assert ratio <= 1.0 / (n + 1) + 1e-12
            assert abs(f.a.max() - 1.0) < 1e-12

    def test_c0_needs_room(self):
        B = cayley_ball(build_group("zd:1"), 4)
        with pytest.raises(SupportHitsBoundary):
            H.laplacian_witness(B, "c0", 5)

    def test_l1_ratio(self):
        B = cayley_ball(build_group("zd:2"), 30)
        for n in (5, 12, 25):
            g, resid = H.laplacian_witness(B, "l1", n,
                                           center=B.identity_vertex)
            assert resid <= 2.0 / (n + 1) + 1e-12
            assert abs(g.a.sum() - 1.0) < 1e-12
