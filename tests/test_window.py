from collections import deque

import numpy as np
import pytest

import harmlab.window as WD
from harmlab.cayley import build_group, cayley_ball
from harmlab.errors import BudgetExceeded
from harmlab.graphs import (OrientedGraph, cycle_graph, hypercube_graph,
                            subset_view, torus_grid)


def square_members(B, n):
    return [B.vertex_of[(i, j)] for i in range(n) for j in range(n)]


@pytest.fixture(scope="module")
def z2ball():
    return cayley_ball(build_group("zd:2"), 17)


class TestSpaces:
    def test_c4_full_window(self):
        G = cycle_graph(4)
        ws = WD.build_window(G, range(4))
        assert len(ws.edge_ids) == 4
        assert ws.dim_cut == 3
        assert ws.dim_cycle == 1
        assert ws.basis().shape[1] == 4

    def test_cut_cycle_orthogonal(self):
        B = cayley_ball(build_group("zd:2"), 8)
        ws = WD.build_window(B.graph, square_members(B, 3))
        gram = ws.cut.T @ ws.cycles
        assert np.abs(gram).max() < 1e-12

    def test_cycle_dimension_formula(self):
        # dim = |E_F^int| - |F| + #components of the induced graph
        B = cayley_ball(build_group("zd:2"), 9)
        for n in (2, 3, 4):
            F = subset_view(B.graph, square_members(B, n))
            ws = WD.build_window(B.graph, F)
            want = len(F.induced_edges) - F.size + ws.n_components
            assert ws.dim_cycle == want

    def test_tree_window_has_no_cycles(self):
        from harmlab.graphs import regular_tree
        G = regular_tree(3, 3)
        ws = WD.build_window(G, range(10))
        assert ws.dim_cycle == 0

    def test_codim_is_boundary_minus_components(self):
        # rank of cut = |F| - 0 here (boundary edges separate the Diracs),
        # so codim of V_F in l^2(E_F) is |bd F| - 1 on connected windows
        B = cayley_ball(build_group("zd:2"), 9)
        for n in (2, 3, 4):
            F = subset_view(B.graph, square_members(B, n))
            ws = WD.build_window(B.graph, F)
            dimV = ws.basis().shape[1]
            assert len(ws.edge_ids) - dimV == F.boundary_size - 1


def deque_forest(sub):
    """The Python breadth-first forest that `_spanning_forest` replaced:
    (parent, parent edge, #components)."""
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
            ej = sub.edge_ids(v, sub.neighbors(v))
            for e in ej:
                u = int(sub.tails[e]) if sub.heads[e] == v else int(sub.heads[e])
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    pedge[u] = e
                    queue.append(u)
    return parent, pedge, ncomp


def shuffled_graph(rng):
    """A random graph, often disconnected, whose edge list is in random
    order, so that adjacency order is not neighbour order."""
    n = int(rng.integers(1, 40))
    pairs = np.array([(x, y) for x in range(n) for y in range(x + 1, n)
                      if rng.random() < 3.0 / n], dtype=np.int64)
    return OrientedGraph(n, rng.permutation(pairs.reshape(-1, 2)))


class TestExactCounts:
    def test_forest_matches_deque_search(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            G = shuffled_graph(rng)
            parent, pedge, labels = WD._spanning_forest(G)
            want = deque_forest(G)
            assert np.array_equal(parent, want[0])
            assert np.array_equal(pedge, want[1])
            assert len(np.unique(labels)) == want[2]

    @staticmethod
    def check_against_ranks(ws):
        # the rank decisions that the counts replaced
        tol = WD.RANK_TOL
        assert ws.dim_cut == np.linalg.matrix_rank(ws.cut, tol=tol)
        assert ws.dim_cycle == (np.linalg.matrix_rank(ws.cycles, tol=tol)
                                if ws.cycles.shape[1] else 0)
        u, s, _ = np.linalg.svd(np.hstack([ws.cut, ws.cycles]),
                                full_matrices=False)
        keep = s > tol * max(1.0, s[0] if len(s) else 1.0)
        assert np.array_equal(ws.basis(), u[:, keep])

    def test_counts_match_ranks_on_random_windows(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            G = shuffled_graph(rng)
            F = np.flatnonzero(rng.random(G.n) < rng.random())
            self.check_against_ranks(WD.build_window(G, F))

    def test_whole_component_and_empty_window(self):
        # C5 and a path 5-6-7: the cycle is a window that no boundary edge
        # leaves, so one constant lies in the kernel of the gradient
        G = OrientedGraph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                              (5, 6), (6, 7)])
        cases = [(range(5), 4, 1), (range(6), 5, 1), (range(8), 6, 1),
                 ([0, 1, 5, 6], 4, 0), ([], 0, 0)]
        for F, dim_cut, dim_cycle in cases:
            ws = WD.build_window(G, F)
            self.check_against_ranks(ws)
            assert (ws.dim_cut, ws.dim_cycle) == (dim_cut, dim_cycle)
        empty = WD.build_window(G, [])
        assert empty.basis().shape == (0, 0) and empty.n_components == 0

    def test_square_windows_match_ranks(self, z2ball):
        for n in (2, 3, 5, 8):
            ws = WD.build_window(z2ball.graph, square_members(z2ball, n))
            self.check_against_ranks(ws)


class TestProjectionStats:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_square_stats(self, z2ball, n):
        F = subset_view(z2ball.graph, square_members(z2ball, n))
        out = WD.window_projection_stats(z2ball, F, "s1")
        assert out["codim"] == out["boundary_minus_one"] == 4 * n - 1
        assert len(out["diag"]) == n * n
        assert out["max_diag"] >= out["bound"] - 1e-9
        assert abs(out["trace"] - out["dim_Vprime"]) < 1e-8
        assert 0.0 <= out["small_diag_fraction"] <= 1.0

    def test_one_svd_matches_two(self):
        # reference: the two-SVD projection, which orthonormalises
        # W = B @ null again and cuts it at RANK_TOL relative to its
        # largest singular value
        B = cayley_ball(build_group("zd:2"), 42)
        for n in range(1, 21):
            F = subset_view(B.graph, square_members(B, n))
            for label in ("s1", "s2"):
                out = WD.window_projection_stats(B, F, label)
                ws = out["window"]
                basis = ws.basis()
                targets = B.translation_table(B.group.gen(label))[F.members]
                s_rows = np.searchsorted(
                    ws.edge_ids, B.graph.edge_ids(F.members, targets))
                other = np.setdiff1d(np.arange(len(ws.edge_ids)), s_rows)
                _, sv, Vt = np.linalg.svd(basis[other], full_matrices=True)
                W = basis @ Vt[np.sum(sv > WD.RANK_TOL):].T
                Q = W
                if W.shape[1]:
                    u, sv2, _ = np.linalg.svd(W, full_matrices=False)
                    Q = u[:, sv2 > WD.RANK_TOL * max(1.0, sv2[0])]
                diag = (Q ** 2).sum(axis=1)
                assert out["dim_Vprime"] == Q.shape[1]
                assert out["codim"] == len(ws.edge_ids) - basis.shape[1]
                assert np.abs(out["diag"] - diag[s_rows]).max() <= 1e-14

    def test_diag_entries_in_unit_interval(self, z2ball):
        F = subset_view(z2ball.graph, square_members(z2ball, 4))
        out = WD.window_projection_stats(z2ball, F, "s2")
        assert out["diag"].min() >= -1e-12
        assert out["diag"].max() <= 1.0 + 1e-12

    def test_budget_guard(self):
        B = cayley_ball(build_group("zd:2"), 92)
        F = subset_view(B.graph, square_members(B, 45))
        with pytest.raises(BudgetExceeded, match="edges >"):
            WD.window_projection_stats(B, F, "s1")

    def test_budget_is_checked_before_the_dense_build(self, monkeypatch):
        B = cayley_ball(build_group("zd:2"), 88)
        F = subset_view(B.graph, square_members(B, 45))

        def no_build(*args):
            raise AssertionError("dense window built past the budget")

        monkeypatch.setattr(WD, "build_window", no_build)
        with pytest.raises(BudgetExceeded, match="edges >"):
            WD.window_projection_stats(B, F, "s1")
