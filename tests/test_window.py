import numpy as np
import pytest

import harmlab.window as WD
from harmlab.cayley import build_group, cayley_ball
from harmlab.errors import DenseBudgetExceeded
from harmlab.graphs import (cycle_graph, hypercube_graph, subset_view,
                            torus_grid)


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

    def test_diag_entries_in_unit_interval(self, z2ball):
        F = subset_view(z2ball.graph, square_members(z2ball, 4))
        out = WD.window_projection_stats(z2ball, F, "s2")
        assert out["diag"].min() >= -1e-12
        assert out["diag"].max() <= 1.0 + 1e-12

    def test_budget_guard(self):
        B = cayley_ball(build_group("zd:2"), 92)
        F = subset_view(B.graph, square_members(B, 45))
        with pytest.raises(DenseBudgetExceeded):
            WD.window_projection_stats(B, F, "s1")

    def test_budget_is_checked_before_the_dense_build(self, monkeypatch):
        B = cayley_ball(build_group("zd:2"), 88)
        F = subset_view(B.graph, square_members(B, 45))

        def no_build(*args):
            raise AssertionError("dense window built past the budget")

        monkeypatch.setattr(WD, "build_window", no_build)
        with pytest.raises(DenseBudgetExceeded):
            WD.window_projection_stats(B, F, "s1")
