import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.sparse.csgraph import connected_components

import harmlab.window as WD
from harmlab.cayley import build_group, cayley_ball
from harmlab.errors import BudgetExceeded, InvalidInput
from harmlab.graphs import (OrientedGraph, cycle_graph, regular_tree,
                            subset_view)


def square_members(B, n, m=None, i0=0, j0=0):
    return [B.vertex_of[(i0 + i, j0 + j)] for i in range(n)
            for j in range(n if m is None else m)]


@pytest.fixture(scope="module")
def z2ball():
    return cayley_ball(build_group("zd:2"), 17)


# -- the dense reference: V_F itself, from a cut block and a cycle basis ---


def reference_basis(G, F):
    """(E_F, orthonormal basis of V_F): the gradients of the Diracs on F
    and null(B_I^T), the cycles of the induced graph, by one SVD cut at
    RANK_TOL relative to the largest singular value."""
    F = subset_view(G, F)
    E = np.sort(np.concatenate([F.induced_edges, F.boundary_edges]))
    cut = G.incidence_matrix()[E][:, F.members].toarray()
    induced = np.isin(E, F.induced_edges)
    cycles = np.zeros((len(E), 0))
    if induced.any():
        C = null_space(cut[induced].T)
        cycles = np.zeros((len(E), C.shape[1]))
        cycles[induced] = C
    u, s, _ = np.linalg.svd(np.hstack([cut, cycles]), full_matrices=False)
    return E, u[:, s > WD.RANK_TOL * max(1.0, s[0] if len(s) else 1.0)]


def reference_stats(ball, F, label):
    """(codim, dim V', diag on the label edges, trace) by the two-SVD
    projection: V' from the basis' null space on the other rows, then
    orthonormalised again."""
    G = ball.graph
    F = subset_view(G, F)
    E, basis = reference_basis(G, F)
    targets = ball.translation_table(ball.group.gen(label))[F.members]
    s_rows = np.searchsorted(E, G.edge_ids(F.members, targets))
    other = np.setdiff1d(np.arange(len(E)), s_rows)
    _, sv, Vt = np.linalg.svd(basis[other], full_matrices=True)
    Q = basis @ Vt[np.sum(sv > WD.RANK_TOL):].T
    if Q.shape[1]:
        u, sv2, _ = np.linalg.svd(Q, full_matrices=False)
        Q = u[:, sv2 > WD.RANK_TOL * max(1.0, sv2[0])]
    diag = (Q ** 2).sum(axis=1)
    return len(E) - basis.shape[1], Q.shape[1], diag[s_rows], diag.sum()


def check_against_reference(ball, F, label):
    out = WD.window_projection_stats(ball, F, label)
    codim, dim_vprime, diag, trace = reference_stats(ball, F, label)
    assert (out["codim"], out["dim_Vprime"]) == (codim, dim_vprime)
    assert len(out["diag"]) == len(diag)
    assert np.abs(out["diag"] - diag).max(initial=0.0) <= 1e-12
    assert abs(out["trace"] - trace) <= 1e-12


def check_complement(G, F):
    """The complement is orthonormal, orthogonal to the reference V_F and
    fills l^2(E_F) with it."""
    E, Q = WD.complement_basis(G, F)
    E_ref, basis = reference_basis(G, F)
    assert np.array_equal(E, E_ref)
    assert Q.shape[1] == len(E) - basis.shape[1]
    assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max(initial=0.0) < 1e-12
    assert np.abs(Q.T @ basis).max(initial=0.0) < 1e-12
    return E, Q


# -- the complement of V_F on graphs ----------------------------------------


class TestSpaces:
    def test_c4_full_window(self):
        # three Dirac gradients and the cycle fill all four edges
        E, Q = check_complement(cycle_graph(4), range(4))
        assert len(E) == 4 and Q.shape == (4, 0)

    def test_cut_cycle_orthogonal(self):
        B = cayley_ball(build_group("zd:2"), 8)
        F = subset_view(B.graph, square_members(B, 3))
        E, Q = WD.complement_basis(B.graph, F)
        cut = B.graph.incidence_matrix()[E][:, F.members].toarray()
        induced = np.isin(E, F.induced_edges)
        cycles = null_space(cut[induced].T)
        assert np.abs(Q.T @ cut).max() < 1e-12
        assert np.abs(Q[induced].T @ cycles).max() < 1e-12

    def test_cycle_dimension_formula(self):
        # codim = |E_F| - dim cut - dim cycle, dim cut = |F| when every
        # component is left by a boundary edge, and dim cycle = |I| - |F|
        # + c; two disjoint squares make c = 2
        B = cayley_ball(build_group("zd:2"), 9)
        for members in (square_members(B, 2), square_members(B, 4),
                        square_members(B, 2) + square_members(B, 3, 2, 4)):
            F = subset_view(B.graph, members)
            E, Q = check_complement(B.graph, F)
            c, _ = connected_components(F.induced_graph().adjacency_matrix(),
                                        directed=False)
            nI = len(F.induced_edges)
            assert Q.shape[1] == len(E) - F.size - (nI - F.size + c)

    def test_tree_window_has_no_cycles(self):
        # V_F is the cut space alone: codim |E_F| - |F|
        E, Q = check_complement(regular_tree(3, 3), range(10))
        assert Q.shape[1] == len(E) - 10

    def test_codim_is_boundary_minus_components(self):
        # rank of cut = |F| - 0 here (boundary edges separate the Diracs),
        # so codim of V_F in l^2(E_F) is |bd F| - 1 on connected windows
        B = cayley_ball(build_group("zd:2"), 9)
        for n in (2, 3, 4):
            F = subset_view(B.graph, square_members(B, n))
            _, Q = WD.complement_basis(B.graph, F)
            assert Q.shape[1] == F.boundary_size - 1


def shuffled_graph(rng):
    """A random graph, often disconnected, whose edge list is in random
    order, so that adjacency order is not neighbour order."""
    n = int(rng.integers(1, 40))
    pairs = np.array([(x, y) for x in range(n) for y in range(x + 1, n)
                      if rng.random() < 3.0 / n], dtype=np.int64)
    return OrientedGraph(n, rng.permutation(pairs.reshape(-1, 2)))


class TestExactCounts:
    def test_counts_match_ranks_on_random_windows(self):
        # codim = |bd F| - c + k0: c components of F, k0 of them left by
        # no boundary edge
        rng = np.random.default_rng(13)
        for _ in range(300):
            G = shuffled_graph(rng)
            F = subset_view(G, np.flatnonzero(rng.random(G.n) < rng.random()))
            _, Q = check_complement(G, F)
            sub = F.induced_graph()
            c, labels = connected_components(sub.adjacency_matrix(),
                                             directed=False)
            left = len(np.unique(labels[G.degrees[F.members] > sub.degrees]))
            assert Q.shape[1] == F.boundary_size - left

    def test_whole_component_and_empty_window(self):
        # C5 and a path 5-6-7: the cycle is a window that no boundary edge
        # leaves, so one constant lies in the kernel of the gradient
        G = OrientedGraph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                              (5, 6), (6, 7)])
        cases = [(range(5), 4, 1), (range(6), 5, 1), (range(8), 6, 1),
                 ([0, 1, 5, 6], 4, 0), ([], 0, 0)]
        for F, dim_cut, dim_cycle in cases:
            E, Q = check_complement(G, F)
            assert Q.shape[1] == len(E) - dim_cut - dim_cycle
        E, Q = WD.complement_basis(G, [])
        assert E.shape == (0,) and Q.shape == (0, 0)

    def test_square_windows_match_ranks(self, z2ball):
        for n in (2, 3, 5, 8):
            check_complement(z2ball.graph, square_members(z2ball, n))


# -- projection statistics against the dense reference ---------------------


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

    def test_squares_match_dense_reference(self, z2ball):
        for n in range(1, 13):
            lo = -(n // 2)  # centred, so the sides up to 12 fit the ball
            for label in ("s1", "s2"):
                check_against_reference(
                    z2ball, square_members(z2ball, n, n, lo, lo), label)

    def test_rectangles_and_disconnected_windows_match_dense_reference(
            self, z2ball):
        for n, m in ((1, 7), (2, 5), (6, 3), (4, 9)):
            check_against_reference(z2ball, square_members(z2ball, n, m),
                                    "s1")
        # two squares apart, and random subsets of a box, which split into
        # several components and leave some label edges' ends outside
        check_against_reference(
            z2ball, square_members(z2ball, 3) + square_members(z2ball, 2, 2,
                                                               5, 5), "s2")
        rng = np.random.default_rng(5)
        for _ in range(40):
            a, b = (int(x) for x in rng.integers(1, 8, size=2))
            keep = rng.random(a * b) < 0.6
            members = np.array(square_members(z2ball, a, b, -3, -3))[keep]
            if len(members):
                check_against_reference(z2ball, members,
                                        str(rng.choice(["s1", "s2'"])))

    @pytest.mark.parametrize("spec, r", [("free:2", 3), ("heisenberg", 3),
                                         ("lamplighter:2,1", 4), ("dinf", 5),
                                         ("bs:1,2", 3)])
    def test_balls_match_dense_reference(self, spec, r):
        # every generator, the involutions s of lamplighter:2,1 and dinf
        # included: each of their edges is reached from both of its ends
        ball = cayley_ball(build_group(spec), r + 1)
        members = np.flatnonzero(ball.word_length <= r)
        for gen in ball.group.generators:
            check_against_reference(ball, members, gen.name)

    def test_diag_entries_in_unit_interval(self, z2ball):
        F = subset_view(z2ball.graph, square_members(z2ball, 4))
        out = WD.window_projection_stats(z2ball, F, "s2")
        assert out["diag"].min() >= -1e-12
        assert out["diag"].max() <= 1.0 + 1e-12

    def test_empty_window_raises(self, z2ball):
        # k / |F| divided by zero
        with pytest.raises(InvalidInput, match="empty window"):
            WD.window_projection_stats(z2ball, [], "s1")

    def test_window_touching_the_truncation_sphere_raises(self, z2ball):
        # (17, 0) lies on the radius-17 sphere; its s1-step leaves the ball
        F = square_members(z2ball, 2, 1, i0=16)
        with pytest.raises(InvalidInput, match="touches the truncation"):
            WD.window_projection_stats(z2ball, F, "s1")

    def test_budget_guard(self):
        B = cayley_ball(build_group("zd:2"), 92)
        F = subset_view(B.graph, square_members(B, 45))
        with pytest.raises(BudgetExceeded, match="edges >"):
            WD.window_projection_stats(B, F, "s1")

    def test_budget_is_checked_before_the_dense_build(self, monkeypatch):
        B = cayley_ball(build_group("zd:2"), 88)
        F = subset_view(B.graph, square_members(B, 45))

        def no_build(*args):
            raise AssertionError("dense complement built past the budget")

        monkeypatch.setattr(WD, "complement_basis", no_build)
        with pytest.raises(BudgetExceeded, match="edges >"):
            WD.window_projection_stats(B, F, "s1")
