import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import harmlab.isoperimetry as I
import harmlab.spectral as S
from harmlab.cayley import build_group, cayley_ball
from harmlab.errors import BudgetExceeded, InvalidInput
from harmlab.graphs import (OrientedGraph, bfs_distances, complete_graph,
                            cycle_graph, hypercube_graph, path_graph,
                            random_regular_graph, regular_tree, subset_view,
                            torus_grid)
from test_graphs import with_symmetries


def square_in_z2(ball_obj, n):
    return [ball_obj.vertex_of[(i, j)] for i in range(n) for j in range(n)]


@pytest.fixture(scope="module")
def z2ball():
    return cayley_ball(build_group("zd:2"), 12)


def branch_and_extend(G, max_size):
    """Reference enumeration (Wernicke's ESU): each connected set is grown
    from its least vertex, including or forbidding one candidate at a
    time.  Yields (members, boundary_size)."""
    nbrs = [list(map(int, G.neighbors(v))) for v in range(G.n)]
    deg = G.degrees
    for root in range(G.n):
        stack = [([root], {root}, set(), int(deg[root]))]
        while stack:
            S, Sset, X, b = stack.pop()
            yield S, b
            if len(S) >= max_size:
                continue
            cand = [u for v in S for u in nbrs[v]
                    if u > root and u not in Sset and u not in X]
            seen = set()
            cand = [u for u in cand if not (u in seen or seen.add(u))]
            forb = set(X)
            for u in cand:
                join = sum(1 for w in nbrs[u] if w in Sset)
                stack.append((S + [u], Sset | {u}, set(forb),
                              b + int(deg[u]) - 2 * join))
                forb.add(u)


def connected_sets(G, max_size, budget=I.ENUM_BUDGET):
    """(members, boundary_size) of every connected set, decoded from the
    bitmask levels size by size."""
    for level in I._levels(G, max_size, budget):
        for b in level:
            members = b.window[I._members(b.sets)[1]].reshape(len(b.sets), -1)
            yield from zip(members.tolist(), b.bnd.tolist())


def random_connected_graph(rng, n):
    """A random spanning tree on n vertices plus up to n extra edges."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    for u, v in rng.integers(0, n, size=(int(rng.integers(0, n + 1)), 2)):
        if u != v:
            edges.add((int(min(u, v)), int(max(u, v))))
    return OrientedGraph(n, sorted(edges))


class TestLevelsAgainstBranchAndExtend:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        # n up to 150 reaches bitmask rows of three words
        n = int(rng.integers(2, 151))
        G = random_connected_graph(rng, n)
        max_size = 5 if n <= 40 else 3
        want, least = {}, {}
        for S, b in branch_and_extend(G, max_size):
            want.setdefault(len(S), []).append(frozenset(S))
            key = (b, sum(1 << v for v in S))  # least bitmask breaks ties
            least[len(S)] = min(least.get(len(S), key), key)
        got = {}
        for S, b in connected_sets(G, max_size):
            assert b == subset_view(G, S).boundary_size
            got.setdefault(len(S), []).append(frozenset(S))
        assert {s: len(v) for s, v in got.items()} == \
            {s: len(v) for s, v in want.items()}
        for sets in got.values():
            assert len(set(sets)) == len(sets)
        assert {s: set(v) for s, v in got.items()} == \
            {s: set(v) for s, v in want.items()}
        prof = I.profile(G, max_size)
        assert sorted(prof.table) == sorted(least)
        for s, (b, mask) in least.items():
            assert prof.table[s][0] == b
            assert prof.table[s][1] == [v for v in range(n) if mask >> v & 1]


class TestEnumeration:
    def test_counts_on_cycle(self):
        # connected subsets of C_n of size s are the n arcs, for s < n
        G = cycle_graph(7)
        seen = {}
        for Sset, b in connected_sets(G, 4):
            seen[len(Sset)] = seen.get(len(Sset), 0) + 1
            assert b == subset_view(G, Sset).boundary_size
        assert seen == {1: 7, 2: 7, 3: 7, 4: 7}

    def test_no_duplicates(self):
        G = torus_grid(3, 3)
        out = set()
        for Sset, _ in connected_sets(G, 4):
            key = frozenset(Sset)
            assert key not in out
            out.add(key)

    def test_budget(self):
        G = hypercube_graph(4)
        with pytest.raises(BudgetExceeded, match="connected sets"):
            list(connected_sets(G, 8, budget=100))

    def test_budget_checked_before_the_level_is_built(self, monkeypatch):
        # K30 has 30 + 435 + 4060 connected sets of size <= 3; the 435 * 28
        # candidates for size 3 exceed a budget of 4524 before any set of
        # size 3 is formed
        G = complete_graph(30)
        assert len(list(connected_sets(G, 3, budget=4525))) == 4525
        built = []
        distinct = I._distinct

        def recording(sets, *cols):
            built.append(int(np.bitwise_count(sets).sum(axis=1).max()))
            return distinct(sets, *cols)

        monkeypatch.setattr(I, "_distinct", recording)
        with pytest.raises(BudgetExceeded, match="connected sets"):
            list(connected_sets(G, 3, budget=4524))
        assert max(built) == 2

    def test_budget_keeps_completed_sizes(self):
        # Q4 has 16 vertices, 32 edges and 96 connected sets of size 3
        with pytest.raises(BudgetExceeded, match="connected sets"):
            I.profile(hypercube_graph(4), 8, budget=100)

    def test_budget_counts_the_sets_through_vertex_0(self):
        # C7 has 7 connected sets of each size 1..4, 28 in all; 1, 2, 3
        # and 4 of them, 10 in all, have least vertex 0
        I.profile(cycle_graph(7), 4, budget=10)
        with pytest.raises(BudgetExceeded, match="more than 9 connected"):
            I.profile(cycle_graph(7), 4, budget=9)

    def test_budget_on_an_intransitive_graph(self):
        # the 3-regular tree of depth 5 has 1904 connected sets of size <= 6
        I.profile(regular_tree(3, 5), 6, budget=1904)
        with pytest.raises(BudgetExceeded, match="more than 1903 connected"):
            I.profile(regular_tree(3, 5), 6, budget=1903)


def least_vertices(monkeypatch, G, max_size):
    """The least vertices whose connected sets profile(G, max_size)
    enumerates."""
    roots = []

    class Recording(I._Block):
        def __init__(self, *args):
            super().__init__(*args)
            roots.extend(self.window[:len(self.sets)].tolist())

    monkeypatch.setattr(I, "_Block", Recording)
    I.profile(G, max_size)
    return roots


class TestTransitiveProfile:
    @pytest.mark.parametrize("G, max_size", [
        (cycle_graph(3), 3), (cycle_graph(7), 7), (cycle_graph(26), 13),
        (torus_grid(3, 3), 5), (torus_grid(4, 5), 8), (torus_grid(3, 7), 8),
        (torus_grid(6, 4), 8), (torus_grid(5, 5), 8), (torus_grid(3, 9), 9),
        (torus_grid(6, 6), 9), (hypercube_graph(1), 2),
        (hypercube_graph(3), 8), (hypercube_graph(4), 8),
        (hypercube_graph(5), 7), (complete_graph(1), 1),
        (complete_graph(5), 5), (complete_graph(8), 4)], ids=repr)
    def test_matches_the_full_enumeration(self, monkeypatch, G, max_size):
        # values and witnesses: the least minimiser through vertex 0 is the
        # least of all minimisers on these inputs
        full = with_symmetries(G)
        assert I.profile(G, max_size).table == \
            I.profile(full, max_size).table
        assert least_vertices(monkeypatch, G, max_size) == [0]
        assert least_vertices(monkeypatch, full, max_size) == \
            list(range(G.n))

    def test_refused_symmetries_enumerate_every_least_vertex(
            self, monkeypatch):
        C, T = cycle_graph(6), torus_grid(4, 4)
        for G in (with_symmetries(C, *C.symmetries, [1, 0, 2, 3, 4, 5]),
                  with_symmetries(T, T.symmetries[0])):
            assert least_vertices(monkeypatch, G, 4) == list(range(G.n))


class TestProfile:
    def test_c6(self):
        prof = I.profile(cycle_graph(6), 3)
        assert prof.table[1][0] == 2
        assert prof.table[2][0] == 2
        assert prof.table[3][0] == 2
        kappa1 = min(prof.ratio(s) for s in prof.table if s <= 6 // 2)
        assert abs(kappa1 - 2 / 3) < 1e-12

    def test_envelope_nonincreasing(self):
        prof = I.profile(torus_grid(4, 4), 8)
        env = prof.envelope()
        vals = [env[s] for s in range(1, 9)]
        assert vals == sorted(vals, reverse=True)

    def test_kappa1_matches_spectral(self):
        for G in (cycle_graph(8), hypercube_graph(3),
                  random_regular_graph(3, 12, seed=0)):
            prof = I.profile(G, G.n // 2)
            k1, _, _ = S.cheeger_kappa1(G)
            kappa1 = min(prof.ratio(s) for s in prof.table if s <= G.n // 2)
            assert abs(kappa1 - k1) < 1e-12

    def test_milp_agrees_with_enumeration(self):
        G = torus_grid(4, 4)
        prof = I.profile(G, 8)
        for s in range(1, 9):
            b, wit = I.min_boundary_exact(G, s)
            assert b == prof.table[s][0]
            assert len(wit) == s

    def test_milp_witness_value(self):
        G = hypercube_graph(4)
        b, wit = I.min_boundary_exact(G, 8)
        assert subset_view(G, wit).boundary_size == b
        assert b == 8  # a facet of Q4

    # 2.5 was a bare TypeError from inside the level enumeration
    @pytest.mark.parametrize("max_size", [0, -1, 2.5])
    def test_profile_needs_a_positive_size(self, max_size):
        with pytest.raises(ValueError, match="max_size"):
            I.profile(cycle_graph(8), max_size)

    # True was read as size 1 and 2.0 as size 2
    @pytest.mark.parametrize("size", [0, 9, 2.5, True, 2.0])
    def test_min_boundary_exact_needs_a_size_in_range(self, size):
        with pytest.raises(ValueError, match=r"^size must be (an integer "
                                             r">= 1|in 1\.\.8), not"):
            I.min_boundary_exact(cycle_graph(8), size)


def subset_table(G):
    """|boundary F| and |F| of every vertex set F, indexed by bitmask."""
    bits = (np.arange(1 << G.n)[:, None] >> np.arange(G.n)) & 1
    return ((bits[:, G.tails] != bits[:, G.heads]).sum(axis=1),
            bits.sum(axis=1))


# the program's objective reads each vertex's own degree
IRREGULAR = {
    "P9": path_graph(9),
    "tree3_2": regular_tree(3, 2),
    "star8": OrientedGraph(8, [(0, v) for v in range(1, 8)]),
    "P6+isolated": OrientedGraph(7, [(v, v + 1) for v in range(5)]),
    **{f"random{seed}": random_connected_graph(np.random.default_rng(seed),
                                               8 + seed)
       for seed in range(5)},
}


@pytest.mark.parametrize("G", IRREGULAR.values(), ids=IRREGULAR.keys())
class TestCutProgramOnIrregularGraphs:
    def test_graph_is_irregular(self, G):
        assert G.regular_degree is None and G.n <= 12

    def test_min_boundary_exact_at_every_size(self, G):
        bnd, size = subset_table(G)
        for s in range(1, G.n + 1):
            b, wit = I.min_boundary_exact(G, s)
            assert b == bnd[size == s].min()
            assert len(wit) == s and subset_view(G, wit).boundary_size == b

    def test_dinkelbach_form(self, G):
        # the steps of spectral._cheeger_milp: edge cost s, vertex cost -b
        bnd, size = subset_table(G)
        half = (size >= 1) & (size <= G.n // 2)
        for s in range(1, G.n // 2 + 1):
            b = int(bnd[size == s].min())
            F, value = I.cut_program(G, s, -b, (1, G.n // 2))
            assert value == (s * bnd - b * size)[half].min() <= 0
            assert value == s * F.boundary_size - b * F.size
            assert 1 <= F.size <= G.n // 2

    def test_cheeger_milp_equals_bitmask(self, G):
        assert S._cheeger_milp(G)[0] == S._cheeger_bitmask(G)[0]


class TestCutProgramCosts:
    # the certificate needs an integer objective, and edge_cost >= 1 to
    # raise each z_e to x_tail x_head
    @pytest.mark.parametrize("edge_cost, vertex_cost, name", [
        (1, 0.5, "vertex_cost"), (1.0, 0, "edge_cost"), (0, 0, "edge_cost"),
        (-1, 0, "edge_cost")], ids=["float_vertex_cost", "float_edge_cost",
                                    "edge_cost_0", "edge_cost_-1"])
    def test_rejected(self, edge_cost, vertex_cost, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            I.cut_program(cycle_graph(6), edge_cost, vertex_cost, (1, 3))


class TestGeometry:
    def test_square_quantities(self, z2ball):
        G = z2ball.graph
        F = square_in_z2(z2ball, 5)
        assert subset_view(G, F).boundary_size == 20
        assert I.inradius(G, F) == 2
        assert I.diameter(G, F) == 8
        assert abs(I.mean_boundary_distance(G, F) - 0.4) < 1e-12

    def test_inradius_ball_fits(self, z2ball):
        G = z2ball.graph
        d = bfs_distances(G, 0)
        for n in (3, 4, 6):
            F = square_in_z2(z2ball, n)
            r = I.inradius(G, F)
            assert np.count_nonzero((0 <= d) & (d <= r)) <= len(F)

    def test_inradius_of_the_empty_set_raises(self):
        # numpy's "zero-size array to reduction operation maximum" before
        with pytest.raises(InvalidInput, match="empty set"):
            I.inradius(cycle_graph(8), [])

    def test_whole_vertex_set(self):
        # every ball fits: inradius reports vertex 0's eccentricity, and no
        # boundary edge is there to measure a distance to
        G = cycle_graph(8)
        assert I.inradius(G, range(8)) == 4
        assert I.mean_boundary_distance(G, range(8)) == 0.0

    def test_boundary_distance_of_unreachable_members(self):
        # the path 0-1-2 and the triangle 3-4-5: F keeps the triangle
        # whole, so no boundary edge reaches 3, 4 or 5 and they count at
        # the largest finite distance, 1 (that of vertex 0 from 1)
        G = OrientedGraph(6, [[0, 1], [1, 2], [3, 4], [3, 5], [4, 5]])
        F = [0, 1, 3, 4, 5]
        assert abs(I.mean_boundary_distance(G, F) - 4 / 5) < 1e-12

    def test_diameter_disconnected(self):
        G = cycle_graph(8)
        with pytest.raises(InvalidInput, match="disconnected"):
            I.diameter(G, [0, 4])

    def test_growth_z2(self, z2ball):
        G = z2ball.graph
        d = bfs_distances(G, 0)
        volumes = np.cumsum(np.bincount(d[d >= 0]))[:6]
        want = [2 * r * r + 2 * r + 1 for r in range(6)]
        assert list(volumes) == want

    def test_radial_check_square(self, z2ball):
        G = z2ball.graph
        F = square_in_z2(z2ball, 5)
        out = I.radial_iso_check(G, F)
        assert out["holds"] and out["diameter_holds"]
        assert abs(out["lhs"] - 20 * 3) < 1e-12
        assert abs(out["diameter_lhs"] - 20 * 9) < 1e-12

    def test_radial_check_rejects_a_view_of_another_graph(self):
        # the path's view has boundary 1 where the cycle's has 2
        F = subset_view(path_graph(10), [0, 1, 2])
        with pytest.raises(ValueError, match="another graph"):
            I.radial_iso_check(cycle_graph(10), F)
        out = I.radial_iso_check(cycle_graph(10), [0, 1, 2])
        assert out["lhs"] == 4.0

    @pytest.mark.parametrize("K,k", [(np.nan, 1.0), (1.0, np.inf),
                                     (-np.inf, 1.0)])
    def test_radial_check_rejects_non_finite_constants(self, K, k):
        # a NaN K reported an input error as a violated inequality
        with pytest.raises(ValueError, match="finite"):
            I.radial_iso_check(cycle_graph(8), [0, 1], K=K, k=k)

    def test_radial_check_needs_connected_complement(self):
        G = cycle_graph(10)
        with pytest.raises(InvalidInput, match="complement"):
            I.radial_iso_check(G, [0, 1, 5, 6])

    def test_radial_check_of_the_empty_set_raises(self):
        with pytest.raises(InvalidInput, match="empty set"):
            I.radial_iso_check(cycle_graph(8), [])

    def test_doubling_envelope(self):
        # on the torus the optimal ratio at size 2s is no worse than at s
        prof = I.profile(torus_grid(5, 5), 12)
        env = prof.envelope()
        for s in range(1, 7):
            assert env[2 * s] <= env[s] + 1e-12
