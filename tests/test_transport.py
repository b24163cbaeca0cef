import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import harmlab.transport as T
from harmlab.cayley import build_group, cayley_ball
from harmlab.errors import InvalidInput, NumericalFailure
from harmlab.graphs import (Distribution, OrientedGraph, VertexField, ball,
                            bfs_distances, cycle_graph, direct_solve,
                            divergence, path_graph, regular_tree,
                            subset_view, torus_grid)


class TestWasserstein:
    def test_dirac_pair_is_distance(self):
        B = cayley_ball(build_group("zd:2"), 8)
        G = B.graph
        dist = bfs_distances(G, 0)
        rng = np.random.default_rng(2)
        for v in rng.integers(0, G.n, 15):
            cost, pat = T.wasserstein1(G, Distribution.dirac(G, 0),
                                       Distribution.dirac(G, int(v)))
            assert abs(cost - dist[v]) < 1e-9
            assert pat.residual < 1e-9
            assert abs(pat.norm(1) - cost) < 1e-9

    def test_program_built_once_per_graph(self, monkeypatch):
        G = torus_grid(6, 6)
        mu = Distribution.dirac(G, 0)
        nu = Distribution.uniform(G, [7, 20, 33])
        # the program as each call built it before the graph kept it
        BT = G.incidence_matrix().T
        fresh = T.linprog(np.ones(2 * G.m),
                          A_eq=sp.hstack([BT, -BT], format="csr")[1:],
                          b_eq=(nu.a - mu.a)[1:], method="highs-ds",
                          options=T.LP_OPTIONS)

        def spy(fn, log):
            return lambda *a, **k: log.append(fn(*a, **k)) or log[-1]

        runs, stacks = [], []
        monkeypatch.setattr(T, "linprog", spy(T.linprog, runs))
        monkeypatch.setattr(sp, "hstack", spy(sp.hstack, stacks))
        costs = [T.wasserstein1(G, mu, nu)[0] for _ in range(2)]
        assert len(stacks) == 1 and len(runs) == 2
        for res in runs:
            assert np.array_equal(res.x, fresh.x)
        assert costs[0] == costs[1] == fresh.fun

    def test_identical_measures_cost_zero(self):
        G = cycle_graph(12)
        mu = Distribution.uniform(G, range(5))
        cost, pat = T.wasserstein1(G, mu, mu)
        assert cost < 1e-12 and pat.norm(1) < 1e-12

    def test_triangle_inequality(self):
        G = torus_grid(5, 5)
        rng = np.random.default_rng(7)
        for _ in range(10):
            ms = []
            for _ in range(3):
                a = rng.random(G.n) ** 4
                ms.append(Distribution(G, a / a.sum()))
            d01, _ = T.wasserstein1(G, ms[0], ms[1])
            d12, _ = T.wasserstein1(G, ms[1], ms[2])
            d02, _ = T.wasserstein1(G, ms[0], ms[2])
            assert d02 <= d01 + d12 + 1e-8

    def test_mass_mismatch(self):
        G = cycle_graph(6)
        mu = Distribution.dirac(G, 0)
        bad = VertexField(G, mu.a * 0.5)
        with pytest.raises(InvalidInput, match="masses differ"):
            T.wasserstein1(G, mu, bad)


    @pytest.mark.parametrize("other", [path_graph(5), cycle_graph(8)],
                             ids=["smaller_graph", "equal_graph"])
    def test_measure_of_another_graph_raises(self, other):
        # a path's measure failed to broadcast; an equal cycle's was solved
        G = cycle_graph(8)
        for pair in ((other, G), (G, other)):
            with pytest.raises(ValueError, match="another graph"):
                T.wasserstein1(G, Distribution.dirac(pair[0], 0),
                               Distribution.dirac(pair[1], 3))

    def test_two_components_infeasible(self):
        G = OrientedGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        with pytest.raises(InvalidInput, match="no feasible flow"):
            T.wasserstein1(G, Distribution.dirac(G, 0),
                           Distribution.dirac(G, 5))
        # balanced on each component: feasible
        cost, pat = T.wasserstein1(G, Distribution.uniform(G, [0, 3]),
                                   Distribution.uniform(G, [2, 5]))
        assert abs(cost - 2.0) < 1e-12 and pat.residual < 1e-12

    def test_edgeless_graph(self):
        G = OrientedGraph(2, [])
        cost, pat = T.wasserstein1(G, Distribution.dirac(G, 1),
                                   Distribution.dirac(G, 1))
        assert cost == 0.0 and pat.residual == 0.0
        with pytest.raises(InvalidInput, match="no feasible flow"):
            T.wasserstein1(G, Distribution.dirac(G, 0),
                           Distribution.dirac(G, 1))

    @pytest.mark.parametrize("gap", [1e-12, 5e-10, 9e-10])
    def test_mass_gap_within_tolerance(self, gap):
        # a gap that passes the InvalidInput check is solved, not InvalidInput
        G = torus_grid(6, 6)
        target = VertexField(G, Distribution.dirac(G, 14).a * (1 + gap))
        cost, pat = T.wasserstein1(G, Distribution.dirac(G, 0), target)
        assert abs(cost - 4.0) < 1e-8 and pat.residual <= 1e-9

    def test_unsolved_program_raises(self, monkeypatch):
        G = cycle_graph(6)
        real = T.linprog

        def stopped(*args, **kwargs):
            res = real(*args, **kwargs)
            res.status, res.message = 1, "Iteration limit reached."
            return res

        monkeypatch.setattr(T, "linprog", stopped)
        with pytest.raises(NumericalFailure, match="Iteration limit"):
            T.wasserstein1(G, Distribution.dirac(G, 0),
                           Distribution.dirac(G, 3))

    def test_residual_above_tolerance_raises(self, monkeypatch):
        G = cycle_graph(6)
        real = T.linprog

        def off(*args, **kwargs):
            res = real(*args, **kwargs)
            res.x[0] += 1e-8  # moves tau on edge 0 only
            return res

        monkeypatch.setattr(T, "linprog", off)
        with pytest.raises(NumericalFailure, match="residual"):
            T.wasserstein1(G, Distribution.dirac(G, 0),
                           Distribution.dirac(G, 3))


def network_simplex_w1(G, source, target):
    """Reference W1 cost: integer min-cost flow on masses scaled by 10^15,
    solved by networkx's network simplex."""
    scale = 10 ** 15
    demand = np.round((target.a - source.a) * scale).astype(object)
    demand[int(np.argmax(np.abs(target.a - source.a)))] -= sum(demand)
    g = nx.DiGraph()
    total = sum(int(d) for d in demand if d > 0)
    for v in range(G.n):
        g.add_node(v, demand=int(demand[v]))
    # finite capacities keep networkx off its uncapacitated code path
    for x, y in zip(G.tails, G.heads):
        g.add_edge(int(x), int(y), weight=1, capacity=total)
        g.add_edge(int(y), int(x), weight=1, capacity=total)
    return nx.network_simplex(g)[0] / scale


@st.composite
def connected_graph_and_measures(draw):
    """A random connected graph (a random tree plus extra edges) and two
    probability measures that are sparse, dense or share their support."""
    n = draw(st.integers(2, 24))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=2 * n))
    edges |= {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    G = OrientedGraph(n, sorted(edges))
    kind = draw(st.sampled_from(["sparse", "dense", "overlapping"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = min(n, int(rng.integers(1, 4)))
    supports = [rng.choice(n, k, replace=False) for _ in range(2)]
    if kind == "dense":
        supports = [np.arange(n)] * 2
    elif kind == "overlapping":
        supports[1] = np.union1d(supports[0][:1], supports[1])
    measures = []
    for supp in supports:
        a = np.zeros(n)
        a[supp] = rng.random(len(supp)) + 1e-3
        measures.append(Distribution(G, a / a.sum()))
    return G, measures[0], measures[1]


class TestWassersteinAgainstNetworkSimplex:
    @settings(max_examples=150, deadline=None)
    @given(connected_graph_and_measures())
    def test_matches_reference(self, case):
        G, mu, nu = case
        cost, pat = T.wasserstein1(G, mu, nu)
        ref = network_simplex_w1(G, mu, nu)
        assert abs(cost - ref) <= 1e-12
        assert pat.residual <= 1e-9
        assert abs(pat.norm(1) - cost) <= 1e-9

    def test_dense_pair_on_free_ball(self):
        # at HiGHS's default feasibility tolerances (1e-7) this pair's cost
        # came out 1.9e-7 above the optimum
        G = cayley_ball(build_group("free:2"), 5).graph
        rng = np.random.default_rng(30)
        a, b = rng.random(G.n), rng.random(G.n)
        mu, nu = Distribution(G, a / a.sum()), Distribution(G, b / b.sum())
        cost, pat = T.wasserstein1(G, mu, nu)
        ref = network_simplex_w1(G, mu, nu)
        assert abs(cost - ref) <= 1e-12
        assert pat.residual <= 1e-9
        assert abs(pat.norm(1) - cost) <= 1e-9


class TestRandomStep:
    def test_divergence_is_one_step(self):
        G = torus_grid(6, 6)
        A = ball(G, 0, 2)
        rng = np.random.default_rng(0)
        a = np.zeros(G.n)
        a[A.members] = rng.random(A.size)
        mu = VertexField(G, a / a.sum())
        pat = T.random_step_transport(G, mu, A)
        assert pat.residual < 1e-12
        # each unit of moved mass crosses at most one edge; opposite flows
        # over a shared edge cancel
        assert pat.norm(1) <= mu.a[A.members].sum() + 1e-12
        # a single atom gives equality
        one = T.random_step_transport(G, Distribution.dirac(G, 0), A)
        assert abs(one.norm(1) - 1.0) < 1e-12

    def test_mass_outside_region_is_frozen(self):
        G = cycle_graph(10)
        A = subset_view(G, [0, 1, 2])
        mu = Distribution.dirac(G, 6)
        pat = T.random_step_transport(G, mu, A)
        assert pat.norm(1) == 0.0
        assert np.array_equal(pat.target.a, mu.a)

    def test_region_of_another_graph_raises(self):
        G = cycle_graph(8)
        with pytest.raises(ValueError, match="another graph"):
            T.random_step_transport(G, Distribution.dirac(G, 3),
                                    ball(path_graph(8), 3, 1))

    @pytest.mark.parametrize("side", [9, 7],
                             ids=["equal_graph", "smaller_graph"])
    def test_measure_of_another_graph_raises(self, side):
        # an equal torus's measure gave a pattern from that torus's mass
        G = torus_grid(9, 9)
        mu = Distribution.dirac(torus_grid(side, side), 0)
        with pytest.raises(ValueError, match="measure of another graph"):
            T.random_step_transport(G, mu, ball(G, 0, 2))


class TestLaplacian:
    def test_divergence_matches_exactly(self):
        G = torus_grid(6, 6)
        F = ball(G, 0, 2)
        rng = np.random.default_rng(1)
        a = np.zeros(G.n)
        a[F.members] = rng.normal(size=F.size)
        a[F.members] -= a[F.members].mean()
        g = VertexField(G, a)
        pat = T.laplacian_transport(G, F, g)
        assert pat.residual < 1e-9
        # supported on induced edges only
        supp = set(np.flatnonzero(pat.tau.a))
        assert supp <= set(map(int, F.induced_edges))

    def test_region_of_another_graph_raises(self):
        G = cycle_graph(8)
        a = np.zeros(G.n)
        a[[2, 4]] = [1.0, -1.0]
        with pytest.raises(ValueError, match="another graph"):
            T.laplacian_transport(G, ball(path_graph(8), 3, 1),
                                  VertexField(G, a))

    def test_norm_bound_via_gap(self):
        import scipy.linalg
        G = torus_grid(8, 8)
        F = ball(G, 0, 3)
        sub = F.induced_graph()
        L = (np.diag(sub.degrees.astype(float))
             - sub.adjacency_matrix().toarray())
        lam2 = np.sort(scipy.linalg.eigvalsh(L))[1] / 4.0
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = np.zeros(G.n)
            a[F.members] = rng.normal(size=F.size)
            a[F.members] -= a[F.members].mean()
            g = VertexField(G, a)
            pat = T.laplacian_transport(G, F, g)
            bound = 2 * 4 / lam2 * np.linalg.norm(a)
            assert pat.norm(2) <= bound + 1e-9

    @staticmethod
    def dense_reference(G, F, g):
        """grad h for the least-squares solution h of L h = g - mean(g),
        L the dense Laplacian of the graph induced on F."""
        sub, members = F.induced_graph(), F.members
        L = (np.diag(sub.degrees.astype(float))
             - sub.adjacency_matrix().toarray())
        b = g.a[members] - g.a[members].mean()
        h = np.zeros(G.n)
        h[members] = np.linalg.lstsq(L, b, rcond=None)[0]
        tau = np.zeros(G.m)
        e = F.induced_edges
        tau[e] = h[G.heads[e]] - h[G.tails[e]]
        return tau

    @staticmethod
    def induced_graph_reference(G, F, g):
        """tau from diag(deg) - A of the graph induced on F, grounded at
        members[0] and solved by direct_solve."""
        sub = F.induced_graph()
        L = (sp.diags(sub.degrees.astype(float))
             - sub.adjacency_matrix()).tocsr()
        b = g.a[F.members] - g.a[F.members].mean()
        h = np.zeros(G.n)
        if sub.n > 1:
            h[F.members[1:]] = direct_solve(L[1:, 1:], b[1:])
        tau = np.zeros(G.m)
        e = F.induced_edges
        tau[e] = h[G.heads[e]] - h[G.tails[e]]
        return tau

    @staticmethod
    def centred_field(G, F, seed):
        rng = np.random.default_rng(seed)
        a = np.zeros(G.n)
        a[F.members] = rng.normal(size=F.size)
        a[F.members] -= a[F.members].mean()
        return VertexField(G, a)

    @pytest.mark.parametrize("cells", [
        [(0, 0)],
        [(0, 0), (0, 1)],
        # corners, sides and inside have induced degrees 2, 3 and 4
        [(i, j) for i in range(-5, 5) for j in range(-5, 5)],
    ], ids=["one_vertex", "two_vertices", "box10"])
    def test_matches_dense_least_squares(self, cells):
        B = cayley_ball(build_group("zd:2"), 12)
        G = B.graph
        F = subset_view(G, [B.vertex_of[c] for c in cells])
        g = self.centred_field(G, F, len(cells))
        pat = T.laplacian_transport(G, F, g)
        ref = self.dense_reference(G, F, g)
        assert np.abs(pat.tau.a - ref).max() <= 1e-12 * max(
            1.0, np.abs(ref).max())
        assert pat.residual <= 1e-12
        assert np.array_equal(pat.tau.a, self.induced_graph_reference(G, F, g))

    @pytest.mark.parametrize("spec, R, r", [("heisenberg", 8, 6),
                                            ("free:2", 5, 4)])
    def test_matches_induced_graph_assembly_on_balls(self, spec, R, r):
        B = cayley_ball(build_group(spec), R)
        G = B.graph
        F = subset_view(G, np.flatnonzero(B.word_length <= r))
        g = self.centred_field(G, F, r)
        pat = T.laplacian_transport(G, F, g)
        assert np.array_equal(pat.tau.a, self.induced_graph_reference(G, F, g))
        assert pat.residual <= 1e-10

    def test_rejects_nonzero_sum(self):
        G = cycle_graph(8)
        F = subset_view(G, range(4))
        with pytest.raises(InvalidInput, match="sum to zero"):
            T.laplacian_transport(G, F, Distribution.dirac(G, 0))

    def test_rejects_mass_off_the_region(self):
        # g sums to zero, but half of it sits outside F
        G = cycle_graph(8)
        F = subset_view(G, range(4))
        g = VertexField.from_dict(G, {0: 1.0, 5: -1.0})
        with pytest.raises(InvalidInput, match="supported on the region"):
            T.laplacian_transport(G, F, g)

    def test_rejects_disconnected_region(self):
        G = cycle_graph(8)
        F = subset_view(G, [0, 1, 4, 5])
        g = VertexField.from_dict(G, {0: 1.0, 4: -1.0})
        with pytest.raises(InvalidInput, match="not connected"):
            T.laplacian_transport(G, F, g)

    @pytest.mark.parametrize("side", [9, 7],
                             ids=["equal_graph", "smaller_graph"])
    def test_field_of_another_graph_raises_before_any_solve(
            self, monkeypatch, side):
        G = torus_grid(9, 9)
        g = VertexField(torus_grid(side, side))
        g.a[[0, 1]] = 1.0, -1.0

        def no_solve(*args):
            raise AssertionError("solved for a field of another graph")

        monkeypatch.setattr("harmlab.graphs.direct_solve", no_solve)
        with pytest.raises(ValueError, match="measure of another graph"):
            T.laplacian_transport(G, ball(G, 0, 2), g)


class TestCentral:
    def test_heisenberg_uniform_cost(self):
        g = build_group("heisenberg")
        B = cayley_ball(g, 8)
        word = g.central_word()
        for n in (0, 1, 2):
            from harmlab.walk import distribution
            mu = distribution(B, n, laziness=0.5)
            pat = T.central_transport(B, word, mu)
            assert pat.residual < 1e-12
            assert pat.norm(1) <= len(word) + 1e-12
            # target is the right translate of mu
            z = g.evaluate(word)
            for i in np.flatnonzero(mu.a):
                j = B.vertex_of[g.multiply(B.elements[i], z)]
                assert abs(pat.target.a[j] - mu.a[i]) < 1e-12

    def test_exits_ball(self):
        g = build_group("zd:1")
        B = cayley_ball(g, 3)
        mu = Distribution.dirac(B.graph, B.vertex_of[(2,)])
        with pytest.raises(InvalidInput, match="leaves the ball"):
            T.central_transport(B, g.word(["s1", "s1"]), mu)

    def test_word_of_another_group_raises(self):
        # heisenberg's generators share their names with zd:2's; the
        # pattern had residual 0 and target = source
        B = cayley_ball(build_group("zd:2"), 6)
        mu = Distribution.dirac(B.graph, B.identity_vertex)
        with pytest.raises(InvalidInput, match="not a generator of zd:2"):
            T.central_transport(B, build_group("heisenberg").central_word(),
                                mu)

    @pytest.mark.parametrize("radius", [6, 5],
                             ids=["equal_graph", "smaller_graph"])
    def test_measure_of_another_graph_raises(self, radius):
        # an equal ball's measure gave a pattern ending on that ball
        g = build_group("zd:2")
        B, other = cayley_ball(g, 6), cayley_ball(g, radius)
        mu = Distribution.dirac(other.graph, other.identity_vertex)
        with pytest.raises(ValueError, match="measure of another graph"):
            T.central_transport(B, g.word(["s1"]), mu)


class TestCycleCancel:
    def test_removes_circulation(self):
        G = cycle_graph(4)
        from harmlab.graphs import EdgeField
        x = np.arange(4)
        y = (x + 1) % 4
        tau = EdgeField(G)
        tau.a[G.edge_ids(x, y)] = np.where(x < y, 1.0, -1.0)
        pat = T.TransportPattern(tau, VertexField(G), VertexField(G))
        out = T.cycle_cancel(pat)
        assert out.norm(1) < 1e-12
        assert out.residual < 1e-12

    def test_pointwise_domination(self):
        G = torus_grid(5, 5)
        rng = np.random.default_rng(4)
        for _ in range(10):
            from harmlab.graphs import EdgeField
            tau = EdgeField(G, rng.normal(size=G.m))
            div = divergence(tau)
            pat = T.TransportPattern(tau, VertexField(G),
                                     VertexField(G, div.a))
            out = T.cycle_cancel(pat)
            assert np.all(np.abs(out.tau.a) <= np.abs(tau.a) + 1e-12)
            assert out.residual < 1e-9


def restarting_cycle_cancel(pattern):
    """The cycle cancellation that restarted its depth-first search from
    scratch after every cancelled cycle, kept as the reference."""
    G = pattern.tau.graph
    flow = {}
    for e in np.flatnonzero(pattern.tau.a):
        v, x, y = pattern.tau.a[e], int(G.tails[e]), int(G.heads[e])
        flow[(x, y) if v > 0 else (y, x)] = (abs(v), e, 1.0 if v > 0 else -1.0)
    succ = {}
    for (x, y) in flow:
        succ.setdefault(x, set()).add(y)
    while True:
        cyc = _find_cycle(succ)
        if cyc is None:
            break
        arcs = list(zip(cyc, cyc[1:] + cyc[:1]))
        c = min(flow[a][0] for a in arcs)
        for a in arcs:
            v, e, s = flow[a]
            if v - c <= 1e-15 * max(1.0, c):
                del flow[a]
                succ[a[0]].discard(a[1])
                if not succ[a[0]]:
                    del succ[a[0]]
            else:
                flow[a] = (v - c, e, s)
    tau = np.zeros(G.m)
    for (x, y), (v, e, s) in flow.items():
        tau[e] += s * v
    return tau


def _find_cycle(succ):
    state = {}
    for root in succ:
        if state.get(root):
            continue
        stack = [(root, iter(sorted(succ.get(root, ()))))]
        state[root] = 1
        path = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state.get(nxt) == 1:
                    return path[path.index(nxt):]
                if state.get(nxt) is None:
                    state[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, iter(sorted(succ.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                path.pop()
                stack.pop()
    return None


def positive_support_is_acyclic(tau):
    G = tau.graph
    fwd = tau.a > 0
    D = nx.DiGraph()
    D.add_edges_from(zip(G.tails[fwd], G.heads[fwd]))
    bwd = tau.a < 0
    D.add_edges_from(zip(G.heads[bwd], G.tails[bwd]))
    return nx.is_directed_acyclic_graph(D)


def random_patterns():
    """Random circulation-laden patterns on random 3- and 4-regular
    graphs; every third one rounded to integers, so that several arcs of
    a cycle tie for its least flow."""
    from harmlab.graphs import EdgeField, random_regular_graph
    rng = np.random.default_rng(11)
    for t in range(60):
        G = random_regular_graph(3 + t % 2, 2 * int(rng.integers(4, 25)),
                                 seed=t)
        a = rng.normal(size=G.m)
        if t % 3 == 0:
            a = np.round(2 * a)
        tau = EdgeField(G, a)
        yield T.TransportPattern(tau, VertexField(G),
                                 VertexField(G, divergence(tau).a))


def zd2_chain_patterns(monkeypatch):
    """The patterns that exit_transport_chain hands to cycle_cancel on the
    balls of radius 1..10 about the identity of Z^2."""
    B = cayley_ball(build_group("zd:2"), 11)
    G = B.graph
    v = B.identity_vertex
    seen = []
    cancel = T.cycle_cancel

    def record(pattern):
        seen.append(pattern)
        return cancel(pattern)
    monkeypatch.setattr(T, "cycle_cancel", record)
    T.exit_transport_chain(G, v, int(G.neighbors(v)[0]),
                           [ball(G, v, r) for r in range(1, 11)])
    monkeypatch.setattr(T, "cycle_cancel", cancel)
    assert len(seen) == 10
    return seen


class TestOneSearchCycleCancel:
    def test_matches_restarting_search_on_random_patterns(self):
        for pat in random_patterns():
            out = T.cycle_cancel(pat)
            assert np.array_equal(out.tau.a, restarting_cycle_cancel(pat))
            assert positive_support_is_acyclic(out.tau)

    def test_matches_restarting_search_on_chain_patterns(self, monkeypatch):
        for pat in zd2_chain_patterns(monkeypatch):
            assert not positive_support_is_acyclic(pat.tau)
            out = T.cycle_cancel(pat)
            assert np.array_equal(out.tau.a, restarting_cycle_cancel(pat))
            assert positive_support_is_acyclic(out.tau)
            assert out.residual < 1e-9


class TestExitChain:
    def test_one_solve_per_region(self, monkeypatch):
        import harmlab.graphs as graphs
        calls = []

        def counted(M, b):
            calls.append(np.shape(b))
            return direct_solve(M, b)
        monkeypatch.setattr(graphs, "direct_solve", counted)
        G = torus_grid(9, 9)
        regions = [ball(G, 0, r) for r in (1, 2, 3)]
        T.exit_transport_chain(G, 0, int(G.neighbors(0)[0]), regions)
        assert calls == [(A.size, 2) for A in regions]

    def test_chain_rows(self):
        G = torus_grid(9, 9)
        regions = [ball(G, 0, r) for r in (1, 2, 3)]
        v, w = 0, int(G.neighbors(0)[0])
        rows = T.exit_transport_chain(G, v, w, regions)
        for row in rows:
            assert row["residual"] < 1e-9
            assert row["norm_inf"] <= 1.0 + 1e-9
        sizes = [r["interior_size"] for r in rows]
        assert sizes == sorted(sizes)

    def test_non_adjacent_pair_raises_before_any_solve(self, monkeypatch):
        G = torus_grid(9, 9)
        regions = [ball(G, 0, r) for r in (1, 2)]

        def no_solve(*args):
            raise AssertionError("solved for a non-adjacent pair")

        monkeypatch.setattr("harmlab.graphs.direct_solve", no_solve)
        with pytest.raises(ValueError, match="not adjacent"):
            T.exit_transport_chain(G, 0, 2, regions)

    @pytest.mark.parametrize("p", [np.nan, 0.5, -1])
    def test_bad_exponent_raises_before_any_solve(self, monkeypatch, p):
        G = torus_grid(9, 9)
        regions = [ball(G, 0, r) for r in (1, 2)]

        def no_solve(*args):
            raise AssertionError("solved for a bad exponent")

        monkeypatch.setattr("harmlab.graphs.direct_solve", no_solve)
        with pytest.raises(InvalidInput, match=f"p={p} not in"):
            T.exit_transport_chain(G, 0, int(G.neighbors(0)[0]), regions,
                                   p=p)

    def test_vertex_list_region_gives_the_view_rows(self):
        G = torus_grid(9, 9)
        A = ball(G, 0, 2)
        w = int(G.neighbors(0)[0])
        (by_view,) = T.exit_transport_chain(G, 0, w, [A])
        (by_list,) = T.exit_transport_chain(G, 0, w, [list(A.members)])
        for key, value in by_view.items():
            if key == "pattern":
                assert np.array_equal(by_list[key].tau.a, value.tau.a)
            else:
                assert by_list[key] == value


def iterated_stopped_transport(G, A, v):
    """Reference for the stopped-walk transport of the exit chain: add up
    the random-step patterns of the stopped walk's law, one step at a time,
    until the mass left in A is negligible.  Needs a region of constant
    degree."""
    d = int(G.degrees[A.members[0]])
    mu = np.zeros(G.n)
    mu[v] = 1.0
    tau = np.zeros(G.m)
    while mu[A.mask].sum() > 1e-17:
        moving = np.where(A.mask, mu, 0.0) / d
        tau += moving[G.tails] - moving[G.heads]
        mu = np.where(A.mask, 0.0, mu)
        np.add.at(mu, G.heads, moving[G.tails])
        np.add.at(mu, G.tails, moving[G.heads])
    return tau, mu


class TestStoppedExitTransport:
    """The Green-measure identity that exit_transport_chain rests on: the
    random-step pattern of the expected visit counts of one interior solve
    is the sum of the stopped walk's step patterns."""

    @pytest.mark.parametrize("case", ["z2", "tree"])
    def test_matches_iterated_stopped_walk(self, case):
        if case == "z2":
            B = cayley_ball(build_group("zd:2"), 7)
            G, v = B.graph, B.vertex_of[(1, -2)]
            A = ball(G, B.identity_vertex, 5)
        else:
            G, v = regular_tree(3, 6), 5
            A = ball(G, 0, 4)
        tau, mu = iterated_stopped_transport(G, A, v)
        h, (ex,) = A.exit_solve([v])
        green = VertexField(G)
        green.a[A.members] = h[:, 0]
        pat = T.TransportPattern(T.random_step_transport(G, green, A).tau,
                                 Distribution.dirac(G, v), ex)
        assert np.abs(pat.tau.a - tau).max() <= 1e-12
        assert np.abs(ex.a - mu).max() <= 1e-12
        assert pat.residual <= 1e-9

    def test_mixed_degree_region_raises(self):
        # the ball around a depth-2 vertex reaches degree-1 leaves
        G = regular_tree(3, 4)
        A = ball(G, 4, 3)
        assert len(set(G.degrees[A.members])) > 1
        with pytest.raises(InvalidInput, match="has degree"):
            T.exit_transport_chain(G, 4, int(G.neighbors(4)[0]), [A])
