import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import harmlab.graphs as graphs
import harmlab.harmonic as H
import harmlab.walk as W
from harmlab.cayley import build_group, cayley_ball
from harmlab.errors import InvalidInput, NumericalFailure
from harmlab.graphs import (Distribution, OrientedGraph, VertexField, ball,
                            cycle_graph, path_graph, regular_tree,
                            subset_view, torus_grid)


def segment_exit(n, k):
    """Exit law of the walk on {0..n} started at k, absorbed at -1, n+1."""
    G = path_graph(n + 3)
    A = subset_view(G, range(1, n + 2))
    return G, W.exit_distribution(G, A, k + 1)


class TestExit:
    def test_gamblers_ruin(self):
        for n in (1, 2, 5, 10, 30):
            for k in (0, n // 2, n):
                G, ex = segment_exit(n, k)
                assert abs(ex[n + 2] - (k + 1) / (n + 2)) < 1e-10
                assert abs(ex[0] - (n + 1 - k) / (n + 2)) < 1e-10

    def test_symmetry_on_cycle(self):
        G = cycle_graph(9)
        A = subset_view(G, [8, 0, 1])
        ex = W.exit_distribution(G, A, 0)
        assert abs(ex[2] - 0.5) < 1e-12 and abs(ex[7] - 0.5) < 1e-12

    def test_supported_on_outer_boundary(self):
        G = torus_grid(6, 6)
        A = ball(G, 0, 2)
        ex = W.exit_distribution(G, A, 0)
        assert abs(ex.a.sum() - 1.0) < 1e-9
        supp = set(np.flatnonzero(ex.a))
        assert supp <= set(map(int, A.outer_boundary))

    def test_total_variation_shrinks_with_region(self):
        # exit laws of neighbours get closer as the region grows
        G = cycle_graph(60)
        prev = np.inf
        for r in (2, 5, 10, 20):
            A = ball(G, 0, r)
            d = np.abs(W.exit_distribution(G, A, 0).a
                       - W.exit_distribution(G, A, 1).a).sum()
            assert d <= prev + 1e-12
            prev = d

    def test_region_of_another_graph_raises(self):
        # the path's region {0, 1} would give the path's law, all mass at 2;
        # on the cycle the walk exits at 2 w.p. 1/3 and at 7 w.p. 2/3
        G = cycle_graph(8)
        with pytest.raises(ValueError, match="another graph"):
            W.exit_distribution(G, ball(path_graph(8), 0, 1), 0)
        ex = W.exit_distribution(G, subset_view(G, [0, 1]), 0)
        assert abs(ex[2] - 1 / 3) < 1e-12 and abs(ex[7] - 2 / 3) < 1e-12

    def test_origin_must_be_inside(self):
        G = cycle_graph(8)
        A = subset_view(G, [0, 1])
        with pytest.raises(ValueError):
            W.exit_distribution(G, A, 5)

    def test_origin_must_be_a_vertex(self):
        # -1 would read the region's mask from its end and then land on
        # members[0]: vertex 0's law {3: 1/2, 7: 1/2} labelled -1, where
        # vertex 9's law is {3: 1/3, 7: 2/3}
        G = cycle_graph(10)
        A = subset_view(G, [0, 1, 2, 8, 9])
        assert np.allclose(W.exit_distribution(G, A, 9).a[[3, 7]],
                           [1 / 3, 2 / 3], rtol=0, atol=1e-12)
        for v in (-1, -10, 10):
            with pytest.raises(ValueError, match="vertex of the graph"):
                W.exit_distribution(G, A, v)
        with pytest.raises(ValueError, match="vertex of the graph"):
            W.exit_distributions(G, A, [0, -1])

    def test_whole_graph_region_raises(self):
        G = cycle_graph(6)
        A = subset_view(G, range(6))
        with pytest.raises(InvalidInput, match="no outer boundary"):
            W.exit_distribution(G, A, 0)

    @pytest.mark.parametrize("case", ["regular", "mixed"])
    def test_shared_solve_matches_separate(self, case):
        if case == "regular":
            G, v = torus_grid(7, 7), 0
            A = ball(G, v, 2)
        else:
            # leaves of degree 1 inside A take the direct-solver path
            G, v = regular_tree(3, 4), 4
            A = ball(G, v, 3)
        w = int(G.neighbors(v)[0])
        exv, exw = W.exit_distributions(G, A, [v, w])
        for origin, ex in ((v, exv), (w, exw)):
            alone = W.exit_distribution(G, A, origin)
            assert np.abs(ex.a - alone.a).max() <= 1e-12

    @pytest.mark.parametrize("case", ["torus", "tree"])
    def test_exit_laws_match_dense_solve(self, case):
        if case == "torus":  # constant degree inside the region
            G = torus_grid(9, 9)
            A = ball(G, 0, 3)
        else:  # the region reaches the degree-1 leaves
            G = regular_tree(3, 4)
            A = ball(G, 4, 3)
        origins = [int(v) for v in A.members[::3]]
        # killed walk: visit counts solve (I - Q^T) h = delta, exits are R^T h
        P = G.adjacency_matrix().toarray() / G.degrees[:, None]
        inside = A.members
        Q = P[np.ix_(inside, inside)]
        R = P[inside] * ~A.mask
        delta = np.eye(A.size)[:, np.searchsorted(inside, origins)]
        h = np.linalg.solve(np.eye(A.size) - Q.T, delta)
        exits = W.exit_distributions(G, A, origins)
        assert len(exits) == len(origins) > 1
        for j, ex in enumerate(exits):
            assert np.abs(ex.a - R.T @ h[:, j]).max() <= 1e-12

    def test_stopped_walk_converges_to_exit_law(self):
        G = torus_grid(6, 6)
        A = ball(G, 0, 2)
        walk = W.StoppedWalk(G, A)
        mu = Distribution.dirac(G, 0)
        first = walk.step(mu)
        assert np.array_equal(np.flatnonzero(first.a), np.sort(G.neighbors(0)))
        for _ in range(400):
            mu = walk.step(mu)
        assert abs(mu.a.sum() - 1.0) < 1e-12
        assert np.abs(mu.a - W.exit_distribution(G, A, 0).a).max() < 1e-12

    def test_whole_component_inside_raises(self):
        # the triangle 0-1-2 is a whole component inside A, so the walk
        # from 0 never leaves A although A has an outer boundary
        G = OrientedGraph(7, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5),
                              (5, 6)])
        A = subset_view(G, [0, 1, 2, 4])
        assert len(A.outer_boundary) > 0
        # the closed component becomes the error, whether or not SuperLU
        # meets a zero pivot; nothing is emitted on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="singular"):
                W.exit_distribution(G, A, 0)
            with pytest.raises(NumericalFailure, match="singular"):
                W.exit_distributions(G, A, [4, 0])

    @pytest.mark.parametrize("k", range(3, 13))
    def test_closed_clique_component(self, k):
        # K_k on 0..k-1 is a whole component inside A, next to the path
        # k - (k+1) - (k+2); SuperLU meets a zero pivot on it for k = 3, 5
        # and 9 only, and the exit law from k + 1 must not depend on that
        G = OrientedGraph(k + 3, [(x, y) for x in range(k)
                                  for y in range(x + 1, k)]
                          + [(k, k + 1), (k + 1, k + 2)])
        A = subset_view(G, list(range(k)) + [k + 1])
        ex = W.exit_distribution(G, A, k + 1)
        assert ex.a.tolist() == [0.0] * k + [0.5, 0.0, 0.5]
        with pytest.raises(NumericalFailure, match=f"vertex {k - 1} of the "
                           "region cannot reach the boundary"):
            W.exit_distribution(G, A, k - 1)
        with pytest.raises(NumericalFailure, match="vertex 1 of the region"):
            W.exit_distributions(G, A, [k + 1, 1])


class TestDirectSolve:
    @pytest.mark.parametrize("spec, R", [("zd:2", 6), ("free:2", 4),
                                         ("lamplighter:2,1", 5),
                                         ("heisenberg", 8)])
    def test_matches_dense_solve(self, spec, R):
        b = cayley_ball(build_group(spec), R)
        A = ball(b.graph, b.identity_vertex, R - 1)
        M = A.killed_walk()[0]
        L = A.grounded_laplacian()[3]
        rng = np.random.default_rng(5)
        for op in (M, M.T, L):
            rhs = rng.normal(size=op.shape[0])
            ref = np.linalg.solve(op.toarray(), rhs)
            err = np.linalg.norm(graphs.direct_solve(op, rhs) - ref)
            assert err <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("shape", [(7,), (7, 1), (7, 2)])
    def test_right_hand_side_keeps_its_shape(self, shape):
        G = path_graph(9)
        M = subset_view(G, range(1, 8)).killed_walk()[0]
        rhs = np.arange(np.prod(shape), dtype=float).reshape(shape) + 1.0
        x = graphs.direct_solve(M, rhs)
        assert x.shape == shape
        cols = rhs.reshape(7, -1).T
        for col, want in zip(x.reshape(7, -1).T, cols):
            assert np.allclose(M @ col, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("M", [
        np.array([[1.0, -1.0], [-1.0, 1.0]]),
        np.zeros((3, 3)),
        # the killed walk of the triangle, a region that no step leaves
        np.eye(3) - (np.ones((3, 3)) - np.eye(3)) / 2,
    ], ids=["rank_one", "zero", "triangle"])
    def test_singular_matrix_raises(self, M):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="singular sparse"):
                graphs.direct_solve(sp.csc_matrix(M), np.ones(len(M)))


def old_blocks(A):
    """The transition blocks (P, E) that region solves were assembled from
    before the killed-walk operator: CSR, each row holding the member's
    interior and exit steps in adjacency order."""
    G, k = A.graph, A.size
    pos = {int(v): i for i, v in enumerate(A.members)}
    blocks = {True: ([], [], [0]), False: ([], [], [0])}
    for v in A.members:
        nbrs = G.neighbors(v)
        for u in map(int, nbrs):
            data, idx, _ = blocks[u in pos]
            data.append(1.0 / len(nbrs))
            idx.append(pos.get(u, u))
        for data, idx, ptr in blocks.values():
            ptr.append(len(idx))
    return (sp.csr_matrix(blocks[True], shape=(k, k)),
            sp.csr_matrix(blocks[False], shape=(k, G.n)))


def killed_walk_regions():
    for spec, R in (("zd:2", 6), ("free:2", 4), ("heisenberg", 5),
                    ("lamplighter:2,1", 5), ("dinf", 8)):
        b = cayley_ball(build_group(spec), R)
        yield pytest.param(ball(b.graph, b.identity_vertex, R - 1), id=spec)
    T = regular_tree(3, 4)
    for centre, r in ((4, 3), (20, 2), (0, 3)):  # the first two reach leaves
        yield pytest.param(ball(T, centre, r), id=f"tree-{centre}-{r}")
    for n in (1, 2, 5, 30):
        P = path_graph(n + 3)
        yield pytest.param(subset_view(P, range(1, n + 2)), id=f"ruin-{n}")
    # irregular degrees, edges out of key order, so adjacency order is not
    # sorted order
    rng = np.random.default_rng(7)
    pairs = {(i, (i + 1) % 40) for i in range(40)}
    pairs |= {tuple(p) for p in rng.integers(0, 40, (30, 2)) if p[0] != p[1]}
    edges = sorted({(min(p), max(p)) for p in pairs})
    rng.shuffle(edges)
    G = OrientedGraph(40, edges)
    yield pytest.param(ball(G, 0, 2), id="irregular")


class TestKilledWalk:
    @pytest.mark.parametrize("A", list(killed_walk_regions()))
    def test_bitwise_equal_to_block_assembly(self, A):
        G = A.graph
        assert len(A.outer_boundary) > 0
        M = A.killed_walk()[0]
        assert M.format == "csc" and M.has_canonical_format
        P, E = old_blocks(A)
        sources = [int(v) for v in A.members[::max(1, A.size // 4)]]
        b = np.zeros((A.size, len(sources)))
        b[np.searchsorted(A.members, sources), np.arange(len(sources))] = 1.0
        h_ref = graphs.direct_solve(sp.identity(A.size, format="csc") - P.T, b)
        h, exits = A.exit_solve(sources)
        assert np.array_equal(h, h_ref)
        for col, ex in zip(h_ref.T, exits):
            assert np.array_equal(ex.a, E.T @ col)
        bv = np.zeros(G.n)
        bv[A.outer_boundary] = np.sin(A.outer_boundary + 0.5)
        f = H.dirichlet_extend(G, A, {int(v): bv[v] for v in A.outer_boundary})
        ref = graphs.direct_solve(sp.identity(A.size) - P, E @ bv)
        assert np.array_equal(f.a[A.members], ref)

    def test_operator_built_once_per_region(self, monkeypatch):
        G = torus_grid(7, 7)
        A = ball(G, 0, 2)
        calls = []
        slots = graphs.adjacency_slots
        monkeypatch.setattr(graphs, "adjacency_slots",
                            lambda *a: calls.append(1) or slots(*a))
        first = W.exit_distributions(G, A, [0, 1])
        H.dirichlet_extend(G, A, {int(v): 1.0 for v in A.outer_boundary})
        again = W.exit_distributions(G, A, [0, 1])
        assert len(calls) == 1
        for x, y in zip(first, again):
            assert np.array_equal(x.a, y.a)

    def test_each_region_path_solves_once(self, monkeypatch):
        import harmlab.transport as T
        import harmlab.window as window
        G = torus_grid(7, 7)
        A = ball(G, 0, 2)
        solves, labellings = [], []
        solve, label = graphs.direct_solve, graphs.connected_components
        monkeypatch.setattr(graphs, "direct_solve",
                            lambda *a: solves.append(1) or solve(*a))
        monkeypatch.setattr(graphs, "connected_components",
                            lambda *a, **k: labellings.append(1)
                            or label(*a, **k))
        g = VertexField(G)
        g.a[[0, 1]] = 1.0, -1.0
        for path in (
                lambda: W.exit_distributions(G, A, [0, 1]),
                lambda: H.dirichlet_extend(
                    G, A, {int(v): 1.0 for v in A.outer_boundary}),
                lambda: T.laplacian_transport(G, A, g),
                lambda: window.complement_basis(G, A)):
            solves.clear()
            path()
            assert len(solves) == 1
        # the window solve reused the grounded Laplacian of the transport
        grounded = A.grounded_laplacian()
        labellings.clear()
        T.laplacian_transport(G, A, g)
        window.complement_basis(G, A)
        assert labellings == []
        assert A.grounded_laplacian() is grounded


class TestEntropy:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_renyi_monotone_in_q(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        a = rng.random(n) ** 3
        G = cycle_graph(max(3, n))
        mu = Distribution(G, np.pad(a / a.sum(), (0, G.n - n)))
        qs = [0, 0.5, 1, 1.5, 2, 4, np.inf]
        hs = [W.renyi(mu, q) for q in qs]
        for x, y in zip(hs, hs[1:]):
            assert x >= y - 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_renyi_interpolation(self, seed):
        # H_p <= (p (q-1)) / ((p-1) q) H_q for 1 < p < q
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        a = rng.random(n) ** 2
        G = cycle_graph(max(3, n))
        mu = Distribution(G, np.pad(a / a.sum(), (0, G.n - n)))
        for p, q in ((1.5, 2), (2, 4), (1.2, 8)):
            lhs = W.renyi(mu, p)
            rhs = (p * (q - 1)) / ((p - 1) * q) * W.renyi(mu, q)
            assert lhs <= rhs + 1e-10

    @pytest.mark.parametrize("q", [-1.0, np.nan])
    def test_order_out_of_range_raises(self, q):
        # a NaN order passed the range check and returned NaN
        mu = Distribution.uniform(cycle_graph(16), range(8))
        with pytest.raises(ValueError, match="q must be"):
            W.renyi(mu, q)

    def test_uniform_values(self):
        G = cycle_graph(16)
        mu = Distribution.uniform(G, range(8))
        for q in (0, 1, 2, np.inf):
            assert abs(W.renyi(mu, q) - np.log(8)) < 1e-12

    def test_h2_collision_identity(self):
        # H_2 of P^n delta_e equals -ln P^{2n}(e) for symmetric kernels
        B = cayley_ball(build_group("zd:2"), 25)
        for n in (3, 7, 11):
            mu = W.distribution(B, n, laziness=0.5)
            mu2 = W.distribution(B, 2 * n, laziness=0.5)
            assert abs(W.renyi(mu, 2)
                       + np.log(mu2[B.identity_vertex])) < 1e-12

    def test_speed(self):
        B = cayley_ball(build_group("zd:1"), 10)
        mu = W.distribution(B, 4)
        assert abs(W.speed(mu, B.word_length)
                   - np.dot(mu.a, B.word_length)) == 0

    def test_entropy_iso_guard(self):
        G = cycle_graph(5)
        f = Distribution.dirac(G, 0)
        with pytest.raises(InvalidInput, match="1/e"):
            W.entropy_isoperimetry_check(f, 1.0, 1.0)

    @pytest.mark.parametrize("nu, K, name", [
        (0.0, 1.0, "nu"), (-1.0, 1.0, "nu"), (np.nan, 1.0, "nu"),
        (np.inf, 1.0, "nu"), (1.0, np.nan, "K"), (1.0, np.inf, "K")])
    def test_entropy_iso_domain(self, nu, K, name):
        # nu <= 0 divided by zero or gave a bound; NaN reported a failed
        # inequality
        f = Distribution.uniform(cycle_graph(8), range(8))
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            W.entropy_isoperimetry_check(f, nu, K)


class TestBallWalks:
    def test_boundary_guard(self):
        B = cayley_ball(build_group("zd:1"), 4)
        with pytest.raises(InvalidInput, match="truncation sphere"):
            W.distribution(B, 6)

    @pytest.mark.parametrize("spec", ["zd:2", "free:2", "heisenberg",
                                      "lamplighter:2,1", "dinf"])
    def test_walk_reaches_the_sphere_and_stops(self, spec):
        # R steps keep the mass, a step from the sphere raises
        R = 5
        B = cayley_ball(build_group(spec), R)
        for laziness in (0.0, 0.5):
            mu = W.distribution(B, R, laziness)
            assert abs(mu.a.sum() - 1.0) < 1e-12
            assert mu.a[B.word_length == R].sum() > 0
            assert len(W.entropy_profile(B, R, laziness)) == R + 1
            with pytest.raises(InvalidInput, match="truncation sphere"):
                W.distribution(B, R + 1, laziness)
            with pytest.raises(InvalidInput, match="truncation sphere"):
                W.entropy_profile(B, R + 1, laziness)
        g, _ = W.green_partial(B, B.identity_vertex, R + 1)
        assert abs(g.a.sum() - 1.0) < 1e-12
        with pytest.raises(InvalidInput, match="truncation sphere"):
            W.green_partial(B, B.identity_vertex, R + 2)

    @pytest.mark.parametrize("spec", ["zd:2", "free:2", "heisenberg",
                                      "lamplighter:2,1", "dinf", "bs:1,2"])
    def test_laws_on_the_sphere_count_the_edges_that_leave(self, spec):
        # the gradient and the Green residual of a law on the sphere of
        # B(R) take the edges out of the ball; B(R + 1) holds them all.
        # Counting only the ball's edges gave 1.75, not 2, on zd:1
        R = 3
        small, big = (cayley_ball(build_group(spec), r) for r in (R, R + 1))
        for laziness in (0.0, 0.5):
            rows = [[row["grad_l1"] for row in W.entropy_profile(b, R,
                                                                 laziness)]
                    for b in (small, big)]
            assert np.abs(np.subtract(*rows)).max() < 1e-12
        for n in range(1, R + 2):
            resid = [W.green_partial(b, b.identity_vertex, n)[1]
                     for b in (small, big)]
            assert abs(resid[0] - resid[1]) < 1e-12

    def test_z1_binomial(self):
        B = cayley_ball(build_group("zd:1"), 8)
        mu = W.distribution(B, 6)
        from math import comb
        for k in (-6, -2, 0, 4, 6):
            if (6 + k) % 2 == 0:
                want = comb(6, (6 + k) // 2) / 2 ** 6
                assert abs(mu[B.vertex_of[(k,)]] - want) < 1e-14

    def test_green_start_out_of_range_raises(self):
        # -1 started the walk at the last vertex of the ball
        b = cayley_ball(build_group("zd:2"), 4)
        for x in (-1, b.n):
            with pytest.raises(ValueError, match="vertex of the graph"):
                W.green_partial(b, x, 1)

    def test_green_residual_decay(self):
        B = cayley_ball(build_group("zd:2"), 22)
        prev = np.inf
        for n in (2, 5, 10, 20):
            g, resid = W.green_partial(B, B.identity_vertex, n)
            assert resid <= 2.0 / n + 1e-12
            assert resid <= prev + 1e-12
            prev = resid

    @pytest.mark.parametrize("spec", ["zd:2", "free:2", "heisenberg"])
    def test_green_partials_match_green_partial_bit_for_bit(self, spec):
        # against a call per n and against the sum written out, in the
        # order of the additions of a call per n
        B = cayley_ball(build_group(spec), 6)
        A, d = B.graph.adjacency_matrix(), B.group.degree
        x = int(B.nbr[0, 1])
        items = list(W.green_partials(B, x, 6))
        assert len(items) == 6
        a, acc = np.zeros(B.n), np.zeros(B.n)
        a[x] = 1.0
        for n, (g, resid) in enumerate(items, 1):
            g_n, resid_n = W.green_partial(B, x, n)
            assert g.a.tobytes() == g_n.a.tobytes() and resid == resid_n
            acc += a
            want = acc / n
            assert g.a.tobytes() == want.tobytes()
            assert resid == float(np.abs(want - A.dot(want) / d).sum()
                                  + want @ (d - B.graph.degrees) / d)
            a = A.dot(a) / d
        # the walk stops at the item whose step would leave the ball
        with pytest.raises(InvalidInput, match="truncation sphere"):
            list(W.green_partials(B, x, 7))

    def test_radial_tree_matches_explicit_ball(self):
        # the walk from the root of the depth-9 tree takes n - 1 <= 6
        # steps, so g_n and P g_n never reach the degree-1 leaves
        T = regular_tree(4, 9)
        P = T.adjacency_matrix() / 4
        a = np.zeros(T.n)
        a[0] = 1.0
        acc = np.zeros(T.n)
        want = []
        for n in range(1, 8):
            acc += a
            g = acc / n
            want.append(np.abs(g - P.dot(g)).sum())
            a = P.dot(a)
        got = W.radial_green_residuals(4, 7)
        assert np.abs(got - want).max() < 1e-12

    def test_radial_green_residuals(self):
        res = W.radial_green_residuals(4, 50)
        n = np.arange(1, 51)
        assert np.all(res <= 2.0 / n + 1e-12)

    # a float count was a bare TypeError, and -1 steps gave the step-0 law
    @pytest.mark.parametrize("call, name", [
        (lambda B: W.green_partial(B, 0, 1.5), "n"),
        (lambda B: W.green_partial(B, 0, True), "n"),
        (lambda B: W.distribution(B, -1), "n"),
        (lambda B: W.distribution(B, 1.0), "n"),
        (lambda B: W.entropy_profile(B, -1), "N"),
        (lambda B: W.radial_green_residuals(3, 1.5), "n_max"),
    ], ids=["green_float", "green_bool", "distribution_negative",
            "distribution_float", "entropy_negative", "radial_green_float"])
    def test_step_count_must_be_an_integer(self, call, name):
        B = cayley_ball(build_group("zd:1"), 6)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(B)

    @pytest.mark.parametrize("d, n_max, name", [
        (1, 5, "d"), (0, 5, "d"), (3, -1, "n_max")])
    def test_radial_tree_arguments(self, d, n_max, name):
        # d = 1 divided by d - 1 = 0
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            W.radial_green_residuals(d, n_max)

    @pytest.mark.parametrize("laziness", [-0.5, 1.0, 1.5, np.nan])
    def test_laziness_outside_unit_interval(self, laziness):
        # graphs.check_laziness: a holding probability lies in [0, 1)
        B = cayley_ball(build_group("zd:1"), 6)
        for walk in (lambda: W.distribution(B, 2, laziness),
                     lambda: W.entropy_profile(B, 2, laziness)):
            with pytest.raises(ValueError):
                walk()

    def test_entropy_profile_rows(self):
        B = cayley_ball(build_group("free:2"), 8)
        rows = W.entropy_profile(B, 6)
        assert [r["n"] for r in rows] == list(range(7))
        h1 = [r["H1"] for r in rows]
        assert all(x <= y + 1e-12 for x, y in zip(h1, h1[1:]))
        assert rows[0]["H1"] == 0.0
