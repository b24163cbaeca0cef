import itertools
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings, strategies as st

import harmlab.cli as cli
import harmlab.isoperimetry as I
import harmlab.spectral as S
from harmlab.errors import InvalidInput, NumericalFailure
from harmlab.graphs import (OrientedGraph, complete_graph, cycle_graph,
                            hypercube_graph, lp_norm, random_regular_graph,
                            subset_view, torus_grid)


class TestCheeger:
    def test_c4(self):
        val, w, d = S.cheeger_kappa1(cycle_graph(4))
        assert val == 1.0 and len(w) == 2 and d == "exact"

    def test_c6(self):
        val, w, _ = S.cheeger_kappa1(cycle_graph(6))
        assert abs(val - 2 / 3) < 1e-15 and len(w) == 3

    def test_cycles_closed_form(self):
        for n in range(3, 13):
            val, _, _ = S.cheeger_kappa1(cycle_graph(n))
            assert abs(val - 2 / (n // 2)) < 1e-12

    def test_complete_closed_form(self):
        # |F| = s has boundary s(n-s); the min ratio is n - floor(n/2)
        for n in range(3, 9):
            val, _, _ = S.cheeger_kappa1(complete_graph(n))
            assert abs(val - (n - n // 2)) < 1e-12

    def test_q3_face(self):
        val, w, _ = S.cheeger_kappa1(hypercube_graph(3))
        assert val == 1.0 and len(w) == 4

    def test_witness_attains_value(self):
        G = random_regular_graph(3, 14, seed=7)
        val, w, _ = S.cheeger_kappa1(G)
        F = subset_view(G, w)
        assert abs(F.boundary_size / F.size - val) < 1e-12

    def test_milp_matches_bitmask(self):
        for seed in (0, 1, 2):
            G = random_regular_graph(3, 12, seed=seed)
            v1, _ = S._cheeger_bitmask(G)
            v2, _ = S._cheeger_milp(G)
            assert abs(v1 - v2) < 1e-9

    def test_sweep_is_upper_bound(self):
        G = torus_grid(9, 9)
        val, w, d = S.cheeger_kappa1(G)
        assert d == "upper_bound"
        F = subset_view(G, w)
        assert abs(F.boundary_size / F.size - val) < 1e-12

    def test_isolated_vertex_is_exact_zero(self):
        # above the bitmask limit, before any eigensolve or integer program
        assert S.cheeger_kappa1(OrientedGraph(70, [])) == (0.0, [0], "exact")
        C = cycle_graph(29)
        G = OrientedGraph(30, np.column_stack([C.tails, C.heads]))
        assert S.cheeger_kappa1(G) == (0.0, [29], "exact")


class TestEigen:
    def test_degree_zero_is_a_library_error(self):
        with pytest.raises(InvalidInput, match="degree >= 1"):
            S.lambda2(OrientedGraph(3, []))

    def test_cycle_lambda2(self):
        for n in (3, 4, 5, 6, 8, 12):
            assert abs(S.lambda2(cycle_graph(n))
                       - (1 - np.cos(2 * np.pi / n))) < 1e-12

    def test_complete_lambda2(self):
        for n in (3, 4, 6, 8):
            assert abs(S.lambda2(complete_graph(n)) - n / (n - 1)) < 1e-12

    def test_hypercube_lambda2(self):
        for d in (2, 3, 4):
            assert abs(S.lambda2(hypercube_graph(d)) - 2 / d) < 1e-12

    def test_kappa2_identity(self):
        for G in (cycle_graph(7), hypercube_graph(3),
                  random_regular_graph(3, 10, seed=1)):
            k2, direction, _ = S.kappa_p_estimate(G, 2)
            assert direction == "exact"
            d = G.regular_degree
            assert abs(k2 ** 2 - d * S.lambda2(G)) < 1e-8


class TestEstimates:
    def test_kappa_p_descent_at_p2_matches_exact(self):
        G = hypercube_graph(3)
        exact = np.sqrt(3 * S.lambda2(G))
        # force the generic descent path at p = 2.001, close to exact
        val, direction, wit = S.kappa_p_estimate(G, 2.001)
        assert direction == "upper_bound"
        assert val >= exact * (1 - 5e-3)

    def test_kappa_p_witness_ratio(self):
        from harmlab.graphs import VertexField, gradient, lp_norm
        G = random_regular_graph(3, 12, seed=3)
        for p in (1.5, 3.0):
            val, _, wit = S.kappa_p_estimate(G, p)
            f = VertexField(G, wit)
            r = lp_norm(gradient(f), p) / lp_norm(f, p)
            assert abs(r - val) < 1e-9

    def test_lambda_p_exact_at_two(self):
        G = cycle_graph(8)
        val, d = S.lambda_p_estimate(G, 2)
        assert d == "exact" and abs(val - S.lambda2(G)) < 1e-12

    @pytest.mark.parametrize("p", [0.5, S.P_MAX * 1.01, 1e5, np.inf])
    def test_exponents_outside_the_range_raise(self, p):
        # the CLI's --p check and the library share S.P_MAX
        G = cycle_graph(5)
        with pytest.raises(ValueError):
            S.kappa_p_estimate(G, p)
        with pytest.raises(ValueError):
            S.lambda_p_estimate(G, p)

    def test_lambda_p_is_certified_upper_bound(self):
        # the operator norm estimate from any single vector is a lower
        # bound, hence the reported lambda_p over-shoots
        G = random_regular_graph(3, 10, seed=5)
        for p in (1.5, 3.0):
            val, d = S.lambda_p_estimate(G, p)
            assert d == "upper_bound"
            rng = np.random.default_rng(0)
            M = np.linalg.pinv(np.eye(G.n)
                               - G.adjacency_matrix().toarray() / 3)
            from harmlab.graphs import lp_norm
            for _ in range(30):
                x = rng.normal(size=G.n)
                x -= x.mean()
                est = lp_norm(M.dot(x), p) / lp_norm(x, p)
                assert val <= 1.0 / est + 1e-9


def per_start_lambda_p(G, p):
    """Reference lambda_p estimate: the power iteration run one start at a
    time, with one matvec and one lp_norm per step."""
    M = scipy.linalg.pinvh(S._dense_laplacian(G))
    q = p / (p - 1.0)
    rng = np.random.default_rng(S.ESTIMATE_SEED)
    best = 0.0
    for _ in range(S.LAMBDA_STARTS):
        x = rng.normal(size=G.n)
        x -= x.mean()
        x /= lp_norm(x, p)
        prev = 0.0
        for _ in range(S.LAMBDA_MAX_ITER):
            y = M.dot(x)
            est = lp_norm(y, p)
            z = M.dot(np.sign(y) * np.abs(y) ** (p - 1))
            x = np.sign(z) * np.abs(z) ** (q - 1)
            x -= x.mean()
            x /= lp_norm(x, p)
            if abs(est - prev) <= S.LAMBDA_TOL * max(est, 1e-300):
                break
            prev = est
        best = max(best, est)
    return float(1.0 / best), "upper_bound"


def per_call_kappa_p(G, p):
    """Reference kappa_p estimate: an objective that multiplies by the
    sparse incidence matrix and its transpose on every call."""
    B = G.incidence_matrix()
    rng = np.random.default_rng(S.ESTIMATE_SEED)

    def ratio_and_grad(x):
        f = x - x.mean()
        g = B.dot(f)
        nf = lp_norm(f, p)
        ng = lp_norm(g, p)
        gg = B.T.dot(np.sign(g) * np.abs(g) ** (p - 1)) / ng ** p
        gf = np.sign(f) * np.abs(f) ** (p - 1) / nf ** p
        grad = gg - gf
        grad -= grad.mean()
        return ng / nf, np.log(ng) - np.log(nf), grad

    best = (np.inf, None)
    starts = [S._fiedler(G)[1]] + [rng.normal(size=G.n)
                                   for _ in range(S.KAPPA_STARTS - 1)]
    for x0 in starts:
        res = scipy.optimize.minimize(
            lambda x: ratio_and_grad(x)[1:], x0, jac=True, method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12})
        r = ratio_and_grad(res.x)[0]
        if r < best[0]:
            best = (r, res.x - res.x.mean())
    return float(best[0]), "upper_bound", best[1]


REFERENCE_GRAPHS = [random_regular_graph(3, 10, seed=1),
                    random_regular_graph(4, 13, seed=2),
                    random_regular_graph(3, 16, seed=3), hypercube_graph(3)]


class TestEstimatesMatchPerStartLoops:
    # the batched and the per-start loops do the same float operations on
    # each start, so every value and witness is equal, not just close
    @pytest.mark.parametrize("p", [1.5, 3.0, 7.0])
    @pytest.mark.parametrize("G", REFERENCE_GRAPHS,
                             ids=["rr3_10", "rr4_13", "rr3_16", "Q3"])
    def test_equal_to_reference(self, G, p):
        assert S.lambda_p_estimate(G, p) == per_start_lambda_p(G, p)
        val, direction, wit = S.kappa_p_estimate(G, p)
        ref_val, ref_direction, ref_wit = per_call_kappa_p(G, p)
        assert (val, direction) == (ref_val, ref_direction)
        assert np.array_equal(wit, ref_wit)

    @pytest.mark.parametrize("max_iter", [1, 3, 40])
    @pytest.mark.parametrize("G", REFERENCE_GRAPHS,
                             ids=["rr3_10", "rr4_13", "rr3_16", "Q3"])
    def test_equal_under_an_iteration_cap(self, monkeypatch, G, max_iter):
        # starts on Q3 retire after 2 to 281 steps: a low cap stops some
        # mid-way while others have retired
        monkeypatch.setattr(S, "LAMBDA_MAX_ITER", max_iter)
        for p in (1.5, 4.0):
            assert S.lambda_p_estimate(G, p) == per_start_lambda_p(G, p)


class TestEstimateFailures:
    def test_lambda_p_collapse_raises(self, monkeypatch):
        monkeypatch.setattr(scipy.linalg, "pinvh", np.zeros_like)
        with pytest.raises(NumericalFailure, match="collapsed"):
            S.lambda_p_estimate(cycle_graph(6), 3.0)
        assert cli.main(["spectral", "--graph", "cycle:6", "--p", "3"]) == \
            cli.EXIT_NUMERIC

    def test_kappa_p_without_finite_ratio_raises(self, monkeypatch):
        # every start ends at NaN: no ratio is below infinity
        monkeypatch.setattr(scipy.optimize, "minimize",
                            lambda fun, x0, **kw: scipy.optimize.OptimizeResult(
                                x=np.full(len(x0), np.nan)))
        with pytest.raises(NumericalFailure, match="no finite ratio"):
            S.kappa_p_estimate(cycle_graph(6), 3.0)
        assert cli.main(["spectral", "--graph", "cycle:6", "--p", "3"]) == \
            cli.EXIT_NUMERIC

    def test_kappa_p_drops_overflowing_starts(self, capsys):
        # some starts on cycle:50 end where |f|^30 overflows; the ratio 0
        # of such a start was reported as an upper bound on kappa_30
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["spectral", "--graph", "cycle:50",
                             "--p", "30"]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert rep["entries"][0]["kappa"] > 0
        assert all(q["holds"] for q in rep["inequalities"]
                   if q["status"] == "asserted")

    @pytest.mark.parametrize("G", [
        cycle_graph(5), cycle_graph(12), cycle_graph(30), cycle_graph(50),
        hypercube_graph(3), hypercube_graph(4), hypercube_graph(6),
        torus_grid(4, 4), torus_grid(6, 6), torus_grid(8, 8),
        complete_graph(6), complete_graph(20)], ids=[
        "cycle:5", "cycle:12", "cycle:30", "cycle:50", "hypercube:3",
        "hypercube:4", "hypercube:6", "grid:4,4", "grid:6,6", "grid:8,8",
        "complete:6", "complete:20"])
    def test_lambda_p_at_p_max_is_finite_without_warnings(self, G):
        # the twelve graphs of the P_MAX comment: the power iteration
        # renormalises its rows every step, so |x|^p stays in range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, direction = S.lambda_p_estimate(G, S.P_MAX)
        assert np.isfinite(val) and val > 0 and direction == "upper_bound"

    def test_kappa_p_with_every_start_overflowing_raises(self, monkeypatch):
        monkeypatch.setattr(scipy.optimize, "minimize",
                            lambda fun, x0, **kw: scipy.optimize.OptimizeResult(
                                x=1e300 * x0))
        with pytest.raises(NumericalFailure, match="no finite ratio"):
            S.kappa_p_estimate(cycle_graph(6), 3.0)


class TestChain:
    @pytest.mark.parametrize("G", [cycle_graph(6), hypercube_graph(3),
                                   complete_graph(5),
                                   random_regular_graph(3, 16, seed=2),
                                   torus_grid(4, 4)],
                             ids=["C6", "Q3", "K5", "rand3reg16", "T44"])
    def test_no_violations(self, G):
        rep = S.verify_gap_chain(G)
        assert rep.violations() == []

    def test_report_shape(self):
        rep = S.verify_gap_chain(cycle_graph(5), p_list=(1.5,))
        items = {q.item for q in rep.inequalities}
        assert {"kappa2_identity", "cheeger_lower", "cheeger_upper",
                "item6_left", "item6_right", "item1", "item3",
                "item4_lemma", "item5"} <= items
        assert len(rep.entries) == 1 and rep.entries[0].p == 1.5

    def test_judged_directions(self):
        rep = S.verify_gap_chain(cycle_graph(6), p_list=(3,))
        by = {q.item: q for q in rep.inequalities}
        # exact lhs and rhs: asserted outright
        assert by["kappa2_identity"].status == "asserted"
        assert by["cheeger_upper"].status == "asserted"
        # upper-bound rhs forces a slack check
        assert by["item1"].status == "checked-with-slack"


def brute_force_cheeger(n, edges):
    """First minimiser of |boundary F| / |F| over 1 <= |F| <= n/2, in
    ascending bitmask order, with exact rational ratios."""
    best = None
    for mask in range(1, 1 << n):
        bits = [(mask >> v) & 1 for v in range(n)]
        F = list(itertools.compress(range(n), bits))
        if len(F) > n // 2:
            continue
        ratio = Fraction(sum(bits[x] != bits[y] for x, y in edges), len(F))
        if best is None or ratio < best[0]:
            best = (ratio, F)
    return best


@st.composite
def small_graphs(draw):
    """Graphs on 2..12 vertices: random edge sets (mostly non-regular,
    often disconnected, sometimes empty) and disjoint unions of cycles
    (regular, often disconnected)."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 12))
        pairs = list(itertools.combinations(range(n), 2))
        edges = sorted(draw(st.sets(st.sampled_from(pairs))))
        return n, edges
    lengths = draw(st.lists(st.integers(3, 6), min_size=1, max_size=3))
    n = 0
    edges = []
    for k in lengths:
        edges += [tuple(sorted((n + i, n + (i + 1) % k))) for i in range(k)]
        n += k
    return n, sorted(edges)


class TestExactCheegerAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_bitmask_and_milp(self, case):
        n, edges = case
        G = OrientedGraph(n, edges)
        value, first = brute_force_cheeger(n, edges)
        bitmask = S._cheeger_bitmask(G)
        for val, wit in (bitmask, S._cheeger_milp(G)):
            assert val == float(value)
            F = subset_view(G, wit)
            assert 1 <= F.size <= n // 2
            assert Fraction(F.boundary_size, F.size) == value
        assert bitmask[1] == first


def fake_milp(status, dual_bound, incumbent):
    """A stand-in for scipy.optimize.milp returning a fixed result whose
    vertex part is the indicator of `incumbent`."""
    def milp(c, **kwargs):
        x = np.zeros(len(c))
        x[list(incumbent)] = 1.0
        return scipy.optimize.OptimizeResult(
            status=status, success=status == 0, message=f"status {status}",
            x=x if status == 0 else None, fun=float(c.dot(x)),
            mip_dual_bound=dual_bound)
    return milp


class TestIntegerProgramSoundness:
    # on C26 the sweep start is an arc of 13 vertices, ratio 2/13; an arc
    # of 13 as incumbent has objective 0, an arc of 20 breaks |F| <= n/2
    @pytest.mark.parametrize("status, dual_bound, incumbent",
                             [(1, None, range(13)), (0, -1.0, range(13)),
                              (0, -5.0, range(13)), (0, 0.0, range(20))],
                             ids=["time_limit", "bound_-1", "bound_-5",
                                  "oversized"])
    def test_unproved_optimum_raises(self, monkeypatch, status, dual_bound,
                                     incumbent):
        monkeypatch.setattr(scipy.optimize, "milp",
                            fake_milp(status, dual_bound, incumbent))
        with pytest.raises(NumericalFailure, match="integer program"):
            S.cheeger_kappa1(cycle_graph(26))

    def test_min_boundary_exact_raises(self, monkeypatch):
        monkeypatch.setattr(scipy.optimize, "milp",
                            fake_milp(1, None, range(4)))
        with pytest.raises(NumericalFailure, match="integer program"):
            I.min_boundary_exact(torus_grid(4, 4), 4)

    def test_cli_exits_numeric(self, monkeypatch):
        monkeypatch.setattr(scipy.optimize, "milp",
                            fake_milp(1, None, range(3)))
        # no subcommand calls min_boundary_exact, so route iso profile
        # through it
        monkeypatch.setattr(I, "profile",
                            lambda G, size, budget: I.min_boundary_exact(
                                G, size))
        assert cli.main(["iso", "profile", "--graph", "cycle:6",
                         "--max-size", "3"]) == cli.EXIT_NUMERIC
        assert cli.main(["spectral", "--graph", "cycle:26"]) == \
            cli.EXIT_NUMERIC
