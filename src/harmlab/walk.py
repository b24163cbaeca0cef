"""Random walks: stopped walks, exit distributions, entropy and Green
partial sums.

Walks on Cayley balls use the ambient group degree, so distributions are
faithful as long as their support stays in the interior; operations that
would touch the truncation sphere raise InvalidInput instead of
silently leaking mass.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import InvalidInput, NumericalFailure
from .graphs import (Distribution, check_count, check_laziness,
                     check_vertices, gradient, lp_norm, subset_view)
from .tolerances import MASS_TOL, ROUNDING


class StoppedWalk:
    """Simple walk frozen outside the region A: mass at a vertex of A moves
    uniformly to its neighbours, mass elsewhere is a fixed point.  Exit
    laws and stopped-walk transports solve for the limit directly."""

    def __init__(self, G, A):
        self.graph = G
        self.region = A

    def step(self, nu):
        M, (rows, to, prob) = self.region.killed_walk()
        inside = nu.a[self.region.members]
        a = nu.a + np.bincount(to, weights=prob * inside[rows],
                               minlength=len(nu.a))
        a[self.region.members] -= M @ inside  # leaves P^T inside
        return Distribution(self.graph, a, check=False)


# SuperLU settings of every region solve.  Each matrix solved is column
# diagonally dominant (M = I - P^T), row diagonally dominant (M^T) or
# symmetric positive definite (a grounded Laplacian), so elimination in any
# symmetric order needs no pivoting: the pivots stay on the diagonal and the
# growth factor is at most 2 (Higham, Accuracy and Stability of Numerical
# Algorithms, sec. 9.5).  That lets SuperLU order by minimum degree on
# M + M^T, which on a Heisenberg region fills less than half as much as
# its default column ordering with partial pivoting.
LU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
              "options": {"SymmetricMode": True}}


def direct_solve(M, b):
    """Solve the square sparse system M x = b (b a vector or one column per
    right-hand side) by sparse LU: SuperLU with LU_OPTIONS, minimum-degree
    ordering on M + M^T and diagonal pivots, which diagonal dominance or
    definiteness of M keeps stable.  Raises NumericalFailure when SuperLU
    meets a zero pivot or the solution is not finite."""
    try:
        lu = spla.splu(M.tocsc(), **LU_OPTIONS)
    except RuntimeError as err:  # "Factor is exactly singular"
        if "singular" not in str(err):
            raise
        raise NumericalFailure("singular sparse system") from None
    x = lu.solve(np.asarray(b, dtype=float))
    if not np.all(np.isfinite(x)):
        raise NumericalFailure("sparse solve gave a non-finite solution")
    return x


def closed_members(A, at=slice(None)):
    """Mask over A.members, True in each component of A that no step
    leaves: the walk from there never exits, and M is singular there
    unless the component is a vertex without neighbours.  Raises
    NumericalFailure naming the first member at the positions `at` (all
    members by default) that lies in such a component."""
    M, (rows, _, _) = A.killed_walk()
    _, labels = connected_components(M, directed=False)
    closed = ~np.isin(labels, labels[rows])
    hit = np.flatnonzero(closed[at])
    if len(hit):
        v = A.members[at][hit[0]]
        raise NumericalFailure(f"singular system: vertex {v} of the region "
                               "cannot reach the boundary")
    return closed


def _interior_solve(G, A, sources):
    """Expected visit counts inside A of the walk killed on leaving A: column
    j of h solves M h = delta_{sources[j]}, M = I - P^T the operator of
    A.killed_walk(), all columns by one sparse LU solve.  Returns (h, exit
    laws), the exit law of column j being the flux of h[:, j] out of A.
    Components of A that no step leaves are dropped from the solve when it
    fails.  Raises InvalidInput if A has no outer boundary, NumericalFailure
    if the walk from a source cannot leave A."""
    A = subset_view(G, A)
    sources = [int(v) for v in check_vertices(G, sources)]
    if not np.all(A.mask[sources]):
        raise ValueError("origin must lie inside the region")
    if len(A.outer_boundary) == 0:
        raise InvalidInput("region has no outer boundary")
    M, (rows, to, prob) = A.killed_walk()
    at = np.searchsorted(A.members, sources)
    b = np.zeros((A.size, len(sources)))
    b[at, np.arange(len(sources))] = 1.0
    try:
        h = direct_solve(M, b)
    except NumericalFailure:
        # only now look for components that no step leaves: M is singular on
        # them, and b vanishes there unless a source lies in one
        live = ~closed_members(A, at)
        if live.all():
            raise
        h = np.zeros_like(b)
        h[live] = direct_solve(M[live][:, live], b[live])
    # the flux of each column of h out of A, summed in slot order
    exits = [np.bincount(to, weights=prob * col[rows], minlength=A.graph.n)
             for col in h.T]
    for ex in exits:
        total = ex.sum()
        if abs(total - 1.0) > MASS_TOL:
            closed_members(A, at)  # names a source that cannot leave A
            raise NumericalFailure(f"exit mass {total} differs from 1")
    return h, [Distribution(G, ex, check=False) for ex in exits]


def exit_distributions(G, A, origins):
    """Exact absorbing-chain exit laws through the region A, one per origin,
    from a single solve on A."""
    return _interior_solve(G, A, origins)[1]


def exit_distribution(G, A, v):
    """Exact absorbing-chain exit law from v through the region A."""
    return exit_distributions(G, A, [v])[0]


# -- entropy ---------------------------------------------------------------


def entropy(mu):
    """Shannon entropy with the convention 0 ln 0 = 0."""
    a = mu.a[mu.a > 0]
    return float(-(a * np.log(a)).sum() + 0.0)


def renyi(mu, q):
    """Renyi entropy H_q; H_0 counts the support, H_1 is Shannon,
    H_inf is minus the log of the largest atom."""
    if not q >= 0:
        raise ValueError("q must be >= 0")
    if q == 0:
        return float(np.log(np.count_nonzero(mu.a)))
    if q == 1:
        return entropy(mu)
    if q == np.inf:
        return float(-np.log(mu.a.max()))
    a = mu.a[mu.a > 0]
    return float(np.log((a ** q).sum()) / (1.0 - q))


def speed(mu, word_length):
    """Expected word length under mu."""
    return float(np.dot(mu.a, word_length))


def entropy_isoperimetry_check(f, nu, K):
    """Both sides of the gradient-entropy inequality
    ||grad f||_1 >= (K nu/(nu+1)) H(f)^{-1/nu} for a distribution with
    all atoms <= 1/e.  Raises ValueError unless nu > 0 and K are
    finite."""
    if not (np.isfinite(nu) and nu > 0):
        raise ValueError(f"nu must be finite and > 0, not {nu!r}")
    if not np.isfinite(K):
        raise ValueError(f"K must be finite, not {K!r}")
    if f.a.max() > np.exp(-1.0) + ROUNDING:
        raise InvalidInput("inequality requires ||f||_inf <= 1/e")
    lhs = lp_norm(gradient(f), 1)
    H = entropy(f)
    rhs = (K * nu / (nu + 1.0)) * H ** (-1.0 / nu)
    return lhs, rhs, bool(lhs >= rhs)


# -- walks on Cayley balls -------------------------------------------------


def _ball_step(ball, a, laziness):
    d = ball.group.degree
    out = ball.graph.adjacency_matrix().dot(a) / d
    if laziness:
        out = laziness * a + (1.0 - laziness) * out
    return out


def _walk(ball, x, steps, laziness):
    """The laws of the walk from x after 0..steps steps.  Raises
    InvalidInput before a step from a law that touches the
    truncation sphere."""
    check_laziness(laziness)
    check_vertices(ball.graph, x)
    sphere = ball.word_length == ball.radius
    a = np.zeros(ball.n)
    a[x] = 1.0
    yield a
    for _ in range(steps):
        if np.any(a[sphere]):
            raise InvalidInput(
                "distribution support reached the truncation sphere; "
                "increase the ball radius")
        a = _ball_step(ball, a, laziness)
        yield a


def distribution(ball, n, laziness=0.0):
    """P^n applied to the Dirac at the identity of a Cayley ball."""
    check_count(n, "n", 0)
    for a in _walk(ball, ball.identity_vertex, n, laziness):
        pass
    return Distribution(ball.graph, a, check=False)


def green_partial(ball, x, n):
    """Partial Green sum g_n = (1/n) sum_{i<n} P^i delta_x and the l^1 norm
    of its Laplacian (which contracts like 2/n)."""
    check_count(n, "n", 1)
    acc = np.zeros(ball.n)
    for a in _walk(ball, x, n - 1, 0.0):
        acc += a
    g = acc / n
    residual = np.abs(g - _ball_step(ball, g, 0.0)).sum()
    return Distribution(ball.graph, g, check=False), float(residual)


def entropy_profile(ball, N, laziness=0.5):
    """Per-step table of entropies, speed, gradient norm and return
    probability for the walk started at the identity."""
    check_count(N, "N", 0)
    rows = []
    for n, a in enumerate(_walk(ball, ball.identity_vertex, N, laziness)):
        mu = Distribution(ball.graph, a, check=False)
        rows.append({
            "n": n,
            "H0": renyi(mu, 0),
            "H1": entropy(mu),
            "H2": renyi(mu, 2),
            "Hinf": renyi(mu, np.inf),
            "speed": speed(mu, ball.word_length),
            "grad_l1": lp_norm(gradient(mu), 1),
            "return_prob": float(a[ball.identity_vertex]),
        })
    return rows


class RadialTreeWalk:
    """Simple walk on the infinite d-regular tree reduced to its radial
    birth-death chain.  Level k holds c_k = d (d-1)^{k-1} vertices; the
    walk moves inward with probability 1/d and outward with (d-1)/d.

    Exact up to float rounding for any horizon, with no truncated ball.
    """

    def __init__(self, d, horizon):
        check_count(d, "d", 2)
        check_count(horizon, "horizon", 0)
        self.d = d
        self.horizon = horizon
        self.m = np.zeros(horizon + 2)
        self.m[0] = 1.0
        self.counts = np.concatenate(
            [[1.0], d * (d - 1.0) ** np.arange(horizon + 1)])

    def step(self):
        d = self.d
        m = self.m
        new = np.zeros_like(m)
        new[1] += m[0]
        new[0] += m[1] / d
        new[1:-1] += m[2:] / d
        new[2:] += m[1:-1] * ((d - 1.0) / d)
        self.m = new

    def values(self, masses):
        """Per-vertex value at each level for the given level masses."""
        return masses / self.counts

    def laplacian_l1(self, masses):
        """||Delta g||_1 for the radial function with given level masses."""
        d = self.d
        val = self.values(masses)
        res = np.zeros_like(val)
        res[0] = val[0] - val[1]
        res[1:-1] = val[1:-1] - (val[:-2] + (d - 1.0) * val[2:]) / d
        return float(np.abs(res[:-1] * self.counts[:-1]).sum())

    def green_residuals(self, n_max):
        """||Delta g_n||_1 for n = 1..n_max (needs horizon >= n_max + 1)."""
        check_count(n_max, "n_max", 0)
        if self.horizon < n_max + 1:
            raise InvalidInput("horizon too small for this n")
        acc = self.m.copy()
        out = []
        for n in range(1, n_max + 1):
            out.append(self.laplacian_l1(acc / n))
            self.step()
            acc += self.m
        return np.array(out)
