"""Random walks: stopped walks, exit distributions, entropy and Green
partial sums.

Walks on Cayley balls use the ambient group degree.  A law may reach the
truncation sphere, and the gradient norms and Green residuals computed
from it count the Cayley-graph edges that leave the ball; a step from
the sphere would leak mass, so it raises InvalidInput instead.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput
from .graphs import (Distribution, check_count, check_laziness,
                     check_vertices, gradient, lp_norm, subset_view)
from .tolerances import ROUNDING


class StoppedWalk:
    """Simple walk frozen outside the region A: mass at a vertex of A moves
    uniformly to its neighbours, mass elsewhere is a fixed point.  No
    library path steps it (exit laws solve for the limit directly); it is
    kept for the bench tracer until ROADMAP item 3(b)."""

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


def exit_distributions(G, A, origins):
    """Exact absorbing-chain exit laws through the region A, one per origin,
    from a single solve on A."""
    return subset_view(G, A).exit_solve(origins)[1]


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


def _edges_out(ball):
    """Per vertex, the Cayley-graph edges from it that leave the ball,
    nonzero on the truncation sphere only.  A law vanishes outside the
    ball, so each such edge at x adds |a(x)| to the l^1 norm of its
    gradient."""
    return ball.group.degree - ball.graph.degrees


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


def green_partials(ball, x, n_max):
    """For n = 1..n_max, the partial Green sum g_n = (1/n) sum_{i<n} P^i
    delta_x and the l^1 norm of its Laplacian (which contracts like 2/n),
    all from one walk."""
    check_count(n_max, "n", 1)
    acc, out = np.zeros(ball.n), _edges_out(ball)
    for n, a in enumerate(_walk(ball, x, n_max - 1, 0.0), 1):
        acc += a
        g = acc / n
        # outside the ball g = 0, and P g there is g(x) / d per leaving edge
        residual = (np.abs(g - _ball_step(ball, g, 0.0)).sum()
                    + g @ out / ball.group.degree)
        yield Distribution(ball.graph, g, check=False), float(residual)


def green_partial(ball, x, n):
    """g_n and the l^1 norm of its Laplacian: see green_partials."""
    for item in green_partials(ball, x, n):
        pass
    return item


def entropy_profile(ball, N, laziness=0.5):
    """Per-step table of entropies, speed, gradient norm and return
    probability for the walk started at the identity."""
    check_count(N, "N", 0)
    out = _edges_out(ball)
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
            "grad_l1": lp_norm(gradient(mu), 1) + float(a @ out),
            "return_prob": float(a[ball.identity_vertex]),
        })
    return rows


def radial_green_residuals(d, n_max):
    """||Delta g_n||_1 for n = 1..n_max of the simple walk from the root of
    the infinite d-regular tree, reduced to its radial birth-death chain:
    level k >= 1 holds c_k = d (d-1)^{k-1} vertices, and the walk moves
    inward with probability 1/d and outward with (d-1)/d.  n_max + 4
    levels hold every step and its Laplacian, so the values are exact up
    to float rounding, with no truncated ball."""
    check_count(d, "d", 2)
    check_count(n_max, "n_max", 0)
    counts = np.concatenate([[1.0], d * (d - 1.0) ** np.arange(n_max + 3)])
    m = np.zeros(n_max + 4)
    m[0] = 1.0
    acc = m.copy()
    out = []
    for n in range(1, n_max + 1):
        val = acc / n / counts
        res = np.zeros_like(val)
        res[0] = val[0] - val[1]
        res[1:-1] = val[1:-1] - (val[:-2] + (d - 1.0) * val[2:]) / d
        out.append(float(np.abs(res[:-1] * counts[:-1]).sum()))
        new = np.zeros_like(m)
        new[1] += m[0]
        new[0] += m[1] / d
        new[1:-1] += m[2:] / d
        new[2:] += m[1:-1] * ((d - 1.0) / d)
        m = new
        acc += m
    return np.array(out)
