"""Transport patterns: edge flows with a prescribed divergence.

Four constructions of the same kind of object:
  1. optimal transport (Wasserstein-1 as a linear program on the edges),
  2. a single random-walk step,
  3. the gradient of an inverse-Laplacian solve on a region,
  4. translation of a measure by a fixed group element along its word.
The Heisenberg example shows the point of (4): translating any
distribution by the central element costs at most 4 in l^1, uniformly,
even though the element is a commutator.
"""

import numpy as np

from harmlab.cayley import build_group, cayley_ball
from harmlab.graphs import Distribution, VertexField, ball, torus_grid
from harmlab.transport import (central_transport, laplacian_transport,
                               random_step_transport, wasserstein1)
from harmlab.walk import distribution


def main():
    G = torus_grid(6, 6)
    mu = Distribution.dirac(G, 0)
    nu = Distribution.dirac(G, 21)
    cost, pat = wasserstein1(G, mu, nu)
    print(f"W1(delta_0, delta_21) on the 6x6 torus = {cost:.1f}"
          f" (residual {pat.residual:.1e})")

    A = ball(G, 0, 2)
    step = random_step_transport(G, mu, A)
    print(f"one walk step moves mass {step.norm(1):.3f} across"
          f" {len(step.tau.support)} edges")

    rng = np.random.default_rng(0)
    g = np.zeros(G.n)
    g[A.members] = rng.normal(size=A.size)
    g[A.members] -= g[A.members].mean()
    lap = laplacian_transport(G, A, VertexField(G, g))
    print(f"inverse-Laplacian pattern: ||tau||_2 = {lap.norm(2):.4f},"
          f" residual {lap.residual:.1e}")

    h = build_group("heisenberg")
    B = cayley_ball(h, 12)
    word = h.central_word()
    print("Heisenberg: cost of translating P^n delta_e by the central"
          " element z = [s1, s2]")
    for n in (0, 2, 4, 6, 8):
        pat = central_transport(B, word, distribution(B, n, laziness=0.5))
        print(f"  n = {n}: ||tau||_1 = {pat.norm(1):.6f} <= |z|_S = 4")


if __name__ == "__main__":
    main()
