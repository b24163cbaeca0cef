"""Harmonic extension, approximate Laplacian kernels, and tree flows.

Solves a Dirichlet problem exactly and checks it against exit-law
averaging, exhibits witness families whose Laplacian-to-norm ratio
decays like 1/n in both the sup and l^1 settings, and builds the
divergence-free unit flow through an edge of a 3-regular tree whose
l^p level sums are geometric.
"""

import numpy as np

from harmlab.cayley import build_group, cayley_ball
from harmlab.graphs import ball, regular_tree, divergence
from harmlab.harmonic import (c0_witness, dirichlet_extend,
                              harmonic_residual, tree_flow,
                              tree_flow_level_sums)
from harmlab.walk import exit_distributions, green_partials


def main():
    B = cayley_ball(build_group("zd:2"), 10)
    G = B.graph
    A = ball(G, B.identity_vertex, 4)
    rng = np.random.default_rng(1)
    bv = {int(v): float(rng.normal()) for v in A.outer_boundary}
    f = dirichlet_extend(G, A, bv)
    # average the boundary data against each interior vertex's exit law
    f2 = f.a.copy()
    f2[A.members] = [ex.a @ f.a for ex in exit_distributions(G, A, A.members)]
    print(f"Dirichlet solve: interior residual"
          f" {harmonic_residual(f, A.members):.2e},"
          f" exit-average cross-check {np.abs(f.a - f2).max():.2e}")

    B = cayley_ball(build_group("zd:2"), 24)
    print("witness families (ratios should sit at their 1/(n+1) bounds):")
    greens = green_partials(B, B.identity_vertex, 20)
    for n, (_, l1) in enumerate(greens):  # g_{n+1} for n = 0..19
        if n not in (4, 9, 19):
            continue
        _, c0 = c0_witness(B, n)
        print(f"  n = {n:2d}: sup-gradient {c0:.5f} (bound"
              f" {1 / (n + 1):.5f}), ||Delta g||_1 {l1:.5f} (bound"
              f" {2 / (n + 1):.5f})")

    T = regular_tree(3, 8)
    tau = tree_flow(T, (0, 1))
    div = divergence(tau)
    print(f"\ntree flow on the depth-8 3-regular tree:"
          f" max |divergence| at branch vertices ="
          f" {np.abs(div.a[:T.n - 3 * 2 ** 7]).max():.1e}")
    sums = tree_flow_level_sums(T, (0, 1), tau, p=2.0)
    print("l^2 level sums (closed form 2/2^k for k >= 1):")
    for k in range(5):
        print(f"  level {k}: {sums[k]:.6f}")


if __name__ == "__main__":
    main()
