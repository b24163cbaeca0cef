"""Spectral gaps and conductance constants on small regular graphs.

Walks through the quantities the spectral module certifies: the Cheeger
constant kappa_1 with an optimal witness set, the spectral gap lambda_2,
the exact identity kappa_2^2 = d lambda_2, and the full inequality chain
relating kappa_p and lambda_p for several exponents.
"""

import numpy as np

from harmlab.graphs import hypercube_graph, random_regular_graph, torus_grid
from harmlab.spectral import cheeger_kappa1, lambda2, verify_gap_chain


def describe(name, G):
    d = G.regular_degree
    k1, witness, direction = cheeger_kappa1(G)
    lam = lambda2(G)
    print(f"{name}: {G.n} vertices, {d}-regular")
    print(f"  kappa_1 = {k1:.6f} ({direction}), witness {sorted(witness)}")
    print(f"  lambda_2 = {lam:.6f}")
    print(f"  kappa_2^2 = d lambda_2 = {d * lam:.6f}")
    print(f"  Cheeger sandwich: {k1 ** 2 / (2 * d ** 2):.6f}"
          f" <= {lam:.6f} <= {2 * k1 / d:.6f}")


def chain_table(name, G):
    rep = verify_gap_chain(G, p_list=(1.5, 3, 4))
    print(f"{name}: p-dependent constants")
    for e in rep.entries:
        print(f"  p = {e.p}: kappa_p = {e.kappa.hi:.6f}"
              f" ({e.kappa.direction}), lambda_p = {e.lam.hi:.6f}"
              f" ({e.lam.direction})")
    bad = rep.violations()
    print(f"  inequalities checked: {len(rep.inequalities)},"
          f" violations: {len(bad)}")


def main():
    describe("hypercube Q3", hypercube_graph(3))
    print()
    describe("6x6 torus", torus_grid(6, 6))
    print()
    G = random_regular_graph(3, 16, seed=11)
    describe("random 3-regular (16 vertices)", G)
    print()
    chain_table("random 3-regular (16 vertices)", G)


if __name__ == "__main__":
    main()
