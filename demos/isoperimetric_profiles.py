"""Isoperimetric profiles and radial inequalities for finite sets.

Enumerates the connected vertex sets of a torus through vertex 0 up to a
size cap (every connected set has a translate through it with the same
size and boundary) to get the exact boundary-to-size profile,
cross-checks one entry against an integer program, and evaluates the
radial inequality |bd A| (1 + inrad A) >= |A| on a square in Z^2.
"""

from harmlab.cayley import build_group, cayley_ball
from harmlab.graphs import subset_view, torus_grid
from harmlab.isoperimetry import (diameter, inradius, mean_boundary_distance,
                                  min_boundary_exact, profile,
                                  radial_iso_check)


def main():
    G = torus_grid(5, 5)
    prof = profile(G, 12)
    print("5x5 torus, exact profile (size -> min boundary, ratio):")
    env = prof.envelope()
    for s in sorted(prof.table):
        b, wit = prof.table[s]
        print(f"  {s:2d} -> {b:2d}  ratio {b / s:.3f}"
              f"  envelope {env[s]:.3f}")
    b8, _ = min_boundary_exact(G, 8)
    print(f"integer-program cross-check at size 8: {b8}"
          f" (enumeration: {prof.table[8][0]})")

    B = cayley_ball(build_group("zd:2"), 12)
    square = [B.vertex_of[(i, j)] for i in range(5) for j in range(5)]
    F = subset_view(B.graph, square)
    print("\n5x5 square in Z^2:")
    print(f"  boundary {F.boundary_size}, inradius {inradius(B.graph, F)},"
          f" diameter {diameter(B.graph, F)},"
          f" mean boundary distance {mean_boundary_distance(B.graph, F):.2f}")
    out = radial_iso_check(B.graph, F)
    print(f"  radial inequality: {out['lhs']:.0f} >= {out['rhs']:.0f}"
          f" -> {out['holds']}")
    print(f"  diameter variant:  {out['diameter_lhs']:.0f} >="
          f" {out['rhs']:.0f} -> {out['diameter_holds']}")


if __name__ == "__main__":
    main()
