"""Cut and cycle spaces of finite windows and projection statistics.

For a square window F in Z^2, the span V_F of Dirac gradients and
cycles has codimension |bd F| - 1 inside l^2 of the edges
touching F.  Projecting the part of V_F supported on one generator's
edges gives diagonal entries that approach 1 as the window grows, with
the guaranteed bound 1 - (|bd F| - 1)/|F|.
"""

from harmlab.cayley import build_group, cayley_ball
from harmlab.graphs import subset_view
from harmlab.window import window_projection_stats


def main():
    B = cayley_ball(build_group("zd:2"), 18)
    print("  n  |E_F|  dim cut  dim cycle  codim  max diag  bound")
    for n in (3, 4, 5, 6, 8):
        members = [B.vertex_of[(i, j)] for i in range(n) for j in range(n)]
        F = subset_view(B.graph, members)
        st = window_projection_stats(B, F, "s1")
        # counts on a connected square: every vertex's Dirac gradient is
        # independent, and the induced graph has |I| - |F| + 1 cycles
        nI = len(F.induced_edges)
        print(f"  {n}  {nI + F.boundary_size:4d}   {F.size:4d}"
              f"     {nI - F.size + 1:4d}     {st['codim']:4d}"
              f"   {st['max_diag']:.4f}  {st['bound']:.4f}")
    print("the diagonal lower bound 1 - (|bd F|-1)/|F| tends to 1, so the"
          " generator-edge coordinates become almost fixed by V_F")


if __name__ == "__main__":
    main()
