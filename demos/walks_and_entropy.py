"""Random walks on Cayley balls: entropy growth, speed and return
probability.

Compares the lazy simple walk on Z^2 (polynomial growth, zero speed and
sublinear entropy) with the free group on two generators (exponential
growth, positive speed and linear entropy).  The walk lives on a
truncated ball; its last law may touch the truncation sphere, and every
reported value stays exact, since the gradient norm counts the edges that
leave the ball.
"""

from harmlab.cayley import build_group, cayley_ball
from harmlab.walk import entropy_profile


def profile(spec, radius, steps):
    group = build_group(spec)
    ball = cayley_ball(group, radius)
    print(f"{spec}: ball radius {radius}, {ball.n} vertices")
    print("   n     H1      speed   return_prob")
    for row in entropy_profile(ball, steps, laziness=0.5):
        if row["n"] % 4 == 0:
            print(f"  {row['n']:2d}  {row['H1']:7.4f}  {row['speed']:7.4f}"
                  f"  {row['return_prob']:.6f}")
    print()


def main():
    profile("zd:2", 26, 24)
    profile("free:2", 12, 12)
    # entropy per step keeps growing on the tree but flattens on Z^2,
    # the numerical shadow of the exponential/polynomial growth divide


if __name__ == "__main__":
    main()
