"""Every tolerance of the library, each defined once with its reason.

No other module writes a float literal below 1e-6; tests/test_tolerances.py
checks that, and that each name here is read somewhere.
"""

# a total mass, or a residual ||div tau - pi||_1, sums up to 2e6 terms (the
# ball cap), which round by at most 2e6 * 2^-53 = 2.2e-10 relative
MASS_TOL = 1e-9
# a single atom takes a few roundings of a value <= 1, each below 1.2e-16
ATOM_TOL = 1e-12
# a value a few ulps (2^-52 = 2.2e-16 relative) from an exact bound is on it
ROUNDING = 1e-15
# Weyl's bound (Parlett): each eigh eigenvalue is within ||L V - V Lam||_2 of
# L's, at most 5.3e-15 on acceptance criterion 1's corpus, 7.5e-15 on T40x40
ASSERT_EPS = 1e-9
# a row comparing two upper ends certifies nothing, so it is only checked,
# within acceptance criterion 3's 10% slack
SLACK_FACTOR = 1.10
# a power-iteration start ends once its norm estimate moves by at most this
# relative; a start cut short still leaves lambda_p an upper bound
LAMBDA_TOL = 1e-9
# the label rows of the orthonormal window complement have singular values in
# [0, 1]; measured, the zero ones come out below 6e-15, the others above 0.04
RANK_TOL = 1e-9
# kappa_2 is sqrt(d lambda_2), so its row is an identity up to rounding; the
# same 1e-8 as acceptance criterion 1
IDENTITY_TOL = 1e-8
# makes LAMBDA_TOL's relative test absolute at a zero estimate; any float
# above the least normal one (2.2e-308) would do
NORM_FLOOR = 1e-300
# L-BFGS-B stops on a relative change of log(ratio) below this; any iterate
# bounds kappa_p from above, so stopping early costs tightness, not soundness
LBFGS_FTOL = 1e-14
# the projected gradient that ends an L-BFGS-B start, for LBFGS_FTOL's reason
LBFGS_GTOL = 1e-12
# HiGHS feasibility of the W1 program: at the default 1e-7 a dense pair on
# the free:2 ball of radius 5 came out 1.9e-7 above the optimum; at 1e-10
# costs match an exact network simplex to 2e-14
LP_TOL = 1e-10
