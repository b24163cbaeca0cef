"""Spectral gaps and conductance constants of finite regular graphs.

kappa_p is the best constant in ||grad f||_p >= kappa_p ||f||_p over
zero-sum f; lambda_p the best constant bounding the inverse Laplacian on
zero-mean functions in l^p.  Exact values are available for kappa_1
(enumeration or integer programming), kappa_2 and lambda_2 (eigensolve);
other exponents get certified-direction estimates.  Every estimate is a
Bracket whose direction follows from which of its ends are known.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from . import isoperimetry
from .errors import BudgetExceeded, InvalidInput, NumericalFailure
from .graphs import boundary_gain, neighbour_masks, subset_view
from .tolerances import (ASSERT_EPS, IDENTITY_TOL, LAMBDA_TOL, LBFGS_FTOL,
                         LBFGS_GTOL, NORM_FLOOR, SLACK_FACTOR)

BITMASK_LIMIT = 24
# bitmasks per Cheeger block: at n = 22, 2^12 and 2^14 ran 1.7x and 1.15x as
# long, and 2^18 and 2^20 raised the traced peak from 9.3 to 13 and 29 MiB
BITMASK_BLOCK = 1 << 16
MILP_LIMIT = 64
DENSE_LIMIT = 5000
# the p-estimates are multi-start searches from a fixed seed, so identical
# inputs give identical output
ESTIMATE_SEED = 0
KAPPA_STARTS = 8  # the Fiedler vector and 7 random starts of L-BFGS
LAMBDA_STARTS = 64  # power iterations; each can only raise the norm estimate
# steps per start: any iterate's ||L+ x||_p is a lower bound on the norm, so
# a start cut short still leaves lambda_p an upper bound
LAMBDA_MAX_ITER = 500
# largest exponent of the p-estimates.  |f|^p leaves the float64 range as p
# grows: on cycle:5, 12, 30 and 50, hypercube:3, 4 and 6, grid:4,4, 6,6 and
# 8,8 and complete:6 and 20 every estimate returns up to p = 200, and
# grid:6,6 fails from 400 on.  A kappa_p start whose norms overflow is
# dropped: its ratio would read 0 (from p = 30 on cycle:50, 50 on cycle:30
# and 80 on hypercube:6), which bounds no kappa_p from above
P_MAX = 100.0


@dataclass(frozen=True)
class Bracket:
    """A constant in [lo, hi], an unknown end None; the witness attains hi
    and takes no part in equality."""
    lo: float | None
    hi: float | None
    witness: object = field(default=None, compare=False)

    @property
    def direction(self):
        return ("exact" if self.lo == self.hi else
                "lower_bound" if self.hi is None else "upper_bound")

    def map(self, f):
        """The bracket of f(x) for an increasing f."""
        lo, hi = (None if e is None else f(e) for e in (self.lo, self.hi))
        return Bracket(lo, hi, self.witness)


def _cheeger_bitmask(G):
    # boundary[S] for every bitmask S, filled one vertex b at a time from the
    # sets S of lower vertices, then scored; both passes go block by block
    n = G.n
    nbr = neighbour_masks(G, np.arange(n))[:, :1].astype(np.uint32)  # n <= 24
    boundary = np.zeros(1 << n, dtype=np.int16)
    for b in range(n):
        for lo in range(0, 1 << b, BITMASK_BLOCK):
            hi = min(lo + BITMASK_BLOCK, 1 << b)
            lower = np.arange(lo, hi, dtype=np.uint32)[:, None]
            boundary[(1 << b) + lo:(1 << b) + hi] = (
                boundary[lo:hi] + boundary_gain(G.degrees, nbr, b, lower))
    best, best_ratio = 0, np.inf
    for lo in range(0, 1 << n, BITMASK_BLOCK):
        bd = boundary[lo:lo + BITMASK_BLOCK]
        size = np.bitwise_count(np.arange(lo, lo + len(bd), dtype=np.uint32))
        ratio = np.full(len(bd), np.inf)
        np.divide(bd, size, out=ratio, where=(size >= 1) & (size <= n // 2))
        k = int(np.argmin(ratio))  # argmin, strict <: first minimiser
        if ratio[k] < best_ratio:
            best, best_ratio = lo + k, ratio[k]
    return float(best_ratio), [v for v in range(n) if (best >> v) & 1]


def _cheeger_milp(G):
    # Dinkelbach: with b/s the ratio of F, min s |bd F'| - b |F'| over
    # 1 <= |F'| <= n/2 is negative iff some F' has a smaller ratio
    if not G.regular_degree:  # the sweep needs a regular graph with edges
        start = [int(np.argmin(G.degrees))]
    else:
        start = _cheeger_sweep(G)[1]
    F = subset_view(G, start)
    while True:
        b, s = F.boundary_size, F.size
        F_next, value = isoperimetry.cut_program(G, s, -b, (1, G.n // 2))
        if value >= 0:
            return b / s, [int(v) for v in F.members]
        F = F_next


def _cheeger_sweep(G):
    # prefixes of the Fiedler order: an edge is cut by the prefixes that
    # hold its earlier endpoint and not its later one
    n = G.n
    order = np.argsort(_fiedler(G)[1])
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    ends = np.sort(np.column_stack([pos[G.tails], pos[G.heads]]), axis=1)
    cut = np.cumsum(np.bincount(ends[:, 0], minlength=n)
                    - np.bincount(ends[:, 1], minlength=n))[:-1]
    # candidates in the order prefix 1, suffix 1, prefix 2, suffix 2, ...
    sizes = np.column_stack([np.arange(1, n), np.arange(n - 1, 0, -1)]).ravel()
    ratio = np.where(sizes <= n // 2, np.repeat(cut, 2) / sizes, np.inf)
    k, suffix = divmod(int(np.argmin(ratio)), 2)
    witness = order[k + 1:] if suffix else order[:k + 1]
    return float(ratio.min()), [int(v) for v in witness]


def cheeger_kappa1(G):
    """Cheeger constant min |boundary F| / |F| over |F| <= |V|/2.

    Returns (value, witness_vertices, direction); value is the witness's
    ratio.  Up to BITMASK_LIMIT vertices every subset is scored.  Up to
    MILP_LIMIT, Dinkelbach's method runs integer programs from the sweep
    cut; "exact" needs HiGHS status optimal and a dual bound above -1 on
    the last (integer) objective, else NumericalFailure is raised.
    Above BITMASK_LIMIT, a vertex of degree 0 is an exact witness of 0.
    Larger graphs get a sweep cut flagged "upper_bound".
    """
    if G.n < 2:
        raise ValueError(f"kappa_1 needs at least 2 vertices, not {G.n}")
    if G.n <= BITMASK_LIMIT:
        val, w = _cheeger_bitmask(G)
        return val, w, "exact"
    isolated = np.flatnonzero(G.degrees == 0)
    if len(isolated):  # {v} has no boundary, and kappa_1 >= 0
        return 0.0, [int(isolated[0])], "exact"
    if G.n <= MILP_LIMIT:
        val, w = _cheeger_milp(G)
        return val, w, "exact"
    val, w = _cheeger_sweep(G)
    return val, w, "upper_bound"


def _dense_laplacian(G):
    d = G.require_regular()
    if d == 0:
        raise InvalidInput("the walk operator needs degree >= 1")
    if G.n > DENSE_LIMIT:
        raise BudgetExceeded(
            f"{G.n} vertices exceeds the dense eigensolve limit {DENSE_LIMIT}")
    return np.eye(G.n) - G.adjacency_matrix().toarray() / d


def lambda2(G):
    """Second-smallest eigenvalue of I - P."""
    ev = scipy.linalg.eigvalsh(_dense_laplacian(G))
    return float(ev[1])


def _fiedler(G):
    L = _dense_laplacian(G)
    ev, V = scipy.linalg.eigh(L, subset_by_index=[1, 1])
    return float(ev[0]), V[:, 0]


def kappa_p_estimate(G, p):
    """Bracket of kappa_p.

    p=1 comes from cheeger_kappa1 with its witness set, p=2 is exact from
    lambda_2; other p use multi-start projected descent on the
    Rayleigh-type ratio, whose witness functions bound kappa_p from above.
    The KAPPA_STARTS starts run one after another through scipy's
    L-BFGS-B.  The objective builds B^T once per call, takes the gradient
    as f[heads] - f[tails] and the mean as x.sum() / n, and raises |f| and
    |g| to both powers; each of these equals the sparse product or numpy
    call it replaces bit for bit, so the value and witness do not depend
    on how the objective is evaluated.
    """
    if not 1 <= p <= P_MAX:
        raise ValueError(f"kappa_p needs p in [1, {P_MAX:g}], not {p}")
    if p == 1:
        val, w, direction = cheeger_kappa1(G)
        exact = direction == Bracket(val, val).direction
        return Bracket(val if exact else None, val, w)
    d = G.require_regular()
    if p == 2:
        return lambda_p_estimate(G, 2).map(lambda x: float(np.sqrt(d * x)))
    BT = G.incidence_matrix().T
    heads, tails = G.heads, G.tails
    n = G.n
    rng = np.random.default_rng(ESTIMATE_SEED)

    def norms_and_grad(x):
        f = x - x.sum() / n
        g = f[heads] - f[tails]
        af, ag = np.abs(f), np.abs(g)
        nf = float((af ** p).sum() ** (1.0 / p))  # lp_norm(f, p)
        ng = float((ag ** p).sum() ** (1.0 / p))
        # gradient of log(ng) - log(nf)
        gg = BT.dot(np.sign(g) * ag ** (p - 1)) / ng ** p
        gf = np.sign(f) * af ** (p - 1) / nf ** p
        grad = gg - gf
        grad -= grad.sum() / n
        return nf, ng, np.log(ng) - np.log(nf), grad

    best = (np.inf, None)
    _, fv = _fiedler(G)
    starts = [fv] + [rng.normal(size=n) for _ in range(KAPPA_STARTS - 1)]
    # L-BFGS may try iterates whose |f|^p overflows, and the objective is
    # then inf or NaN; a start that ends at such an iterate is dropped
    with np.errstate(all="ignore"):
        for x0 in starts:
            res = scipy.optimize.minimize(
                lambda x: norms_and_grad(x)[2:], x0, jac=True,
                method="L-BFGS-B",
                options={"maxiter": 500, "ftol": LBFGS_FTOL,
                         "gtol": LBFGS_GTOL})
            nf, ng = norms_and_grad(res.x)[:2]
            if 0 < nf < np.inf and 0 < ng < np.inf and ng / nf < best[0]:
                best = (ng / nf, res.x - res.x.mean())
    if not np.isfinite(best[0]):
        raise NumericalFailure("descent produced no finite ratio")
    return Bracket(None, float(best[0]), best[1])


def _row_norms(X, p):
    """lp_norm of every row of X: the sums along the contiguous last axis
    equal the 1-D sums, and the root is taken per scalar because numpy's
    array pow can differ from the scalar one in the last bit."""
    r = 1.0 / p
    return np.array([s ** r for s in (np.abs(X) ** p).sum(axis=1)])


def lambda_p_estimate(G, p):
    """Bracket of lambda_p = 1 / ||inverse Laplacian||_{p->p} on zero-mean
    functions.  Power iteration under-estimates the operator norm, so only
    the upper end is known; p=2 is exact.

    The LAMBDA_STARTS starts iterate together, one row each of a K x n
    array drawn in start order.  A row retires when its norm estimate
    changes by at most LAMBDA_TOL relative, or after LAMBDA_MAX_ITER
    steps, and only the rows still active are iterated.  Each row sees the
    arithmetic of a lone start: the stacked matvec M @ X[:, :, None] runs
    one BLAS gemv per row (X @ M, one gemm, rounds differently), row sums
    over n are the means, and the norms' roots are scalar (_row_norms).
    The best estimate is Python's max over the starts in order, so a NaN
    start drops out.
    """
    d = G.require_regular()
    if not 1 < p <= P_MAX:
        raise ValueError(f"lambda_p needs p in (1, {P_MAX:g}], not {p}")
    if p == 2:
        l2 = lambda2(G)
        return Bracket(l2, l2)
    L = _dense_laplacian(G)
    M = scipy.linalg.pinvh(L)  # inverse on the zero-mean subspace
    n = G.n
    q = p / (p - 1.0)
    rng = np.random.default_rng(ESTIMATE_SEED)
    X = rng.normal(size=(LAMBDA_STARTS, n))
    X -= (X.sum(axis=1) / n)[:, None]
    X /= _row_norms(X, p)[:, None]
    est = np.zeros(LAMBDA_STARTS)
    active = np.arange(LAMBDA_STARTS)  # the start of each row of X
    prev = np.zeros(LAMBDA_STARTS)
    for _ in range(LAMBDA_MAX_ITER):
        Y = (M @ X[:, :, None])[:, :, 0]
        est[active] = now = _row_norms(Y, p)
        going = ~(np.abs(now - prev)
                  <= LAMBDA_TOL * np.maximum(now, NORM_FLOOR))
        if not going.any():
            break
        Y, active, prev = Y[going], active[going], now[going]
        # dual step: z = M^T psi_p(y), next x = psi_q(z) normalized
        Z = (M @ (np.sign(Y) * np.abs(Y) ** (p - 1))[:, :, None])[:, :, 0]
        X = np.sign(Z) * np.abs(Z) ** (q - 1)
        X -= (X.sum(axis=1) / n)[:, None]
        X /= _row_norms(X, p)[:, None]
    best = max([0.0] + est.tolist())
    if best <= 0:
        raise NumericalFailure("norm iteration collapsed")
    return Bracket(None, float(1.0 / best))


@dataclass
class Inequality:
    item: str
    p: float | None
    lhs: float
    rhs: float
    status: str  # "asserted" | "checked-with-slack"
    holds: bool


@dataclass
class PEntry:
    p: float
    kappa: Bracket
    lam: Bracket


@dataclass
class GapReport:
    d: int
    kappa1: Bracket
    lambda2: Bracket
    entries: list = field(default_factory=list)
    inequalities: list = field(default_factory=list)

    def violations(self):
        return [q for q in self.inequalities if not q.holds]


def _judge(item, p, lhs, rhs):
    """lhs >= rhs is asserted on lhs.hi >= rhs.lo when rhs.lo is known;
    otherwise the upper ends are checked with multiplicative slack."""
    if rhs.lo is not None:
        return Inequality(item, p, lhs.hi, rhs.lo, "asserted",
                          lhs.hi >= rhs.lo - ASSERT_EPS)
    return Inequality(item, p, lhs.hi, rhs.hi, "checked-with-slack",
                      lhs.hi * SLACK_FACTOR >= rhs.hi - ASSERT_EPS)


def verify_gap_chain(G, p_list=(1.5, 3, 4)):
    """Evaluate the inequality chain relating kappa_p and lambda_p at every
    p > 1 of p_list."""
    d = G.require_regular()
    k1, L2 = kappa_p_estimate(G, 1), lambda_p_estimate(G, 2)
    k2 = float(np.sqrt(d * L2.hi))
    # exact identities and the kappa_1 / lambda_2 chain
    rep = GapReport(d, k1, L2, inequalities=[
        Inequality("kappa2_identity", 2, k2 ** 2, d * L2.hi, "asserted",
                   abs(k2 ** 2 - d * L2.hi) <= IDENTITY_TOL),
        _judge("cheeger_lower", None, L2,
               k1.map(lambda x: x ** 2 / (2 * d ** 2))),
        _judge("cheeger_upper", None, k1.map(lambda x: 2 * x / d), L2),
        _judge("item6_left", None, k1.map(lambda x: 4 * d * x),
               L2.map(lambda x: 2 * d ** 2 * x)),
        _judge("item6_right", None, L2.map(lambda x: 2 * d ** 2 * x),
               k1.map(lambda x: x ** 2))])
    for p in p_list:
        lp, kp = lambda_p_estimate(G, p), kappa_p_estimate(G, p)
        rep.entries.append(PEntry(p, kp, lp))
        rep.inequalities += [
            # item 1: 2^{p-1} kappa_1 >= kappa_p^p
            _judge("item1", p, k1.map(lambda x: 2.0 ** (p - 1) * x),
                   kp.map(lambda x: x ** p)),
            # item 3: max{2,p} d^{(p-1)/p} kappa_p >= 2^{(p-1)/p} kappa_1
            _judge("item3", p,
                   kp.map(lambda x: max(2.0, p) * d ** ((p - 1) / p) * x),
                   k1.map(lambda x: 2.0 ** ((p - 1) / p) * x)),
            # item 4 in its lemma form: kappa_p >= (d^{1/p}/2) lambda_p
            _judge("item4_lemma", p, kp,
                   lp.map(lambda x: d ** (1 / p) / 2 * x)),
            # item 5: max{p, p'} lambda_p >= 2 lambda_2
            _judge("item5", p, lp.map(lambda x: max(p, p / (p - 1)) * x),
                   L2.map(lambda x: 2 * x))]
    return rep
