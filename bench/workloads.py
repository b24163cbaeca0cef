"""The three workloads of the harmlab benchmark.

A workload is a setup function, which turns a seed into inputs, and a fixed
list of operations.  Each operation calls harmlab on those inputs and comes
with an oracle check that does not reuse the code path under test: closed
forms, the frozen fixtures under tests/fixtures, certified brackets, or the
growth series recorded in growth.json.  A failed check raises CheckFailed.

Operations run back to back in list order.  Every operation that needs a
Cayley ball builds its own, so lazy per-ball caches are paid inside it, as
a CLI run pays them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from harmlab import (cayley, cli, graphs, harmonic, isoperimetry, spectral,
                     transport, walk, window)

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "tests" / "fixtures"


class CheckFailed(Exception):
    """An operation returned a result its oracle rejects."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def close(a, b, tol, what):
    expect(abs(a - b) <= tol, f"{what}: {a!r} differs from {b!r} by more "
                              f"than {tol}")


class Op(NamedTuple):
    """One operation: `run(inputs)` is timed, `check(inputs, result)` is
    not.  `argv` is set for operations that go through `cli.main`."""

    name: str
    run: Callable
    check: Callable
    argv: tuple | None = None


def cli_op(name, argv, check):
    def run(_inputs):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        return rc, buf.getvalue()

    def checked(inputs, result):
        rc, text = result
        expect(rc == 0, f"exit code {rc}")
        check(inputs, text)

    return Op(name, run, checked, argv=tuple(argv))


def parse_csv_raw(text):
    """Rows of a CLI CSV as dicts of strings; the provenance comment, which
    carries the config hash, is skipped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def parse_csv(text):
    """Rows of a numeric CLI CSV as dicts of floats."""
    return [{k: float(v) for k, v in row.items()}
            for row in parse_csv_raw(text)]


def parse_json(text):
    """The report of a CLI JSON output, without `tool` and `config_hash`."""
    return json.loads(text)["report"]


@functools.cache
def oracles():
    """Frozen exit-law fixtures and the recorded growth series."""
    out = {}
    for key, name in (("z2", "liouville_z2.json"),
                      ("free2", "liouville_free2.json")):
        obj = json.loads((FIXTURES / name).read_text())
        out[key] = {int(r): v for r, v in obj["l1_by_radius"].items()}
    out["growth"] = json.loads((HERE / "growth.json").read_text())["spheres"]
    return out


def random_regular(rng, d, n):
    """Seeded connected d-regular graph; resamples a disconnected draw."""
    while True:
        try:
            return graphs.random_regular_graph(d, n,
                                               seed=int(rng.integers(2 ** 31)))
        except ValueError:
            continue


def boundary_count(G, members):
    mask = np.zeros(G.n, dtype=bool)
    mask[list(members)] = True
    return int(np.count_nonzero(mask[G.tails] != mask[G.heads]))


def interior_residual(G, f, members):
    """max over members x of |f(x) - mean of f over the neighbours of x|."""
    s = np.zeros(G.n)
    np.add.at(s, G.tails, f[G.heads])
    np.add.at(s, G.heads, f[G.tails])
    deg = np.bincount(np.concatenate([G.tails, G.heads]), minlength=G.n)
    return float(np.abs(f - s / np.maximum(deg, 1))[members].max())


# -- exit_laws ---------------------------------------------------------------

Z2_PROBE_RADII = range(2, 31)
TREE_DEPTH = 9
TREE_PROBE_RADII = range(4, TREE_DEPTH)
CHAIN_LEVELS = range(2, 8)
DIVERGENCE_N = 10


def setup_exit_laws(rng):
    z2 = cayley.cayley_ball(cayley.build_group("zd:2"), 31)
    tree = graphs.regular_tree(4, TREE_DEPTH)
    G = z2.graph
    # the chain pair may sit anywhere its largest region stays in the ball;
    # Z^2 symmetry makes the exit laws independent of the choice
    v = int(rng.choice(np.flatnonzero(z2.word_length <= 31 - 2 -
                                      max(CHAIN_LEVELS))))
    w = int(rng.choice(G.neighbors(v)))
    dirichlet = []
    for H, pool, r in ((G, np.flatnonzero(z2.word_length <= 5), 20),
                       (G, np.flatnonzero(z2.word_length <= 5), 20),
                       (tree, np.array([0]), 7),
                       (tree, np.arange(1, 5), 7)):
        A = graphs.ball(H, int(rng.choice(pool)), r)
        values = rng.normal(size=len(A.outer_boundary))
        dirichlet.append((H, A, dict(zip(map(int, A.outer_boundary),
                                         values))))
    return {"z2": z2, "tree": tree, "pair": (v, w), "dirichlet": dirichlet}


def _check_l1(rows, key, want, tol=1e-9):
    for row in rows:
        r = int(row["r"])
        close(row[key], want[r], tol, f"l1 exit-law distance at r={r}")


def _check_probe(fixture, radii):
    def check(_inputs, rows):
        expect([row["r"] for row in rows] == list(radii), "probe radii")
        _check_l1(rows, "l1", oracles()[fixture])
    return check


def _chain(inp):
    G = inp["z2"].graph
    v, w = inp["pair"]
    regions = [graphs.ball(G, v, r) for r in CHAIN_LEVELS]
    return transport.exit_transport_chain(G, v, w, regions)


def _check_chain(_inputs, rows):
    expect(len(rows) == len(CHAIN_LEVELS), "one row per region")
    for r, row in zip(CHAIN_LEVELS, rows):
        expect(row["interior_size"] == 2 * r * r + 2 * r + 1,
               f"region size at r={r}")
        expect(row["residual"] <= 1e-9, f"pattern residual at r={r}")
        pat = row["pattern"]
        for ex in (pat.source, pat.target):
            close(float(ex.a.sum()), 1.0, 1e-9, f"exit mass at r={r}")
        close(row["exit_diff_l1"], oracles()["z2"][r], 1e-9,
              f"exit-law l1 at r={r}")


def _dirichlet(inp):
    return [harmonic.dirichlet_extend(H, A, bv)
            for H, A, bv in inp["dirichlet"]]


def _check_dirichlet(inp, fields):
    for (H, A, bv), f in zip(inp["dirichlet"], fields):
        expect(interior_residual(H, f.a, A.members) <= 1e-9,
               "harmonic residual inside the region")
        given = np.array(list(bv.values()))
        expect(np.array_equal(f.a[list(bv)], given), "boundary values kept")


def _check_divergence(_inputs, rows):
    expect(len(rows) == DIVERGENCE_N, "one row per n")
    for row in rows:
        n = row["n"]
        # S(n) is the annulus n < |x|_1 <= 2n and S_out its outer sphere
        expect(row["S_size"] == 2 * n * (3 * n + 1), f"|S({n})|")
        expect(row["S_out_size"] == 8 * n, f"|S_out({n})|")
        # the width-1 annulus is disconnected; wider ones are crossed by
        # going in to the ring |x|_1 = n + 1 and half way round it
        want = math.inf if n == 1 else 6 * n + 2
        expect(row["D"] == want, f"D({n}) = {row['D']}, want {want}")


def _check_cli_probe(_inputs, text):
    rows = parse_csv(text)
    expect([int(r["r"]) for r in rows] == list(range(4, 9)), "probe radii")
    _check_l1(rows, "l1", oracles()["free2"])


def _check_cli_chain(_inputs, text):
    rows = parse_csv(text)
    expect([int(r["r"]) for r in rows] == list(range(2, 6)), "chain levels")
    for row in rows:
        expect(row["residual"] <= 1e-9, "pattern residual")
    _check_l1(rows, "exit_diff_l1", oracles()["z2"])


EXIT_LAWS = [
    Op("liouville_probe_z2",
       lambda inp: harmonic.liouville_probe(
           inp["z2"].graph, 0, 0, inp["z2"].vertex_of[(1, 0)],
           Z2_PROBE_RADII),
       _check_probe("z2", Z2_PROBE_RADII)),
    # the exit law through B(r) needs only the sphere r + 1, so the depth-9
    # tree reproduces the depth-12 fixture for r <= 8
    Op("liouville_probe_tree",
       lambda inp: harmonic.liouville_probe(inp["tree"], 0, 0, 1,
                                            TREE_PROBE_RADII),
       _check_probe("free2", TREE_PROBE_RADII)),
    Op("exit_transport_chain_z2", _chain, _check_chain),
    Op("dirichlet_extend", _dirichlet, _check_dirichlet),
    Op("divergence_profile_z2",
       lambda inp: harmonic.divergence_profile(inp["z2"].graph, 0, 2,
                                               DIVERGENCE_N),
       _check_divergence),
    cli_op("cli_harmonic_probe",
           ["harmonic", "probe", "--group", "free:2", "--radii", "4..8"],
           _check_cli_probe),
    cli_op("cli_transport_chain",
           ["transport", "chain", "--group", "zd:2", "--levels", "2..5"],
           _check_cli_chain),
]


# -- certified ---------------------------------------------------------------

BITMASK_SIZES = (16, 18, 20, 22)
CROSS_SIZES = (8, 10, 12)
W1_PAIRS = 40
DIRAC_PAIRS = 20
RUIN_SOLVES = 400
ISO_MAX = 8
ISO_SPOT = (4, 6, 8)


def _sparse_measure(rng, n, k=6):
    a = np.zeros(n)
    sel = rng.choice(n, size=k, replace=False)
    a[sel] = rng.random(k) + 0.05
    return a / a.sum()


def setup_certified(rng):
    torus = graphs.torus_grid(6, 6)
    i, j = np.divmod(np.arange(36), 6)
    di = np.abs(i[:, None] - i[None, :])
    dj = np.abs(j[:, None] - j[None, :])
    torus_dist = np.minimum(di, 6 - di) + np.minimum(dj, 6 - dj)
    z2 = cayley.cayley_ball(cayley.build_group("zd:2"), 12)
    ruin = []
    for n, k in zip(rng.integers(1, 61, size=RUIN_SOLVES),
                    rng.integers(0, 61, size=RUIN_SOLVES)):
        n, k = int(n), int(k) % (int(n) + 1)
        P = graphs.path_graph(n + 3)
        ruin.append((P, graphs.subset_view(P, range(1, n + 2)), n, k))
    return {
        "bitmask": [random_regular(rng, 3, n) for n in BITMASK_SIZES],
        "cross": [random_regular(rng, 3, n) for n in CROSS_SIZES],
        # MILP-path and gap-chain graphs are fixed: on random graphs the
        # integer-program and descent times vary up to twofold by draw
        "milp": [(graphs.cycle_graph(26), 2 / 13),
                 (graphs.torus_grid(3, 9), 6 / 12)],
        "gap": [graphs.torus_grid(3, 4), graphs.hypercube_graph(3)],
        "torus": torus,
        "torus_dist": torus_dist,
        "w1": [(_sparse_measure(rng, 36), _sparse_measure(rng, 36))
               for _ in range(W1_PAIRS)],
        "z2": z2,
        "dirac": [tuple(int(x) for x in rng.choice(z2.n, 2, replace=False))
                  for _ in range(DIRAC_PAIRS)],
        "iso": graphs.torus_grid(4, 5),
        "ruin": ruin,
    }


def _check_cheeger(G, result, want=None):
    val, witness, direction = result
    expect(direction == "exact", f"direction {direction}")
    expect(0 < len(witness) <= G.n // 2, "witness size")
    close(boundary_count(G, witness) / len(witness), val, 1e-12,
          "witness ratio")
    if want is not None:
        close(val, want, 1e-12, "kappa_1")


def _cross(inp):
    out = []
    for G in inp["cross"]:
        k1 = spectral.cheeger_kappa1(G)
        best = min(isoperimetry.min_boundary_exact(G, s)[0] / s
                   for s in range(1, G.n // 2 + 1))
        out.append((k1, best))
    return out


def _check_cross(inp, results):
    for G, (k1, milp_value) in zip(inp["cross"], results):
        _check_cheeger(G, k1)
        close(k1[0], milp_value, 1e-12, "bitmask against integer program")


def _w1_torus(inp):
    G = inp["torus"]
    return [transport.wasserstein1(G, graphs.VertexField(G, a),
                                   graphs.VertexField(G, b))
            for a, b in inp["w1"]]


def _check_w1_torus(inp, results):
    D = inp["torus_dist"]
    for (a, b), (cost, pat) in zip(inp["w1"], results):
        expect(pat.residual <= 1e-9, "pattern residual")
        close(pat.norm(1), cost, 1e-9, "pattern l1 against cost")
        # Kantorovich-Rubinstein: distance-to-a-vertex potentials bound the
        # cost from below, the product coupling from above
        lower = float(np.abs(D.dot(b - a)).max())
        upper = float(a.dot(D).dot(b))
        expect(lower - 1e-9 <= cost <= upper + 1e-9,
               f"cost {cost} outside [{lower}, {upper}]")


def _w1_dirac(inp):
    G = inp["z2"].graph
    return [transport.wasserstein1(G, graphs.Distribution.dirac(G, x),
                                   graphs.Distribution.dirac(G, y))[0]
            for x, y in inp["dirac"]]


def _check_w1_dirac(inp, costs):
    el = inp["z2"].elements
    for (x, y), cost in zip(inp["dirac"], costs):
        # the l1 diamond is geodesically convex, so ball distance is |x-y|_1
        d = sum(abs(p - q) for p, q in zip(el[x], el[y]))
        close(cost, d, 1e-9, "Dirac-to-Dirac cost")


def _iso(inp):
    G = inp["iso"]
    prof = isoperimetry.profile(G, ISO_MAX)
    return prof, [isoperimetry.min_boundary_exact(G, s) for s in ISO_SPOT]


def _check_iso(inp, result):
    G = inp["iso"]
    prof, spots = result
    expect(sorted(prof.table) == list(range(1, ISO_MAX + 1)), "profile sizes")
    for s, (b, witness) in prof.table.items():
        expect(len(witness) == s and boundary_count(G, witness) == b,
               f"profile witness at size {s}")
    for s, (b, witness) in zip(ISO_SPOT, spots):
        expect(len(witness) == s and boundary_count(G, witness) == b,
               f"integer-program witness at size {s}")
        expect(b <= prof.table[s][0], f"min boundary above profile at {s}")


def _ruin(inp):
    return [walk.exit_distribution(P, A, k + 1)[n + 2]
            for P, A, n, k in inp["ruin"]]


def _check_ruin(inp, values):
    for (_, _, n, k), got in zip(inp["ruin"], values):
        close(got, (k + 1) / (n + 2), 1e-10, f"gambler's ruin n={n} k={k}")


def _check_cli_spectral(_inputs, text):
    rep = parse_json(text)
    expect(rep["kappa1_direction"] == "exact", "kappa_1 direction")
    close(rep["kappa1"], 2 / 13, 1e-12, "kappa_1 of C26")
    close(rep["lambda2"], 1 - math.cos(2 * math.pi / 26), 1e-12,
          "lambda_2 of C26")
    expect(all(q["holds"] for q in rep["inequalities"]), "inequality chain")


def _check_cli_complete(_inputs, text):
    rep = parse_json(text)
    expect(rep["kappa1_direction"] == "exact", "kappa_1 direction")
    # |F| (8 - |F|) / |F| is least at |F| = 4; P has eigenvalue -1/7
    close(rep["kappa1"], 4.0, 1e-12, "kappa_1 of K8")
    close(rep["lambda2"], 8 / 7, 1e-12, "lambda_2 of K8")
    expect(all(q["holds"] for q in rep["inequalities"]), "inequality chain")


# least boundary of s cells on the 5x5 torus: a 1x2 domino, an L, a 2x2
# block, a 5-cycle band, a 2x3 block, 2x3 plus one, a 2x4 block
TORUS5_BOUNDARY = {1: 4, 2: 6, 3: 8, 4: 8, 5: 10, 6: 10, 7: 12, 8: 12}


def _check_cli_iso(_inputs, text):
    rows = parse_csv_raw(text)
    expect([int(r["size"]) for r in rows] == list(TORUS5_BOUNDARY),
           "profile sizes")
    G = graphs.torus_grid(5, 5)
    envelope = math.inf
    for row in rows:
        s, b = int(row["size"]), int(row["boundary"])
        witness = [int(v) for v in row["witness"].split()]
        expect(b == TORUS5_BOUNDARY[s], f"least boundary at size {s}")
        expect(len(witness) == s and boundary_count(G, witness) == b,
               f"witness at size {s}")
        envelope = min(envelope, b / s)
        close(float(row["envelope"]), envelope, 1e-9, f"envelope at {s}")


CERTIFIED = [
    Op("cheeger_bitmask",
       lambda inp: [spectral.cheeger_kappa1(G) for G in inp["bitmask"]],
       lambda inp, res: [_check_cheeger(G, r)
                         for G, r in zip(inp["bitmask"], res)]),
    Op("cheeger_bitmask_vs_milp", _cross, _check_cross),
    Op("cheeger_milp",
       lambda inp: [spectral.cheeger_kappa1(G) for G, _ in inp["milp"]],
       lambda inp, res: [_check_cheeger(G, r, want)
                         for (G, want), r in zip(inp["milp"], res)]),
    Op("verify_gap_chain",
       lambda inp: [spectral.verify_gap_chain(G) for G in inp["gap"]],
       lambda inp, reps: [expect(rep.violations() == [], "violations")
                          for rep in reps]),
    Op("wasserstein1_torus", _w1_torus, _check_w1_torus),
    Op("wasserstein1_dirac_z2", _w1_dirac, _check_w1_dirac),
    Op("isoperimetric_profile", _iso, _check_iso),
    Op("gamblers_ruin", _ruin, _check_ruin),
    # several CLI calls of similar size, so that cli_s averages over them
    cli_op("cli_spectral_cycle", ["spectral", "--graph", "cycle:26"],
           _check_cli_spectral),
    cli_op("cli_spectral_complete", ["spectral", "--graph", "complete:8"],
           _check_cli_complete),
    cli_op("cli_iso_profile",
           ["iso", "profile", "--graph", "grid:5,5", "--max-size", "8"],
           _check_cli_iso),
]


# -- group_geometry ----------------------------------------------------------

BALLS = (("heisenberg", 20), ("free:2", 9), ("lamplighter:2,1", 14),
         ("bs:1,2", 10), ("zd:3", 16), ("dinf", 200))
PATH_RADIUS = 12
PATH_WORDS = 50
CENTRAL_RADIUS = 20
CENTRAL_STEPS = 15
WINDOW_SIDES = range(3, 9)
GREEN_STEPS = 6
ENTROPY_STEPS = 8
HEIS_ENTROPY = (16, 14)


def sphere_sizes(spec, R):
    """Closed form for Z^d and free groups, the recorded series otherwise."""
    head, _, arg = spec.partition(":")
    if head == "zd":
        d = int(arg)
        return [1] + [sum(2 ** k * math.comb(d, k) * math.comb(r - 1, k - 1)
                          for k in range(1, d + 1)) for r in range(1, R + 1)]
    if head == "free":
        k = 2 * int(arg)
        return [1] + [k * (k - 1) ** (r - 1) for r in range(1, R + 1)]
    return oracles()["growth"][spec][:R + 1]


def setup_group_geometry(rng):
    heis = cayley.build_group("heisenberg")
    names = [g.name for g in heis.generators]
    lengths = rng.integers(1, PATH_RADIUS + 1, size=PATH_WORDS)
    return {
        "words": [[names[i] for i in rng.integers(0, len(names), size=L)]
                  for L in lengths],
        "window_corner": tuple(int(c) for c in rng.integers(-2, 3, size=2)),
        # the Green sum from x stays inside B(|x| + GREEN_STEPS)
        "green_start": [["s1", "s1'", "s2", "s2'"][i]
                        for i in rng.integers(0, 4, size=2)],
    }


def _ball_with_tables(spec, R):
    def run(_inputs):
        b = cayley.cayley_ball(cayley.build_group(spec), R)
        return b, [b.translation_table(s) for s in b.group.generators]

    def check(_inputs, result):
        b, tables = result
        got = np.bincount(b.word_length).tolist()
        expect(got == sphere_sizes(spec, R), f"sphere sizes of {spec}")
        for s, t in zip(b.group.generators, tables):
            expect(t[b.identity_vertex] == b.vertex_of[s.element],
                   f"table of {s.name} at the identity")
            expect(np.all(t[b.interior] >= 0),
                   f"table of {s.name} leaves the ball from the interior")
            ok = t >= 0
            step = np.abs(b.word_length[t[ok]] - b.word_length[ok])
            expect(np.all(step <= 1), f"table of {s.name} jumps spheres")

    return Op(f"cayley_ball_{spec.split(':')[0]}", run, check)


def _paths(inp):
    g = cayley.build_group("heisenberg")
    b = cayley.cayley_ball(g, PATH_RADIUS)
    return b, [cayley.path_of_element(b, g.word(w)) for w in inp["words"]]


def _check_paths(inp, result):
    b, paths = result
    G = b.graph
    for word, (verts, steps) in zip(inp["words"], paths):
        end = b.group.evaluate(b.group.word(word))
        expect(verts[-1] == b.vertex_of[end], "path ends at the product")
        expect(len(steps) == len(word), "one edge per letter")
        for (e, sign), x, y in zip(steps, verts, verts[1:]):
            ends = (G.tails[e], G.heads[e]) if sign > 0 else (G.heads[e],
                                                              G.tails[e])
            expect(ends == (x, y), "step follows its edge")


def _central(_inputs):
    g = cayley.build_group("heisenberg")
    b = cayley.cayley_ball(g, CENTRAL_RADIUS)
    word = g.central_word()
    A = b.graph.adjacency_matrix()
    a = np.zeros(b.n)
    a[b.identity_vertex] = 1.0
    out = []
    for _ in range(CENTRAL_STEPS):
        out.append(transport.central_transport(
            b, word, graphs.VertexField(b.graph, a)))
        a = A.dot(a) / g.degree
    return out


def _check_central(_inputs, patterns):
    for n, pat in enumerate(patterns):
        expect(pat.residual <= 1e-9, f"residual at n={n}")
        expect(pat.norm(1) <= 4 + 1e-9, f"l1 above the word length at n={n}")


def _windows(inp):
    # the largest square, at the farthest corner, reaches |x|_1 = 18; its
    # boundary edges need the sphere beyond
    b = cayley.cayley_ball(cayley.build_group("zd:2"), 20)
    i0, j0 = inp["window_corner"]
    return [window.window_projection_stats(
        b, [b.vertex_of[(i0 + i, j0 + j)] for i in range(n) for j in range(n)],
        "s1") for n in WINDOW_SIDES]


def _check_window_stats(n, st):
    expect(st["codim"] == st["boundary_minus_one"] == 4 * n - 1,
           f"codimension of the {n}x{n} window")
    close(st["trace"], st["dim_Vprime"], 1e-8, f"trace at n={n}")
    expect(st["max_diag"] >= st["bound"] - 1e-9, f"diagonal bound at n={n}")


def _ball_walks(inp):
    free = cayley.cayley_ball(cayley.build_group("free:2"), 9)
    g = free.group
    x = free.vertex_of[g.evaluate(g.word(inp["green_start"]))]
    green = walk.green_partial(free, x, GREEN_STEPS)
    R, N = HEIS_ENTROPY
    heis = cayley.cayley_ball(cayley.build_group("heisenberg"), R)
    return (green, walk.entropy_profile(free, ENTROPY_STEPS),
            walk.entropy_profile(heis, N))


def _check_entropy_rows(rows, ball_sizes):
    for row in rows:
        n = int(row["n"])
        # the lazy walk after n steps is supported on exactly B(n)
        close(row["H0"], math.log(ball_sizes[n]), 1e-9, f"H0 at n={n}")
        expect(row["H0"] + 1e-12 >= row["H1"] >= row["H2"] - 1e-12
               and row["H2"] + 1e-12 >= row["Hinf"], f"Renyi order at n={n}")
        expect(0 <= row["speed"] <= n, f"speed at n={n}")


def _check_ball_walks(_inputs, result):
    (g, resid), free_rows, heis_rows = result
    close(float(g.a.sum()), 1.0, 1e-12, "Green mass")
    expect(resid <= 2 / GREEN_STEPS + 1e-12, "Green Laplacian residual")
    _check_entropy_rows(free_rows,
                        np.cumsum(sphere_sizes("free:2", ENTROPY_STEPS)))
    _check_entropy_rows(heis_rows,
                        np.cumsum(sphere_sizes("heisenberg", HEIS_ENTROPY[1])))


def cli_walk_profile(spec, radius, steps):
    def check(_inputs, text):
        rows = parse_csv(text)
        expect([int(r["n"]) for r in rows] == list(range(steps + 1)),
               "profile steps")
        _check_entropy_rows(rows, np.cumsum(sphere_sizes(spec, steps)))

    return cli_op(f"cli_walk_profile_{spec.split(':')[0]}",
                  ["walk", "profile", "--group", spec, "--radius", str(radius),
                   "--steps", str(steps)], check)


def _check_cli_witness(_inputs, text):
    rows = parse_csv(text)
    expect([int(r["n"]) for r in rows] == list(range(1, 21)), "witness n")
    for row in rows:
        close(row["c0_ratio"], row["c0_bound"], 1e-9, f"c0 ratio n={row['n']}")
        expect(row["l1_ratio"] <= row["l1_bound"] + 1e-9,
               f"l1 ratio above 2/(n+1) at n={row['n']}")


GROUP_GEOMETRY = [_ball_with_tables(spec, R) for spec, R in BALLS] + [
    Op("path_of_element", _paths, _check_paths),
    Op("central_transport", _central, _check_central),
    Op("window_projection_stats", _windows,
       lambda inp, res: [_check_window_stats(n, st)
                         for n, st in zip(WINDOW_SIDES, res)]),
    Op("ball_walks", _ball_walks, _check_ball_walks),
    # several CLI calls of similar size, so that cli_s averages over them
    cli_walk_profile("free:2", 9, 8),
    cli_walk_profile("heisenberg", 16, 14),
    cli_walk_profile("lamplighter:2,1", 14, 12),
    cli_op("cli_harmonic_witness",
           ["harmonic", "witness", "--group", "zd:2", "--n", "20"],
           _check_cli_witness),
    cli_op("cli_window_stats", ["window", "stats", "--square", "6"],
           lambda _inputs, text: _check_window_stats(6, parse_json(text))),
]


WORKLOADS = {
    "exit_laws": (setup_exit_laws, EXIT_LAWS),
    "certified": (setup_certified, CERTIFIED),
    "group_geometry": (setup_group_geometry, GROUP_GEOMETRY),
}
