"""Command-line front end.

Subcommands: spectral, walk profile|exit, transport wasserstein|chain,
iso profile|radial, window stats, harmonic probe|divergence|witness.
Outputs are CSV (header row plus a provenance comment) or JSON with
stable key order; identical configs and seeds give byte-identical files.

Exit codes: 0 success, 2 invalid configuration, 3 budget exceeded,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import BudgetExceeded, InvalidInput, NumericalFailure
from . import cayley, graphs, harmonic, isoperimetry, spectral, transport
from . import walk as walkmod
from . import window as windowmod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_NUMERIC = 4


def _fmt(x):
    if isinstance(x, float) or isinstance(x, np.floating):
        if np.isnan(x):
            raise NumericalFailure("NaN in output")
        if x == 0:
            x = 0.0  # avoid "-0"
        return f"{x:.12g}"
    return str(x)


def emit_csv(rows, path, header, config_hash):
    lines = [f"# harmlab {__version__} config {config_hash}",
             ",".join(header)]
    lines += [",".join(_fmt(row[h]) for h in header) for row in rows]
    _write("\n".join(lines) + "\n", path)


def emit_json(report, path, config_hash):
    obj = {"tool": f"harmlab {__version__}", "config_hash": config_hash,
           "report": report}
    _write(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n",
           path)


def _write(text, path):
    try:
        if path in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        raise InvalidInput(str(exc)) from exc


def _read(path, what, parse=json.loads):
    """parse() of a file's text; InvalidInput if either fails."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise InvalidInput(f"cannot read {what}: {exc}") from None


def _ball_cap(args):
    cap = os.environ.get("HARMLAB_BUDGET")
    if cap:
        try:
            return _at_least(1)(cap)
        except (ValueError, argparse.ArgumentTypeError):
            raise InvalidInput(f"HARMLAB_BUDGET must be an integer >= 1, "
                               f"got {cap!r}") from None
    return getattr(args, "ball_cap", None) or cayley.DEFAULT_BALL_CAP


GRAPH_FAMILIES = {"cycle": graphs.cycle_graph, "tree": graphs.regular_tree,
                  "complete": graphs.complete_graph, "grid": graphs.torus_grid,
                  "hypercube": graphs.hypercube_graph}


def load_graph_spec(spec, cap):
    """Builtin graph spec (cycle:n, complete:n, hypercube:d, grid:w,h,
    tree:d,depth) of at most `cap` vertices, or a path to a JSON graph
    file; the graph needs an edge."""
    head, _, rest = spec.partition(":")
    if head in GRAPH_FAMILIES:
        try:
            G = GRAPH_FAMILIES[head](*(int(a) for a in rest.split(",")),
                                     cap=cap)
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"bad graph spec {spec!r}: {exc}") from exc
    elif os.path.exists(spec):
        G = graphs.load_graph(spec, cap=cap)
    else:
        raise InvalidInput(f"unknown graph spec or missing file: {spec}")
    if G.m == 0:
        raise InvalidInput(f"graph {spec} has no edges")
    return G


def _parse_radii(text):
    a, dots, b = text.partition("..")
    try:
        radii = (list(range(int(a), int(b) + 1)) if dots
                 else [int(x) for x in text.split(",")])
    except ValueError:
        radii = []
    if not radii or min(radii) < 1:
        raise InvalidInput(f"radii must be a..b or a comma list of "
                           f"integers >= 1, got {text!r}")
    return radii


def _at_least(lo):
    """type= converter: an integer >= lo."""
    def convert(text):
        x = int(text)
        if x < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, not {x}")
        return x
    convert.__name__ = "int"  # argparse names the type in its messages
    return convert


def _real(lo=-np.inf, hi=np.inf):
    """type= converter: a finite number in [lo, hi)."""
    def convert(text):
        x = float(text)
        if not (np.isfinite(x) and lo <= x < hi):
            raise argparse.ArgumentTypeError(
                f"must be a finite number in [{lo}, {hi}), not {x}")
        return x
    convert.__name__ = "float"
    return convert


# -- command implementations ----------------------------------------------
# each returns (header, rows) for CSV output or a report dict for JSON


def cmd_spectral(args):
    try:
        p_list = [float(p) for p in args.p.split(",")]
        if not all(1 <= p <= spectral.P_MAX for p in p_list):
            raise ValueError
    except ValueError:
        raise InvalidInput(f"--p takes comma-separated numbers in [1, "
                           f"{spectral.P_MAX:g}], not {args.p!r}") from None
    p_list = [p for p in p_list if p not in (1.0, 2.0)]
    G = load_graph_spec(args.graph, _ball_cap(args))
    rep = spectral.verify_gap_chain(G, p_list=p_list)
    return {
        "graph": args.graph,
        "d": rep.d,
        "kappa1": rep.kappa1.hi,
        "kappa1_direction": rep.kappa1.direction,
        "kappa1_witness": [int(v) for v in rep.kappa1.witness],
        "lambda2": rep.lambda2.hi,
        "entries": [{"p": e.p, "kappa": e.kappa.hi,
                     "kappa_direction": e.kappa.direction, "lam": e.lam.hi,
                     "lam_direction": e.lam.direction} for e in rep.entries],
        "inequalities": [vars(q) for q in rep.inequalities],
    }


def cmd_walk_profile(args):
    group = cayley.build_group(args.group)
    b = cayley.cayley_ball(group, args.radius, cap=_ball_cap(args))
    rows = walkmod.entropy_profile(b, args.steps, laziness=args.laziness)
    return (["n", "H0", "H1", "H2", "Hinf", "speed", "grad_l1",
             "return_prob"], rows)


def cmd_walk_exit(args):
    group = cayley.build_group(args.group)
    r = args.region
    gen = group.gen(args.to) if args.to else None
    b = cayley.cayley_ball(group, r + 1, cap=_ball_cap(args))
    A = graphs.ball_from_distances(b.graph, b.word_length, r)
    v = b.identity_vertex
    w = int(b.translation_table(gen)[v]) if gen is not None else v
    if not A.mask[w]:
        raise InvalidInput(f"second origin --to {args.to} lies outside "
                           f"--region {r}")
    exv, exw = walkmod.exit_distributions(b.graph, A, [v, w])
    rows = []
    for x in np.flatnonzero(exv.a + exw.a):
        rows.append({"vertex": int(x),
                     "element": repr(b.elements[int(x)]).replace(",", " "),
                     "exit_from_origin": float(exv.a[x]),
                     "exit_from_target": float(exw.a[x])})
    return ["vertex", "element", "exit_from_origin", "exit_from_target"], rows


def cmd_transport_wasserstein(args):
    G = load_graph_spec(args.graph, _ball_cap(args))
    src = _load_measure(G, args.src)
    dst = _load_measure(G, args.dst)
    cost, pat = transport.wasserstein1(G, src, dst)
    return {"cost": cost, "residual": pat.residual,
            "support": len(pat.tau.support)}


def _load_measure(G, path):
    """Rows "vertex,mass", one per vertex; blank, "#" and "vertex" lines
    are skipped."""
    vals, seen = np.zeros(G.n), set()
    lines = _read(path, "measure file", str.splitlines)
    for num, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("vertex"):
            continue
        try:
            v, m = line.split(",")
            v, m = int(v), float(m)
            if not (0 <= v < G.n and np.isfinite(m)):
                raise ValueError
        except ValueError:
            raise InvalidInput(f"{path} line {num}: expected vertex,mass "
                               f"with a vertex in 0..{G.n - 1}, got "
                               f"{line!r}") from None
        if v in seen:
            raise InvalidInput(f"{path} line {num}: vertex {v} is listed "
                               f"twice")
        seen.add(v)
        vals[v] = m
    return graphs.VertexField(G, vals)


def cmd_transport_chain(args):
    graphs.check_exponent(args.p)
    group = cayley.build_group(args.group)
    levels = _parse_radii(args.levels)
    R = max(levels) + 2
    b = cayley.cayley_ball(group, R, cap=_ball_cap(args))
    v = b.identity_vertex
    w = int(b.graph.neighbors(v)[0])
    # word length is the BFS distance from the identity
    regions = [graphs.ball_from_distances(b.graph, b.word_length, r)
               for r in levels]
    rows = transport.exit_transport_chain(b.graph, v, w, regions, p=args.p)
    for row, r in zip(rows, levels):
        row["r"] = r
        row.pop("pattern")
    return (["r", "interior_size", "norm_p", "norm_inf", "exit_diff_l1",
             "exit_diff_inf", "residual"], rows)


def cmd_iso_profile(args):
    G = load_graph_spec(args.graph, _ball_cap(args))
    prof = isoperimetry.profile(G, args.max_size, budget=args.budget)
    rows = []
    env = prof.envelope()
    for s in sorted(prof.table):
        b, wit = prof.table[s]
        rows.append({"size": s, "boundary": b, "ratio": b / s,
                     "envelope": env[s],
                     "witness": " ".join(str(v) for v in wit)})
    return ["size", "boundary", "ratio", "envelope", "witness"], rows


def cmd_iso_radial(args):
    G = load_graph_spec(args.graph, _ball_cap(args))
    members = _read(args.set, "vertex set")
    if not (isinstance(members, list) and members
            and all(type(v) is int and 0 <= v < G.n for v in members)):
        raise InvalidInput(f"{args.set} must hold a JSON list of vertices "
                           f"in 0..{G.n - 1}")
    return isoperimetry.radial_iso_check(G, members, K=args.K, k=args.k)


def cmd_window_stats(args):
    group = cayley.build_group("zd:2")
    group.gen(args.label)  # rejects an unknown label
    n = args.square
    b = cayley.cayley_ball(group, 2 * n + 2, cap=_ball_cap(args))
    lo = -(n // 2)
    sq = [b.vertex_of[(i, j)] for i in range(lo, lo + n)
          for j in range(lo, lo + n)]
    st = windowmod.window_projection_stats(b, sq, args.label)
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in st.items()}


def cmd_harmonic_probe(args):
    group = cayley.build_group(args.group)
    radii = _parse_radii(args.radii)
    b = cayley.cayley_ball(group, max(radii) + 1, cap=_ball_cap(args))
    v = b.identity_vertex
    w = int(b.graph.neighbors(v)[0])
    rows = harmonic.liouville_probe(b.graph, v, v, w, radii)
    return ["r", "l1", "linf"], rows


def cmd_harmonic_divergence(args):
    group = cayley.build_group(args.group)
    b = cayley.cayley_ball(group, args.K * args.n + 2, cap=_ball_cap(args))
    rows = harmonic.divergence_profile(b.graph, b.identity_vertex,
                                       args.K, args.n)
    for row in rows:
        if not np.isfinite(row["D"]):
            row["D"] = -1  # unreachable pair classes
    return ["n", "S_size", "S_out_size", "D"], rows


def cmd_harmonic_witness(args):
    group = cayley.build_group(args.group)
    b = cayley.cayley_ball(group, args.n + 2, cap=_ball_cap(args))
    rows = []
    for n in range(1, args.n + 1):
        _, c0 = harmonic.laplacian_witness(b, "c0", n)
        _, l1 = harmonic.laplacian_witness(b, "l1", n)
        rows.append({"n": n, "c0_ratio": c0, "c0_bound": 1.0 / (n + 1),
                     "l1_ratio": l1, "l1_bound": 2.0 / (n + 1)})
    return ["n", "c0_ratio", "c0_bound", "l1_ratio", "l1_bound"], rows


# -- argument plumbing -----------------------------------------------------


def build_parser(supplied=()):
    """The harmlab parser; options whose dest is in `supplied` (the keys
    of a --config object) are not required."""
    top = argparse.ArgumentParser(
        prog="harmlab",
        description="numerical laboratory for discrete calculus, spectral "
                    "gaps, random walks, transport and isoperimetry")
    top.add_argument("--config", help="JSON file with default option values")
    sub = top.add_subparsers(dest="command")

    def common(p, func):
        # ends a subcommand: `options` maps the dest of each of its options
        # to the option's action, for --config values
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--ball-cap", type=_at_least(1), default=None)
        p.add_argument("--dry-run", action="store_true")
        for a in p._actions:
            if a.dest in supplied:
                a.required = False
        p.set_defaults(func=func, options={a.dest: a for a in p._actions
                                           if a.default != argparse.SUPPRESS})

    p = sub.add_parser("spectral")
    p.add_argument("--graph", required=True)
    p.add_argument("--p", default="1.5,3,4")
    common(p, cmd_spectral)

    p = sub.add_parser("walk")
    wsub = p.add_subparsers(dest="subcommand")
    q = wsub.add_parser("profile")
    q.add_argument("--group", required=True)
    q.add_argument("--radius", type=_at_least(1), required=True)
    q.add_argument("--steps", type=_at_least(0), required=True)
    q.add_argument("--laziness", type=_real(0, 1), default=0.5)
    common(q, cmd_walk_profile)
    q = wsub.add_parser("exit")
    q.add_argument("--group", required=True)
    q.add_argument("--region", type=_at_least(0), required=True,
                   help="ball radius for the stopping region")
    q.add_argument("--to", default=None,
                   help="generator name for the second origin")
    common(q, cmd_walk_exit)

    p = sub.add_parser("transport")
    tsub = p.add_subparsers(dest="subcommand")
    q = tsub.add_parser("wasserstein")
    q.add_argument("--graph", required=True)
    q.add_argument("--src", required=True)
    q.add_argument("--dst", required=True)
    common(q, cmd_transport_wasserstein)
    q = tsub.add_parser("chain")
    q.add_argument("--group", required=True)
    q.add_argument("--p", type=float, default=2.0)
    q.add_argument("--levels", required=True)
    common(q, cmd_transport_chain)

    p = sub.add_parser("iso")
    isub = p.add_subparsers(dest="subcommand")
    q = isub.add_parser("profile")
    q.add_argument("--graph", required=True)
    q.add_argument("--max-size", type=_at_least(1), required=True)
    q.add_argument("--budget", type=_at_least(0),
                   default=isoperimetry.ENUM_BUDGET)
    common(q, cmd_iso_profile)
    q = isub.add_parser("radial")
    q.add_argument("--graph", required=True)
    q.add_argument("--set", required=True, help="JSON list of vertices")
    q.add_argument("--K", type=_real(), default=1.0)
    q.add_argument("--k", type=_real(), default=1.0)
    common(q, cmd_iso_radial)

    p = sub.add_parser("window")
    wsub2 = p.add_subparsers(dest="subcommand")
    q = wsub2.add_parser("stats")
    q.add_argument("--square", type=_at_least(1), required=True)
    q.add_argument("--label", default="s1")
    common(q, cmd_window_stats)

    p = sub.add_parser("harmonic")
    hsub = p.add_subparsers(dest="subcommand")
    q = hsub.add_parser("probe")
    q.add_argument("--group", required=True)
    q.add_argument("--radii", required=True, help="e.g. 5..40 or 5,10,20")
    common(q, cmd_harmonic_probe)
    q = hsub.add_parser("divergence")
    q.add_argument("--group", required=True)
    q.add_argument("--K", type=_at_least(2), default=2)
    q.add_argument("--n", type=_at_least(1), required=True)
    common(q, cmd_harmonic_divergence)
    q = hsub.add_parser("witness")
    q.add_argument("--group", required=True)
    q.add_argument("--n", type=_at_least(1), required=True)
    common(q, cmd_harmonic_witness)
    return top


def _read_config(argv):
    """The --config object ({} without one), read before the full parse so
    that it can supply required options."""
    pre = argparse.ArgumentParser(prog="harmlab", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return {}
    overrides = _read(path, "config")
    if not isinstance(overrides, dict):
        raise InvalidInput("config must be a JSON object")
    return overrides


def _apply_config(args, overrides):
    """Make the options named in a --config object default to its values:
    a flag takes true or false, any other option the text of its value,
    converted by the option's own type.  Keys that name no option are
    ignored."""
    for key, val in overrides.items():
        act = args.options.get(key.replace("-", "_"))
        if act is None:
            continue
        if act.nargs == 0:
            if not isinstance(val, bool):
                raise InvalidInput(f"{key} takes true or false, not {val!r}")
        else:
            try:
                val = (act.type or str)(str(val))
            except (ValueError, argparse.ArgumentTypeError):
                raise InvalidInput(f"invalid {key} {val!r}") from None
        act.default = val


def main(argv=None):
    try:
        overrides = _read_config(argv)
        parser = build_parser({k.replace("-", "_") for k in overrides})
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return EXIT_CONFIG
        if overrides:  # parse again: a flag on the command line wins
            _apply_config(args, overrides)
            args = parser.parse_args(argv)
        cfg = {k: v for k, v in sorted(vars(args).items())
               if k not in ("func", "options", "config", "out", "dry_run")}
        chash = hashlib.sha256(json.dumps(cfg, sort_keys=True, default=str)
                               .encode()).hexdigest()[:12]
        if getattr(args, "dry_run", False):
            print(f"config ok ({chash})")
            return EXIT_OK
        out = args.func(args)
        if isinstance(out, dict):
            emit_json(out, args.out, chash)
        else:
            header, rows = out
            emit_csv(rows, args.out, header, chash)
        return EXIT_OK
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
