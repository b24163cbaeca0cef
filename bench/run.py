#!/usr/bin/env python3
"""harmlab benchmark.

Run from the repository root:

    python3 bench/run.py --workload exit_laws --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20 [--trace 1]

A run is a closed loop with one client in one process: it repeats passes
over the workload's operations, back to back in a fixed order, until
`--seconds` have elapsed (at least MIN_PASSES passes).  Each pass starts
from a fresh set-up, so no pass inherits another's lazy caches.  Every
operation's result goes through its oracle check, which is not timed.
Reported times are calibrated against a reference loop; see REFERENCE_S.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics named in BENCHMARK.json, each the median over
passes.  With `--trace 1`, traced passes alternate with untraced ones and
the object holds the per-layer metrics: medians over traced passes, plus
the tracing overhead.  `--all` runs every workload in a fresh process and
prints one table.  Results, the environment and (traced) the spans are
written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
MIN_PASSES = 3
# The machine the benchmark was built on (a shared 2-vCPU VM) runs the same
# code up to 1.8x slower in phases lasting tens of seconds.  Each operation
# and each set-up therefore runs between two reference loops, and its times
# are reported multiplied by REFERENCE_S / (mean loop time): seconds on a
# machine where the loop takes REFERENCE_S.  Raw times stay in the record.
REFERENCE_N = 40000
REFERENCE_S = 0.005
# set-up is timed at least this many times and for at least this long
SETUP_REPEATS = 5
SETUP_MIN_S = 0.2


def cap_threads():
    """One BLAS/OpenMP thread; must run before numpy loads.  On the 2-core
    machine two OpenBLAS threads made the first pass of a run up to twice as
    slow as the rest and spread the pass times."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def require_checkout():
    """The harmlab sources, the fixtures and BENCHMARK.json must exist."""
    needed = [ROOT / "src" / "harmlab" / "__init__.py",
              ROOT / "tests" / "fixtures" / "liouville_z2.json",
              ROOT / "tests" / "fixtures" / "liouville_free2.json",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit("bench: not a harmlab checkout, missing "
                 + ", ".join(missing))
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import networkx
    import numpy
    import scipy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "networkx": networkx.__version__, "git_sha": git_sha(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def reference_loop():
    """Seconds for a fixed pure-Python loop, with the cyclic collector off
    so that collecting the workload's objects does not land in it."""
    gc.disable()
    try:
        t0 = perf_counter()
        d = {}
        for i in range(REFERENCE_N):
            d[(i, i & 7)] = i
        total = 0
        for v in d.values():
            total += v
        return perf_counter() - t0
    finally:
        gc.enable()


def calibrated(fn, *args):
    """Run fn between two reference loops.  Returns (result, exception or
    None, wall seconds, CPU seconds, scale), where scale is REFERENCE_S over
    the mean time of the two loops."""
    before = reference_loop()
    result = error = None
    w0, c0 = perf_counter(), process_time()
    try:
        result = fn(*args)
    except Exception as exc:  # a failing operation is counted, not fatal
        error = exc
    wall, cpu = perf_counter() - w0, process_time() - c0
    scale = REFERENCE_S / ((before + reference_loop()) / 2)
    return result, error, wall, cpu, scale


def timed_setup(setup, seed):
    """Inputs, and set-up seconds as (calibrated, raw)."""
    import numpy as np
    inputs, error, wall, _, scale = calibrated(
        setup, np.random.default_rng(seed))
    if error is not None:
        raise error
    return inputs, (wall * scale, wall)


def run_pass(ops, inputs, cli_outputs, tracer=None):
    """Run every operation once; returns per-operation records."""
    from workloads import CheckFailed
    records = []
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            result, error, wall, cpu, scale = calibrated(op.run, inputs)
            if tracer is not None:
                tracer.op = None
            status = "ok"
            try:
                if error is not None:
                    raise error
                op.check(inputs, result)
                if op.argv is not None:
                    text = result[1]
                    if tracer is not None:
                        tracer.counts["cli.output_bytes"] += len(text.encode())
                    if cli_outputs.setdefault(op.argv, text) != text:
                        raise CheckFailed("output differs from the first "
                                          "call with this argv")
            except CheckFailed as exc:
                status = f"check failed: {exc}"
            except Exception as exc:
                status = f"{type(exc).__name__}: {exc}"
            records.append({"op": op.name, "cli": op.argv is not None,
                            "wall_s": wall * scale, "cpu_s": cpu * scale,
                            "raw_wall_s": wall, "raw_cpu_s": cpu,
                            "status": status})
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records


def summarize(records, setup_s, traced):
    """Pass totals, calibrated and (prefixed raw_) as measured."""
    out = {"traced": traced, "setup_s": setup_s[0],
           "raw_setup_s": setup_s[1], "ops": records}
    for prefix in ("", "raw_"):
        walls = [r[prefix + "wall_s"] for r in records]
        out[prefix + "wall_s"] = sum(walls)
        out[prefix + "cpu_s"] = sum(r[prefix + "cpu_s"] for r in records)
        out[prefix + "cli_s"] = sum(w for w, r in zip(walls, records)
                                    if r["cli"])
    return out


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def pass_medians(passes, setup_samples, prefix):
    """End-to-end times: medians over passes and over set-ups."""
    out = {k: median_of(passes, prefix + k)
           for k in ("wall_s", "cpu_s", "cli_s")}
    # the heaviest operation, each operation taken at its median over passes
    out["max_op_s"] = max(
        statistics.median(p["ops"][i][prefix + "wall_s"] for p in passes)
        for i in range(len(passes[0]["ops"])))
    out["setup_s"] = statistics.median(
        s[prefix == "raw_"] for s in setup_samples)
    return out


def measure(name, seed, seconds, trace, spec):
    """One run of one workload; returns the result object and writes the
    result (and spans) under bench/out/."""
    from tracing import SPAN_FIELDS, Tracer
    from workloads import WORKLOADS
    setup, ops = WORKLOADS[name]
    start = perf_counter()
    # set-up is repeated so that setup_s is a median too
    setup_samples = []
    while (len(setup_samples) < SETUP_REPEATS
           or sum(s[1] for s in setup_samples) < SETUP_MIN_S):
        setup_samples.append(timed_setup(setup, seed)[1])
    passes, tracers, cli_outputs = [], [], {}
    while (len(passes) < MIN_PASSES
           or perf_counter() - start < seconds):
        inputs, setup_s = timed_setup(setup, seed)
        setup_samples.append(setup_s)
        tracer = Tracer() if trace and len(passes) % 2 else None
        passes.append(summarize(run_pass(ops, inputs, cli_outputs, tracer),
                                setup_s, tracer is not None))
        if tracer is not None:
            tracers.append(tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [(i, r["op"], r["status"]) for i, p in enumerate(passes)
                for r in p["ops"] if r["status"] != "ok"]
    attempted = sum(len(p["ops"]) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # traced and untraced passes must reach the same verdicts
    verdicts = {tuple(r["status"] == "ok" for r in p["ops"]) for p in passes}
    consistent = len(verdicts) == 1

    if trace:
        layers = [t.layer_metrics() for t in tracers]
        keys = sorted(set().union(*layers))
        layer = {k: statistics.median(m.get(k, 0) for m in layers)
                 for k in keys}
        # fastest pass of each kind: the least disturbed by warm-up or noise
        layer["trace.overhead"] = (min(p["wall_s"] for p in traced)
                                   / min(p["wall_s"] for p in plain))
        wanted = spec["per_layer"]
    else:
        layer = {}
        wanted = spec["end_to_end"]
    values = {**pass_medians(passes, setup_samples, ""),
              "peak_rss_mb": rss_mb, **layer}
    raw = pass_medians(passes, setup_samples, "raw_")
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    result = {"correct": not failures and consistent,
              "attempted": attempted, "failed": len(failures),
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(),
              "setup_samples": setup_samples, "passes": passes,
              "failures": failures, "consistent_verdicts": consistent,
              "raw": raw, "layers": layer, "result": result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if trace:
        spans = {"fields": SPAN_FIELDS,
                 "passes": [t.spans for t in tracers]}
        Path(f"{stem}-spans.json").write_text(json.dumps(spans))
    return result, record


def print_report(name, result, record):
    env = record["environment"]
    print(f"workload {name}  seed {record['seed']}  passes "
          f"{len(record['passes'])}  trace {record['trace']}")
    print("environment " + json.dumps(env, sort_keys=True))
    for i, op, status in record["failures"]:
        print(f"  FAILED pass {i} {op}: {status}")
    if not record["consistent_verdicts"]:
        print("  FAILED traced and untraced passes disagree on checks")
    for metric, mv in result["metrics"].items():
        print(f"  {metric:48s} {mv['value']:>14.6g} {mv['unit']}")
    print(f"  {'failed_frac':48s} "
          f"{result['failed'] / result['attempted']:>14.6g} ratio")
    print("  as measured, before calibration: " + "  ".join(
        f"{k} {v:.6g} s" for k, v in record["raw"].items()))
    if record["trace"]:
        layer = record["layers"]
        names = sorted({k.rsplit(".", 1)[0] for k in layer
                        if k.endswith(".self_s")},
                       key=lambda n: -layer[f"{n}.self_s"])
        print(f"  {'span':40s} {'s':>10s} {'self_s':>10s} {'calls':>8s}")
        for n in names:
            print(f"  {n:40s} {layer[n + '.s']:10.4f} "
                  f"{layer[n + '.self_s']:10.4f} {layer[n + '.calls']:8.0f}")


def run_all(args, spec):
    """Each workload in a fresh process, so that setup_s and peak_rss_mb
    belong to that workload alone."""
    ok = True
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT, check=False)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            ok = False
        elif not json.loads(proc.stdout.splitlines()[-1])["correct"]:
            ok = False
    return 0 if ok else 1


def main():
    cap_threads()
    spec = require_checkout()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=names)
    which.add_argument("--all", action="store_true",
                       help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all:
        return run_all(args, spec)
    sys.path.insert(0, str(ROOT / "src"))
    result, record = measure(args.workload, args.seed, args.seconds,
                             args.trace, spec)
    print_report(args.workload, result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
