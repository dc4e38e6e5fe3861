#!/usr/bin/env python3
"""Time two source trees on the same benchmark ops, op by op, in one process.

    python tools/interleave.py TREE_A TREE_B --workload certify-mix --seconds 20 --seed 11 12 13

Each tree's ``src/gleason_lab`` is copied under its own package name
(``gleason_lab_a``, ``gleason_lab_b``) into a temporary directory, so
both load side by side. The ops are those of ``bench/inputs.py`` for
the workload and seed, block after block, and each op runs on both
trees one after the other; the tree that runs first alternates from op
to op. Each result is checked with the workload's oracle from
``bench/inproc.py``, outside the timed region. Drift of the host's
speed then falls on both trees alike, so the two columns differ by the
programs' cost, not by when each ran.

Each seed given to ``--seed`` is one run, in the order given, and a
run stops once its ops' summed time, over both trees, reaches
``--seconds``. For each run it prints, per tree, the fastest-5 %
metrics that the benchmark reports (``stats.fastest_per_kind``):
ops_per_s and the p50, p90 and p99 latencies over all kinds, then
ops_per_s and p50 per kind, with the change from A to B. The last line
is one JSON object: ``runs`` holds each seed's figures and each tree's
attempted and failed op counts, and ``b_won`` counts the seeds on which
B's ops_per_s beat A's. The first five failures of each tree in each
run go to stderr. The exit code is 0 when no op failed on either tree,
1 otherwise.

``bench/`` is imported from the checkout holding this script, without
writing bytecode there; BLAS runs on one thread, as in bench/run.py.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
SIDES = ("a", "b")

sys.dont_write_bytecode = True
sys.path.insert(0, BENCH_DIR)
import run as bench_run  # noqa: E402  (imports no numpy)

os.environ.update(bench_run.BLAS_THREADS)

import inproc  # noqa: E402
import stats  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--workload", required=True, choices=sorted(inproc.WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    if min(args.seed) < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    for tree in (args.tree_a, args.tree_b):
        if not os.path.isfile(os.path.join(tree, "src", "gleason_lab", "__init__.py")):
            parser.error(f"no gleason_lab package under {tree}/src")
    return args


def load_side(tree: str, side: str, workdir: str, workload: str):
    """The workload bound to tree's package, copied as gleason_lab_<side>."""
    name = f"gleason_lab_{side}"
    shutil.copytree(os.path.join(tree, "src", "gleason_lab"), os.path.join(workdir, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    w = inproc.WORKLOADS[workload]()
    w.gl = importlib.import_module(name)
    w.prepare()
    return w


def timed(w, op) -> tuple[float, str | None]:
    """Latency of one op and why it failed, or None if it passed its oracle."""
    t0 = time.perf_counter()
    try:
        result = w.execute(op)
    except Exception as exc:  # an op that raises is a failed op
        return time.perf_counter() - t0, f"{op['kind']}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return elapsed, None if w.check(op, result) else f"{op['kind']}: oracle failed"


def interleave(workloads: dict, workload: str, seed: int, seconds: float) -> dict:
    """Run blocks of ops on both sides, alternating the first side."""
    cls = inproc.WORKLOADS[workload]
    by_kind = {s: {} for s in SIDES}
    errors = {s: [] for s in SIDES}
    attempted = spent = 0
    block = 0
    while spent < seconds:
        for op in cls.block(seed, block):
            order = SIDES if attempted % 2 == 0 else SIDES[::-1]
            for side in order:
                t, error = timed(workloads[side], op)
                by_kind[side].setdefault(op["kind"], []).append(t)
                if error is not None:
                    errors[side].append(error)
                spent += t
            attempted += 1
        block += 1
    return {"attempted": attempted, "errors": errors, "by_kind": by_kind}


def summary(by_kind: dict, attempted: int, failed: int) -> dict:
    """The benchmark's fastest-5 % figures, overall and per kind."""
    rate, lat = stats.fastest_per_kind(by_kind, (attempted - failed) / attempted,
                                       inproc.FAST_SHARE)
    e2e = stats.end_to_end(rate, lat, [0.0], 0.0)
    out = {k: e2e[k] for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "latency_p99_ms")}
    out["kinds"] = {}
    for kind in sorted(by_kind):
        k_rate, k_lat = stats.fastest_per_kind({kind: by_kind[kind]}, 1.0, inproc.FAST_SHARE)
        out["kinds"][kind] = {"ops_per_s": k_rate,
                              "latency_p50_ms": statistics.median(k_lat) * 1e3}
    return out


def _row(name: str, a: float, b: float) -> str:
    return f"  {name:28s} {a:>12.4g} {b:>12.4g} {100 * (b / a - 1):>+8.1f} %"


def report(workloads: dict, workload: str, seed: int, seconds: float) -> dict:
    """One seed's run: its table on stdout, its failures on stderr, and
    its figures returned."""
    run = interleave(workloads, workload, seed, seconds)
    n = run["attempted"]
    failed = {s: len(run["errors"][s]) for s in SIDES}
    result = {"seed": seed, "attempted": n, "failed": failed,
              **{s: summary(run["by_kind"][s], n, failed[s]) for s in SIDES}}
    a, b = result["a"], result["b"]
    for side in SIDES:
        for error in run["errors"][side][:5]:
            print(f"{side}: {error}", file=sys.stderr)
    print(f"{workload}, seed {seed}: {n} ops on each tree, "
          f"failed a {failed['a']}, b {failed['b']}")
    print(f"  {'fastest 5 %':28s} {'a':>12s} {'b':>12s} {'b vs a':>10s}")
    for key in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "latency_p99_ms"):
        print(_row(key, a[key], b[key]))
    for kind in a["kinds"]:
        for key in ("ops_per_s", "latency_p50_ms"):
            print(_row(f"{kind} {key}", a["kinds"][kind][key], b["kinds"][kind][key]))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="interleave-") as workdir:
        sys.path.insert(0, workdir)
        workloads = {s: load_side(t, s, workdir, args.workload)
                     for s, t in zip(SIDES, (args.tree_a, args.tree_b))}
        runs = [report(workloads, args.workload, seed, args.seconds) for seed in args.seed]
    won = sum(r["b"]["ops_per_s"] > r["a"]["ops_per_s"] for r in runs)
    print(f"b beat a on ops_per_s for {won} of {len(runs)} seeds")
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, "runs": runs,
                      "b_won": won}))
    return 0 if not any(any(r["failed"].values()) for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
