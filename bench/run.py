"""gleason-lab benchmark.

    python3 bench/run.py --workload certify-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs one workload (or, with ``all``, each in its own process) from the
root of a source checkout, importing the package from ``src/``. With
``--trace 0`` it times the workload and reports the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` it makes a separate traced
run and reports the per-layer metrics. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The
line before it holds the machine record, host probe, input digest and
other detail. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

# One caller and no helper threads: BLAS runs on the calling thread, in
# this process and in every CLI process it starts. Set before numpy loads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("certify-mix", "extension-mix", "cli-cycle")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_one(args, spec: dict) -> tuple[dict, dict]:
    import inproc
    import machine

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine.record(ROOT),
              "probe_before_ms": machine.probe_ms()}
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    # Fixed-length name: reports echo input paths, so their byte counts repeat.
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        if args.workload == "cli-cycle":
            import clicycle
            attempted, failed, values, more = clicycle.run(
                args.seed, args.seconds, bool(args.trace), ROOT, work)
        else:
            attempted, failed, values, more = inproc.run(
                args.workload, args.seed, args.seconds, bool(args.trace), BENCH_DIR, SRC)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:  # another run still uses it
            pass
    detail.update(more)
    detail["probe_after_ms"] = machine.probe_ms()

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    if set(values) != names:
        raise RuntimeError(f"metric set mismatch: missing {sorted(names - set(values))}, "
                           f"extra {sorted(set(values) - names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def run_all(args) -> int:
    """Run every workload in its own process and print a table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        results[workload] = {**result, "failed_share": detail["failed_share"],
                             "input_digest": detail["input_digest"]}
        print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"failed_share {detail['failed_share']:g} ({detail['input_digest'][:12]})")
        for name, m in result["metrics"].items():
            print(f"   {name:40s} {m['value']:>14.6g} {m['unit']}")
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "gleason_lab", "__init__.py")):
        print(f"error: no gleason_lab package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    result, detail = run_one(args, load_spec())
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
