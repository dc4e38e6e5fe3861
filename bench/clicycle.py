"""cli-cycle: the gleason-lab CLI run as a user runs it, one process per call.

Each cycle makes the same 11 calls, one at a time, against input files
written from the seed during set-up. A call fails its oracle on an
unexpected exit code, on stdout that does not parse or lacks the
expected verdict / pass flag, or on an ``--out`` artifact that does not
parse. The verify-suite report, with its timestamp removed, must be the
same in every cycle.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

import inputs
import stats
import tracer as tracer_mod

MIN_CYCLES = 10  # each call's best time is taken over at least this many runs
PLAIN_TRACE_CYCLES = 2
PROBE_SAMPLES = 5
CALL_TIMEOUT_S = 60


def cycle_calls(paths: dict[str, str], work: str, seed: int) -> list[dict]:
    """The fixed call list: argv, expected exit code, expected summary
    fields (None: stdout must be empty) and the artifact written, if any."""
    s = str(seed)

    def call(argv, code, summary, out=None, reads=()):
        if out is not None:
            out = os.path.join(work, out)
            argv = argv + ["--out", out]
        return {"argv": argv, "code": code, "summary": summary, "out": out,
                "reads": [paths[r] for r in reads]}

    def check(role, code, verdict):
        return call(["check-marginal", "--frame", paths[role]], code,
                    {"verdict": verdict, "pass": code == 0}, reads=[role])

    return [
        check("born2", 0, "marginal"),
        call(["check-marginal", "--frame", paths["born8"]], 0,
             {"verdict": "marginal", "pass": True}, out="cert8.json", reads=["born8"]),
        check("deterministic", 3, "non_marginal"),
        check("definite_xz", 3, "non_marginal"),
        call(["check-marginal", "--frame", paths["missing"]], 2, None, reads=["missing"]),
        call(["reconstruct", "--frame", paths["born4"]], 0,
             {"consistent": True, "pass": True}, reads=["born4"]),
        call(["eval", "--frame", paths["born4"], "--pvm", paths["pvm4"]], 0,
             {"pass": True}, reads=["born4", "pvm4"]),
        call(["gen-pvm", "--dim", "8", "--seed", s], 0, {"pass": True}, out="pvm8.json"),
        call(["demo-intertwine", "--n-psi", "20", "--seed", s], 0, {"pass": True}),
        call(["demo-counterexample", "--seed", s], 0, {"pass": True}),
        call(["verify-suite", "--dims", "2,3,4", "--trials", "25", "--seed", s], 0,
             {"pass": True}, out="suite.json"),
    ]


class Runner:
    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.wrapper = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_wrapper.py")
        self.suite_body = None

    def invoke(self, argv: list[str], trace_file: str | None = None):
        if trace_file is None:
            cmd = [sys.executable, "-m", "gleason_lab.cli", *argv]
        else:
            cmd = [sys.executable, self.wrapper, trace_file, *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=CALL_TIMEOUT_S)
        return time.perf_counter() - t0, proc

    def check(self, call: dict, proc) -> tuple[str | None, int]:
        """Return (error or None, bytes written to stdout and the artifact)."""
        out_bytes = len(proc.stdout.encode())
        if proc.returncode != call["code"]:
            return f"exit {proc.returncode}, expected {call['code']}: {proc.stderr[-300:]}", out_bytes
        if call["summary"] is None:
            if proc.stdout or "not defined on projector" not in proc.stderr:
                return f"unexpected output for a domain error: {proc.stderr[-300:]}", out_bytes
            return None, out_bytes
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return "stdout is not JSON", out_bytes
        summary = report.get("summary", {})
        for key, want in call["summary"].items():
            if summary.get(key) != want:
                return f"summary.{key} = {summary.get(key)!r}, expected {want!r}", out_bytes
        if call["out"] is not None:
            try:
                with open(call["out"], "rb") as handle:
                    raw = handle.read()
                artifact = json.loads(raw)
            except (OSError, json.JSONDecodeError) as exc:
                return f"artifact {os.path.basename(call['out'])}: {exc}", out_bytes
            out_bytes += len(raw)
            if report["command"] == "verify-suite":
                artifact.pop("timestamp", None)
                if self.suite_body is None:
                    self.suite_body = artifact
                elif artifact != self.suite_body:
                    return "verify-suite report differs from the first cycle", out_bytes
        return None, out_bytes


def _subcommand(call: dict) -> str:
    return call["argv"][0]


def run(seed: int, seconds: float, trace: bool, root: str, work: str):
    paths = inputs.write_cli_inputs(seed, work)
    calls = cycle_calls(paths, work, seed)
    detail = {"input_digest": inputs.digest_files(paths), "calls_per_cycle": len(calls)}
    runner = Runner(root, work)
    setups = [_warm_up(runner, calls[0])]
    if trace:
        return _traced(runner, calls, detail)

    # The warm-up call is repeated after every cycle, so the set-up median
    # does not hang on the host's speed in one short spell.
    cycles, errors = [], []
    elapsed_total = 0.0
    while elapsed_total < seconds or len(cycles) < MIN_CYCLES:
        latencies = []
        passed = 0
        for call in calls:
            elapsed, proc = runner.invoke(call["argv"])
            latencies.append(elapsed)
            error, _ = runner.check(call, proc)
            if error is None:
                passed += 1
            else:
                errors.append(f"{_subcommand(call)}: {error}")
        cycles.append((passed, latencies))
        elapsed_total += sum(latencies)
        setups.append(_warm_up(runner, calls[0]))
    attempted = len(cycles) * len(calls)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    rate, latencies = stats.best_per_slot(cycles)
    metrics = stats.end_to_end(rate, latencies, setups, peak_mb)
    detail.update(call_ms=[[t * 1e3 for t in lat] for _, lat in cycles],
                  setup_samples_s=setups, errors=errors[:20],
                  failed_share=len(errors) / attempted)
    return attempted, len(errors), metrics, detail


def _warm_up(runner: Runner, call: dict) -> float:
    """One untimed call; its wall time is a set-up sample."""
    elapsed, proc = runner.invoke(call["argv"])
    error, _ = runner.check(call, proc)
    if error is not None:
        raise RuntimeError(f"warm-up call failed: {error}")
    return elapsed


def _median_ms(argv: list[str], runner: Runner) -> float:
    samples = []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=runner.env, cwd=runner.root,
                       capture_output=True, check=True, timeout=CALL_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def _import_split(runner: Runner) -> dict:
    """Cumulative import time of the top-level packages, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gleason_lab.cli"],
                          env=runner.env, cwd=runner.root, capture_output=True, text=True,
                          check=True, timeout=CALL_TIMEOUT_S)
    split = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name in ("site", "certifi", "numpy", "gleason_lab", "gleason_lab.cli"):
            split[f"{name}_ms"] = int(parts[1]) / 1e3
    return split


def _traced(runner: Runner, calls: list[dict], detail: dict):
    """Untraced cycles for per-command times and the overhead base, then
    one cycle through the tracing wrapper."""
    errors = []
    plain_time = 0.0
    by_command: dict[str, list[float]] = {c: [] for c in stats.CLI_SUBCOMMANDS}
    for _ in range(PLAIN_TRACE_CYCLES):
        for call in calls:
            elapsed, proc = runner.invoke(call["argv"])
            plain_time += elapsed
            by_command[_subcommand(call)].append(elapsed)
            error, _ = runner.check(call, proc)
            if error is not None:
                errors.append(f"{_subcommand(call)}: {error}")
    traced_time = 0.0
    parts, import_ms = [], []
    bytes_in = bytes_out = 0
    for i, call in enumerate(calls):
        trace_file = os.path.join(runner.work, f"trace-{i}.json")
        elapsed, proc = runner.invoke(call["argv"], trace_file)
        traced_time += elapsed
        error, out_bytes = runner.check(call, proc)
        if error is not None:
            errors.append(f"{_subcommand(call)} (traced): {error}")
        with open(trace_file) as handle:
            record = json.load(handle)
        parts.append(record["layers"])
        import_ms.append(record["import_ms"])
        bytes_in += sum(os.path.getsize(p) for p in call["reads"])
        bytes_out += out_bytes
    per_cycle_plain = plain_time / PLAIN_TRACE_CYCLES
    metrics = stats.per_layer(tracer_mod.merge(parts))
    metrics.update({
        "serialization.bytes_in": bytes_in,
        "report.bytes_out": bytes_out,
        "cli.interpreter_ms": _median_ms(["-c", "pass"], runner),
        "cli.import_ms": statistics.median(import_ms),
        "trace.overhead_ratio": traced_time / per_cycle_plain,
    })
    metrics.update({f"cli.command_ms.{c}": statistics.median(v) * 1e3
                    for c, v in by_command.items()})
    attempted = (PLAIN_TRACE_CYCLES + 1) * len(calls)
    detail.update(import_split_ms=_import_split(runner), errors=errors[:20],
                  failed_share=len(errors) / attempted)
    return attempted, len(errors), metrics, detail
