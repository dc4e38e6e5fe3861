"""Machine record and host-speed probe written with every result."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time

import numpy as np

PROBE_REPEATS = 5
PROBE_ITERATIONS = 400


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def _commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def record(root: str) -> dict:
    blas_env = {k: os.environ[k] for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas_version(),
        "blas_threads": blas_env,
        "commit": _commit(root),
    }


def probe_ms() -> float:
    """Median time of a fixed pure-numpy loop on small complex matrices.

    It never touches the program, so a change in it between runs is the
    host's speed changing, not the code's.
    """
    rng = np.random.default_rng(0)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = m + m.conj().T
    samples = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        for _ in range(PROBE_ITERATIONS):
            np.linalg.eigvalsh(h @ h)
            np.kron(m, m)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3
