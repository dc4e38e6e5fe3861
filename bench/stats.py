"""Reduce raw timings and trace counters to the reported metrics."""

from __future__ import annotations

import math
import statistics

import numpy as np

CLI_SUBCOMMANDS = (
    "gen-pvm", "eval", "check-marginal", "reconstruct",
    "demo-counterexample", "demo-intertwine", "verify-suite",
)


def fastest_per_kind(by_kind: dict[str, list[float]], passed_share: float, share: float):
    """Throughput and op latencies of the fastest ``share`` of each op kind.

    ``by_kind`` maps an op kind to the latencies (seconds) of all its ops
    in the run. The host's per-core speed switches between levels up to
    1.7x apart in spells of about a second, so a kind's fastest ops are
    the ones run at the quick level. Taking the same share of every kind
    keeps the workload's mix in the pooled sample. Throughput is pooled
    ops over their summed time, scaled by the share of ops that passed.
    """
    latencies = []
    for times in by_kind.values():
        latencies += sorted(times)[:max(1, math.ceil(len(times) * share))]
    return passed_share * len(latencies) / sum(latencies), latencies


def best_per_slot(cycles: list[tuple[int, list[float]]]):
    """One cycle made of each call's fastest run: its rate and latencies.

    A CLI call lasts a fraction of a second while the host's slow spells
    last whole cycles, so no cycle is quiet; each call's best time over
    the run is its least disturbed one.
    """
    best = [min(times) for times in zip(*(lat for _, lat in cycles))]
    passed_share = sum(p for p, _ in cycles) / (len(cycles) * len(best))
    return passed_share * len(best) / sum(best), best


def end_to_end(rate: float, latencies: list[float], setups: list[float],
               peak_rss_mb: float) -> dict:
    """Latencies are percentiles; set-up time is the median sample."""
    lat_ms = np.asarray(latencies) * 1e3
    return {
        "ops_per_s": rate,
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_p90_ms": float(np.percentile(lat_ms, 90)),
        "latency_p99_ms": float(np.percentile(lat_ms, 99)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(raw: dict) -> dict:
    """Turn tracer totals into metrics: frame evaluations per certificate
    replaces the two counts it is made from."""
    out = dict(raw)
    certs = out.pop("marginality.certify_calls")
    evals = out.pop("frames.evals_in_cert")
    out["frames.evals_per_cert"] = evals / certs if certs else 0.0
    return out


def idle_process_metrics() -> dict:
    """Process-level figures for a workload that starts no CLI process."""
    out = {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0,
           "serialization.bytes_in": 0, "report.bytes_out": 0}
    out.update({f"cli.command_ms.{c}": 0.0 for c in CLI_SUBCOMMANDS})
    return out
