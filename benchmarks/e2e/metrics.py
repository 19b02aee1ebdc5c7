"""Metric dictionary and the statistics behind every reported number.

:data:`E2E` and :data:`PER_LAYER` are the single list of metric names:
``BENCHMARK.json`` must name exactly these, and the README's metric
dictionary describes them.  Each per-layer metric records the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple


#: Iterations of the host-speed reference loop: one pass takes about
#: 0.45 ms on an idle 2-vCPU Xeon host and up to twice that while other
#: tenants load the physical cores.
REF_LOOPS = 3000
#: Seconds one reference pass is taken to last.  Timed metrics are wall
#: times scaled by this over the reference time measured around them
#: (:func:`normalize`): seconds on a host that runs the loop this fast.
REF_SECONDS = 0.0005


class Metric(NamedTuple):
    """One reported metric: unit, direction and what it means."""

    unit: str
    better: str
    meaning: str


#: End-to-end metrics, printed by every untraced run of every workload.
#: A job's latency is the wall time its caller sees at reference host
#: speed (:func:`normalize`), and a position's latency is its median
#: over the rounds (:func:`per_position`); setup_s and peak_rss_mb are
#: not normalized.
E2E: Dict[str, Metric] = {
    "setup_s": Metric("s", "lower",
                      "median of 3 to 7 set-ups: interpreter start to ready (imports, "
                      "servers answering /health, pre-forked pools, warm-up job, svc_warm "
                      "pre-warm)"),
    "jobs_per_s": Metric("1/s", "higher",
                         "closed-loop throughput: round positions over the sum of their "
                         "latencies"),
    "job_p50_s": Metric("s", "lower", "median over positions of job latency"),
    "job_p90_s": Metric("s", "lower", "90th percentile over positions of job latency"),
    "peak_rss_mb": Metric("MB", "lower",
                          "larger ru_maxrss of the bench process and of its children, "
                          "read after the servers exit"),
}

#: Per-layer metrics, printed by every traced run of every workload (0
#: where a workload does not reach the layer).  ``frac`` metrics are
#: shares of the summed client-side job wall time and add up to 1;
#: counts cover round 0 of each client and repeat exactly for a given
#: seed.
PER_LAYER: Dict[str, Metric] = {
    "trace.unattributed_frac": Metric("frac", "lower",
                                      "bench time no layer span covers; reported only"),
    "svc.client.transport_frac": Metric("frac", "lower",
                                        "client wall minus record latency: HTTP, JSON, "
                                        "router; moves job_p50_s on svc_warm"),
    "svc.queue.wait_frac": Metric("frac", "lower",
                                  "record queue_wait_seconds; moves job_p90_s on svc_cold"),
    "svc.pool.dispatch_frac": Metric("frac", "lower",
                                     "latency - queue wait - cache lookup - worker "
                                     "execute_job: pipe and pickling; moves jobs_per_s "
                                     "on svc_cold"),
    "svc.worker.self_frac": Metric("frac", "lower",
                                   "execute_job self time in the pool worker; moves "
                                   "job_p50_s on svc_cold"),
    "cache.self_frac": Metric("frac", "lower",
                              "daemon try_cached_result plus worker ResultCache self "
                              "time; moves job_p50_s on svc_warm"),
    "harness.self_frac": Metric("frac", "lower",
                                "run_trials self time; moves jobs_per_s on trials"),
    "apps.self_frac": Metric("frac", "lower",
                             "BaseApp.run self time (build, setup, oracle); moves "
                             "jobs_per_s on trials"),
    "sim.kernel.self_frac": Metric("frac", "lower",
                                   "Kernel.run time; moves jobs_per_s on trials and "
                                   "explore"),
    "sim.explore.self_frac": Metric("frac", "lower",
                                    "explore_app/explore_summary self time (search "
                                    "bookkeeping); moves job_p90_s on explore"),
    "sim.snapshot.self_frac": Metric("frac", "lower",
                                     "StatelessPool self time (replay build and "
                                     "observe); moves job_p50_s on explore"),
    "infer.self_frac": Metric("frac", "lower",
                              "infer_app, confirm_bug, steer_candidate self time; moves "
                              "job_p90_s on svc_cold"),
    "detect.self_frac": Metric("frac", "lower",
                               "analyze self time as the pipeline calls it; moves "
                               "job_p90_s on svc_cold"),
    "svc.router.hop_frac": Metric("frac", "lower",
                                  "paired router-minus-shard wall of the same warm hit, "
                                  "over the routed wall; moves job_p50_s on svc_warm"),
    "trace.overhead_frac": Metric("frac", "lower",
                                  "traced wall / untraced wall - 1 on identical jobs; "
                                  "reported only"),
    "core.armed_over_plain": Metric("ratio", "lower",
                                    "host time of armed over plain jobs on the same rows "
                                    "and seeds, at reference speed (Table 1 "
                                    "overhead); moves jobs_per_s on trials"),
    "sim.kernel.steps_per_s": Metric("1/s", "higher",
                                     "kernel steps per second of Kernel.run; moves "
                                     "jobs_per_s on trials"),
    "sim.explore.schedules_per_s": Metric("1/s", "higher",
                                          "schedules per second of explore_app; moves "
                                          "jobs_per_s on explore"),
    "sim.kernel.steps": Metric("count", "lower",
                               "RunResult.steps in round 0; moves jobs_per_s on trials"),
    "sim.explore.schedules": Metric("count", "lower",
                                    "schedules round 0's results report; moves "
                                    "jobs_per_s on explore"),
    "sim.dpor.sleep_set_prunes": Metric("count", "higher",
                                        "summary dpor.sleep_set_prunes in round 0; "
                                        "moves job_p90_s on explore"),
    "sim.dpor.preemption_cuts": Metric("count", "higher",
                                       "summary preemption cuts in round 0; moves "
                                       "job_p90_s on explore"),
    "cache.hit": Metric("count", "higher", "/metrics delta; moves job_p50_s on svc_warm"),
    "cache.partial_hit": Metric("count", "higher",
                                "/metrics delta; moves job_p50_s on svc_warm"),
    "cache.miss": Metric("count", "lower", "/metrics delta; moves job_p50_s on svc_cold"),
    "cache.store": Metric("count", "lower", "/metrics delta; moves jobs_per_s on svc_cold"),
    "svc.pool.jobs": Metric("count", "lower",
                            "/metrics delta; moves jobs_per_s on svc_cold"),
    "svc.pool.crashes": Metric("count", "lower", "/metrics delta; moves jobs_per_s"),
    "svc.jobs.retries": Metric("count", "lower", "/metrics delta; moves jobs_per_s"),
    "infer.candidates": Metric("count", "higher",
                               "candidates round 0's inference reports hold; moves "
                               "job_p90_s on svc_cold"),
    "svc.client.requests_per_job": Metric("count", "lower",
                                          "HTTP requests sent per job; moves job_p50_s "
                                          "on svc_warm"),
}

#: Span layer behind each share metric (the rest are derived from records).
SHARE_LAYERS: Dict[str, str] = {
    "trace.unattributed_frac": "bench",
    "svc.worker.self_frac": "svc.worker",
    "cache.self_frac": "cache",
    "harness.self_frac": "harness",
    "apps.self_frac": "apps",
    "sim.kernel.self_frac": "sim.kernel",
    "sim.explore.self_frac": "sim.explore",
    "sim.snapshot.self_frac": "sim.snapshot",
    "infer.self_frac": "infer",
    "detect.self_frac": "detect",
}


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, interpolating between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_samples(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` as ``statistics.quantiles``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


def reference_pass() -> float:
    """Seconds one pass of a fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    cells: Dict[int, int] = {}
    acc = 0
    for i in range(REF_LOOPS):
        cells[i & 63] = cells.get(i & 63, 0) + i
        acc += i * 3 % 7
    return time.perf_counter() - start


def normalize(intervals: Sequence[Tuple[float, float]],
              samples: Sequence[Tuple[float, float]]) -> List[float]:
    """Each ``(start, end)`` interval's length at reference host speed.

    ``samples`` are ``(time, seconds of one reference pass)`` in time
    order.  An interval is scaled by ``REF_SECONDS`` over the mean of the
    last sample taken at or before its start and the first taken at or
    after its end, so a job that ran while the host was twice as slow as
    the reference counts half its wall time.
    """
    times = [t for t, _ in samples]
    out = []
    for start, end in intervals:
        before = samples[max(bisect.bisect_right(times, start) - 1, 0)][1]
        after = samples[min(bisect.bisect_left(times, end), len(samples) - 1)][1]
        out.append((end - start) * 2 * REF_SECONDS / (before + after))
    return out


def per_position(samples: Iterable[Tuple[int, float]]) -> Dict[int, float]:
    """Each round position's latency: its median over the rounds.

    ``samples`` are ``(position, seconds)`` for every completed job; a
    position holds the same job shape in every round.
    """
    by_position: Dict[int, List[float]] = {}
    for position, seconds in samples:
        by_position.setdefault(position, []).append(seconds)
    return {position: statistics.median(values) for position, values in by_position.items()}


def latency_summary(latency: Dict[int, float]) -> Dict[str, float]:
    """``jobs_per_s``, ``job_p50_s`` and ``job_p90_s`` of per-position latencies.

    A closed-loop client that waits for each result completes a round in
    the sum of its positions' latencies.
    """
    walls = list(latency.values()) or [0.0]
    return {
        "jobs_per_s": len(walls) / sum(walls) if sum(walls) else 0.0,
        "job_p50_s": percentile(walls, 50),
        "job_p90_s": percentile(walls, 90),
    }


def suggested_bound(rel_iqr: float) -> float:
    """Regression bound from a measured spread: max(2 x IQR/median, 0.03)."""
    return max(2 * rel_iqr, 0.03)


def shares(
    layer_self: Dict[str, float],
    root_total: float,
    client_total: float = 0.0,
    latency: float = 0.0,
    queue_wait: float = 0.0,
    lookup: float = 0.0,
    worker: float = 0.0,
) -> Dict[str, float]:
    """Split the summed client-side job wall time into the share metrics.

    ``layer_self`` holds span self time per layer.  For service jobs the
    span-less parts come from the job records: transport is the client's
    wall minus the server's ``latency_seconds``, queue wait is
    ``queue_wait_seconds``, and dispatch is what remains of the running
    time after the cache lookup and the worker's ``execute_job``.
    """
    out = {
        name: layer_self.get(layer, 0.0) / root_total
        for name, layer in SHARE_LAYERS.items()
    }
    out["svc.client.transport_frac"] = (client_total - latency) / root_total
    out["svc.queue.wait_frac"] = queue_wait / root_total
    out["svc.pool.dispatch_frac"] = (latency - queue_wait - lookup - worker) / root_total
    return out


def emit(values: Dict[str, float], spec: Dict[str, Metric]) -> Dict[str, Dict[str, object]]:
    """The result-line ``metrics`` object; the names must match ``spec``."""
    if set(values) != set(spec):
        raise ValueError(
            f"metric names differ from the dictionary: missing "
            f"{sorted(set(spec) - set(values))}, extra {sorted(set(values) - set(spec))}"
        )
    return {name: {"value": values[name], "unit": spec[name].unit} for name in spec}


def table(rows: List[Tuple[str, ...]]) -> str:
    """Left-aligned plain-text table."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows
    )
