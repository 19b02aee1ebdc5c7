"""Supplementary — service throughput: daemon vs CLI, fleet vs daemon.

``repro serve`` exists so that many reproduction jobs can share one
warm daemon instead of each paying a fresh interpreter start and then
running alone; ``repro route`` exists so that many daemons can share
one workload with each shard's cache staying hot.  This bench
quantifies both steps of that ladder:

* **Daemon vs sequential CLI** — the same eight breakpoint trial jobs
  run (a) as eight sequential ``python -m repro run`` subprocess
  invocations and (b) as eight concurrent clients against one
  in-process ``ReproService``.  Acceptance bar: >=2x throughput.
* **Client keep-alive** — the same request stream over one reused
  connection vs a fresh TCP connection per request (the satellite
  micro-bench for ``ReproClient``'s keep-alive transport).
* **Fleet vs single daemon** — 64 concurrent clients submit 64
  distinct job configs through the consistent-hash router backed by
  two cache-backed shards, for one cold round plus two warm rounds.
  The router keys placement on the cache *storage* fingerprint, so
  every resubmit lands on the shard that already holds the result:
  the warm rounds are served shard-locally (``cache.hit``) without
  touching a worker (``svc.pool.jobs`` stays at the cold-round count).
  Acceptance bar: >=2x sustained jobs/sec vs the single cache-less
  daemon at the same concurrency.
* **Router overhead** — warm rounds through the router vs the
  single-daemon path over the same two shards: each client talks
  straight to the shard that owns its key.  The whole router hop is
  priced (HTTP hop, placement, health and tenant accounting, the
  routed-job table).  Acceptance bar: the median router/direct wall
  clock ratio over alternating pairs is at most 1.5.

Because the service is a transport and not a semantics, every section
also checks concurrently-produced results against the direct library
call — the differential contract, held under load.

The final (non-benchmark) test assembles ``BENCH_svc.json`` from the
sections above and gates the machine-relative speedups against the
committed ``BENCH_svc.baseline.json``, mirroring the kernel bench.
"""

import statistics
import subprocess
import sys
import threading
import time

import pytest

from repro.apps import get_app
from repro.harness import run_trials
from repro.pool import FORKS

from conftest import emit, emit_bench_doc, gate_bench_doc

#: One job's worth of work, identical across CLI, service, and direct.
APP, BUG, TRIALS_PER_JOB, TIMEOUT = "figure4", "error1", 5, 0.2
JOBS = 8

#: Fleet section: concurrency, distinct configs, and rounds.  The trial
#: count is sized so one job is tens of milliseconds of real execution —
#: enough that the cold round is compute-bound (the claim under test is
#: that warm rounds are not), without the HTTP round-trips dominating.
FLEET_CLIENTS = 64
FLEET_ROUNDS = 3  # one cold + two warm (cache-served) rounds
FLEET_TRIALS = 300

#: Router-overhead section: alternating (router, direct) warm round pairs.
OVERHEAD_PAIRS = 15

#: Metrics contributed by each section, assembled into BENCH_svc.json
#: by test_bench_svc_doc_and_gate (file-order execution).
_DOC_METRICS = {}


def _sequential_cli():
    """Eight one-shot CLI invocations, run back to back."""
    argv = [
        sys.executable, "-m", "repro", "run", APP, BUG,
        "--trials", str(TRIALS_PER_JOB), "--timeout", str(TIMEOUT),
    ]
    t0 = time.perf_counter()
    for _ in range(JOBS):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert f"reproduced {TRIALS_PER_JOB}/{TRIALS_PER_JOB}" in proc.stdout
    return time.perf_counter() - t0


def _concurrent_service():
    """Eight clients hammering one daemon, one thread per client."""
    from repro.svc import ReproClient, ReproService

    results = [None] * JOBS
    with ReproService(slots=JOBS, queue_size=2 * JOBS) as svc:

        def one_client(i):
            results[i] = ReproClient(svc.address).run_trials(
                APP, bug=BUG, n=TRIALS_PER_JOB, timeout=TIMEOUT
            )

        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=one_client, args=(i,)) for i in range(JOBS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        snapshot = ReproClient(svc.address).metrics()
    return elapsed, results, snapshot


def test_service_throughput_vs_sequential_cli(benchmark):
    if not FORKS:
        pytest.skip("the service executor forks pool workers")

    def experiment():
        cli_elapsed = _sequential_cli()
        svc_elapsed, results, snapshot = _concurrent_service()
        return cli_elapsed, svc_elapsed, results, snapshot

    cli_elapsed, svc_elapsed, results, snapshot = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    cli_rate = JOBS / cli_elapsed
    svc_rate = JOBS / svc_elapsed
    speedup = svc_rate / cli_rate
    benchmark.extra_info["cli_jobs_per_sec"] = round(cli_rate, 2)
    benchmark.extra_info["svc_jobs_per_sec"] = round(svc_rate, 2)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    emit(
        "Service — throughput, 8 concurrent clients vs 8 sequential CLI runs",
        "\n".join(
            [
                f"{'sequential CLI':>24}: {JOBS} jobs in {cli_elapsed:.2f}s "
                f"({cli_rate:.2f} jobs/sec)",
                f"{'repro.svc, 8 slots':>24}: {JOBS} jobs in {svc_elapsed:.2f}s "
                f"({svc_rate:.2f} jobs/sec)",
                f"{'speedup':>24}: {speedup:.1f}x",
            ]
        ),
    )

    # The acceptance bar: a warm shared daemon beats fork-and-forget CLI.
    assert speedup >= 2.0, f"service speedup {speedup:.2f}x below the 2x bar"

    # The differential contract, held under concurrency.
    direct = run_trials(
        get_app(APP), n=TRIALS_PER_JOB, bug=BUG, timeout=TIMEOUT
    )
    for remote in results:
        assert remote == direct

    # The operational surface the run was supposed to populate.
    assert "svc.queue.depth" in snapshot
    assert snapshot["svc.job_latency_seconds"]["type"] == "histogram"
    assert snapshot["svc.job_latency_seconds"]["count"] == JOBS
    assert snapshot["svc.jobs.completed"]["value"] == JOBS

    _DOC_METRICS.update(
        {
            "cli_jobs_per_sec": {"value": round(cli_rate, 2), "unit": "jobs/s",
                                 "direction": "higher", "gate": False},
            "svc_jobs_per_sec": {"value": round(svc_rate, 2), "unit": "jobs/s",
                                 "direction": "higher", "gate": False},
            "svc_speedup": {"value": round(speedup, 2), "unit": "x",
                            "direction": "higher", "gate": True},
        }
    )


def test_client_keepalive_vs_fresh_connections(benchmark):
    """Satellite micro-bench: one reused keep-alive socket vs a fresh
    TCP connection per request, same request stream, same daemon.

    The daemon's async frontend holds connections open, so the client's
    cached-connection transport turns N requests into one handshake.
    The per-request saving is small in absolute terms (loopback) but it
    is paid by *every* poll of *every* client, and under long-poll load
    it is the difference between N sockets and N x requests sockets.
    """
    if not FORKS:
        pytest.skip("the service executor forks pool workers")
    from repro.svc import ReproClient, ReproService

    requests = 300

    def experiment():
        with ReproService(slots=1, queue_size=4) as svc:
            reused = ReproClient(svc.address)
            reused.health()  # open + warm the one connection
            t0 = time.perf_counter()
            for _ in range(requests):
                reused.health()
            t_reused = time.perf_counter() - t0

            fresh = ReproClient(svc.address)
            t0 = time.perf_counter()
            for _ in range(requests):
                fresh.health()
                fresh.close()  # force a new connection next request
            t_fresh = time.perf_counter() - t0
        return t_reused, t_fresh

    t_reused, t_fresh = benchmark.pedantic(experiment, rounds=1, iterations=1)
    ratio = t_fresh / t_reused
    benchmark.extra_info["keepalive_speedup"] = round(ratio, 2)
    emit(
        "Service — client keep-alive vs fresh connection per request",
        "\n".join(
            [
                f"{'fresh conn/request':>24}: {requests} requests in "
                f"{t_fresh:.3f}s ({requests / t_fresh:.0f} req/sec)",
                f"{'one reused conn':>24}: {requests} requests in "
                f"{t_reused:.3f}s ({requests / t_reused:.0f} req/sec)",
                f"{'speedup':>24}: {ratio:.2f}x",
            ]
        ),
    )
    # Keep-alive must never be slower; the exact margin is machine noise.
    assert ratio > 1.0, f"keep-alive slower than fresh connections ({ratio:.2f}x)"
    _DOC_METRICS["keepalive_speedup"] = {
        "value": round(ratio, 2), "unit": "x",
        "direction": "higher", "gate": False,
    }


def _fleet_configs():
    """64 distinct job configs (distinct routing fingerprints).

    The per-trial timeout jitter never binds (the bug reproduces far
    sooner), so every config costs the same — it only moves the config
    hash so the 64 keys spread across the ring.
    """
    return [
        {"app": APP, "bug": BUG, "n": FLEET_TRIALS,
         "timeout": round(TIMEOUT + i * 1e-3, 4)}
        for i in range(FLEET_CLIENTS)
    ]


def _run_round(addresses, configs):
    """One round: one thread + one client per config, all concurrent.

    ``addresses`` is one base URL for every client, or a list giving
    each config's client its own.
    """
    from repro.svc import ReproClient

    if isinstance(addresses, str):
        addresses = [addresses] * len(configs)
    results = [None] * len(configs)

    def one_client(i, cfg):
        results[i] = ReproClient(addresses[i]).run_trials(
            cfg["app"], bug=cfg["bug"], n=cfg["n"], timeout=cfg["timeout"]
        )

    threads = [
        threading.Thread(target=one_client, args=(i, cfg))
        for i, cfg in enumerate(configs)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    assert all(r is not None for r in results)
    return elapsed, results


def test_fleet_throughput_vs_single_daemon(benchmark, tmp_path):
    """Tentpole acceptance: >=2x sustained jobs/sec through the fleet.

    Baseline: one cache-less daemon (the status-quo deployment) serving
    64 concurrent clients, 64 distinct configs — one round, every job
    executed.  Fleet: two cache-backed shards behind the consistent-hash
    router serving the same 64 clients for three rounds.  Round one is
    cold; rounds two and three re-submit the same configs and are served
    from the owning shard's cache, because routing keys ARE storage
    fingerprints.  Sustained throughput is total jobs over total wall
    clock, so the fleet's edge is exactly the warm traffic it never
    re-executes — the paper-shaped claim that a reproduction service
    under steady load is cache-bound, not compute-bound.
    """
    if not FORKS:
        pytest.skip("the service executor forks pool workers")
    from repro.svc import FleetRouter, ReproClient, ReproService

    configs = _fleet_configs()

    def experiment():
        # Baseline: a single daemon, no cache, same 64-client burst.
        with ReproService(slots=2, queue_size=2 * FLEET_CLIENTS) as solo:
            solo_elapsed, solo_results = _run_round(solo.address, configs)

        # Fleet: two cache-backed shards behind the router.
        shards = [
            ReproService(slots=1, queue_size=2 * FLEET_CLIENTS,
                         cache_dir=str(tmp_path / f"shard{i}")).start()
            for i in range(2)
        ]
        router = FleetRouter([s.address for s in shards]).start()
        try:
            fleet_elapsed, round_times = 0.0, []
            last_results = None
            for _ in range(FLEET_ROUNDS):
                elapsed, last_results = _run_round(router.address, configs)
                round_times.append(elapsed)
                fleet_elapsed += elapsed
            router_snap = ReproClient(router.address).metrics()
            shard_snaps = [ReproClient(s.address).metrics() for s in shards]
        finally:
            router.close()
            for s in shards:
                s.close()
        return (solo_elapsed, solo_results, fleet_elapsed, round_times,
                last_results, router_snap, shard_snaps)

    (solo_elapsed, solo_results, fleet_elapsed, round_times, last_results,
     router_snap, shard_snaps) = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    total_jobs = FLEET_ROUNDS * FLEET_CLIENTS
    solo_rate = FLEET_CLIENTS / solo_elapsed
    fleet_rate = total_jobs / fleet_elapsed
    speedup = fleet_rate / solo_rate
    benchmark.extra_info["single_daemon_jobs_per_sec"] = round(solo_rate, 2)
    benchmark.extra_info["fleet_jobs_per_sec"] = round(fleet_rate, 2)
    benchmark.extra_info["fleet_speedup"] = round(speedup, 2)

    def shard_counter(snap, name):
        return snap.get(name, {}).get("value", 0)

    executed = [shard_counter(s, "svc.pool.jobs") for s in shard_snaps]
    hits = [shard_counter(s, "cache.hit") for s in shard_snaps]
    peer_jobs = [
        shard_counter(router_snap, f"svc.router.peer.{i}.jobs")
        for i in range(2)
    ]
    emit(
        f"Service — fleet (2 shards + router) vs single daemon, "
        f"{FLEET_CLIENTS} concurrent clients",
        "\n".join(
            [
                f"{'single daemon (cold)':>24}: {FLEET_CLIENTS} jobs in "
                f"{solo_elapsed:.2f}s ({solo_rate:.2f} jobs/sec)",
                f"{'fleet, 3 rounds':>24}: {total_jobs} jobs in "
                f"{fleet_elapsed:.2f}s ({fleet_rate:.2f} jobs/sec)",
                f"{'round wall-clocks':>24}: "
                + ", ".join(f"{t:.2f}s" for t in round_times)
                + " (cold, warm, warm)",
                f"{'sustained speedup':>24}: {speedup:.1f}x",
                f"{'jobs executed/shard':>24}: {executed} "
                f"(of {total_jobs} served — warm rounds were cache hits)",
                f"{'cache hits/shard':>24}: {hits}",
                f"{'jobs routed/peer':>24}: {peer_jobs}",
            ]
        ),
    )

    # The acceptance bar: the fleet sustains >=2x the single daemon.
    assert speedup >= 2.0, f"fleet speedup {speedup:.2f}x below the 2x bar"

    # Cache affinity, proven from both ends: the pool only ever executed
    # the cold round (64 jobs), and the two warm rounds (128 jobs) were
    # shard-local cache hits.  Any routing drift — a resubmit landing on
    # the non-owning shard — would show up here as an extra execution.
    assert router_snap["svc.router.jobs.routed"]["value"] == total_jobs
    assert sum(peer_jobs) == total_jobs
    assert all(n > 0 for n in executed), "a shard sat idle: ring is degenerate"
    assert sum(executed) == FLEET_CLIENTS, (
        f"warm resubmits were re-executed ({sum(executed)} pool jobs for "
        f"{FLEET_CLIENTS} distinct configs): cache affinity broke"
    )
    assert sum(hits) >= total_jobs - FLEET_CLIENTS
    assert sum(shard_counter(s, "svc.pool.crashes") for s in shard_snaps) == 0

    # The differential contract, held across shards and rounds: routed,
    # cache-served results equal the direct library call AND the cold
    # single-daemon run.
    for i in (0, FLEET_CLIENTS // 2, FLEET_CLIENTS - 1):
        cfg = configs[i]
        direct = run_trials(
            get_app(cfg["app"]), n=cfg["n"], bug=cfg["bug"],
            timeout=cfg["timeout"],
        )
        assert last_results[i] == direct
        assert solo_results[i] == direct

    _DOC_METRICS.update(
        {
            "single_daemon_jobs_per_sec": {
                "value": round(solo_rate, 2), "unit": "jobs/s",
                "direction": "higher", "gate": False},
            "fleet_jobs_per_sec": {
                "value": round(fleet_rate, 2), "unit": "jobs/s",
                "direction": "higher", "gate": False},
            "fleet_speedup": {
                "value": round(speedup, 2), "unit": "x",
                "direction": "higher", "gate": True},
        }
    )


def test_fleet_router_overhead(benchmark, tmp_path):
    """Satellite: the router hop costs at most 1.5x the single-daemon path.

    Two cache-backed shards and the same 64 configs as the fleet
    section.  One cold round through the router fills both caches.
    Then come ``OVERHEAD_PAIRS`` pairs of warm rounds, alternating
    which side runs first: one round through the router, and one in
    which each client goes straight to the shard that owns its key
    (``router.ring.lookup(routing_fingerprint(spec))``), the path a
    client of a single daemon takes.  Warm rounds are cache hits, so
    their wall clock is transport plus whatever the router adds: the
    extra HTTP hop, placement, health and tenant accounting and the
    routed-job table.  The metric is the median over the pairs of the
    router's round time divided by the direct one.  Acceptance bar:
    at most 1.5.
    """
    if not FORKS:
        pytest.skip("the service executor forks pool workers")
    from repro.svc import FleetRouter, JobSpec, ReproService, routing_fingerprint

    configs = _fleet_configs()

    def experiment():
        shards = [
            ReproService(slots=1, queue_size=2 * FLEET_CLIENTS,
                         cache_dir=str(tmp_path / f"oshard{i}")).start()
            for i in range(2)
        ]
        router = FleetRouter([s.address for s in shards], probe_interval=0).start()
        try:
            _, cold = _run_round(router.address, configs)
            ring = router.ring
            direct = [
                ring.peers[ring.lookup(routing_fingerprint(JobSpec(
                    app=cfg["app"], bug=cfg["bug"], trials=cfg["n"],
                    timeout=cfg["timeout"],
                )))]
                for cfg in configs
            ]
            sides = {"router": router.address, "direct": direct}
            ratios, rounds = [], []
            for pair in range(OVERHEAD_PAIRS):
                order = ("router", "direct") if pair % 2 == 0 else ("direct", "router")
                times = {}
                for side in order:
                    times[side], results = _run_round(sides[side], configs)
                    rounds.append(results)
                ratios.append(times["router"] / times["direct"])
        finally:
            router.close()
            for s in shards:
                s.close()
        return cold, rounds, ratios

    cold, rounds, ratios = benchmark.pedantic(experiment, rounds=1, iterations=1)
    overhead = statistics.median(ratios)
    benchmark.extra_info["fleet_router_overhead"] = round(overhead, 2)
    emit(
        "Service — router hop overhead on the warm path (vs straight to the owner)",
        "\n".join(
            [
                f"{'router/direct per pair':>24}: "
                + ", ".join(f"{r:.2f}" for r in ratios),
                f"{'median':>24}: {overhead:.2f}x wall clock",
            ]
        ),
    )
    # The router is a transport: every round equals the cold one.
    assert all(results == cold for results in rounds)
    assert overhead <= 1.5, (
        f"the router hop costs {overhead:.2f}x the direct path on warm rounds"
    )
    _DOC_METRICS["fleet_router_overhead"] = {
        "value": round(overhead, 2), "unit": "x",
        "direction": "lower", "gate": True,
    }


def test_bench_svc_doc_and_gate():
    """Assemble ``BENCH_svc.json`` from the sections above and gate the
    machine-relative speedups against the committed baseline."""
    if not FORKS:
        pytest.skip("the service executor forks pool workers")
    required = ("svc_speedup", "fleet_speedup", "keepalive_speedup",
                "fleet_router_overhead")
    missing = [m for m in required if m not in _DOC_METRICS]
    if missing:
        pytest.skip(
            f"sections {missing} did not run (file run in part); "
            "run the whole module to emit and gate BENCH_svc.json"
        )
    doc = emit_bench_doc(
        "svc",
        dict(_DOC_METRICS),
        meta={
            "workload": (
                f"daemon: {JOBS} jobs x {TRIALS_PER_JOB} trials of {APP}/{BUG}; "
                f"fleet: {FLEET_CLIENTS} clients x {FLEET_ROUNDS} rounds x "
                f"{FLEET_TRIALS} trials, 64 distinct configs, 2 shards"
            ),
            "method": (
                "speedups are same-machine ratios (daemon vs sequential CLI, "
                "fleet sustained vs single cold daemon); raw jobs/s are "
                "ungated trajectory data"
            ),
        },
    )
    failures = gate_bench_doc(doc, "svc")
    assert not failures, "svc perf gate failed:\n" + "\n".join(failures)
