"""Fleet fault tolerance: failover, health tracking, tenancy, rebalancing.

The claims under test are the hard ones from the operations runbook
(``docs/operations.md``):

* a job whose shard dies — before acceptance or mid-run — still
  completes, with a result **bit-identical** to a direct in-process
  call (determinism makes re-execution invisible);
* failover never double-submits: a failed ``POST`` is moved to a
  *different* shard, never replayed against the same one (the PR-8
  idempotency rule, extended across the fleet);
* the ejection / re-admission state machine and the startup probe keep
  ``/health`` honest about per-shard liveness;
* per-tenant fairness: a greedy tenant is shed with ``429`` +
  ``Retry-After`` while a polite tenant's jobs flow, and single-tenant
  semantics stay byte-for-byte the old FIFO queue;
* live ring rebalancing (``POST /ring``) adds and removes shards with
  zero dropped jobs.
"""

import dataclasses
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.apps import get_app
from repro.harness import run_trials
from repro.svc import (
    BackpressureError,
    BoundedJobQueue,
    ConsistentHashRing,
    FleetRouter,
    JobRecord,
    JobSpec,
    QueueFull,
    ReproClient,
    ReproService,
    ServiceError,
    TenantOverShare,
    routing_fingerprint,
)
from repro.svc.http import DEFERRED, AsyncHTTPFrontend, Response
from repro.svc.jobs import stats_to_wire

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") and not hasattr(os, "posix_spawn"),
    reason="service tests need a POSIX process model",
)

REPO = Path(__file__).resolve().parents[2]

#: A base URL nothing listens on (port 9 is reserved/discard).
DEAD = "http://127.0.0.1:9"

#: A daemon whose pool worker, on picking up a job, writes its pid to
#: the inherited pipe ``argv[1]`` and then parks inside the job.
_PARKING_DAEMON = """
import os, signal, sys
from repro.svc import ReproService, serve_forever

fd, port_file = int(sys.argv[1]), sys.argv[2]

def park(spec, attempt):
    os.write(fd, b"%d\\n" % os.getpid())
    signal.pause()

sys.exit(serve_forever(
    ReproService(slots=1, fault_hook=park).start(),
    port_file=port_file, quiet=True,
))
"""


def _record(i, tenant="anon"):
    return JobRecord(
        f"job-{i:06d}",
        JobSpec(app="figure4", bug="error1", trials=1, tenant=tenant),
    )


def _spec_owned_by(router, target_idx, trials=3):
    """A trials spec whose routing key lands on shard ``target_idx``.

    Jitters the pause time until the ring agrees — mirrors how the
    bench constructs distinct cache/routing identities.
    """
    for i in range(200):
        t = round(0.2 + i * 1e-3, 4)
        spec = JobSpec(app="figure4", bug="error1", trials=trials, timeout=t)
        if router.ring.lookup(routing_fingerprint(spec)) == target_idx:
            return spec
    raise AssertionError("no spec hashed onto the target shard in 200 tries")


class TestRingPreference:
    def test_preference_starts_at_lookup_and_covers_all_peers(self):
        peers = [f"http://127.0.0.1:{p}" for p in (1001, 1002, 1003)]
        ring = ConsistentHashRing(peers)
        for i in range(50):
            order = list(ring.preference(f"key-{i}"))
            assert order[0] == ring.lookup(f"key-{i}")
            assert sorted(order) == [0, 1, 2]  # distinct, exhaustive

    def test_adding_a_peer_moves_keys_only_onto_it(self):
        peers = [f"http://127.0.0.1:{p}" for p in (1001, 1002, 1003)]
        before = ConsistentHashRing(peers[:2])
        after = ConsistentHashRing(peers)
        moved = 0
        for i in range(1000):
            k = f"key-{i}"
            if after.lookup(k) != before.lookup(k):
                # A key may move only TO the newcomer, never between
                # survivors — the live-rebalancing guarantee.
                assert after.lookup(k) == 2
                moved += 1
        assert moved > 0

    def test_failover_order_matches_removal(self):
        """The ring successor is the peer that would own the key if the
        dead shard were removed outright — failover placement and a
        permanent rebalance agree, so rescued cache entries stay warm
        after the operator retires the dead shard for real."""
        peers = [f"http://127.0.0.1:{p}" for p in (1001, 1002, 1003)]
        full = ConsistentHashRing(peers)
        for i in range(200):
            k = f"key-{i}"
            order = list(full.preference(k))
            survivors = [p for j, p in enumerate(peers) if j != order[0]]
            reduced = ConsistentHashRing(survivors)
            assert survivors[reduced.lookup(k)] == peers[order[1]]


class TestEjectionStateMachine:
    def test_strikes_accumulate_then_eject_then_readmit(self):
        router = FleetRouter([DEAD, "http://127.0.0.1:10"], probe_interval=0)
        router._note_peer_failure(0)
        router._note_peer_failure(0)
        assert router._shards[0].alive  # under the eject_after=3 default
        router._note_peer_failure(0)
        assert not router._shards[0].alive
        snap = router.metrics.snapshot()
        assert snap["svc.router.failover.ejections"]["value"] == 1
        assert snap["svc.router.peer.0.alive"]["value"] == 0
        router._note_peer_ok(0)
        assert router._shards[0].alive and router._shards[0].failures == 0
        snap = router.metrics.snapshot()
        assert snap["svc.router.failover.readmissions"]["value"] == 1
        assert snap["svc.router.peer.0.alive"]["value"] == 1

    def test_probe_failure_ejects_immediately(self):
        router = FleetRouter([DEAD, "http://127.0.0.1:10"], probe_interval=0)
        router._note_peer_down(1)
        assert not router._shards[1].alive
        router._note_peer_failure(1)  # further strikes don't double-count
        assert router.metrics.snapshot()["svc.router.failover.ejections"]["value"] == 1

    def test_success_resets_strike_count(self):
        router = FleetRouter([DEAD], probe_interval=0)
        router._note_peer_failure(0)
        router._note_peer_failure(0)
        router._note_peer_ok(0)
        router._note_peer_failure(0)
        assert router._shards[0].alive  # consecutive, not cumulative


class TestStartupProbe:
    def test_dead_peer_is_degraded_from_the_first_health(self, tmp_path):
        """The PR-8 router reported an aggregated-healthy fleet without
        ever contacting the peers at startup; now ``start()`` probes
        synchronously and ``/health`` carries per-shard liveness."""
        svc = ReproService(slots=1, queue_size=4).start()
        router = FleetRouter([svc.address, DEAD], probe_interval=0).start()
        try:
            assert not router._shards[1].alive  # marked dead before serving
            doc = ReproClient(router.address).health()
            assert doc["status"] == "degraded"
            by_shard = {s["shard"]: s for s in doc["shards"]}
            assert by_shard[0]["ok"] and by_shard[0]["alive"]
            assert not by_shard[1]["ok"] and not by_shard[1]["alive"]
            ring_doc = ReproClient(router.address).ring()
            assert [s["alive"] for s in ring_doc["shards"]] == [True, False]
            assert "(DOWN)" in router.describe()
        finally:
            router.close()
            svc.close()


class TestSubmitFailover:
    def test_dead_owner_fails_over_bit_identically_without_double_submit(self):
        # The victim must start *after* the survivor: a service's pool
        # workers are forked at start() and inherit every listening
        # socket already open in this process, which would keep the
        # victim's port half-alive after close().  (Real deployments
        # are immune — each daemon is its own exec'd process.)
        survivor = ReproService(slots=1, queue_size=8).start()
        victim = ReproService(slots=1, queue_size=8).start()
        router = FleetRouter(
            [victim.address, survivor.address], probe_interval=0
        ).start()
        try:
            spec = _spec_owned_by(router, 0)  # owned by the victim
            victim.close()  # SIGKILL-equivalent for an in-process shard
            client = ReproClient(router.address)
            job_id = client.submit(spec)
            record = client.wait(job_id, timeout=120)
            direct = run_trials(
                get_app("figure4"), n=spec.trials, bug="error1",
                timeout=spec.timeout,
            )
            assert record["result"] == stats_to_wire(direct)
            # Exactly one upstream submission: the failed POST moved to
            # the survivor, it was never replayed against the victim.
            assert len(ReproClient(survivor.address).jobs()) == 1
            snap = router.metrics.snapshot()
            assert snap["svc.router.failover.submit_reroutes"]["value"] == 1
            assert snap["svc.router.peer.1.jobs"]["value"] == 1
            assert "svc.router.peer.0.jobs" not in snap
        finally:
            router.close()
            victim.close()
            survivor.close()

    def test_all_shards_dead_is_502_and_exhausted(self):
        router = FleetRouter([DEAD], probe_interval=0).start()
        try:
            with pytest.raises(ServiceError) as exc:
                ReproClient(router.address).submit(
                    JobSpec(app="figure4", bug="error1", trials=1), max_wait=5
                )
            assert exc.value.status == 502
            snap = router.metrics.snapshot()
            assert snap["svc.router.failover.exhausted"]["value"] >= 1
        finally:
            router.close()


class TestSigkillMidJob:
    def test_job_survives_shard_sigkill_bit_identically(self, tmp_path):
        """The tentpole scenario: two real daemons, one SIGKILLed while
        running the job; the router rescues the job onto the survivor
        and the client sees one id, one result, bit-identical to a
        direct call."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        procs, urls = [], []
        router = None
        worker_pid = None
        # Shard 0's worker announces the job on this pipe, then parks.
        started_r, started_w = os.pipe()
        try:
            for i in range(2):
                pf = tmp_path / f"shard{i}.port"
                if i == 0:
                    argv = [sys.executable, "-c", _PARKING_DAEMON,
                            str(started_w), str(pf)]
                else:
                    argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                            "--slots", "1", "--port-file", str(pf)]
                procs.append(subprocess.Popen(
                    argv, cwd=REPO, env=env, text=True,
                    pass_fds=(started_w,) if i == 0 else (),
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                ))
                deadline = time.monotonic() + 90
                while not pf.exists() or not pf.read_text().strip():
                    assert procs[i].poll() is None, "daemon died on startup"
                    assert time.monotonic() < deadline, "daemon startup timeout"
                    time.sleep(0.05)
                urls.append(f"http://127.0.0.1:{int(pf.read_text())}")
            router = FleetRouter(urls, probe_interval=0.5).start()
            spec = _spec_owned_by(router, 0, trials=6)
            client = ReproClient(router.address)
            job_id = client.submit(spec)
            # Block until the owner's worker is inside the job, then kill
            # the daemon mid-run (SIGKILL: no drain, no goodbye) and the
            # worker parked in the job.
            os.close(started_w)
            started_w = None
            ready, _, _ = select.select([started_r], [], [], 60)
            line = os.read(started_r, 64) if ready else b""
            if not line:
                pytest.fail("owning shard never started the job")
            worker_pid = int(line)
            procs[0].send_signal(signal.SIGKILL)
            procs[0].wait(timeout=30)
            os.kill(worker_pid, signal.SIGKILL)
            record = client.wait(job_id, timeout=120)
            assert record["state"] == "done"
            assert record["id"] == job_id  # the visible id never changed
            direct = run_trials(
                get_app("figure4"), n=spec.trials, bug="error1",
                timeout=spec.timeout,
            )
            assert record["result"] == stats_to_wire(direct)
            snap = router.metrics.snapshot()
            assert snap["svc.router.failover.job_reroutes"]["value"] >= 1
        finally:
            if router is not None:
                router.close()
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait(timeout=30)
            if worker_pid is not None:
                try:
                    os.kill(worker_pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            os.close(started_r)
            if started_w is not None:
                os.close(started_w)


class TestTenantFairQueue:
    def test_weighted_round_robin_interleaves_lanes(self):
        q = BoundedJobQueue(16)
        greedy = [_record(i, "greedy") for i in range(4)]
        polite = _record(9, "polite")
        for r in greedy:
            q.put(r)
        q.put(polite)
        served = [q.get() for _ in range(5)]
        # 4:1 greedy/polite mix: the polite job is served second, not
        # fifth — it waits behind one greedy job, not four.
        assert served[0] is greedy[0]
        assert served[1] is polite
        assert served[2:] == greedy[1:]

    def test_configured_weight_buys_extra_turns(self):
        q = BoundedJobQueue(16, tenant_weights={"greedy": 2})
        greedy = [_record(i, "greedy") for i in range(3)]
        polite = _record(9, "polite")
        for r in greedy:
            q.put(r)
        q.put(polite)
        served = [q.get() for _ in range(4)]
        assert served[:2] == greedy[:2]  # weight 2 → two jobs per turn
        assert served[2] is polite

    def test_greedy_tenant_is_shed_at_fair_share(self):
        q = BoundedJobQueue(4)
        q.put(_record(0, "greedy"))
        q.put(_record(1, "greedy"))
        q.put(_record(2, "polite"))
        with pytest.raises(TenantOverShare) as exc:
            q.put(_record(3, "greedy"))  # share = 4 // 2 tenants = 2
        assert exc.value.tenant == "greedy"
        assert exc.value.share == 2
        assert exc.value.retry_after > 0
        q.put(_record(4, "polite"))  # the polite tenant still has room

    def test_inflight_occupancy_counts_against_share(self):
        q = BoundedJobQueue(4)
        running = _record(0, "greedy")
        q.put(running)
        assert q.get() is running
        q.note_running(running)  # dequeued but executing: still greedy's
        q.put(_record(1, "greedy"))
        q.put(_record(2, "polite"))
        with pytest.raises(TenantOverShare):
            q.put(_record(3, "greedy"))
        q.note_finished(running)
        q.put(_record(4, "greedy"))  # share freed once the job finished

    def test_single_tenant_keeps_plain_fifo_semantics(self):
        q = BoundedJobQueue(4)
        records = [_record(i) for i in range(4)]
        for r in records:
            q.put(r)
        with pytest.raises(QueueFull):  # never TenantOverShare alone
            q.put(_record(9))
        assert [q.get() for _ in range(4)] == records

    def test_tenants_snapshot_reports_occupancy(self):
        q = BoundedJobQueue(8)
        q.put(_record(0, "a"))
        q.put(_record(1, "a"))
        q.put(_record(2, "b"))
        assert q.tenants_snapshot() == {
            "a": {"queued": 2, "inflight": 0},
            "b": {"queued": 1, "inflight": 0},
        }


class TestTenantFairnessEndToEnd:
    def test_greedy_tenant_gets_429_polite_tenant_flows(self, gate):
        # The gate holds each job in the worker until occupancy (queued +
        # inflight) has built up; bare jobs finish in milliseconds and
        # would never trip the share check.
        svc = ReproService(slots=1, queue_size=4, fault_hook=gate.hook).start()
        try:
            client = ReproClient(svc.address)

            def spec(i, tenant):
                # no_cache + distinct seeds: every job really executes.
                return JobSpec(app="figure4", bug="error1", trials=1,
                               timeout=0.2, base_seed=i, no_cache=True,
                               tenant=tenant)

            ids = [client.submit(spec(0, "greedy"))]
            gate.started()  # the first greedy job occupies the slot
            ids.append(client.submit(spec(1, "greedy")))
            ids.append(client.submit(spec(0, "polite")))
            with pytest.raises(BackpressureError) as exc:
                client.submit(spec(2, "greedy"), max_wait=0)
            assert exc.value.status == 429
            assert exc.value.retry_after is not None
            gate.release(len(ids))
            # The polite job and the accepted greedy jobs all finish.
            for job_id in ids:
                assert client.wait(job_id, timeout=120)["state"] == "done"
            snap = client.metrics()
            assert snap["svc.tenant.shed"]["value"] >= 1
            assert "tenants" in client.health()
        finally:
            svc.close()

    def test_router_tenant_inflight_limit_sheds_with_429(self):
        svc = ReproService(slots=1, queue_size=8).start()
        router = FleetRouter(
            [svc.address], probe_interval=0, tenant_inflight_limit=1
        ).start()
        try:
            client = ReproClient(router.address)
            spec = JobSpec(app="figure4", bug="error1", trials=2,
                           timeout=0.2, no_cache=True, tenant="greedy")
            job_id = client.submit(spec)
            with pytest.raises(BackpressureError) as exc:
                client.submit(
                    JobSpec(app="figure4", bug="error1", trials=2,
                            timeout=0.25, no_cache=True, tenant="greedy"),
                    max_wait=0,
                )
            assert exc.value.status == 429
            # Observing the terminal state releases the tenant's slot.
            assert client.wait(job_id, timeout=120)["state"] == "done"
            assert client.submit(
                JobSpec(app="figure4", bug="error1", trials=2,
                        timeout=0.3, no_cache=True, tenant="greedy")
            )
        finally:
            router.close()
            svc.close()

    def test_router_tenant_cap_holds_on_a_busy_shard(self):
        shard = _StubShard()
        router = FleetRouter(
            [shard.address], probe_interval=0, tenant_inflight_limit=1,
        ).start()
        try:
            client = ReproClient(router.address)

            def spec(i, tenant="greedy"):
                return JobSpec(app="cache4j", trials=400, base_seed=400 * i, tenant=tenant)

            client.submit(spec(0))
            for i in (1, 2, 3):
                with pytest.raises(BackpressureError) as exc:
                    client.submit(spec(i), max_wait=0)
                assert exc.value.status == 429
            assert client.submit(spec(0, tenant="polite"))
            assert shard.accepted == 2
        finally:
            router.close()
            shard.close()

    def test_router_frees_the_tenant_slot_of_a_job_its_shard_forgot(self):
        shard = _StubShard()
        router = FleetRouter(
            [shard.address], probe_interval=0, tenant_inflight_limit=1,
        ).start()
        try:
            client = ReproClient(router.address)
            job_id = client.submit(JobSpec(app="cache4j", trials=400, tenant="greedy"))
            shard.forget = True  # as after a restart: every job id is unknown
            status, _ = client.result_raw(job_id)
            assert status == 502  # no other shard can take it over
            assert client.submit(
                JobSpec(app="cache4j", trials=400, base_seed=400, tenant="greedy"),
                max_wait=0,
            )
        finally:
            router.close()
            shard.close()

    def test_router_frees_the_tenant_slot_of_a_job_on_a_dead_shard(self):
        """A job rescued off a dead shard keeps its tenant slot; a job
        that no live shard can take over frees it."""
        shards = [_StubShard(), _StubShard()]
        router = FleetRouter(
            [s.address for s in shards], probe_interval=0, tenant_inflight_limit=1,
        ).start()
        try:
            client = ReproClient(router.address)

            def spec(idx):
                owned = _spec_owned_by(router, idx)
                return dataclasses.replace(owned, tenant="greedy")

            job_id = client.submit(spec(0))
            shards[0].close()
            status, doc = client.result_raw(job_id)
            assert (status, doc["id"], doc["state"]) == (200, job_id, "running")
            with pytest.raises(BackpressureError) as exc:
                client.submit(spec(1), max_wait=0)
            assert exc.value.status == 429
            shards[1].forget = True  # the survivor loses it too: nowhere left
            status, _ = client.result_raw(job_id)
            assert status == 502
            assert client.submit(spec(1), max_wait=0)
            assert [s.accepted for s in shards] == [1, 2]
        finally:
            router.close()
            for shard in shards:
                shard.close()


class TestRescueOfForgottenJobs:
    """A shard that answers 404 for a job's copy holds no copy any more.

    So in a fast rolling restart a job can move back to a shard it left:
    the rescue skips only the shard that lost it and the shards that may
    still hold a copy, and it moves a job at most once per shard.
    """

    def test_a_job_both_shards_forget_in_turn_finishes_on_the_first(self):
        shards = [_StubShard(), _StubShard()]
        router = FleetRouter([s.address for s in shards], probe_interval=0).start()
        try:
            client = ReproClient(router.address)
            job_id = client.submit(_spec_owned_by(router, 0))
            shards[0].forget = True  # A restarts: the job moves to B
            status, doc = client.result_raw(job_id)
            assert (status, doc["id"], doc["state"]) == (200, job_id, "running")
            shards[0].forget, shards[0].state = False, "done"
            shards[1].forget = True  # then B restarts: back to A
            status, doc = client.result_raw(job_id)
            assert (status, doc["id"], doc["state"]) == (200, job_id, "done")
            assert [s.accepted for s in shards] == [2, 1]
        finally:
            router.close()
            for shard in shards:
                shard.close()

    def test_a_job_moves_at_most_once_per_shard(self):
        shards = [_StubShard(), _StubShard()]
        router = FleetRouter([s.address for s in shards], probe_interval=0).start()
        try:
            client = ReproClient(router.address)
            job_id = client.submit(_spec_owned_by(router, 0))
            for lost in (0, 1):  # it moves to B, then back to A
                shards[lost].forget, shards[1 - lost].forget = True, False
                assert client.result_raw(job_id)[1]["state"] == "running"
            shards[0].forget = True  # a third loss, after one move per shard
            assert client.result_raw(job_id)[0] == 502
            assert [s.accepted for s in shards] == [2, 1]
            snap = client.metrics()
            assert snap["svc.router.failover.job_reroutes"]["value"] == 2
            assert snap["svc.router.failover.exhausted"]["value"] == 1
        finally:
            router.close()
            for shard in shards:
                shard.close()


class TestTenantCapRace:
    """The tenant cap is checked and reserved in one step.

    The router once counted a job against its tenant only when the
    shard's answer to the forwarded ``POST`` came back, on another
    thread than the check; a second submit that arrived while the
    first ``POST`` was out passed the check.  A shard that holds every
    ``POST`` forces that order every time.  The tests wait only on
    conditions; their timeouts only bound a hang.
    """

    def test_second_submit_is_shed_while_the_first_post_is_held(self):
        shard = _HoldingShard()
        router = FleetRouter(
            [shard.address], probe_interval=0, tenant_inflight_limit=1,
        ).start()
        statuses = {}

        def submit(name, seed):
            spec = JobSpec(app="cache4j", trials=400, base_seed=seed, tenant="greedy")
            status, _ = ReproClient(router.address)._request(
                "POST", "/jobs", body=spec.to_json()
            )
            with shard.cond:
                statuses[name] = status
                shard.cond.notify_all()

        first = threading.Thread(target=submit, args=("first", 0))
        second = threading.Thread(target=submit, args=("second", 400))
        try:
            first.start()
            with shard.cond:
                assert shard.cond.wait_for(lambda: len(shard.held) == 1, 30)
            second.start()
            with shard.cond:
                assert shard.cond.wait_for(
                    lambda: "second" in statuses or len(shard.held) == 2, 30
                )
            shard.release()
            for t in (first, second):
                t.join(30)
                assert not t.is_alive()
            assert statuses == {"first": 202, "second": 429}
            assert shard.posts == 1
        finally:
            shard.release()
            router.close()
            shard.close()

    def test_racing_clients_of_one_tenant_get_one_slot(self):
        """Eight clients of one tenant submit at once, with the thread
        switch interval shortened; at limit 1 exactly one gets in."""
        shard = _StubShard()
        router = FleetRouter(
            [shard.address], probe_interval=0, tenant_inflight_limit=1,
        ).start()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for trial in range(5):
                start, statuses = threading.Barrier(8), []

                def submit(i, tenant=f"t{trial}"):
                    spec = JobSpec(app="cache4j", trials=400, base_seed=400 * i,
                                   tenant=tenant)
                    client = ReproClient(router.address)
                    start.wait(30)
                    statuses.append(
                        client._request("POST", "/jobs", body=spec.to_json())[0]
                    )

                threads = [threading.Thread(target=submit, args=(i,)) for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30)
                    assert not t.is_alive()
                assert sorted(statuses) == [202] + [429] * 7
        finally:
            sys.setswitchinterval(switch)
            router.close()
            shard.close()

    def test_a_refused_forward_releases_the_slot(self):
        shard = _StubShard()
        shard.refuse = 1  # the first POST gets 503 + retry_after
        router = FleetRouter(
            [shard.address], probe_interval=0, tenant_inflight_limit=1,
        ).start()
        try:
            client = ReproClient(router.address)
            spec = JobSpec(app="cache4j", trials=400, tenant="greedy")
            assert client._request("POST", "/jobs", body=spec.to_json())[0] == 503
            assert client.submit(spec, max_wait=0)
            assert shard.accepted == 1
        finally:
            router.close()
            shard.close()

    def test_a_forward_no_shard_accepts_releases_the_slot(self):
        router = FleetRouter([DEAD], probe_interval=0, tenant_inflight_limit=1).start()
        try:
            client = ReproClient(router.address)
            spec = JobSpec(app="cache4j", trials=400, tenant="greedy").to_json()
            for _ in range(2):  # the second submit is forwarded, not shed
                assert client._request("POST", "/jobs", body=spec)[0] == 502
            assert "svc.tenant.shed" not in client.metrics()
            assert client.health()["tenants"] == {}
        finally:
            router.close()


class TestLoopOwnership:
    def test_every_state_change_runs_on_the_loop_thread(self, monkeypatch):
        """Wrap the router's state-changing methods, run the fleet's
        paths through real sockets — submit and poll to done, a submit
        whose owner is dead, a mid-job rescue, ring add and remove,
        ``/health`` — and check every call ran on the loop thread."""
        shards = [_StubShard(), _StubShard()]
        spare = _StubShard()
        for shard in shards:
            shard.state = "done"
        router = FleetRouter(
            [shards[0].address, shards[1].address, DEAD], probe_interval=0
        ).start()
        calls = []
        for name in (
            "_note_peer_failure", "_note_peer_down", "_note_peer_ok", "_eject",
            "_probed", "_exchanged", "_candidates_for", "_add_tenant",
            "_add_shard", "_register_routed", "_settle_routed", "_poll",
            "_submit_to", "_rescue", "_rescue_to", "_rebuild_ring", "_admit",
            "_drain_tick",
        ):
            def wrapped(*args, _name=name, _method=getattr(router, name), **kw):
                calls.append((_name, threading.current_thread()))
                return _method(*args, **kw)

            monkeypatch.setattr(router, name, wrapped)
        loop = router._frontend._thread
        try:
            client = ReproClient(router.address)
            done = client.wait(client.submit(_spec_owned_by(router, 0)), timeout=60)
            assert done["state"] == "done"
            rerouted = client.submit(_spec_owned_by(router, 2, trials=4))
            assert client.wait(rerouted, timeout=60)["state"] == "done"
            lost = client.submit(_spec_owned_by(router, 1, trials=5))
            shards[1].forget = True
            rescued = client.result_raw(lost)[1]
            assert (rescued["id"], rescued["state"]) == (lost, "done")
            assert client.ring_add(spare.address)["shard"] == 3
            assert client.ring_remove(spare.address)["drained"] is True
            assert client.health()["status"] == "degraded"
        finally:
            router.close()
            for shard in shards + [spare]:
                shard.close()
        names = {name for name, _ in calls}
        assert {"_register_routed", "_settle_routed", "_rescue_to", "_admit",
                "_drain_tick", "_probed"} <= names
        assert {thread for _, thread in calls} == {loop}

    def test_an_error_raised_on_the_loop_reaches_the_caller(self):
        router = FleetRouter([DEAD], probe_interval=0).start()
        try:
            with pytest.raises(ZeroDivisionError):
                router._frontend.call(lambda: 1 / 0)
            assert router.peers == [DEAD]
        finally:
            router.close()

    def test_a_call_a_stopped_loop_never_ran_returns_once_closed(self):
        router = FleetRouter([DEAD], probe_interval=0).start()
        router._frontend.stop()  # what close() does before it lets go
        peers = []
        caller = threading.Thread(target=lambda: peers.append(router.peers), daemon=True)
        caller.start()
        router.close()
        caller.join(30)
        assert not caller.is_alive()
        assert peers == [[DEAD]]


class _StubShard:
    """A shard that accepts every job and reports each one as ``state``.

    ``forget`` answers every poll with 404 (as after a restart);
    ``refuse`` answers that many ``POST /jobs`` with 503 first.
    """

    def __init__(self):
        self.accepted = 0
        self.forget = False
        self.refuse = 0
        self.state = "running"
        self._frontend = AsyncHTTPFrontend(self._handle, name="stub-shard").start()
        self.address = f"http://127.0.0.1:{self._frontend.port}"

    def _handle(self, request, token):
        if request.method == "POST" and request.path == "/jobs":
            if self.refuse:
                self.refuse -= 1
                return Response(503, {"error": "queue full", "retry_after": 0.1})
            self.accepted += 1
            return Response(202, {"id": f"job-{self.accepted:06d}", "state": "queued"})
        if request.path == "/health":
            return Response(200, {"status": "ok"})
        if self.forget:
            return Response(404, {"error": "no such job"})
        return Response(200, {"id": request.path.rsplit("/", 1)[-1], "state": self.state})

    def close(self):
        self._frontend.stop()


class _HoldingShard(_StubShard):
    """A stub shard that holds every ``POST /jobs`` until released."""

    def __init__(self):
        self.cond = threading.Condition()
        self.held = []
        self.posts = 0
        super().__init__()

    def _handle(self, request, token):
        if request.method == "POST" and request.path == "/jobs":
            with self.cond:
                self.posts += 1
                self.held.append(token)
                self.cond.notify_all()
            return DEFERRED
        return super()._handle(request, token)

    def release(self):
        """Accept every held ``POST``."""
        with self.cond:
            held, self.held = self.held, []
        for token in held:
            self.accepted += 1
            self._frontend.complete(
                token, Response(202, {"id": f"job-{self.accepted:06d}", "state": "queued"})
            )


class TestRingRebalancing:
    def test_add_and_remove_with_zero_dropped_jobs(self, tmp_path):
        shards = [
            ReproService(slots=1, queue_size=16,
                         cache_dir=str(tmp_path / f"c{i}")).start()
            for i in range(2)
        ]
        spare = ReproService(slots=1, queue_size=16,
                             cache_dir=str(tmp_path / "c2")).start()
        router = FleetRouter(
            [s.address for s in shards], probe_interval=0
        ).start()
        try:
            client = ReproClient(router.address)
            added = client.ring_add(spare.address)
            assert added["shard"] == 2
            assert len(router.peers) == 3

            def spec(i):
                return JobSpec(app="figure4", bug="error1", trials=2,
                               timeout=round(0.2 + i * 1e-3, 4), no_cache=True)

            ids = [(client.submit(spec(i)), spec(i)) for i in range(6)]
            # Retire shard 0 while its routed jobs may still be in
            # flight: removal must wait them out, not drop them.
            removed = client.ring_remove(shards[0].address, drain_timeout=60)
            assert removed["drained"] is True
            assert len(router.peers) == 2
            for job_id, s in ids:
                record = client.wait(job_id, timeout=120)
                assert record["state"] == "done"
                direct = run_trials(get_app("figure4"), n=s.trials,
                                    bug="error1", timeout=s.timeout)
                assert record["result"] == stats_to_wire(direct)
            # New work no longer lands on the removed shard.
            n_before = len(ReproClient(shards[0].address).jobs())
            for i in range(6, 10):
                client.wait(client.submit(spec(i)), timeout=120)
            assert len(ReproClient(shards[0].address).jobs()) == n_before
            snap = router.metrics.snapshot()
            assert snap["svc.router.ring.added"]["value"] == 1
            assert snap["svc.router.ring.removed"]["value"] == 1
        finally:
            router.close()
            for s in shards + [spare]:
                s.close()

    def test_add_refuses_unreachable_peer(self):
        svc = ReproService(slots=1, queue_size=4).start()
        router = FleetRouter([svc.address], probe_interval=0).start()
        try:
            client = ReproClient(router.address)
            with pytest.raises(ServiceError) as exc:
                client.ring_add(DEAD)
            assert exc.value.status == 502
            with pytest.raises(ServiceError) as exc:
                client.ring_add(svc.address)  # already a member
            assert exc.value.status == 409
        finally:
            router.close()
            svc.close()

    def test_remove_refuses_last_shard_and_unknown_peer(self):
        svc = ReproService(slots=1, queue_size=4).start()
        router = FleetRouter([svc.address], probe_interval=0).start()
        try:
            client = ReproClient(router.address)
            with pytest.raises(ServiceError) as exc:
                client.ring_remove(svc.address)
            assert exc.value.status == 400
            with pytest.raises(ServiceError) as exc:
                client.ring_remove(DEAD)
            assert exc.value.status == 404
        finally:
            router.close()
            svc.close()

    def test_rejoining_shard_keeps_its_stable_index(self):
        shards = [ReproService(slots=1, queue_size=4).start() for _ in range(2)]
        router = FleetRouter(
            [s.address for s in shards], probe_interval=0
        ).start()
        try:
            client = ReproClient(router.address)
            client.ring_remove(shards[1].address, drain_timeout=5)
            rejoined = client.ring_add(shards[1].address)
            assert rejoined["shard"] == 1  # not a fresh index
            doc = client.ring()
            assert [s["shard"] for s in doc["shards"]] == [0, 1]
            assert all(s["member"] for s in doc["shards"])
        finally:
            router.close()
            for s in shards:
                s.close()
