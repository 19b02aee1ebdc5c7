"""Fleet router: ring placement, cache affinity, end-to-end differential.

The router's correctness claim is transport-shaped, like the daemon's:
a job routed through the fleet returns a payload bit-identical to a
direct in-process call, because it runs (or is served from cache) on
exactly one shard through the unchanged execute_job path.  The routing
key is the cache *storage* fingerprint, so placement and cache affinity
are the same decision — tested here from both ends.
"""

import os

import pytest

from repro.apps import get_app
from repro.harness import run_trials
from repro.svc import (
    ConsistentHashRing,
    FleetRouter,
    JobSpec,
    ReproClient,
    ReproService,
    ServiceError,
    routing_fingerprint,
)
from repro.svc.jobs import stats_to_wire

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") and not hasattr(os, "posix_spawn"),
    reason="service tests need a POSIX process model",
)


class TestConsistentHashRing:
    def test_deterministic_and_balanced(self):
        peers = ["http://127.0.0.1:1001", "http://127.0.0.1:1002"]
        ring_a = ConsistentHashRing(peers)
        ring_b = ConsistentHashRing(list(peers))
        keys = [f"key-{i}" for i in range(1000)]
        owners = [ring_a.lookup(k) for k in keys]
        assert owners == [ring_b.lookup(k) for k in keys]
        # With 64 virtual nodes per peer neither shard starves badly.
        assert 200 < sum(owners) < 800

    def test_removing_a_peer_only_remaps_its_keys(self):
        peers = [f"http://127.0.0.1:{p}" for p in (1001, 1002, 1003)]
        full = ConsistentHashRing(peers)
        reduced = ConsistentHashRing(peers[:2])
        keys = [f"key-{i}" for i in range(1000)]
        moved = 0
        for k in keys:
            before = full.lookup(k)
            after = reduced.lookup(k)
            if before < 2:
                # A key owned by a surviving peer must not move.
                assert after == before
            else:
                moved += 1
        assert moved > 0  # the departed peer did own something

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])


class TestRoutingFingerprint:
    def test_seed_ranges_share_a_shard(self):
        """Overlapping seed ranges of one config must co-locate (affinity)."""
        a = routing_fingerprint(JobSpec(app="figure4", bug="error1", trials=10))
        b = routing_fingerprint(
            JobSpec(app="figure4", bug="error1", trials=200, base_seed=50)
        )
        assert a == b

    def test_config_changes_move_the_key(self):
        base = routing_fingerprint(JobSpec(app="figure4", bug="error1"))
        assert base != routing_fingerprint(JobSpec(app="figure4", bug="error2"))
        assert base != routing_fingerprint(
            JobSpec(app="figure4", bug="error1", timeout=0.2)
        )
        assert base != routing_fingerprint(
            JobSpec(kind="explore", app="figure4", bug="error1")
        )

    def test_explore_default_max_steps_resolves(self):
        explicit = routing_fingerprint(
            JobSpec(kind="explore", app="figure4", bug="error1",
                    max_steps=get_app("figure4").max_steps)
        )
        default = routing_fingerprint(
            JobSpec(kind="explore", app="figure4", bug="error1")
        )
        assert explicit == default

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            routing_fingerprint(JobSpec(app="nosuchapp"))

    def test_explore_key_is_pinned(self):
        """The explore placement key (and with it every cache key and
        ring placement) is frozen: the spec still hashes the constant
        ``"snapshots": false`` field of the removed fork executor."""
        key = routing_fingerprint(
            JobSpec(kind="explore", app="bank", dpor=True, sleep_sets=True,
                    max_schedules=20, seed=7)
        )
        assert key == (
            "923002875f79e9d8ffe34d8753c97d9cb9d3dbbe6a92d4d17f516c0f1e645405"
        )


@pytest.fixture()
def fleet(tmp_path):
    shards = [
        ReproService(slots=1, queue_size=8,
                     cache_dir=str(tmp_path / f"shard{i}")).start()
        for i in range(2)
    ]
    router = FleetRouter([s.address for s in shards]).start()
    yield router, shards
    router.close()
    for s in shards:
        s.close()


class TestFleetEndToEnd:
    def test_routed_results_equal_direct_calls(self, fleet):
        router, _shards = fleet
        client = ReproClient(router.address)
        remote = client.run(JobSpec(app="figure4", bug="error1", trials=3, timeout=0.2))
        direct = run_trials(get_app("figure4"), n=3, bug="error1", timeout=0.2)
        assert stats_to_wire(remote) == stats_to_wire(direct)

    def test_ids_are_shard_prefixed_and_refetchable(self, fleet):
        router, _shards = fleet
        client = ReproClient(router.address)
        job_id = client.submit(JobSpec(app="figure4", bug="error1", trials=1,
                                       timeout=0.2))
        assert job_id.startswith("s") and ":" in job_id
        record = client.wait(job_id, timeout=60)
        assert record["state"] == "done"
        again = client.result(job_id)
        assert again["result"] == record["result"]
        listed = client.jobs()
        assert any(j["id"] == job_id for j in listed)

    def test_warm_resubmit_hits_shard_local_cache(self, fleet):
        router, shards = fleet
        client = ReproClient(router.address)
        spec = JobSpec(app="figure4", bug="error1", trials=2, timeout=0.2)
        client.run(spec)
        client.run(spec)
        # Both submissions hashed to one shard, whose cache served the
        # second — the other shard saw neither the job nor the lookup.
        idx = router.ring.lookup(routing_fingerprint(spec))
        owner = ReproClient(shards[idx].address).metrics()
        other = ReproClient(shards[1 - idx].address).metrics()
        assert owner.get("cache.hit", {}).get("value", 0) >= 1
        assert "cache.hit" not in other
        snap = client.metrics()
        assert snap[f"svc.router.peer.{idx}.jobs"]["value"] == 2
        assert f"svc.router.peer.{1 - idx}.jobs" not in snap

    def test_router_validates_before_routing(self, fleet):
        router, _shards = fleet
        client = ReproClient(router.address)
        with pytest.raises(ServiceError) as exc:
            client.submit(JobSpec(app="nosuchapp"))
        assert exc.value.status == 400

    def test_unrouted_id_is_404(self, fleet):
        router, _shards = fleet
        client = ReproClient(router.address)
        with pytest.raises(ServiceError) as exc:
            client.result("job-000001")  # daemon-style id, no shard prefix
        assert exc.value.status == 404

    def test_health_aggregates_shards(self, fleet):
        router, _shards = fleet
        doc = ReproClient(router.address).health()
        assert doc["role"] == "router"
        assert doc["status"] == "ok"
        assert [s["shard"] for s in doc["shards"]] == [0, 1]
        assert all(s["ok"] for s in doc["shards"])

    def test_dead_shard_is_502_on_submit(self):
        router = FleetRouter(["http://127.0.0.1:9"]).start()  # reserved port
        try:
            client = ReproClient(router.address)
            with pytest.raises(ServiceError) as exc:
                client.submit(JobSpec(app="figure4", bug="error1", trials=1),
                              max_wait=5)
            assert exc.value.status == 502
        finally:
            router.close()

    def test_drain_fans_out_and_refuses_new_jobs(self, fleet):
        router, shards = fleet
        client = ReproClient(router.address)
        client.drain()
        with pytest.raises(Exception) as exc:
            client.submit(JobSpec(app="figure4", bug="error1", trials=1),
                          max_wait=1)
        assert "draining" in str(exc.value)
