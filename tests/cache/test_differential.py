"""The cache differential battery: cached == fresh, bit for bit.

Memoization must be *invisible*: a sweep served (fully or partially)
from the content-addressed store is indistinguishable from the same
sweep recomputed from scratch — across the serial runner, the parallel
pool, crash-injected workers, and the service daemon.  Volatile metrics
(wall-clock) are exempt, exactly as in the parallel-vs-serial contract.
"""

import json
import os

import pytest

from repro.apps import get_app
from repro.cache import ResultCache
from repro.harness import explore_summary, run_trials
from repro.obs import collecting
from repro.obs.metrics import deterministic_view

Figure4 = get_app("figure4")
StringBuffer = get_app("stringbuffer")

pytestmark_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs forked children"
)


def _crash_first_attempt(seed, attempt):
    """Kill the trial worker hard on seed 2's first attempt (picklable)."""
    if seed == 2 and attempt == 0:
        os._exit(17)


def _fault_first_attempts(seed, attempt):
    """On a first attempt, kill the worker on seeds 3 and 11 and raise on
    seeds 5 and 13 (picklable)."""
    if attempt == 0 and seed in (3, 11):
        os._exit(17)
    if attempt == 0 and seed in (5, 13):
        raise RuntimeError("injected")


def _runner_counters(stats):
    """``(harness.retries, harness.worker_crashes)`` of a collected sweep."""
    return tuple(
        stats.metrics.get(name, {}).get("value")
        for name in ("harness.retries", "harness.worker_crashes")
    )


def _svc_crash_first_attempt(spec, attempt):
    """Kill the job child hard on its first attempt."""
    if attempt == 0:
        os._exit(17)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path))


# ---------------------------------------------------------------------------
# Serial path
# ---------------------------------------------------------------------------


class TestSerialDifferential:
    def test_cold_then_warm_equal_fresh(self, cache):
        fresh = run_trials(Figure4, n=12, bug="error1", timeout=0.2)
        cold = run_trials(Figure4, n=12, bug="error1", timeout=0.2, cache=cache)
        warm = run_trials(Figure4, n=12, bug="error1", timeout=0.2, cache=cache)
        assert cold == fresh
        assert warm == fresh

    def test_distinct_configs_do_not_collide(self, cache):
        a = run_trials(Figure4, n=6, bug="error1", timeout=0.2, cache=cache)
        b = run_trials(Figure4, n=6, bug=None, cache=cache)
        assert a != b  # unarmed run cannot reproduce the bug
        assert cache.stats().entries == 2
        # Warm reads return each its own result.
        assert run_trials(Figure4, n=6, bug="error1", timeout=0.2, cache=cache) == a
        assert run_trials(Figure4, n=6, bug=None, cache=cache) == b

    def test_second_app_shares_the_store(self, cache):
        one = run_trials(StringBuffer, n=5, bug="atomicity1", cache=cache)
        assert run_trials(StringBuffer, n=5, bug="atomicity1", cache=cache) == one
        assert cache.stats().entries >= 1


# ---------------------------------------------------------------------------
# Partial-range reuse: any split of cached vs requested seeds
# ---------------------------------------------------------------------------


class TestPartialRangeReuse:
    @pytest.mark.parametrize(
        "warm_base,warm_n,req_base,req_n",
        [
            (0, 10, 0, 20),    # cached prefix, extend the suffix
            (10, 10, 0, 20),   # cached suffix, fresh prefix
            (5, 10, 0, 20),    # cached interior window
            (0, 20, 5, 10),    # request strictly inside the cached range
            (0, 10, 30, 10),   # disjoint: pure miss alongside an entry
        ],
    )
    def test_any_split_is_bit_identical(self, cache, warm_base, warm_n, req_base, req_n):
        run_trials(Figure4, n=warm_n, bug="error1", base_seed=warm_base, cache=cache)
        fresh = run_trials(Figure4, n=req_n, bug="error1", base_seed=req_base)
        served = run_trials(Figure4, n=req_n, bug="error1", base_seed=req_base, cache=cache)
        assert served == fresh

    def test_hit_partial_and_miss_are_counted(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        cache = ResultCache(str(tmp_path), metrics=reg)
        run_trials(Figure4, n=10, bug="error1", cache=cache)       # miss
        run_trials(Figure4, n=20, bug="error1", cache=cache)       # partial
        run_trials(Figure4, n=20, bug="error1", cache=cache)       # full hit
        snap = reg.snapshot()
        assert snap["cache.miss"]["value"] == 1
        assert snap["cache.partial_hit"]["value"] == 1
        assert snap["cache.hit"]["value"] == 1

    def test_failures_are_never_served_from_cache(self, cache, tmp_path):
        # A stored entry only ever contains successful outcomes.
        run_trials(Figure4, n=8, bug="error1", cache=cache)
        entries = list(tmp_path.rglob("*.json"))
        assert entries
        doc = json.loads(entries[0].read_text())
        assert len(doc["seeds"]) == 8
        for row in doc["seeds"].values():
            assert isinstance(row, list)


# ---------------------------------------------------------------------------
# Parallel and crash-injected paths
# ---------------------------------------------------------------------------


@pytestmark_fork
class TestParallelDifferential:
    def test_parallel_cold_and_warm_equal_serial_fresh(self, cache):
        fresh = run_trials(Figure4, n=10, bug="error1")
        cold = run_trials(Figure4, n=10, bug="error1", workers=2, cache=cache)
        warm = run_trials(Figure4, n=10, bug="error1", workers=2, cache=cache)
        assert cold == fresh
        assert warm == fresh

    def test_serial_warm_serves_parallel_cold(self, cache):
        cold = run_trials(Figure4, n=10, bug="error1", workers=2, cache=cache)
        warm_serial = run_trials(Figure4, n=10, bug="error1", cache=cache)
        assert warm_serial == cold

    def test_crash_injected_cold_equals_fresh(self, cache):
        """A worker crash during the cache's fresh segment is retried
        and the cached sweep is still bit-identical to a crash-free run."""
        fresh = run_trials(Figure4, n=8, bug="error1")
        cold = run_trials(
            Figure4, n=8, bug="error1", workers=2, cache=cache,
            trial_hook=_crash_first_attempt,
        )
        warm = run_trials(Figure4, n=8, bug="error1", cache=cache)
        assert cold == fresh
        assert warm == fresh
        assert cold.failures == []

    def test_cached_sweeps_report_the_runner_counters(self, cache):
        """Retries and worker crashes of the seeds a cached sweep runs
        reach its metrics, as they do uncached."""
        kw = dict(bug="error1", workers=2, collect_metrics=True,
                  trial_hook=_fault_first_attempts)
        fresh = run_trials(Figure4, n=8, **kw)
        cold = run_trials(Figure4, n=8, cache=cache, **kw)
        # Seeds 0..7 are stored; 8..15 run, and 11 and 13 fault once.
        extended = run_trials(Figure4, n=16, cache=cache, **kw)
        assert _runner_counters(fresh) == (2, 1)
        assert _runner_counters(cold) == (2, 1)
        assert _runner_counters(extended) == (2, 1)
        assert cold.failures == extended.failures == []
        assert deterministic_view(cold.metrics) == deterministic_view(fresh.metrics)
        plain = run_trials(Figure4, n=16, bug="error1", collect_metrics=True)
        assert deterministic_view(extended.metrics) == deterministic_view(plain.metrics)
        assert extended.runtimes == plain.runtimes


# ---------------------------------------------------------------------------
# Metrics: deterministic view must survive the cache round-trip
# ---------------------------------------------------------------------------


class TestMetricsDifferential:
    def test_collected_metrics_deterministic_view_round_trips(self, cache):
        fresh = run_trials(Figure4, n=6, bug="error1", collect_metrics=True)
        cold = run_trials(Figure4, n=6, bug="error1", collect_metrics=True, cache=cache)
        warm = run_trials(Figure4, n=6, bug="error1", collect_metrics=True, cache=cache)
        want = deterministic_view(fresh.metrics)
        assert deterministic_view(cold.metrics) == want
        assert deterministic_view(warm.metrics) == want

    def test_ambient_sink_folds_once(self, cache):
        with collecting() as reg:
            stats = run_trials(Figure4, n=6, bug="error1", cache=cache)
        snap = reg.snapshot()
        assert stats.trials == 6
        assert snap["harness.trials"]["value"] == 6
        assert snap["cache.miss"]["value"] == 1

    def test_warm_ambient_sink_counts_a_hit(self, cache):
        # collect_metrics=True matches the ambient-sink fingerprint (an
        # active sink implies metric collection, which is key-relevant).
        run_trials(Figure4, n=6, bug="error1", collect_metrics=True, cache=cache)
        with collecting() as reg:
            run_trials(Figure4, n=6, bug="error1", cache=cache)
        snap = reg.snapshot()
        assert snap["harness.trials"]["value"] == 6
        assert snap["cache.hit"]["value"] == 1


# ---------------------------------------------------------------------------
# Corruption: damaged entries fall back to recompute
# ---------------------------------------------------------------------------


class TestCorruptionFallback:
    def _damage(self, tmp_path, mutate):
        entries = list(tmp_path.rglob("*.json"))
        assert entries
        for path in entries:
            mutate(path)

    def test_junk_entry_recomputes(self, cache, tmp_path):
        fresh = run_trials(Figure4, n=6, bug="error1", cache=cache)
        self._damage(tmp_path, lambda p: p.write_text("}junk{"))
        assert run_trials(Figure4, n=6, bug="error1", cache=cache) == fresh

    def test_truncated_entry_recomputes(self, cache, tmp_path):
        fresh = run_trials(Figure4, n=6, bug="error1", cache=cache)
        self._damage(
            tmp_path, lambda p: p.write_text(p.read_text()[: len(p.read_text()) // 3])
        )
        assert run_trials(Figure4, n=6, bug="error1", cache=cache) == fresh

    def test_tampered_rows_recompute_on_config_mismatch(self, cache, tmp_path):
        fresh = run_trials(Figure4, n=6, bug="error1", cache=cache)

        def swap_config(p):
            doc = json.loads(p.read_text())
            doc["config"]["pause_timeout"] = 99.0
            p.write_text(json.dumps(doc))

        self._damage(tmp_path, swap_config)
        assert run_trials(Figure4, n=6, bug="error1", cache=cache) == fresh

    @pytest.mark.parametrize(
        "damage",
        [
            lambda row: row[:3],
            lambda row: None,
            lambda row: row[:2] + ["x"] + row[3:],
        ],
        ids=["three-fields", "null", "string-runtime"],
    )
    def test_a_damaged_row_recomputes(self, tmp_path, damage):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        cache = ResultCache(str(tmp_path), metrics=reg)
        fresh = run_trials(Figure4, n=6, bug="error1")
        run_trials(Figure4, n=6, bug="error1", cache=cache)

        def damage_seed_2(p):
            doc = json.loads(p.read_text())
            doc["seeds"]["2"] = damage(doc["seeds"]["2"])
            p.write_text(json.dumps(doc))

        self._damage(tmp_path, damage_seed_2)
        assert run_trials(Figure4, n=6, bug="error1", cache=cache) == fresh
        assert cache.fetch_trials(Figure4, n=6, bug="error1") == fresh
        assert reg.snapshot()["cache.corrupt"]["value"] == 1


# ---------------------------------------------------------------------------
# Fetch-only API: full hits without execution
# ---------------------------------------------------------------------------


class TestFetchApi:
    def test_fetch_trials_miss_returns_none(self, cache):
        assert cache.fetch_trials(Figure4, n=6, bug="error1") is None

    def test_fetch_trials_full_hit_equals_run(self, cache):
        stats = run_trials(Figure4, n=6, bug="error1", cache=cache)
        assert cache.fetch_trials(Figure4, n=6, bug="error1") == stats

    def test_fetch_trials_partial_coverage_is_a_miss(self, cache):
        run_trials(Figure4, n=6, bug="error1", cache=cache)
        assert cache.fetch_trials(Figure4, n=12, bug="error1") is None

    def test_unknown_bug_is_rejected(self, cache):
        with pytest.raises(KeyError):
            cache.explore("figure4", "no-such-bug", max_schedules=10)

    def test_clear_and_stats(self, cache):
        run_trials(Figure4, n=4, bug="error1", cache=cache)
        assert cache.stats().entries == 1
        assert cache.clear() == 1
        assert cache.stats().entries == 0
        assert cache.root


# ---------------------------------------------------------------------------
# Exploration summaries
# ---------------------------------------------------------------------------


class TestExploreDifferential:
    def test_cold_and_warm_equal_direct(self, cache):
        kwargs = dict(max_schedules=150, timeout=0.2)
        direct = explore_summary("figure4", "error1", **kwargs)
        cold = explore_summary("figure4", "error1", cache=cache, **kwargs)
        warm = explore_summary("figure4", "error1", cache=cache, **kwargs)
        assert cold == direct
        assert warm == direct

    def test_fetch_explore_requires_a_full_hit(self, cache):
        assert cache.fetch_explore("figure4", "error1", max_schedules=150, timeout=0.2) is None
        explore_summary("figure4", "error1", cache=cache, max_schedules=150, timeout=0.2)
        hit = cache.fetch_explore("figure4", "error1", max_schedules=150, timeout=0.2)
        assert hit is not None
        assert hit == explore_summary("figure4", "error1", max_schedules=150, timeout=0.2)


# ---------------------------------------------------------------------------
# Service daemon: one cache shared across jobs, hits skip the fork
# ---------------------------------------------------------------------------


@pytestmark_fork
class TestServiceDifferential:
    def _counters(self, client):
        return {
            k: v["value"]
            for k, v in client.metrics().items()
            if v.get("type") == "counter"
        }

    def test_service_cache_round_trip(self, tmp_path):
        from repro.svc import JobSpec, ReproClient, ReproService
        from repro.svc.jobs import stats_from_wire

        direct = run_trials(Figure4, n=10, bug="error1", timeout=0.2, base_seed=3)
        svc = ReproService(slots=2, queue_size=8, cache_dir=str(tmp_path)).start()
        try:
            client = ReproClient(svc.address)
            cold = client.run_trials("figure4", bug="error1", n=10, timeout=0.2, base_seed=3)
            warm = client.run_trials("figure4", bug="error1", n=10, timeout=0.2, base_seed=3)
            assert cold == direct
            assert warm == direct
            counters = self._counters(client)
            assert counters.get("cache.store", 0) >= 1
            assert counters.get("cache.hit", 0) >= 1
            # no_cache opts a single job out without changing its result.
            spec = JobSpec(
                kind="trials", app="figure4", bug="error1", trials=10,
                timeout=0.2, base_seed=3, no_cache=True,
            )
            rec = client.wait(client.submit(spec))
            assert stats_from_wire(rec["result"]) == direct
        finally:
            svc.close()

    def test_crashed_job_still_caches_correctly(self, tmp_path):
        from repro.svc import ReproClient, ReproService

        direct = run_trials(Figure4, n=8, bug="error1", base_seed=7)
        svc = ReproService(
            slots=1, queue_size=8, cache_dir=str(tmp_path),
            fault_hook=_svc_crash_first_attempt,
        ).start()
        try:
            client = ReproClient(svc.address)
            cold = client.run_trials("figure4", bug="error1", n=8, base_seed=7)
            # Warm: the parent-side cache fast path answers without
            # forking, so the child-side fault hook never fires.
            warm = client.run_trials("figure4", bug="error1", n=8, base_seed=7)
            assert cold == direct
            assert warm == direct
            assert self._counters(client).get("cache.hit", 0) >= 1
        finally:
            svc.close()

    def test_explore_job_shares_the_cache(self, tmp_path):
        from repro.svc import ReproClient, ReproService

        svc = ReproService(slots=2, queue_size=8, cache_dir=str(tmp_path)).start()
        try:
            client = ReproClient(svc.address)
            kwargs = dict(max_schedules=150, timeout=0.2)
            e1 = client.explore("figure4", bug="error1", **kwargs)
            e2 = client.explore("figure4", bug="error1", **kwargs)
            assert e1 == e2
            assert self._counters(client).get("cache.hit", 0) >= 1
        finally:
            svc.close()
