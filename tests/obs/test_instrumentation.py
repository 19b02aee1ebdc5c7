"""Instrumentation: engine/kernel metrics, harness merging, the
parallel == serial determinism contract, and the ambient sink."""

from repro.apps import AppConfig, get_app
from repro.harness import explore_app, run_trials
from repro.harness.exploration import _make_build_and_observe
from repro.obs import ObsContext, collecting, deterministic_view
from repro.sim.dpor import explore_dpor_sharded


def _run_one(seed=0, bug="atomicity1"):
    obs = ObsContext.create()
    cls = get_app("stringbuffer")
    run = cls(AppConfig(bug=bug)).run(seed=seed, obs=obs)
    return run, obs


class TestEngineMetrics:
    def test_arrival_and_match_counters(self):
        run, obs = _run_one(seed=0)
        snap = obs.metrics.snapshot()
        assert snap["engine.arrivals"]["value"] > 0
        assert snap["engine.matches"]["value"] >= 1
        assert run.bp_hit()

    def test_pause_histogram_tracks_matches(self):
        _, obs = _run_one()
        h = obs.metrics.histogram("engine.pause_seconds")
        assert h.count == obs.metrics.counter("engine.matches").value
        assert h.sum >= 0.0

    def test_no_breakpoints_no_engine_metrics(self):
        # An engine no thread visited emits nothing — plain runs pay no
        # engine-metric cost and engine.* keys imply real activity.
        _, obs = _run_one(bug=None)
        assert not [n for n in obs.metrics.names() if n.startswith("engine.")]


class TestKernelMetrics:
    def test_run_counters_flushed_once(self):
        run, obs = _run_one()
        snap = obs.metrics.snapshot()
        assert snap["kernel.runs"]["value"] == 1
        assert snap["kernel.steps"]["value"] == run.result.steps
        assert snap["kernel.threads_spawned"]["value"] >= 2
        assert snap["kernel.ctx_switches"]["value"] > 0

    def test_syscall_mix_recorded(self):
        _, obs = _run_one()
        mix = [n for n in obs.metrics.names() if n.startswith("kernel.syscall.")]
        assert mix, "expected per-syscall counters"
        total = sum(obs.metrics.counter(n).value for n in mix)
        assert total > 0

    def test_bus_topics_published(self):
        obs = ObsContext.create()
        seen = []
        obs.bus.subscribe("*", lambda ev: seen.append(ev.topic))
        cls = get_app("stringbuffer")
        cls(AppConfig(bug="atomicity1")).run(seed=0, obs=obs)
        topics = set(seen)
        assert "kernel.spawn" in topics
        assert "kernel.run_end" in topics
        assert "bp.match" in topics

    def test_disabled_obs_costs_nothing(self):
        cls = get_app("stringbuffer")
        run = cls(AppConfig(bug="atomicity1")).run(seed=0)  # obs=None
        assert run.bug_hit  # plain path still works


class TestHarnessMetrics:
    N = 8

    def test_trials_attach_merged_metrics(self):
        cls = get_app("stringbuffer")
        stats = run_trials(cls, n=self.N, bug="atomicity1", collect_metrics=True)
        m = stats.metrics
        assert m is not None
        assert m["harness.trials"]["value"] == self.N
        assert m["harness.bug_hits"]["value"] == stats.bug_hits
        assert m["harness.trial_runtime_seconds"]["count"] == self.N
        assert m["engine.matches"]["value"] >= stats.bp_hits

    def test_metrics_none_without_flag(self):
        cls = get_app("stringbuffer")
        assert run_trials(cls, n=2, bug="atomicity1").metrics is None

    def test_parallel_equals_serial_deterministic_view(self):
        cls = get_app("stringbuffer")
        serial = run_trials(cls, n=self.N, bug="atomicity1", collect_metrics=True)
        par = run_trials(cls, n=self.N, bug="atomicity1", collect_metrics=True,
                         workers=2)
        assert deterministic_view(serial.metrics) == deterministic_view(par.metrics)

    def test_ambient_sink_implies_collection(self):
        cls = get_app("stringbuffer")
        with collecting() as reg:
            stats = run_trials(cls, n=4, bug="atomicity1")
        assert stats.metrics is not None
        assert reg.counter("harness.trials").value == 4
        # Sink accumulates across sweeps in its extent.
        with collecting(reg):
            run_trials(cls, n=4, bug="atomicity1")
        assert reg.counter("harness.trials").value == 8


class TestExploreMetrics:
    """Sharded DPOR flushes the ``explore.*`` counters its shard walks
    would flush serially, once, in the calling process."""

    @staticmethod
    def _counters(obs):
        return {name: m["value"] for name, m in obs.metrics.snapshot().items()}

    def _sharded(self, workers):
        _, build, observe = _make_build_and_observe(
            "bank", AppConfig(bug="lost_update", params={"iters": 2})
        )
        obs = ObsContext.create(bus_enabled=False)
        _, stats = explore_dpor_sharded(
            build, observe=observe, workers=workers, sleep_sets=True, obs=obs
        )
        return self._counters(obs), stats

    def test_sharded_dpor_counters_are_worker_count_independent(self):
        serial, stats = self._sharded(workers=0)
        forked, forked_stats = self._sharded(workers=2)
        assert forked == serial and forked_stats == stats
        assert serial["explore.schedules"] > 0
        assert serial["explore.dpor.sleep_set_prunes"] == stats.sleep_set_prunes > 0
        assert serial["explore.steps_executed"] == stats.executed_steps

    def test_explore_app_passes_obs_to_the_sharded_walk(self):
        obs = ObsContext.create(bus_enabled=False)
        res = explore_app("bank", "lost_update", dpor=True, sleep_sets=True,
                          workers=2, params={"iters": 2}, obs=obs)
        counters = self._counters(obs)
        assert counters["explore.steps_executed"] == res.dpor_stats.executed_steps
        assert (
            counters["explore.dpor.sleep_set_prunes"]
            == res.dpor_stats.sleep_set_prunes
        )
