"""Job spec and result serialization: the bit-identity layer."""

import dataclasses

import pytest

from repro.apps import get_app
from repro.harness import run_trials
from repro.harness.stats import TrialFailure, TrialStats
from repro.svc.jobs import (
    JobRecord,
    JobSpec,
    JobValidationError,
    execute_job,
    failure_from_wire,
    failure_to_wire,
    stats_from_wire,
    stats_to_wire,
)
from repro.svc.protocol import dumps, loads


class TestJobSpec:
    def test_round_trip_through_json(self):
        spec = JobSpec(kind="trials", app="figure4", bug="error1", trials=7,
                       base_seed=3, timeout=0.2, params={"k": 1})
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_round_trip_through_wire_bytes(self):
        spec = JobSpec(kind="explore", app="bank", bug="lost_update",
                       dpor=True, sleep_sets=True, max_schedules=500)
        assert JobSpec.from_json(loads(dumps(spec.to_json()))) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(JobValidationError, match="unknown job spec field"):
            JobSpec.from_json({"app": "figure4", "nonsense": 1})

    def test_unknown_app_rejected(self):
        with pytest.raises(JobValidationError, match="unknown app"):
            JobSpec(app="nosuchapp").validate()

    def test_unknown_bug_rejected(self):
        with pytest.raises(JobValidationError, match="has no bug"):
            JobSpec(app="figure4", bug="nope").validate()

    def test_bad_kind_rejected(self):
        with pytest.raises(JobValidationError, match="unknown job kind"):
            JobSpec(kind="banana", app="figure4").validate()

    def test_nonpositive_trials_rejected(self):
        with pytest.raises(JobValidationError, match="trials must be positive"):
            JobSpec(app="figure4", trials=0).validate()

    def test_trial_timeout_requires_workers(self):
        # An infer job's confirmation sweep is a trial sweep too.
        for kind, app in (("trials", "figure4"), ("infer", "bank")):
            with pytest.raises(JobValidationError, match="requires workers"):
                JobSpec(kind=kind, app=app, trials=4, trial_timeout=1.0).validate()
            JobSpec(kind=kind, app=app, trials=4, trial_timeout=1.0, workers=2).validate()

    def test_valid_spec_passes(self):
        spec = JobSpec(app="figure4", bug="error1", trials=3)
        assert spec.validate() is spec

    def test_sleep_sets_without_dpor_rejected(self):
        # The plain walk ignores sleep sets, so the flag would only fork
        # the cache key and the routing fingerprint.
        with pytest.raises(JobValidationError, match="sleep_sets requires dpor"):
            JobSpec(kind="explore", app="figure4", bug="error1",
                    sleep_sets=True).validate()
        spec = JobSpec(kind="explore", app="bank", bug="lost_update",
                       dpor=True, sleep_sets=True)
        assert spec.validate() is spec


class TestStatsWire:
    def test_stats_round_trip_is_bit_identical(self):
        stats = run_trials(get_app("figure4"), n=4, bug="error1", timeout=0.2)
        assert stats_from_wire(stats_to_wire(stats)) == stats

    def test_stats_round_trip_through_json_bytes(self):
        """Floats survive the actual JSON encode/decode, not just dicts."""
        stats = run_trials(get_app("stringbuffer"), n=3, bug="atomicity1")
        wire = loads(dumps(stats_to_wire(stats)))
        assert stats_from_wire(wire) == stats

    def test_stats_with_metrics_round_trip(self):
        stats = run_trials(get_app("figure4"), n=3, bug="error1", timeout=0.2,
                           collect_metrics=True)
        rebuilt = stats_from_wire(loads(dumps(stats_to_wire(stats))))
        assert rebuilt.metrics == stats.metrics
        assert rebuilt == stats

    def test_failures_round_trip(self):
        failure = TrialFailure(seed=11, kind="crash", attempts=3, message="boom")
        assert failure_from_wire(failure_to_wire(failure)) == failure
        stats = TrialStats(app="x", bug=None, trials=1, bug_hits=0, bp_hits=0,
                           runtimes=[], error_times=[], failures=[failure])
        assert stats_from_wire(stats_to_wire(stats)).failures == [failure]


class TestExecuteJob:
    def test_trials_job_equals_direct_call(self):
        spec = JobSpec(kind="trials", app="figure4", bug="error1", trials=5,
                       timeout=0.2)
        payload = execute_job(spec)
        direct = run_trials(get_app("figure4"), n=5, bug="error1", timeout=0.2)
        assert stats_from_wire(payload) == direct

    def test_explore_job_summarises_exploration(self):
        spec = JobSpec(kind="explore", app="bank", bug="lost_update",
                       dpor=True, sleep_sets=True, max_schedules=2000)
        payload = execute_job(spec)
        assert payload["type"] == "explore"
        assert payload["complete"] is True
        assert payload["hits"] == payload["schedules"] > 0
        assert payload["dpor"]["sleep_set_prunes"] > 0
        assert payload["witnesses"]  # at least one bug-hitting choice list

    def test_infer_job_counts_into_the_registry(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        spec = JobSpec(kind="infer", app="bank", trials=4, timeout=0.2)
        payload = execute_job(spec, metrics=reg)
        assert payload["type"] == "infer"
        assert reg.snapshot()["infer.candidates.generated"]["value"] > 0


class TestBoundedJobs:
    def test_bound_round_trips_through_json(self):
        spec = JobSpec(kind="explore", app="bank", bug="lost_update",
                       dpor=True, bound_preemptions=1, bound_variables=4)
        assert JobSpec.from_json(loads(dumps(spec.to_json()))) == spec

    @pytest.mark.parametrize("field", ["bound_preemptions", "bound_variables"])
    def test_negative_bound_rejected(self, field):
        with pytest.raises(JobValidationError, match="must be >= 0"):
            JobSpec(kind="explore", app="bank", bug="lost_update",
                    **{field: -1}).validate()

    def test_bounded_explore_job_reports_bound_and_cuts(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        spec = JobSpec(kind="explore", app="bank", bug="lost_update",
                       dpor=True, max_schedules=2000, bound_preemptions=1)
        payload = execute_job(spec, metrics=reg)
        assert payload["bound"] == {"preemptions": 1, "variables": None}
        assert payload["cuts"]["preemption_cuts"] > 0
        # The cut accounting lands in the job's metrics registry, which
        # the worker pool ships back to the service's /metrics.
        snap = reg.snapshot()
        assert (
            snap["explore.dpor.preemption_cuts"]["value"]
            == payload["cuts"]["preemption_cuts"]
        )

    def test_cache_keys_on_the_bound(self, tmp_path):
        from repro.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        bounded = JobSpec(kind="explore", app="bank", bug="lost_update",
                          dpor=True, max_schedules=2000, bound_preemptions=1)
        first = execute_job(bounded, cache=cache)
        again = execute_job(bounded, cache=cache)
        assert again == first  # bounded entry served bit-identically
        unbounded = dataclasses.replace(bounded, bound_preemptions=None)
        other = execute_job(unbounded, cache=cache)
        # The bound is result-relevant: the unbounded spec must never be
        # served the bounded walk's entry.
        assert other["bound"] is None
        assert other["schedules"] != first["schedules"]


class TestJobRecord:
    def test_lifecycle_and_wire_shape(self):
        rec = JobRecord("job-000007", JobSpec(app="figure4", bug="error1", trials=1))
        assert rec.state == "queued" and not rec.terminal
        rec.mark_running()
        assert rec.state == "running" and rec.queue_wait() is not None
        rec.finish({"type": "trials"})
        assert rec.terminal
        doc = rec.to_json()
        assert doc["id"] == "job-000007"
        assert doc["state"] == "done"
        assert doc["result"] == {"type": "trials"}
        assert doc["failure"] is None
        assert doc["latency_seconds"] >= 0

    def test_failure_path(self):
        rec = JobRecord("job-000008", JobSpec(app="figure4", trials=1))
        rec.mark_running()
        rec.fail(TrialFailure(seed=0, kind="timeout", attempts=1, message="slow"))
        doc = rec.to_json()
        assert doc["state"] == "failed"
        assert doc["failure"]["kind"] == "timeout"
        # the failure record is the harness's own dataclass
        assert dataclasses.is_dataclass(rec.failure)
