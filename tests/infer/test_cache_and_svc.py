"""Inference through the cache, the service daemon, and the CLI.

Memoization and transport add no semantics: a warm ``repro infer`` rerun
is served entirely from the content-addressed store and a report fetched
through the daemon decodes to the very object the direct library call
returns — bit-identical in both cases, wire bytes included.
"""

import json
import os

import pytest

from repro.__main__ import main
from repro.cache import ResultCache
from repro.infer import InferenceReport, infer_app, run_inference
from repro.obs.metrics import MetricsRegistry

FAST = dict(trials=8, timeout=0.2)


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path))


class TestCachedInference:
    def test_cold_then_warm_equal_fresh(self, cache):
        fresh = run_inference("bank", **FAST)
        cold = infer_app("bank", cache=cache, **FAST)
        warm = infer_app("bank", cache=cache, **FAST)
        assert cold == fresh
        assert warm == fresh
        assert json.dumps(warm.to_wire(), sort_keys=True) == \
            json.dumps(fresh.to_wire(), sort_keys=True)

    def test_warm_rerun_is_a_single_report_level_hit(self, tmp_path):
        reg = MetricsRegistry()
        cache = ResultCache(str(tmp_path), metrics=reg)
        infer_app("stringbuffer", cache=cache, **FAST)
        miss_after_cold = reg.snapshot()["cache.miss"]["value"]
        hits_after_cold = reg.snapshot().get("cache.hit", {}).get("value", 0)
        infer_app("stringbuffer", cache=cache, **FAST)
        snap = reg.snapshot()
        # The warm rerun serves the whole report from the store: one
        # more hit, not one more miss.
        assert snap["cache.miss"]["value"] == miss_after_cold
        assert snap["cache.hit"]["value"] == hits_after_cold + 1

    def test_cold_run_memoizes_its_inner_sweeps(self, cache):
        """Even before the report entry exists, the per-candidate trial
        sweeps land in the store — a later plain `repro run` of the
        confirmed bug is served warm."""
        from repro.apps import get_app
        from repro.harness import run_trials

        report = infer_app("bank", cache=cache, **FAST)
        (top,) = report.confirmed
        reg = MetricsRegistry()
        warm_cache = cache.with_metrics(reg)
        stats = run_trials(get_app("bank"), n=report.trials, bug=top.match.bug,
                           timeout=report.timeout, flip_order=top.flip_order,
                           base_seed=report.base_seed, cache=warm_cache)
        assert reg.snapshot()["cache.hit"]["value"] == 1
        assert stats == top.stats

    def test_distinct_configs_do_not_collide(self, cache):
        a = infer_app("bank", cache=cache, **FAST)
        b = infer_app("bank", cache=cache, trials=9, timeout=0.2)
        c = infer_app("bank", cache=cache, seed=1, **FAST)
        assert a.trials != b.trials
        assert a != b
        assert c.trace_seed == 1


class TestCliInfer:
    def test_infer_command_names_the_confirmed_bug(self, capsys):
        assert run_cli("infer", "bank", "--trials", "8", "--timeout", "0.2") == 0
        out = capsys.readouterr().out
        assert "CONFIRMED lost_update" in out

    def test_cached_rerun_prints_identical_report(self, capsys, tmp_path):
        argv = ("infer", "stringbuffer", "--trials", "8", "--timeout", "0.2",
                "--cache-dir", str(tmp_path))
        assert run_cli(*argv) == 0
        cold = capsys.readouterr().out
        assert run_cli(*argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert "CONFIRMED atomicity1" in warm

    def test_json_output_round_trips(self, capsys):
        assert run_cli("infer", "bank", "--trials", "8", "--timeout", "0.2",
                       "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        report = InferenceReport.from_wire(doc)
        assert report.confirmed_bugs == ["lost_update"]

    def test_out_writes_the_json_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert run_cli("infer", "bank", "--trials", "8", "--timeout", "0.2",
                       "--out", str(path)) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["type"] == "infer"

    def test_unknown_app_is_a_usage_error(self, capsys):
        assert run_cli("infer", "no-such-app") == 2
        assert "unknown app" in capsys.readouterr().out

    def test_analyze_json_shares_the_infer_serialization(self, capsys):
        """Satellite contract: `repro analyze --json` and the infer
        report's analysis section are the same document."""
        assert run_cli("analyze", "bank", "--json") == 0
        analyze_doc = json.loads(capsys.readouterr().out)
        report = run_inference("bank", **FAST)
        assert report.analysis == analyze_doc


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked job children")
class TestServiceDifferential:
    def test_service_infer_equals_direct(self):
        from repro.svc import JobSpec, ReproClient, ReproService

        svc = ReproService(slots=2, queue_size=8).start()
        try:
            client = ReproClient(svc.address)
            remote = client.run(JobSpec(kind="infer", app="bank", trials=6, timeout=0.2))
            direct = infer_app("bank", trials=6, timeout=0.2)
            assert remote == direct
            assert json.dumps(remote.to_wire(), sort_keys=True) == \
                json.dumps(direct.to_wire(), sort_keys=True)
        finally:
            svc.close()

    def test_infer_job_validation_rejects_a_bug(self):
        from repro.svc import JobSpec
        from repro.svc.jobs import JobValidationError

        with pytest.raises(JobValidationError, match="no bug"):
            JobSpec(kind="infer", app="bank", bug="lost_update").validate()

    def test_served_infer_jobs_hit_the_shared_cache(self, tmp_path):
        from repro.svc import JobSpec, ReproClient, ReproService

        svc = ReproService(slots=1, queue_size=4, cache_dir=str(tmp_path)).start()
        try:
            client = ReproClient(svc.address)
            job = JobSpec(kind="infer", app="bank", trials=6, timeout=0.2)
            first = client.run(job)
            second = client.run(job)
            assert first == second
            counters = {
                k: v.get("value", 0)
                for k, v in client.metrics().items()
                if v.get("type") == "counter"
            }
            assert counters.get("cache.hit", 0) >= 1
        finally:
            svc.close()
