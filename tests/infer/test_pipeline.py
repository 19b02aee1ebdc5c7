"""End-to-end inference: trace in, ranked confirmed breakpoints out.

The acceptance battery for ``repro infer``: on real registry apps the
pipeline must auto-generate candidates from one logged trace, confirm
breakpoints that reproduce the declared bugs, and — where an inferred
candidate coincides with a hand-written suite — produce trial results
**bit-identical** to sweeping that suite directly, because confirmation
runs through the very same :func:`repro.harness.run_trials` path.
"""

import json
import types

import pytest

from repro.apps import get_app
from repro.harness import run_trials
from repro.infer import InferenceReport, run_inference
from repro.infer.rank import pause_cost, rank_confirmed
from repro.obs.metrics import MetricsRegistry

FAST = dict(trials=10, timeout=0.2)


def infer(app, **kwargs):
    merged = {**FAST, **kwargs}
    return run_inference(app, **merged)


class TestEndToEnd:
    """One logged trace reproduces each app's known bugs (acceptance)."""

    @pytest.mark.parametrize("app,expected_bugs", [
        ("bank", {"lost_update"}),
        ("stringbuffer", {"atomicity1"}),
        ("cache4j", {"race1", "race2", "race3", "atomicity1"}),
        ("jigsaw", {"race1", "race2", "deadlock1", "deadlock2", "missed-notify1"}),
        ("raytracer", {"race1"}),
    ])
    def test_known_bugs_are_confirmed_from_one_trace(self, app, expected_bugs):
        report = infer(app)
        assert expected_bugs <= set(report.confirmed_bugs)

    def test_confirmed_candidates_have_rank_stats_and_verdict(self):
        report = infer("cache4j")
        confirmed = report.confirmed
        assert confirmed
        ranks = [r.rank for r in confirmed]
        assert ranks == list(range(1, len(confirmed) + 1))
        for r in confirmed:
            assert r.stats is not None
            assert r.stats.bp_hits > 0 and r.stats.bug_hits > 0
            assert r.pause_cost is not None
            assert r.match is not None

    def test_ranking_orders_by_probability_first(self):
        report = infer("jigsaw")
        probs = [r.stats.probability for r in report.confirmed]
        # Probability must be non-increasing down the ranking (ties are
        # broken by bp hit rate, then pause cost, then name).
        assert probs == sorted(probs, reverse=True)

    def test_atomicity_confirmations_carry_fix_suggestions(self):
        report = infer("stringbuffer")
        fixes = [r.fix for r in report.confirmed if r.fix is not None]
        assert fixes
        assert any("lock" in f.render() or "synchronize" in f.render() for f in fixes)


class TestBitIdentity:
    """Auto-confirmed sweeps == hand-written suite sweeps, bit for bit."""

    @pytest.mark.parametrize("app", ["bank", "stringbuffer", "cache4j"])
    def test_confirmed_stats_equal_direct_suite_sweep(self, app):
        report = infer(app)
        assert report.confirmed
        for r in report.confirmed:
            direct = run_trials(
                get_app(app), n=report.trials, bug=r.match.bug,
                timeout=report.timeout, flip_order=r.flip_order,
                base_seed=report.base_seed,
            )
            assert r.stats == direct  # full dataclass equality

    def test_report_is_deterministic_across_reruns(self):
        a = infer("bank")
        b = infer("bank")
        assert a == b
        assert json.dumps(a.to_wire(), sort_keys=True) == \
            json.dumps(b.to_wire(), sort_keys=True)


class TestWire:
    def test_round_trip_is_lossless(self):
        report = infer("stringbuffer")
        doc = json.loads(json.dumps(report.to_wire()))
        back = InferenceReport.from_wire(doc)
        assert back == report
        assert json.dumps(back.to_wire(), sort_keys=True) == \
            json.dumps(report.to_wire(), sort_keys=True)

    def test_unknown_field_and_schema_rejected(self):
        report = infer("bank")
        doc = report.to_wire()
        doc["vibes"] = "good"
        with pytest.raises(ValueError, match="vibes"):
            InferenceReport.from_wire(doc)
        doc = report.to_wire()
        doc["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            InferenceReport.from_wire(doc)

    def test_render_names_the_confirmed_bugs(self):
        report = infer("bank")
        text = report.render()
        assert "CONFIRMED lost_update" in text
        assert "Inference report: bank" in text


class TestRanking:
    def test_pause_cost_is_mean_runtime_delta(self):
        report = infer("bank")
        (top,) = report.confirmed
        from repro.svc.jobs import stats_from_wire

        baseline = stats_from_wire(report.baseline)
        assert top.pause_cost == pytest.approx(
            pause_cost(top.stats, baseline))
        assert top.pause_cost == pytest.approx(
            top.stats.mean_runtime - baseline.mean_runtime)

    def test_rank_confirmed_key(self):
        stats_hi = types.SimpleNamespace(probability=0.9, bp_hit_rate=1.0)
        stats_lo = types.SimpleNamespace(probability=0.2, bp_hit_rate=1.0)
        rows = [("b", stats_lo, 0.1), ("a", stats_hi, 0.5), ("c", stats_hi, 0.2)]
        # hi-probability first; equal probability breaks on pause cost.
        assert rank_confirmed(rows) == [3, 2, 1]


class TestObservability:
    def test_infer_counters_land_in_the_passed_context(self):
        obs = MetricsRegistry()
        run_inference("bank", obs=obs, **FAST)
        snap = obs.snapshot()
        assert snap["infer.candidates.generated"]["value"] >= 1
        assert snap["infer.candidates.confirmed"]["value"] >= 1
        assert snap["infer.sweeps"]["value"] >= 2  # confirmation + baseline
        assert snap["infer.reports.total"]["value"] >= 1

    def test_steered_and_unmatched_are_counted(self):
        obs = MetricsRegistry()
        report = run_inference("jigsaw", obs=obs, **FAST)
        snap = obs.snapshot()
        unconfirmed = [r for r in report.results if r.status != "confirmed"]
        counted = sum(
            snap.get(f"infer.candidates.{s}", {}).get("value", 0)
            for s in ("unconfirmed", "steered", "unmatched"))
        assert counted == len(unconfirmed)
