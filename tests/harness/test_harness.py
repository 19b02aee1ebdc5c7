"""Harness: trial runner, stats, table builders, paper data."""

import pytest

from repro.apps import Figure4App, get_app, table1_bugs, table2_bugs
from repro.harness import (
    SECTION5,
    TABLE1,
    TABLE2,
    build_section5,
    build_section62,
    build_section63,
    build_table1,
    build_table2,
    explore_app,
    explore_summary,
    measure,
    render,
    run_trials,
    wilson_interval,
)
from repro.harness.parallel import run_trials_parallel
from repro.harness.stats import TrialStats


class TestRunTrials:
    def test_counts_and_rates(self):
        stats = run_trials(Figure4App, n=10, bug="error1", timeout=0.2)
        assert stats.trials == 10
        assert stats.bug_hits >= 9
        assert stats.probability == stats.bug_hits / 10
        assert 0 < stats.mean_runtime
        assert len(stats.runtimes) == 10

    def test_no_bug_config(self):
        stats = run_trials(Figure4App, n=10, bug=None)
        assert stats.bug_hits == 0
        assert stats.mtte is None

    def test_base_seed_shifts_outcomes(self):
        a = run_trials(Figure4App, n=5, bug="error1", timeout=0.05, base_seed=0)
        b = run_trials(Figure4App, n=5, bug="error1", timeout=0.05, base_seed=0)
        assert a.runtimes == b.runtimes  # same seeds, same virtual times

    @pytest.mark.parametrize("path", ["serial", "workers", "cache"])
    def test_negative_n_is_rejected_on_every_path(self, path, tmp_path):
        """n < 0 raises one ValueError naming n on every path; n == 0 is
        still the empty sweep."""
        kwargs = {}
        if path == "workers":
            kwargs["workers"] = 2
            with pytest.raises(ValueError, match=r"^n must be >= 0 .* got -3$"):
                run_trials_parallel(Figure4App, n=-3, bug="error1", workers=2)
        elif path == "cache":
            from repro.cache import ResultCache

            kwargs["cache"] = ResultCache(str(tmp_path))
        with pytest.raises(ValueError, match=r"^n must be >= 0 .* got -3$"):
            run_trials(Figure4App, n=-3, bug="error1", **kwargs)
        empty = run_trials(Figure4App, n=0, bug="error1", **kwargs)
        assert (empty.trials, empty.bug_hits, empty.runtimes) == (0, 0, [])

    def test_str(self):
        stats = run_trials(Figure4App, n=3, bug="error1")
        assert "figure4" in str(stats)


class TestMeasure:
    def test_overhead_row(self):
        row = measure(Figure4App, "error1", n=10, timeout=0.1)
        assert row.normal_runtime > 0
        assert row.bp_runtime >= row.normal_runtime * 0.5
        assert row.probability >= 0.9
        assert isinstance(row.overhead_pct, float)


class TestWilson:
    def test_perfect_score_interval(self):
        lo, hi = wilson_interval(100, 100)
        assert lo > 0.95 and hi == pytest.approx(1.0)

    def test_empty_sample(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_interval_contains_point_estimate(self):
        lo, hi = wilson_interval(63, 100)
        assert lo <= 0.63 <= hi

    def test_narrower_with_more_trials(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(50, 100)
        assert (hi2 - lo2) < (hi1 - lo1)


class TestPaperData:
    def test_every_table1_bug_has_paper_row(self):
        missing = [pair for pair in table1_bugs() if pair not in TABLE1]
        assert missing == []

    def test_every_table2_bug_has_paper_row(self):
        missing = [pair for pair in table2_bugs() if pair not in TABLE2]
        assert missing == []

    def test_paper_rows_reference_real_apps(self):
        for app_name, bug in list(TABLE1) + list(TABLE2):
            cls = get_app(app_name)
            assert bug in cls.bugs, (app_name, bug)

    def test_section5_has_eight_orders(self):
        assert len(SECTION5) == 8


class TestTableBuilders:
    def test_table2_small(self):
        rows = build_table2(n=4)
        assert len(rows) == 6
        for row in rows:
            assert row.probability >= 0.75
            assert row.mtte is not None
        text = render(rows)
        assert "MTTE" in text and "pbzip2" in text

    def test_section5_small(self):
        rows = build_section5(n=6)
        assert len(rows) == 8
        by_label = {r.order: r for r in rows}
        assert by_label["236 -> 309"].stall_pct >= 80
        assert by_label["309 -> 236"].stall_pct <= 20
        assert "Stall" in render(rows)

    def test_section62_small(self):
        rows = build_section62(n=8)
        assert len(rows) == 4
        hedc_rows = [r for r in rows if r.label.startswith("hedc")]
        assert hedc_rows[1].probability >= hedc_rows[0].probability

    def test_section63_small(self):
        rows = build_section63(n=6)
        assert len(rows) == 6  # 3 cases x (unrefined, refined)
        # cache4j refined run is much faster than unrefined.
        unrefined, refined = rows[0], rows[1]
        assert "cache4j" in unrefined.label and "without" in unrefined.label
        assert refined.runtime < unrefined.runtime

    @pytest.mark.slow
    def test_table1_two_rows_sample(self):
        rows = [r for r in build_table1(n=5) if r.app == "stringbuffer"]
        assert rows and rows[0].probability >= 0.8

    def test_render_empty(self):
        assert render([]) == "(no rows)"


class TestReportGeneration:
    def test_markdown_report(self):
        from repro.harness import generate_report

        text = generate_report(trials=4, markdown=True)
        assert "# Concurrent Breakpoints" in text
        assert "## Table 1" in text and "## Table 2" in text
        assert "| cache4j |" in text
        assert "236 -> 309" in text
        assert "Localised culprit order(s): ['236 -> 309']" in text

    def test_plain_report(self):
        from repro.harness import generate_report

        text = generate_report(trials=4, markdown=False)
        assert "Benchmark" in text and "|" not in text.splitlines()[0]


class TestExploreModes:
    def test_sleep_sets_without_dpor_refused_before_any_cache_lookup(self):
        class NoLookups:
            def explore(self, *args, **kwargs):
                raise AssertionError("the cache must not be consulted")

        with pytest.raises(ValueError, match="sleep_sets requires dpor"):
            explore_app("figure4", "error1", sleep_sets=True, max_schedules=4)
        with pytest.raises(ValueError, match="sleep_sets requires dpor"):
            explore_summary("figure4", "error1", sleep_sets=True,
                            max_schedules=4, cache=NoLookups())
