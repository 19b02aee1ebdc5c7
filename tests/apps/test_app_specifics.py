"""App-specific behaviours: the properties each subject was built to show."""

import statistics

import pytest

from repro.apps import (
    AppConfig,
    Cache4jApp,
    Figure4App,
    HedcApp,
    HttpdApp,
    JigsawApp,
    Log4jApp,
    MoldynApp,
    MySQL32356App,
    MySQL4019App,
    Pbzip2App,
    RayTracerApp,
    StringBufferApp,
    SwingApp,
    SECTION5_PAIRS,
)


def prob(cls, bug, n=20, **kw):
    hits = 0
    for seed in range(n):
        hits += cls(AppConfig(bug=bug, **kw)).run(seed=seed).bug_hit
    return hits / n


class TestStringBuffer:
    def test_exception_is_index_error_symptom(self):
        run = StringBufferApp(AppConfig(bug="atomicity1")).run(seed=0)
        assert run.error == "exception"

    def test_run_completes_despite_violation(self):
        run = StringBufferApp(AppConfig(bug="atomicity1")).run(seed=0)
        assert run.result.completed  # harness catches, like the paper's driver


class TestCache4j:
    def test_ignore_first_scaled_comment_recorded(self):
        assert "ignoreFirst" in Cache4jApp.bugs["atomicity1"].comments

    def test_unrefined_constructor_breakpoint_is_expensive(self):
        refined = Cache4jApp(AppConfig(bug="atomicity1")).run(seed=0).runtime
        unrefined = Cache4jApp(
            AppConfig(bug="atomicity1", use_policies=False)
        ).run(seed=0).runtime
        assert unrefined > 5 * refined  # Section 6.3's cache4j story


class TestHedc:
    def test_pause_time_raises_probability(self):
        p_short = prob(HedcApp, "race1", n=30, timeout=0.1)
        p_long = prob(HedcApp, "race1", n=30, timeout=1.0)
        assert p_long > p_short
        assert p_long >= 0.95
        assert 0.6 <= p_short <= 1.0


class TestSwing:
    def test_pause_time_raises_probability(self):
        p_short = prob(SwingApp, "deadlock1", n=30, timeout=0.1, use_policies=False)
        p_long = prob(SwingApp, "deadlock1", n=30, timeout=1.0, use_policies=False)
        assert p_long > p_short >= 0.3

    def test_lock_type_refinement_cuts_runtime_not_probability(self):
        def stats(use_policies):
            hits, rts = 0, []
            for seed in range(20):
                r = SwingApp(AppConfig(bug="deadlock1", use_policies=use_policies)).run(seed=seed)
                hits += r.bug_hit
                rts.append(r.runtime)
            return hits, statistics.mean(rts)

        hits_ref, rt_ref = stats(True)
        hits_raw, rt_raw = stats(False)
        assert rt_ref < rt_raw * 0.7
        assert abs(hits_ref - hits_raw) <= 4


class TestMoldyn:
    def test_bound_cuts_repeated_trigger_cost(self):
        bounded = statistics.mean(
            MoldynApp(AppConfig(bug="race1")).run(seed=s).runtime for s in range(10)
        )
        unbounded = statistics.mean(
            MoldynApp(AppConfig(bug="race1", use_policies=False)).run(seed=s).runtime
            for s in range(10)
        )
        assert unbounded > bounded

    def test_oracle_checks_exact_accumulation(self):
        run = MoldynApp(AppConfig(bug=None)).run(seed=0)
        assert run.error is None  # deterministic serial sums match


class TestRayTracer:
    def test_race1_fails_validation(self):
        run = RayTracerApp(AppConfig(bug="race1")).run(seed=1)
        assert run.error == "test fail"

    def test_clean_run_passes_validation(self):
        run = RayTracerApp(AppConfig(bug=None)).run(seed=1)
        assert run.error is None


class TestJigsaw:
    def test_all_five_bugs_stall_or_report(self):
        for bug in JigsawApp.bugs:
            run = JigsawApp(AppConfig(bug=bug)).run(seed=0)
            assert run.bug_hit, bug

    def test_deadlock1_produces_wait_cycle(self):
        run = JigsawApp(AppConfig(bug="deadlock1")).run(seed=0)
        assert run.result.deadlocked
        assert run.result.deadlock.cycle


class TestLog4jSection5:
    def test_order_asymmetry_for_236_309(self):
        fwd = prob(Log4jApp, "pair_236_309", n=20, flip_order=False)
        rev = prob(Log4jApp, "pair_236_309", n=20, flip_order=True)
        assert fwd >= 0.85
        assert rev <= 0.1

    def test_pair_277_309_stalls_without_bp_hit(self):
        stalls = hits = 0
        for seed in range(20):
            r = Log4jApp(AppConfig(bug="pair_277_309")).run(seed=seed)
            stalls += r.bug_hit
            hits += r.bp_hit()
        assert stalls >= 12
        assert hits <= 2

    def test_section5_grid_is_the_paper_grid(self):
        labels = [label for _, _, label in SECTION5_PAIRS]
        assert labels == [
            "100 -> 309", "309 -> 100", "236 -> 309", "309 -> 236",
            "100 -> 236", "236 -> 100", "309 -> 277", "277 -> 309",
        ]


class TestFigure4:
    def test_error_requires_long_enough_pause(self):
        p_tiny = prob(Figure4App, "error1", n=20, timeout=0.005)
        p_big = prob(Figure4App, "error1", n=20, timeout=0.2)
        assert p_tiny <= 0.1
        assert p_big >= 0.9

    def test_error_line_semantics(self):
        app = Figure4App(AppConfig(bug="error1", timeout=0.2))
        run = app.run(seed=0)
        assert run.error == "ERROR"
        assert app.error_reached


class TestCPrograms:
    def test_pbzip2_crash_is_a_thread_failure(self):
        run = Pbzip2App(AppConfig(bug="crash1")).run(seed=0)
        assert run.error == "program crash"
        assert any("SIGSEGV" in str(f.exc) for f in run.result.failures)

    def test_pbzip2_needs_both_breakpoints(self):
        spec = Pbzip2App.bugs["crash1"]
        assert spec.n_breakpoints == 2

    def test_httpd_log_corruption_detected_at_write_time(self):
        run = HttpdApp(AppConfig(bug="logcorrupt1")).run(seed=0)
        assert run.error == "log corruption"
        assert run.error_time is not None and run.error_time < run.runtime + 1e-9

    def test_mysql_disorder_binlog_out_of_order(self):
        app = MySQL32356App(AppConfig(bug="logdisorder1"))
        run = app.run(seed=0)
        assert run.bug_hit
        assert app.binlog != sorted(app.binlog)

    def test_mysql_crash_mtte_is_late(self):
        """Bug #3596 manifests late in the uptime (paper MTTE 2.67 s)."""
        run = MySQL4019App(AppConfig(bug="crash1")).run(seed=0)
        assert run.bug_hit
        assert run.error_time > 1.5

    def test_mtte_scales_with_flush_time(self):
        early = MySQL4019App(AppConfig(bug="crash1", params={"flush_at": 0.5})).run(seed=0)
        late = MySQL4019App(AppConfig(bug="crash1", params={"flush_at": 2.4})).run(seed=0)
        assert early.bug_hit and late.bug_hit
        assert early.error_time < late.error_time


class TestRayTracerRendering:
    def test_scene_actually_renders_geometry(self):
        """The subject is a real renderer: sphere pixels are brighter than
        background, and the image is not constant."""
        app = RayTracerApp(AppConfig())
        app.run(seed=0)
        assert max(app.row_sums) > min(app.row_sums) * 1.2
        # Background-only shading would be 0.05 * width per row.
        assert max(app.row_sums) > 0.05 * app.width * 1.5

    def test_checksum_is_schedule_independent_when_locked(self):
        sums = set()
        for seed in range(5):
            app = RayTracerApp(AppConfig())
            app.run(seed=seed)
            sums.add(app.expected_checksum)
        assert len(sums) == 1  # deterministic scene

    def test_reference_render_runs_once_per_size(self, monkeypatch):
        """setup reads a per-size reference instead of re-rendering: a
        20-trial sweep renders each row once, another size gets its own
        rows, and what every run shares is an immutable tuple."""
        from repro.apps.raytracer import _reference_row_sums
        from repro.harness import run_trials

        _reference_row_sums.cache_clear()
        render = RayTracerApp._render_row
        calls = []

        def counting(self, y):
            calls.append((self.width, self.height, y))
            return render(self, y)

        monkeypatch.setattr(RayTracerApp, "_render_row", counting)
        run_trials(RayTracerApp, n=20, bug="race1")
        assert calls == [(32, 24, y) for y in range(24)]

        small = RayTracerApp(AppConfig(bug="race1", params={"width": 16, "height": 12}))
        small.run(seed=0)
        assert calls[24:] == [(16, 12, y) for y in range(12)]
        full = RayTracerApp(AppConfig(bug="race1"))
        full.run(seed=0)
        assert len(calls) == 24 + 12

        for app, h in ((full, 24), (small, 12)):
            assert isinstance(app.row_sums, tuple)
            assert list(app.row_sums) == [app._render_row(y) for y in range(h)]
        assert small.row_sums != full.row_sums[:12]


class TestCache4jLRU:
    def test_eviction_keeps_capacity(self):
        app = Cache4jApp(AppConfig(params={"ops": 40}))
        app.run(seed=0)
        assert len(app.lru_order) <= app.CAPACITY

    def test_eviction_happens_under_pressure(self):
        app = Cache4jApp(AppConfig(params={"ops": 40, "workers": 3}))
        app.run(seed=0)
        assert app.evictions > 0
        # Evicted keys are really gone from the store.
        for key in app.lru_order:
            assert key in app.store or key.startswith("warm")

    def test_recency_order_most_recent_last(self):
        app = Cache4jApp(AppConfig())
        app.run(seed=1)
        assert app.last_key is None or app.lru_order == [] or (
            app.last_key in app.lru_order or app.last_key not in app.store
        )
        # No duplicates in the recency list.
        assert len(app.lru_order) == len(set(app.lru_order))
