"""The ``python -m repro`` command-line interface."""

import subprocess
import sys

import pytest

from repro.__main__ import main


def run_cli(*argv):
    return main(list(argv))


class TestList:
    def test_lists_apps_and_bugs(self, capsys):
        assert run_cli("list") == 0
        out = capsys.readouterr().out
        assert "jigsaw" in out and "deadlock1" in out
        assert "pbzip2" in out and "crash1" in out


class TestRun:
    def test_single_run_reports_outcome(self, capsys):
        assert run_cli("run", "stringbuffer", "atomicity1", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert "bug reproduced : True" in out
        assert "exception" in out

    def test_trials_mode(self, capsys):
        assert run_cli("run", "figure4", "error1", "--trials", "5", "--timeout", "0.2") == 0
        out = capsys.readouterr().out
        assert "reproduced 5/5" in out

    def test_no_bp_flag(self, capsys):
        assert run_cli("run", "stringbuffer", "atomicity1", "--no-bp", "--trials", "5") == 0
        out = capsys.readouterr().out
        assert "reproduced 0/5" in out

    def test_unknown_bug_is_an_error(self, capsys):
        assert run_cli("run", "stringbuffer", "nope") == 2
        assert "error" in capsys.readouterr().out

    def test_unknown_app_is_an_error(self, capsys):
        assert run_cli("run", "nosuchapp", "bug") == 2
        assert "error" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("run", "figure4", "error1", "--trials", "-3"),
    ("run", "figure4", "error1", "--trials", "0"),
    ("table1", "--trials", "-3"),
    ("report", "--trials", "0"),
    ("metrics", "figure4", "--trials", "-1"),
    ("infer", "bank", "--trials", "0"),
    ("submit", "figure4", "error1", "--trials", "-3"),
], ids=["run-negative", "run-zero", "table1", "report", "metrics", "infer", "submit"])
def test_trials_below_one_exits_2(argv, capsys):
    """Every --trials flag refuses a count below 1 with the usage exit
    code, as JobSpec refuses trials <= 0."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "trials must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ("explore", "figure4", "--max-schedules", "0"),
    ("explore", "bank", "lost_update", "--bound-preemptions", "-1"),
    ("explore", "bank", "--sleep-sets"),
    ("explore", "bank", "--workers", "2"),
    ("run", "figure4", "nope"),
    ("run", "figure4", "nope", "--no-bp", "--trials", "3"),
    ("explore", "bank", "nope"),
    ("run", "nosuchapp", "bug"),
    ("explore", "nosuchapp"),
    ("infer", "nosuchapp"),
], ids=["max-schedules-0", "negative-bound", "sleep-sets-without-dpor",
        "workers-without-dpor", "run-unknown-bug", "run-unknown-bug-no-bp",
        "explore-unknown-bug", "run-unknown-app", "explore-unknown-app",
        "infer-unknown-app"])
def test_a_job_command_and_its_submit_twin_refuse_alike(command, monkeypatch, capsys):
    """A job command and ``submit --kind`` build one JobSpec and check it
    once, so both refuse an invalid job with exit 2 and submit nothing."""
    from repro.svc import ReproClient

    def no_submit(self, spec):
        raise AssertionError(f"submitted {spec!r}")

    monkeypatch.setattr(ReproClient, "submit", no_submit)
    name, *args = command
    kind = "trials" if name == "run" else name
    twin = ("submit", *args, "--kind", kind, "--server", "http://127.0.0.1:9")
    for argv in (command, twin):
        assert run_cli(*argv) == 2, argv
        assert "error" in capsys.readouterr().out


class TestTables:
    def test_section62_table(self, capsys):
        assert run_cli("section62", "--trials", "5") == 0
        out = capsys.readouterr().out
        assert "hedc/race1" in out and "swing/deadlock1" in out

    def test_table2(self, capsys):
        assert run_cli("table2", "--trials", "3") == 0
        out = capsys.readouterr().out
        assert "MTTE" in out


def test_module_entrypoint_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "pool", "missed-notify1", "--trials", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "reproduced 3/3" in proc.stdout


def test_timeline_flag(capsys):
    assert run_cli("run", "stringbuffer", "atomicity1", "--timeline") == 0
    out = capsys.readouterr().out
    assert "Timeline around the breakpoints" in out
    assert "trigger" in out


class TestSuiteCommand:
    def test_text_render(self, capsys):
        assert run_cli("suite", "jigsaw", "deadlock1") == 0
        out = capsys.readouterr().out
        assert "SocketClientFactory.java:626" in out

    def test_json_render(self, capsys):
        import json

        assert run_cli("suite", "pbzip2", "crash1", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["breakpoints"]) == 2

    def test_unknown_suite(self, capsys):
        assert run_cli("suite", "jigsaw", "nope") == 2

    def test_unknown_app_is_an_error(self, capsys):
        assert run_cli("suite", "nosuchapp", "bug") == 2
        assert "no suite" in capsys.readouterr().out

    def test_json_shape_carries_full_breakpoint_specs(self, capsys):
        import json

        assert run_cli("suite", "jigsaw", "deadlock1", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["program"] == "jigsaw" and payload["bug_id"] == "deadlock1"
        assert payload["breakpoints"]
        for bp in payload["breakpoints"]:
            assert {"name", "kind", "loc_first", "loc_second", "timeout"} <= set(bp)

    def test_text_render_names_both_locations(self, capsys):
        assert run_cli("suite", "pbzip2", "crash1") == 0
        out = capsys.readouterr().out
        assert out.count(":") >= 2  # two file:line locations per breakpoint


def test_report_command(tmp_path, capsys):
    out_file = tmp_path / "report.md"
    assert run_cli("report", "--trials", "4", "--out", str(out_file)) == 0
    assert "wrote" in capsys.readouterr().out
    assert "## Table 1" in out_file.read_text()


class TestAnalyzeCommand:
    def test_detectors_over_traced_run(self, capsys):
        assert run_cli("analyze", "jigsaw", "--seed", "2") == 0
        out = capsys.readouterr().out
        assert "finding(s)" in out
        assert "Potential deadlocks" in out

    def test_header_names_run_summary(self, capsys):
        assert run_cli("analyze", "jigsaw", "--seed", "2") == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "jigsaw seed=2 bug=None" in header

    def test_with_bug_activated(self, capsys):
        assert run_cli("analyze", "stringbuffer", "--bug", "atomicity1") == 0
        out = capsys.readouterr().out
        assert "bug=atomicity1" in out and "finding(s)" in out

    def test_unknown_app_is_an_error(self, capsys):
        assert run_cli("analyze", "nosuchapp") == 2
        assert "unknown app" in capsys.readouterr().out

    def test_unknown_bug_is_an_error(self, capsys):
        assert run_cli("analyze", "jigsaw", "--bug", "nope") == 2
        assert "has no bug" in capsys.readouterr().out


class TestMetricsCommand:
    def test_single_run_prints_registry_json(self, capsys):
        import json

        assert run_cli("metrics", "stringbuffer", "--bug", "atomicity1") == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["engine.matches"]["value"] >= 1
        assert snap["kernel.runs"]["value"] == 1

    def test_trials_mode_merges(self, capsys):
        import json

        assert run_cli("metrics", "stringbuffer", "--bug", "atomicity1",
                       "--trials", "4") == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["harness.trials"]["value"] == 4
        assert snap["kernel.runs"]["value"] == 4

    def test_out_file(self, tmp_path, capsys):
        import json

        out = tmp_path / "m.json"
        assert run_cli("metrics", "figure4", "--bug", "error1",
                       "--out", str(out)) == 0
        assert "wrote metrics" in capsys.readouterr().out
        assert "kernel.steps" in json.loads(out.read_text())

    def test_unknown_bug_is_an_error(self, capsys):
        assert run_cli("metrics", "stringbuffer", "--bug", "nope") == 2
        assert "error" in capsys.readouterr().out


class TestExportTraceCommand:
    def test_chrome_to_stdout(self, capsys):
        import json

        assert run_cli("export-trace", "stringbuffer", "--bug", "atomicity1",
                       "--seed", "3") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["otherData"]["schema"] == "repro.trace/1"
        assert any(e["ph"] == "i" for e in doc["traceEvents"])

    def test_jsonl_file_is_replayable(self, tmp_path, capsys):
        from repro.obs import load_jsonl, replay_recorded

        path = tmp_path / "t.jsonl"
        assert run_cli("export-trace", "stringbuffer", "--bug", "atomicity1",
                       "--seed", "3", "--format", "jsonl",
                       "--out", str(path)) == 0
        assert "wrote jsonl trace" in capsys.readouterr().out
        loaded = load_jsonl(str(path))
        assert loaded.replayable()
        rerun = replay_recorded(loaded.meta)
        assert len(rerun.result.trace) == len(loaded.trace)

    def test_unknown_bug_is_an_error(self, capsys):
        assert run_cli("export-trace", "stringbuffer", "--bug", "nope") == 2


class TestMetricsOutFlag:
    def test_run_single(self, tmp_path, capsys):
        import json

        out = tmp_path / "m.json"
        assert run_cli("run", "stringbuffer", "atomicity1",
                       "--metrics-out", str(out)) == 0
        assert "wrote metrics" in capsys.readouterr().out
        assert json.loads(out.read_text())["engine.matches"]["value"] >= 1

    def test_run_trials(self, tmp_path, capsys):
        import json

        out = tmp_path / "m.json"
        assert run_cli("run", "figure4", "error1", "--trials", "3",
                       "--metrics-out", str(out)) == 0
        assert json.loads(out.read_text())["harness.trials"]["value"] == 3

    def test_report_collects_across_tables(self, tmp_path, capsys):
        import json

        md = tmp_path / "r.md"
        metrics = tmp_path / "m.json"
        assert run_cli("report", "--trials", "2", "--out", str(md),
                       "--metrics-out", str(metrics)) == 0
        snap = json.loads(metrics.read_text())
        # Many sweeps fold into one ambient registry.
        assert snap["harness.trials"]["value"] > 2


class TestServeAndSubmit:
    @pytest.fixture()
    def service(self):
        from repro.svc import ReproService

        svc = ReproService(slots=2, queue_size=8).start()
        yield svc
        svc.close()

    def test_submit_trials_prints_like_run(self, service, capsys):
        assert run_cli("submit", "figure4", "error1", "--trials", "4",
                       "--timeout", "0.2", "--server", service.address) == 0
        out = capsys.readouterr().out
        assert "reproduced 4/4" in out
        assert "job-" in out

    def test_submit_explore_prints_like_explore(self, service, capsys):
        assert run_cli("submit", "bank", "lost_update", "--kind", "explore",
                       "--dpor", "--sleep-sets", "--server", service.address) == 0
        out = capsys.readouterr().out
        assert "schedules" in out and "sleep-set prunes" in out

    def test_submit_bounded_explore_prints_bounding(self, service, capsys):
        assert run_cli("submit", "bank", "lost_update", "--kind", "explore",
                       "--dpor", "--bound-preemptions", "1",
                       "--server", service.address) == 0
        out = capsys.readouterr().out
        assert "bounding" in out and "preemptions <= 1" in out
        assert "preemption cuts" in out

    @pytest.mark.parametrize("command", [
        ("run", "figure4", "error1", "--trials", "4", "--timeout", "0.2"),
        ("explore", "figure4", "error1", "--max-schedules", "40"),
        ("explore", "bank", "lost_update", "--max-schedules", "5"),
        ("explore", "bank", "lost_update", "--dpor", "--bound-preemptions", "1"),
    ], ids=["trials", "explore-witnesses", "explore-capped", "explore-bounded-dpor"])
    def test_submit_prints_exactly_like_the_local_command(self, service, capsys, command):
        name, *args = command
        assert run_cli(name, *args) == 0
        local = capsys.readouterr().out
        kind = "trials" if name == "run" else name
        assert run_cli("submit", *args, "--kind", kind, "--server", service.address) == 0
        *remote, job = capsys.readouterr().out.splitlines(keepends=True)
        assert job.startswith("  job            : ")
        assert "".join(remote) == local

    def test_a_capped_sharded_walk_says_its_cap_is_per_shard(self, service, capsys):
        # Each shard's walk stops at --max-schedules, so the walk as a
        # whole may explore more than the cap; submit prints it alike.
        args = ("bank", "lost_update", "--dpor", "--workers", "2", "--max-schedules", "50")
        assert run_cli("explore", *args) == 0
        local = capsys.readouterr().out
        assert "(capped at 50 per shard, stateless pool)" in local
        assert run_cli("submit", *args, "--kind", "explore", "--server", service.address) == 0
        *remote, _job = capsys.readouterr().out.splitlines(keepends=True)
        assert "".join(remote) == local

    def test_submit_unknown_bug_is_an_error(self, service, capsys):
        assert run_cli("submit", "figure4", "nope", "--server",
                       service.address) == 2
        assert "error" in capsys.readouterr().out

    def test_submit_unreachable_server_is_an_error(self, capsys):
        assert run_cli("submit", "figure4", "error1",
                       "--server", "http://127.0.0.1:9") == 2
        assert "cannot reach" in capsys.readouterr().out

    def test_submit_negative_workers_exits_2(self, monkeypatch, capsys):
        # The daemon's CPU count is not the client's to know: a negative
        # count is refused before anything reaches the wire.
        from repro.svc import ReproClient

        def no_submit(self, spec):
            raise AssertionError(f"submitted {spec!r}")

        monkeypatch.setattr(ReproClient, "submit", no_submit)
        with pytest.raises(SystemExit) as exc:
            run_cli("submit", "figure4", "error1", "--workers", "-1",
                    "--server", "http://127.0.0.1:9")
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestExplore:
    def test_plain_exploration(self, capsys):
        assert run_cli("explore", "figure4", "--max-schedules", "12") == 0
        out = capsys.readouterr().out
        assert "schedules" in out and "bug hit" in out

    def test_dpor_with_sleep_sets(self, capsys):
        assert run_cli("explore", "bank", "lost_update", "--dpor",
                       "--sleep-sets", "--max-schedules", "2000") == 0
        out = capsys.readouterr().out
        assert "sleep-set prunes" in out
        assert "complete" in out

    def test_dpor_sharded_workers(self, capsys):
        assert run_cli("explore", "bank", "lost_update", "--dpor",
                       "--sleep-sets", "--workers", "2",
                       "--max-schedules", "2000") == 0
        out = capsys.readouterr().out
        assert "dpor" in out

    def test_negative_workers_mean_one_per_cpu(self, monkeypatch, capsys):
        import repro.harness
        from repro.harness import default_workers

        seen = {}
        real = repro.harness.explore_summary

        def spy(*args, **kwargs):
            seen["workers"] = kwargs["workers"]
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.harness, "explore_summary", spy)
        assert run_cli("explore", "bank", "lost_update", "--dpor",
                       "--sleep-sets", "--workers", "-1",
                       "--max-schedules", "2000") == 0
        assert seen["workers"] == default_workers()
        assert "dpor" in capsys.readouterr().out

    def test_snapshots_flag_is_rejected(self, capsys):
        # The fork snapshot executor and its flag are gone: argparse
        # refuses the unknown option with its usage exit code.
        with pytest.raises(SystemExit) as exc:
            run_cli("explore", "figure4", "--snapshots", "--max-schedules", "12")
        assert exc.value.code == 2
        assert "--snapshots" in capsys.readouterr().err

    def test_timed_app_rejected_for_dpor(self, capsys):
        assert run_cli("explore", "figure4", "--dpor") == 2
        assert "error" in capsys.readouterr().out

    def test_sleep_sets_require_dpor(self, capsys):
        assert run_cli("explore", "bank", "--sleep-sets") == 2

    def test_unknown_bug_is_an_error(self, capsys):
        assert run_cli("explore", "bank", "nope") == 2

    def test_bounded_exploration_reports_cuts(self, capsys):
        assert run_cli("explore", "bank", "lost_update", "--dpor",
                       "--bound-preemptions", "1",
                       "--max-schedules", "2000") == 0
        out = capsys.readouterr().out
        assert "bounding" in out and "preemptions <= 1" in out
        assert "preemption cuts" in out

    def test_variable_bound_flag(self, capsys):
        assert run_cli("explore", "bank", "lost_update", "--dpor",
                       "--bound-variables", "0",
                       "--max-schedules", "2000") == 0
        out = capsys.readouterr().out
        assert "variables <= 0" in out and "variable" in out

    def test_huge_bound_output_matches_unbounded_counts(self, capsys):
        assert run_cli("explore", "bank", "lost_update", "--dpor",
                       "--max-schedules", "2000") == 0
        plain = capsys.readouterr().out
        assert run_cli("explore", "bank", "lost_update", "--dpor",
                       "--bound-preemptions", "1000000",
                       "--max-schedules", "2000") == 0
        bounded = capsys.readouterr().out
        pick = lambda out: [l for l in out.splitlines()
                            if "schedules" in l or "bug hit" in l]
        assert pick(bounded) == pick(plain)
        assert "cuts: 0 preemption, 0 variable" in bounded

    def test_negative_bound_is_an_error(self, capsys):
        assert run_cli("explore", "bank", "lost_update",
                       "--bound-preemptions", "-1") == 2
        assert "error" in capsys.readouterr().out
        assert run_cli("explore", "bank", "lost_update",
                       "--bound-variables", "-2") == 2
