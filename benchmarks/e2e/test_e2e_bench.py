"""Unit checks of the end-to-end benchmark's own logic.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  The
benchmark itself (``run.py``) is not run here: these tests cover the
statistics, the seeded job streams, the metric names, the span
arithmetic and the wrapped call sites.
"""

import importlib
import itertools
import json
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import jobs
import metrics
import spans

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _rounds(workload, seed, n=2):
    """The first ``n`` rounds, as JSON specs."""
    return [[spec.to_json() for spec in round_]
            for round_ in itertools.islice(jobs.rounds(workload, seed), n)]


def _shape(spec, drop=("seed", "base_seed")):
    return {k: v for k, v in spec.items() if k not in drop}


# -- statistics -------------------------------------------------------------


def test_percentile_interpolates_between_closest_ranks():
    values = list(range(1, 101))
    assert metrics.percentile(values, 50) == pytest.approx(50.5)
    assert metrics.percentile(values, 90) == pytest.approx(90.1)
    assert metrics.percentile([3.0], 90) == 3.0
    assert metrics.percentile([4, 1, 3, 2], 0) == 1


def test_per_position_median_and_summary():
    latency = metrics.per_position([(0, 2.0), (1, 1.0), (0, 1.0), (1, 3.0), (0, 0.5), (2, 0.5)])
    assert latency == {0: 1.0, 1: 2.0, 2: 0.5}
    summary = metrics.latency_summary(latency)
    # A round of 3 jobs takes 3.5 s.
    assert summary["jobs_per_s"] == pytest.approx(3 / 3.5)
    assert summary["job_p50_s"] == 1.0
    assert summary["job_p90_s"] == pytest.approx(1.8)


def test_normalize_scales_by_the_reference_samples_around_each_interval():
    ref = metrics.REF_SECONDS
    samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 3 * ref)]
    out = metrics.normalize([(0.0, 1.0), (0.5, 1.5), (1.0, 2.0), (2.5, 3.0), (-1.0, -0.5)],
                            samples)
    assert out == pytest.approx([1.0 / 1.5, 1.0 / 2.0, 1.0 / 2.5, 0.5 / 3.0, 0.5 / 1.0])


def test_reference_pass_is_timed():
    assert 0 < metrics.reference_pass() < 1.0


def test_p90_needs_100_samples_for_ten_beyond_it():
    assert metrics.tail_samples(100, 90) == 10
    assert metrics.tail_samples(90, 90) < 10
    assert metrics.tail_samples(1000, 50) == 500
    assert all(metrics.tail_samples(n, 90) >= 10 for n in range(100, 400))


def test_spread_and_bound_rule():
    med, q1, q3, rel = metrics.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (med, q1, q3) == (3.0, 1.5, 4.5)
    assert rel == pytest.approx(1.0)
    assert metrics.suggested_bound(0.001) == 0.03
    assert metrics.suggested_bound(0.04) == pytest.approx(0.08)


# -- job streams ------------------------------------------------------------


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    assert _rounds(workload, 3) == _rounds(workload, 3)
    assert _rounds(workload, 3) != _rounds(workload, 4)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_round_shapes_repeat_and_do_not_depend_on_the_seed(workload):
    # svc_warm sweeps grow by 10 seeds per extension, up to WARM_MAX_N.
    drop = ("seed", "base_seed", "trials") if workload == "svc_warm" else ("seed", "base_seed")
    shapes = [sorted(json.dumps(_shape(spec, drop), sort_keys=True) for spec in round_)
              for seed in (3, 4) for round_ in _rounds(workload, seed, 3)]
    assert all(s == shapes[0] for s in shapes)


@pytest.mark.parametrize("workload", ["trials", "explore", "svc_cold"])
def test_positions_keep_their_shape(workload):
    rounds = _rounds(workload, 0, 3)
    assert all([_shape(s) for s in r] == [_shape(s) for s in rounds[0]] for r in rounds)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_round_has_at_least_100_latency_samples(workload):
    assert len(_rounds(workload, 0, 1)[0]) >= 100


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generated_jobs_are_valid(workload):
    for spec in next(jobs.rounds(workload, 0)):
        spec.validate()


def test_svc_cold_jobs_never_share_a_result():
    specs = [json.dumps(spec, sort_keys=True)
             for round_ in _rounds("svc_cold", 0, 5) for spec in round_]
    assert len(set(specs)) == len(specs)


def test_svc_warm_round_mix():
    kinds = [spec.kind for spec in jobs.warm_configs(0)]
    assert (kinds.count("trials"), kinds.count("explore")) == (48, 16)
    counts = jobs.resubmit_counts(64)
    assert sum(counts) == jobs.WARM_RESUBMITS and counts == sorted(counts, reverse=True)
    assert len(_rounds("svc_warm", 0, 1)[0]) == jobs.WARM_RESUBMITS + 48


def test_svc_warm_extensions_are_partial_hits():
    spec = jobs.warm_configs(0)[0]
    seen = set(range(spec.base_seed, spec.base_seed + spec.trials))
    for _ in range(12):
        spec = jobs.extend(spec)
        wanted = set(range(spec.base_seed, spec.base_seed + spec.trials))
        assert len(wanted - seen) == jobs.WARM_STEP and wanted & seen
        seen |= wanted
    assert spec.trials == jobs.WARM_MAX_N


# -- metric names -----------------------------------------------------------


def test_metric_names_are_well_formed():
    for name in [*metrics.E2E, *metrics.PER_LAYER]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name) and len(name) <= 64, name
        assert name[0].isalnum(), name
    assert not set(metrics.E2E) & set(metrics.PER_LAYER)


def test_benchmark_json_names_equal_the_emitted_names():
    doc = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(jobs.WORKLOADS)
    for key, table in (("end_to_end", metrics.E2E), ("per_layer", metrics.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in doc[key]} == {
            name: (m.unit, m.better) for name, m in table.items()
        }
    emitted = metrics.emit({name: 1.0 for name in metrics.E2E}, metrics.E2E)
    assert list(emitted) == [m["name"] for m in doc["end_to_end"]]
    with pytest.raises(ValueError):
        metrics.emit({"setup_s": 1.0}, metrics.E2E)


def test_layer_shares_partition_the_job_wall():
    own = {"bench": 0.5, "svc.client": 9.5, "cache": 1.0, "svc.worker": 0.25,
           "harness": 0.75, "apps": 1.0, "sim.kernel": 2.0}
    shares = metrics.shares(own, root_total=10.0, client_total=9.5, latency=7.0,
                            queue_wait=1.5, lookup=0.5, worker=4.5)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["svc.client.transport_frac"] == pytest.approx(0.25)
    assert shares["svc.pool.dispatch_frac"] == pytest.approx(0.05)


# -- spans ------------------------------------------------------------------


def _span(name, start, end, sid, parent, layer="x", pid=1):
    return spans.Span(name, layer, start, end, sid, parent, pid, 0, None, {})


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("root", 0.0, 10.0, 1, 0, "bench"),
        _span("a", 1.0, 6.0, 2, 1, "harness"),
        _span("b", 2.0, 5.0, 3, 2, "apps"),
        _span("c", 3.0, 4.0, 4, 3, "sim.kernel"),
        _span("d", 7.0, 9.0, 5, 1, "harness"),
        _span("other", 0.0, 1.0, 2, 0, "bench", pid=2),
    ]
    own = spans.self_times(tree)
    assert own[(1, 1)] == pytest.approx(3.0)
    assert own[(1, 2)] == pytest.approx(2.0)
    assert own[(1, 3)] == pytest.approx(2.0)
    assert own[(1, 4)] == pytest.approx(1.0)
    assert own[(2, 2)] == pytest.approx(1.0)
    layers = spans.layer_self(tree)
    assert layers == pytest.approx({"bench": 4.0, "harness": 4.0, "apps": 2.0, "sim.kernel": 1.0})
    assert sum(layers.values()) == pytest.approx(11.0)
    assert [s.name for s in spans.within(tree, 1.0, 6.0)] == ["a", "b", "c"]


def test_every_wrapped_call_site_exists():
    for name, (layer, sites) in spans.SITES.items():
        values = [spans.resolve_site(site)[2] for site in sites]
        assert all(callable(v) for v in values), name
        assert len({id(v) for v in values}) == 1, f"{name}: sites bind different objects"
        assert layer in metrics.SHARE_LAYERS.values(), layer


def test_sites_name_every_binding_of_a_wrapped_function():
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    for name, (_, sites) in spans.SITES.items():
        if any("." in site.partition(":")[2] for site in sites):
            continue  # methods are patched once, on their class
        original = spans.resolve_site(sites[0])[2]
        bound = {f"{module}:{attr}" for module, mod in list(sys.modules.items())
                 if module.startswith("repro") and mod is not None
                 for attr, value in vars(mod).items() if value is original}
        assert bound == set(sites), name


def test_installed_wrappers_record_nested_spans(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "_installed", None)
    spans.write_flag(tmp_path, True)
    recorder = spans.install(tmp_path, patch=monkeypatch.setattr)
    for name, (_, sites) in spans.SITES.items():
        for site in sites:
            assert spans.resolve_site(site)[2].__wrapped_span__ == name
    spec = jobs.JobSpec(kind="trials", app="figure4", bug="error1", trials=3)
    with recorder.span(spans.ROOT_SPAN, spans.ROOT_LAYER, "t.0"):
        jobs.direct(spec)
    recorder.set_enabled(False)
    jobs.direct(spec)
    recorded = spans.load(tmp_path)
    names = [s.name for s in recorded]
    assert names.count("sim.kernel.Kernel.run") == 3
    assert names.count(spans.ROOT_SPAN) == 1
    assert all(s.job == "t.0" for s in recorded)
    root = next(s for s in recorded if s.name == spans.ROOT_SPAN)
    assert sum(spans.layer_self(recorded).values()) == pytest.approx(root.duration)
    assert sum(s.attrs["steps"] for s in recorded if "steps" in s.attrs) > 0
