"""Differential battery for the exploration reductions.

The sleep-set reduction and the sharded DPOR walk are *performance*
features: neither may change what an exploration returns.  Every test
here states that as an equality — sleep sets and sharding
behaviour-equal to the plain serial walk — plus the crash and weighting
contracts that ride on the same machinery.
"""

import os

import pytest

from repro.harness import explore_app, explore_summary
from repro.sim import SharedCell, SimLock
from repro.sim.dpor import explore_dpor, explore_dpor_sharded
from repro.sim.explore import explore
from repro.sim.snapshot import fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="sharded exploration needs fork"
)


def fingerprint(ex):
    """Everything observable about an exploration except process-local
    trace objects: schedule, termination shape, oracle output, weight."""
    return [
        (
            tuple(o.choices),
            o.result.completed,
            o.result.deadlocked,
            o.result.stalled,
            o.result.limit_hit,
            o.result.steps,
            repr(o.observed),
            o.weight,
        )
        for o in ex.outcomes
    ] + [ex.complete]


def behaviours(ex):
    return sorted(set(repr(o.observed) for o in ex.outcomes))


# ---------------------------------------------------------------------------
# the removed fork snapshot executor


def test_snapshots_keyword_is_refused():
    with pytest.raises(ValueError, match="fork snapshot executor was removed"):
        explore_app("bank", snapshots=True)
    with pytest.raises(ValueError, match="fork snapshot executor was removed"):
        explore_summary("bank", snapshots=True)
    summary = explore_summary("bank", snapshots=False, max_schedules=3)
    assert summary.to_wire()["pool_mode"] == "stateless"


# ---------------------------------------------------------------------------
# timed programs


def test_timed_apps_rejected_identically_in_both_modes():
    # Every Table 1/2 workload uses virtual-time sleeps; DPOR must
    # refuse them, with or without sleep sets.
    for sleep_sets in (False, True):
        with pytest.raises(ValueError, match="timed"):
            explore_app(
                "figure4", dpor=True, sleep_sets=sleep_sets, max_schedules=4
            )


# ---------------------------------------------------------------------------
# sleep sets — pure pruning, never lost behaviours


def _locked_counter_build(kernel):
    x = SharedCell(0, name="x")
    y = SharedCell(0, name="y")
    lock = SimLock("lock")

    def locked():
        yield from lock.acquire()
        v = yield from x.get()
        yield from x.set(v + 1)
        yield from lock.release()

    def indep():
        v = yield from y.get()
        yield from y.set(v + 1)

    kernel.spawn(locked, name="l1")
    kernel.spawn(locked, name="l2")
    kernel.spawn(indep, name="i")
    kernel._cells = (x, y)


def _observe_cells(kernel):
    x, y = kernel._cells
    return (x.peek(), y.peek())


def test_sleep_sets_preserve_behaviours_and_prune():
    plain, st0 = explore_dpor(_locked_counter_build, observe=_observe_cells)
    slept, st1 = explore_dpor(
        _locked_counter_build, observe=_observe_cells, sleep_sets=True
    )
    assert plain.complete and slept.complete
    assert behaviours(slept) == behaviours(plain)
    assert st1.schedules < st0.schedules
    assert st1.sleep_set_prunes > 0


def test_sleep_sets_reduce_bank_exploration():
    # The acceptance subject: on the registered bank app the sleep-set
    # walk completes in a fraction of the plain DPOR schedule count.
    plain = explore_app(
        "bank", "lost_update", dpor=True, max_schedules=50_000,
        params={"iters": 2},
    )
    slept = explore_app(
        "bank", "lost_update", dpor=True, sleep_sets=True,
        max_schedules=50_000, params={"iters": 2},
    )
    assert plain.exploration.complete and slept.exploration.complete
    assert behaviours(slept.exploration) == behaviours(plain.exploration)
    assert slept.dpor_stats.schedules < plain.dpor_stats.schedules
    assert slept.dpor_stats.sleep_set_prunes > 0
    # The buggy behaviour itself must survive the reduction.
    assert plain.hits > 0 and slept.hits > 0


# ---------------------------------------------------------------------------
# sharded DPOR — bit-identical merge for any worker count, even crashes


def test_sharded_dpor_worker_count_independent():
    fps = {}
    for workers in (0, 1, 3):
        ex, stats = explore_dpor_sharded(
            _locked_counter_build,
            observe=_observe_cells,
            workers=workers,
            sleep_sets=True,
        )
        fps[workers] = (fingerprint(ex), stats)
    assert fps[0] == fps[1] == fps[3]


def test_sharded_dpor_survives_worker_crash():
    reference, ref_stats = explore_dpor_sharded(
        _locked_counter_build, observe=_observe_cells, workers=2
    )

    def crash(shard_idx, attempt):
        if shard_idx == 0:
            os._exit(1)  # kill the worker whenever it starts shard 0

    crashed, crash_stats = explore_dpor_sharded(
        _locked_counter_build,
        observe=_observe_cells,
        workers=2,
        fault_hook=crash,
    )
    assert fingerprint(crashed) == fingerprint(reference)
    assert crash_stats == ref_stats


def test_sharded_behaviours_match_serial_plain_dpor():
    serial, _ = explore_dpor(_locked_counter_build, observe=_observe_cells)
    sharded, _ = explore_dpor_sharded(
        _locked_counter_build, observe=_observe_cells, workers=2,
        sleep_sets=True,
    )
    assert sharded.complete
    assert behaviours(sharded) == behaviours(serial)


# ---------------------------------------------------------------------------
# weighted probability — the measure the exploration CLI reports


def _racy_pair_build(kernel):
    x = SharedCell(0, name="x")

    def inc():
        v = yield from x.get()
        yield from x.set(v + 1)

    kernel.spawn(inc, name="a")
    kernel.spawn(inc, name="b")
    kernel._cells = (x,)


def test_weighted_probability_is_a_probability_measure():
    ex = explore(_racy_pair_build, observe=lambda k: k._cells[0].peek())
    assert ex.complete
    total = ex.probability(lambda o: True, weighted=True)
    assert total == pytest.approx(1.0)
    lost = ex.probability(lambda o: o.observed == 1, weighted=True)
    assert 0.0 < lost < 1.0


def test_hit_probability_consistent_between_modes():
    # The summary wire and a repeated run report the hit statistics of
    # the first run exactly.
    runs = [
        explore_app("bank", "lost_update", dpor=True, sleep_sets=True,
                    params={"iters": 2})
        for _ in range(2)
    ]
    assert 0.0 < runs[0].hit_probability <= 1.0 and runs[0].hits > 0
    assert runs[1].hit_probability == runs[0].hit_probability
    assert runs[1].hits == runs[0].hits
    assert runs[0].summary().to_wire()["hit_probability"] == runs[0].hit_probability
