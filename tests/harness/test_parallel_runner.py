"""Parallel trial runner: differential equivalence + fault tolerance.

The contract under test is the one every paper table depends on: for a
fixed seed range, ``run_trials(..., workers=N)`` must return a
:class:`TrialStats` *equal* (dataclass equality — same hit counts, same
per-seed runtime lists, same error times) to the serial loop, for any
worker count, any chunking, and in the presence of worker crashes that
retry successfully.  Fault-injection hooks are module-level functions so
they cross the process boundary.
"""

import os
import time

import pytest

from repro.apps import Figure4App, get_app
from repro.harness import (
    TrialAggregator,
    TrialFailure,
    measure,
    run_trials,
)
from repro.harness.parallel import run_seeds, sweep_aggregator

# ---------------------------------------------------------------------------
# Differential: parallel output is identical to serial
# ---------------------------------------------------------------------------

#: (app, bug, trials, base_seed) — different bug kinds and seed ranges.
DIFFERENTIAL_CASES = [
    ("figure4", "error1", 12, 0),
    ("figure4", "error1", 7, 1000),
    ("stringbuffer", "atomicity1", 10, 5),
    ("cache4j", "atomicity1", 8, 0),
    ("jigsaw", "deadlock1", 8, 42),
    ("log4j", "missed-notify1", 8, 0),
]


@pytest.mark.parametrize("app_name,bug,n,base_seed", DIFFERENTIAL_CASES)
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_parallel_identical_to_serial(app_name, bug, n, base_seed, workers):
    cls = get_app(app_name)
    serial = run_trials(cls, n=n, bug=bug, base_seed=base_seed)
    parallel = run_trials(cls, n=n, bug=bug, base_seed=base_seed, workers=workers)
    assert parallel == serial  # full dataclass equality, runtimes included
    assert parallel.runtimes == serial.runtimes
    assert parallel.error_times == serial.error_times
    assert parallel.failures == []


def test_parallel_identical_across_chunk_sizes():
    serial = run_trials(Figure4App, n=11, bug="error1")
    for chunk_size in (1, 2, 5, 11):
        agg = sweep_aggregator(Figure4App, 11, "error1", 0, False)
        run_seeds(agg, Figure4App, range(11), workers=2, chunk_size=chunk_size)
        assert agg.finalize() == serial


def test_parallel_no_bug_config():
    serial = run_trials(Figure4App, n=10, bug=None)
    parallel = run_trials(Figure4App, n=10, bug=None, workers=2)
    assert parallel == serial
    assert parallel.bug_hits == 0 and parallel.mtte is None


def test_measure_identical_to_serial():
    serial = measure(Figure4App, "error1", n=10)
    parallel = measure(Figure4App, "error1", n=10, workers=2)
    assert parallel == serial  # OverheadRow dataclass equality


def test_workers_auto_and_zero():
    serial = run_trials(Figure4App, n=6, bug="error1", workers=None)
    assert run_trials(Figure4App, n=6, bug="error1", workers=0) == serial
    assert run_trials(Figure4App, n=6, bug="error1", workers="auto") == serial


def test_trial_timeout_requires_workers():
    with pytest.raises(ValueError, match="trial_timeout requires workers"):
        run_trials(Figure4App, n=2, bug="error1", trial_timeout=5.0)


# ---------------------------------------------------------------------------
# Fault injection: crashes, exceptions, hangs
# ---------------------------------------------------------------------------


def _crash_seed5_first_attempt(seed, attempt):
    if seed == 5 and attempt == 0:
        os._exit(17)  # hard worker death mid-trial, no cleanup


def _crash_seed3_always(seed, attempt):
    if seed == 3:
        os._exit(17)


def _raise_seed7_always(seed, attempt):
    if seed == 7:
        raise RuntimeError("injected trial failure")


def _raise_seed2_twice(seed, attempt):
    if seed == 2 and attempt < 2:
        raise RuntimeError("transient failure")


def _hang_seed4(seed, attempt):
    if seed == 4:
        time.sleep(60)


def test_crash_retry_recovers_bit_identical():
    """A worker killed mid-trial costs an attempt, not the sweep: the
    retried trial lands on another worker and the final stats are
    indistinguishable from a crash-free serial run."""
    serial = run_trials(Figure4App, n=10, bug="error1")
    stats = run_trials(
        Figure4App, n=10, bug="error1", workers=2,
        trial_hook=_crash_seed5_first_attempt,
    )
    assert stats == serial
    assert stats.failures == []


def test_crash_retries_are_bounded():
    stats = run_trials(
        Figure4App, n=8, bug="error1", workers=2, max_retries=2,
        trial_hook=_crash_seed3_always,
    )
    assert [f.seed for f in stats.failures] == [3]
    failure = stats.failures[0]
    assert failure.kind == "crash"
    assert failure.attempts == 3  # initial + max_retries
    # The other 7 trials match their serial counterparts exactly.
    serial = run_trials(Figure4App, n=8, bug="error1")
    assert stats.trials == serial.trials == 8
    assert len(stats.runtimes) == 7
    expected = [rt for seed, rt in zip(range(8), serial.runtimes) if seed != 3]
    assert stats.runtimes == expected


def test_exception_recorded_as_structured_failure():
    stats = run_trials(
        Figure4App, n=10, bug="error1", workers=2, max_retries=1,
        trial_hook=_raise_seed7_always,
    )
    assert [(f.seed, f.kind, f.attempts) for f in stats.failures] == [
        (7, "exception", 2)
    ]
    assert "injected trial failure" in stats.failures[0].message
    assert len(stats.runtimes) == 9


def test_transient_exception_recovers_within_retry_budget():
    serial = run_trials(Figure4App, n=6, bug="error1")
    stats = run_trials(
        Figure4App, n=6, bug="error1", workers=2, max_retries=2,
        trial_hook=_raise_seed2_twice,
    )
    assert stats == serial
    assert stats.failures == []


def test_hung_trial_times_out_without_retry():
    t0 = time.monotonic()
    stats = run_trials(
        Figure4App, n=8, bug="error1", workers=2, trial_timeout=1.0,
        trial_hook=_hang_seed4,
    )
    wall = time.monotonic() - t0
    assert [(f.seed, f.kind, f.attempts) for f in stats.failures] == [
        (4, "timeout", 1)
    ]
    assert len(stats.runtimes) == 7
    assert wall < 30  # the 60 s hang was preempted


# ---------------------------------------------------------------------------
# Aggregator contract (the in-code equivalence enforcement)
# ---------------------------------------------------------------------------


def _row():
    return [True, True, 0.5, 0.2, None, None]


class TestTrialAggregator:
    def test_duplicate_seed_rejected(self):
        agg = TrialAggregator("app", "bug", 0, 4)
        agg.add(1, _row())
        with pytest.raises(ValueError, match="reported twice"):
            agg.add(1, _row())
        agg.add_failure(TrialFailure(seed=2, kind="crash", attempts=3))
        with pytest.raises(ValueError, match="reported twice"):
            agg.add(2, _row())

    def test_out_of_range_seed_rejected(self):
        agg = TrialAggregator("app", "bug", 10, 4)
        with pytest.raises(ValueError, match="outside trial range"):
            agg.add(3, _row())

    def test_finalize_refuses_missing_seeds(self):
        agg = TrialAggregator("app", "bug", 0, 3)
        agg.add(0, _row())
        with pytest.raises(ValueError, match="unaccounted"):
            agg.finalize()

    def test_order_independent(self):
        def filled(order):
            agg = TrialAggregator("app", "bug", 0, 4)
            for seed in order:
                agg.add(seed, [seed % 2 == 0, True, float(seed), 0.1, None, None])
            return agg.finalize()

        assert filled([3, 0, 2, 1]) == filled([0, 1, 2, 3])
        assert filled([3, 0, 2, 1]).runtimes == [0.0, 1.0, 2.0, 3.0]
