"""The process pool's fault contract, driven through ``Pool.map`` directly.

Every caller (trial sweeps, DPOR shards, service jobs) relies on the
same rules: an exception or a crash is retried while ``max_retries``
allows, a timeout kills the worker and is never retried, a worker that
dies before ``begin`` blames its batch's first task and re-queues the
rest at no cost, and every task is reported exactly once with its
attempt count.  Task functions are module-level so the cases read as a
table; every wait is bounded by a pool timeout or a ``select``.
"""

import collections
import os
import select
import threading
import time

import pytest

from repro.pool import FORKS, Pool
from repro.svc import JobSpec

pytestmark = pytest.mark.skipif(not FORKS, reason="the pool batteries fork")


def _square(task, attempt):
    return task * task


def _raise_first(task, attempt):
    if attempt == 0:
        raise RuntimeError(f"transient failure on {task}")
    return task


def _raise_always(task, attempt):
    raise RuntimeError(f"permanent failure on {task}")


def _crash_two_first(task, attempt):
    if task == 2 and attempt == 0:
        os._exit(5)
    return task


def _crash_two_always(task, attempt):
    if task == 2:
        os._exit(5)
    return task


def _hang_two(task, attempt):
    if task == 2:
        time.sleep(60)  # the pool's timeout kills the worker long before
    return task


class _ExitOnUnpickle:
    """A task whose unpickling kills the worker before it sends ``begin``."""

    def __reduce__(self):
        return (os._exit, (3,))


_BAD = _ExitOnUnpickle()

#: name -> (fn, tasks, map kwargs, {task: (ok, kind, attempts)},
#: {lost-worker event: count}).  One worker, so batches run in order.
CASES = {
    "ok": (
        _square, [1, 2, 3], {},
        {1: (True, None, 1), 2: (True, None, 1), 3: (True, None, 1)}, {},
    ),
    "exception_then_ok": (
        _raise_first, [7], {"max_retries": 1}, {7: (True, None, 2)}, {},
    ),
    "exception_spends_budget": (
        _raise_always, [7], {"max_retries": 2}, {7: (False, "exception", 3)}, {},
    ),
    "crash_before_begin": (
        _square, [_BAD, 1, 2], {"max_retries": 1, "chunk_size": 3},
        {_BAD: (False, "crash", 2), 1: (True, None, 1), 2: (True, None, 1)},
        {"crash": 2},
    ),
    "crash_mid_batch": (
        _crash_two_first, [1, 2, 3], {"max_retries": 1, "chunk_size": 3},
        {1: (True, None, 1), 2: (True, None, 2), 3: (True, None, 1)},
        {"crash": 1},
    ),
    "crash_spends_budget": (
        _crash_two_always, [1, 2, 3], {"max_retries": 2, "chunk_size": 3},
        {1: (True, None, 1), 2: (False, "crash", 3), 3: (True, None, 1)},
        {"crash": 3},
    ),
    "timeout_never_retried": (
        _hang_two, [1, 2, 3], {"max_retries": 2, "timeout": 1.0, "chunk_size": 3},
        {1: (True, None, 1), 2: (False, "timeout", 1), 3: (True, None, 1)},
        {"timeout": 1},
    ),
}


def _map(fn, tasks, workers=1, **kwargs):
    """Run one map on a fresh pool; return its results and event counts."""
    events = collections.Counter()

    def note(event):
        events[event] += 1

    with Pool(fn, workers, on_event=note) as pool:
        results = list(pool.map(tasks, **kwargs))
    return results, events


def _by_task(tasks, results):
    """Results keyed by task identity; each task must appear exactly once."""
    seen = collections.Counter(id(r.task) for r in results)
    assert sorted(seen) == sorted(id(t) for t in tasks)
    assert set(seen.values()) == {1}, "a task was reported twice"
    return {id(r.task): r for r in results}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fault_contract(case):
    fn, tasks, kwargs, expected, lost = CASES[case]
    t0 = time.monotonic()
    results, events = _map(fn, tasks, **kwargs)
    assert time.monotonic() - t0 < 30  # a hang is preempted, not waited out
    by_task = _by_task(tasks, results)
    for task, (ok, kind, attempts) in expected.items():
        result = by_task[id(task)]
        assert (result.ok, result.kind, result.attempts) == (ok, kind, attempts), task
        if ok and fn is _square:
            assert result.value == task * task
        elif ok:
            assert result.value == task
    assert {k: events[k] for k in ("crash", "timeout")} == {
        "crash": lost.get("crash", 0), "timeout": lost.get("timeout", 0)
    }
    # Every lost worker was replaced, and only lost workers were.
    assert events["spawned"] == 1 + events["crash"] + events["timeout"]


def test_exception_message_names_the_error():
    (result,), _ = _map(_raise_always, [7], max_retries=0)
    assert result.message == "RuntimeError: permanent failure on 7"


def _crash_on_multiples_of_seven(task, attempt):
    if task % 7 == 0 and attempt == 0:
        os._exit(9)
    if task % 5 == 0:
        raise ValueError(task)
    return task


def test_every_task_reported_exactly_once_under_mixed_faults():
    tasks = list(range(60))
    results, _ = _map(_crash_on_multiples_of_seven, tasks, workers=3,
                      max_retries=1, chunk_size=4)
    by_task = _by_task(tasks, results)
    for task in tasks:
        result = by_task[id(task)]
        if task % 5 == 0:
            assert (result.ok, result.kind) == (False, "exception")
            assert result.attempts == 2
        else:
            assert (result.ok, result.value) == (True, task)
            assert result.attempts == (2 if task % 7 == 0 else 1)


def _params_x(spec, attempt):
    return spec.params["x"]


def test_unhashable_tasks():
    specs = [JobSpec(app="figure4", params={"x": x}) for x in (1, 2, 3)]
    with pytest.raises(TypeError):
        hash(specs[0])
    results, _ = _map(_params_x, specs, workers=2)
    by_task = _by_task(specs, results)
    assert [by_task[id(s)].value for s in specs] == [1, 2, 3]


def _nested_squares(task, attempt):
    with Pool(_square, 2) as inner:
        return sorted(r.value for r in inner.map(range(task)))


def test_task_may_start_its_own_pool():
    # The outer fork happens under the module's fork lock; a worker that
    # kept the copied (held) lock would hang here until the timeout.
    results, _ = _map(_nested_squares, [3, 4], workers=2, timeout=60)
    by_task = {r.task: r for r in results}
    assert (by_task[3].ok, by_task[3].value) == (True, [0, 1, 4])
    assert (by_task[4].ok, by_task[4].value) == (True, [0, 1, 4, 9])


def test_kill_fails_in_flight_task_without_retry():
    ready_r, ready_w = os.pipe()

    def hang(task, attempt):
        os.write(ready_w, b"x")
        time.sleep(60)

    pool = Pool(hang, 1).start()
    try:
        def killer():
            if select.select([ready_r], [], [], 30)[0]:
                pool.kill()

        thread = threading.Thread(target=killer)
        thread.start()
        (result,) = pool.map([1], max_retries=2, timeout=45)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert (result.ok, result.kind, result.attempts) == (False, "crash", 1)
        assert pool.pids() == [None]  # a killed pool forks no replacement
    finally:
        pool.close(kill=True)
        os.close(ready_r)
        os.close(ready_w)
