"""``repro.sim`` — deterministic concurrency simulation substrate.

Simulated threads are generator functions yielding syscalls; the
:class:`Kernel` executes them under a pluggable, seeded scheduler on a
virtual clock.  See :mod:`repro.sim.kernel` for the execution model and
DESIGN.md for why this substrate replaces the paper's JVM/pthreads
testbed.

Quick example::

    from repro.sim import Kernel, SimLock, SharedCell

    counter = SharedCell(0, name="counter")
    lock = SimLock("counter_lock")

    def worker():
        for _ in range(100):
            yield from lock.acquire()
            v = yield from counter.get()
            yield from counter.set(v + 1)
            yield from lock.release()

    k = Kernel(seed=42)
    k.spawn(worker, name="w1")
    k.spawn(worker, name="w2")
    result = k.run()
    assert result.ok and counter.peek() == 200
"""

from .errors import (
    SimDeadlockError,
    ThreadInterrupted,
    SimError,
    SimLimitError,
    SimStallError,
    SimSyscallError,
    ThreadFailure,
)
from .kernel import Kernel, RunResult
from .memory import SharedArray, SharedCell
from .primitives import (
    SimBarrier,
    SimCondition,
    SimEvent,
    SimLock,
    SimQueue,
    SimRLock,
    SimSemaphore,
)
from .scheduler import (
    NoiseScheduler,
    PCTScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from .syscalls import (
    Annotate,
    BeginAtomic,
    EndAtomic,
    Interrupt,
    Join,
    Now,
    Sleep,
    Trigger,
    Yield,
)
from .dpor import DporStats, explore_dpor, explore_dpor_sharded
from .explore import Exploration, Outcome, explore, merge_shards
from .replay import RecordingScheduler, ReplayDivergence, ReplayScheduler
from .snapshot import (
    Bound,
    PoolStats,
    RunRecord,
    StatelessPool,
    count_preemptions,
)
from .thread import SimThread, TState
from .timeline import around_breakpoints, render_choice_path, render_timeline
from .trace import OP, Event, Trace

__all__ = [
    "Kernel",
    "RunResult",
    "SimThread",
    "TState",
    "SimLock",
    "SimRLock",
    "SimCondition",
    "SimSemaphore",
    "SimBarrier",
    "SimEvent",
    "SimQueue",
    "SharedCell",
    "SharedArray",
    "Scheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "PCTScheduler",
    "NoiseScheduler",
    "RecordingScheduler",
    "ReplayScheduler",
    "ReplayDivergence",
    "Bound",
    "count_preemptions",
    "Exploration",
    "Outcome",
    "explore",
    "merge_shards",
    "explore_dpor",
    "explore_dpor_sharded",
    "DporStats",
    "RunRecord",
    "PoolStats",
    "StatelessPool",
    "render_timeline",
    "render_choice_path",
    "around_breakpoints",
    "OP",
    "Event",
    "Trace",
    "Sleep",
    "Yield",
    "Join",
    "Interrupt",
    "ThreadInterrupted",
    "Now",
    "Annotate",
    "BeginAtomic",
    "EndAtomic",
    "Trigger",
    "SimError",
    "SimDeadlockError",
    "SimStallError",
    "SimLimitError",
    "SimSyscallError",
    "ThreadFailure",
]
