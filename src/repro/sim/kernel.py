"""The deterministic concurrency kernel.

A :class:`Kernel` executes simulated threads (generators yielding
syscalls) under a pluggable scheduler on a *virtual clock*.  This is the
evaluation substrate that replaces the paper's JVM/pthreads testbed
(DESIGN.md, substitution table): Heisenbug probability is a property of
the schedule distribution, which the scheduler reproduces; virtual time
makes 100-trial probability estimates with 100 ms–10 s breakpoint pauses
run in milliseconds of wall time; and ``(program, scheduler, seed)``
exactly determines the run, so every reported bug is replayable.

Key mechanics:

* **One syscall per step.**  The scheduler picks a runnable thread, the
  kernel resumes its generator, receives the next syscall, applies its
  effect, and loops.  Python code between yields is atomic.
* **Virtual time.**  Each step costs ``step_cost`` virtual seconds;
  ``Sleep``/timeouts arm a timer heap; when nothing is runnable the clock
  jumps to the next deadline.  "Runtime" and "overhead" in the Table 1
  reproduction are virtual-clock readings.
* **Breakpoints.**  The ``Trigger`` syscall routes through a
  :class:`~repro.core.engine.BreakpointEngine` shared with the OS
  backend.  On a match the kernel *pins* the first thread of the release
  order so its next instruction executes before the next member resumes,
  and so on down the order — the exact scheduling action of paper
  Section 2, which the OS backend can only approximate.
* **Stall/deadlock detection.**  No runnable thread and no timers with
  live threads is a deadlock (reported with the wait-for cycle, like the
  Jigsaw example); exceeding ``max_time`` with live threads is a stall —
  the paper's "stalls due to missed notifications are detected by large
  timeouts".

Fast path
---------

Steps/sec is the scaling limit for every trial, exploration, and
service job, so the per-step loop is written for raw speed (see
DESIGN.md "Kernel fast path"):

* The runnable set is a **maintained tid-sorted list** (``_ready``),
  updated at every state transition, instead of a per-step scan+sort of
  all threads.  The scheduler receives the live list; by contract
  (:class:`~repro.sim.scheduler.Scheduler.pick`) schedulers must not
  retain or mutate it.
* Syscall dispatch is a **precomputed class-keyed handler table**
  (``_HANDLERS``), resolved once per syscall class instead of a 20-way
  ``isinstance`` chain per step.
* Trace append is **O(1) amortized into a flat slot buffer**
  (:class:`~repro.sim.trace.Trace`); the hot handlers skip all record
  work — including source-location frame walks — when tracing is off.
* Scheduler noise is consulted only when the scheduler actually
  overrides ``delay_after_pick`` (checked once per run, not per step).
* Sleep timers take a **lean path**: ``_h_sleep`` blocks and arms
  inline and touches the trace only when one is recorded, the
  ``"sleep"`` wake is inlined in ``_fire_due_timers``, and both stale
  checks test ``thread.state`` by identity instead of the ``alive``
  property.

The pre-rewrite loop survives verbatim as
:class:`repro.sim._reference.ReferenceKernel`: the differential battery
asserts both kernels pick identical threads and emit bit-identical
traces, and the golden corpus (``tests/sim/golden/``) pins fingerprints
per app+seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import itertools
import math
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import runtimectx
from repro.core.config import GLOBAL
from repro.core.engine import BreakpointEngine, Matched, Skipped

from . import syscalls as sc
from .errors import SimDeadlockError, SimSyscallError, ThreadFailure, ThreadInterrupted
from .primitives import SimBarrier, SimCondition, SimEvent, SimLock, SimSemaphore
from .scheduler import RandomScheduler, Scheduler
from .thread import SimThread, TState, current_location
from .trace import OP, Trace

__all__ = ["Kernel", "RunResult"]


def _assign_mix_slots() -> Tuple[str, ...]:
    """Give every syscall class a small integer ``_mix_idx`` and return
    the matching metric names.

    The per-dispatch syscall-mix accounting is the only per-step work
    observability adds, so it has to be as close to free as Python
    allows: ``mix[call._mix_idx] += 1`` (one cached class-attribute load
    plus a list subscript) beats hashing the class into a dict by ~30 %.
    A class defined after import (tests, extensions) inherits the slot of
    the syscall class it extends, so it is counted under that class's
    name; a class with no handled base is refused by dispatch before
    any count.
    """
    names: List[str] = []

    def walk(cls: type) -> None:
        for sub in cls.__subclasses__():
            sub._mix_idx = len(names)
            names.append(f"kernel.syscall.{sub.__name__}")
            walk(sub)

    walk(sc.Syscall)
    return tuple(names)


_MIX_NAMES: Tuple[str, ...] = _assign_mix_slots()

# Thread states the timer paths test by identity (module globals load
# faster than ``TState.X`` attribute lookups).
_RUNNABLE = TState.RUNNABLE
_SLEEPING = TState.SLEEPING
_DONE = TState.DONE
_FAILED = TState.FAILED


@dataclasses.dataclass
class RunResult:
    """Outcome of :meth:`Kernel.run`."""

    time: float
    steps: int
    completed: bool  # every non-daemon thread finished
    deadlocked: bool
    deadlock: Optional[SimDeadlockError]
    stalled: bool  # max_time reached with live threads
    limit_hit: bool  # max_steps reached
    failures: List[ThreadFailure]
    trace: Optional[Trace]
    breakpoint_stats: Dict[str, Any]
    threads: List[SimThread]

    @property
    def ok(self) -> bool:
        """Clean termination: completed, no failures, no deadlock/stall."""
        return self.completed and not self.failures and not self.deadlocked and not self.stalled

    @property
    def stall_or_deadlock(self) -> bool:
        """The paper's "stall" error symptom covers both."""
        return self.deadlocked or self.stalled

    def breakpoint_hit(self, name: str) -> bool:
        """Did the named breakpoint fire in this run?"""
        st = self.breakpoint_stats.get(name)
        return bool(st and st.hits > 0)

    def summary(self) -> str:
        """One-line human summary of the run."""
        status = (
            "ok"
            if self.ok
            else "deadlock"
            if self.deadlocked
            else "stall"
            if self.stalled
            else "limit"
            if self.limit_hit
            else f"{len(self.failures)} failure(s)"
            if self.failures
            else "incomplete"
        )
        return f"RunResult({status}, t={self.time:.4f}s, steps={self.steps})"


class Kernel:
    """Deterministic discrete-event executor for simulated threads.

    Parameters
    ----------
    scheduler:
        Interleaving policy; defaults to :class:`RandomScheduler(seed)`.
    seed:
        Seeds the default scheduler and the kernel's application RNG
        (``kernel.rng``, for workload jitter inside simulated threads).
    record_trace:
        Record an event per syscall (needed by detectors; costs time and
        memory, so off by default for probability experiments).
    step_cost:
        Virtual seconds charged per scheduling step (models instruction
        time between synchronisation points).
    obs:
        Optional :class:`repro.obs.MetricsRegistry` (duck-typed, no
        import dependency).  When given, the kernel counts steps,
        context switches, and the syscall mix into it — the mix is
        accumulated in a flat per-run list and folded once at the end,
        so the per-step cost stays inside the obs overhead gate.
        Breakpoint instrumentation lives in the shared
        :class:`BreakpointEngine`, which receives the same registry.
    """

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        seed: Optional[int] = None,
        record_trace: bool = False,
        step_cost: float = 1e-6,
        obs: Any = None,
    ) -> None:
        self.scheduler = scheduler if scheduler is not None else RandomScheduler(seed)
        self.rng = random.Random(seed if seed is None else seed ^ 0x5DEECE66D)
        self.now = 0.0
        self.step = 0
        self.step_cost = step_cost
        self.trace: Optional[Trace] = Trace() if record_trace else None
        #: Bound append of the trace (None when untraced): one attribute
        #: load instead of two plus a bound-method build per hot event.
        self._tappend = self.trace.append if record_trace else None
        self.obs = obs
        self.engine = BreakpointEngine(obs=obs)
        #: Scheduling steps where the picked thread differed from the
        #: previous one (tracked unconditionally; it is two attribute ops).
        self.ctx_switches = 0
        self._last_tid = -1
        #: Per-syscall dispatch counts, indexed by each class's
        #: ``_mix_idx`` (see :func:`_assign_mix_slots`); folded into
        #: ``kernel.syscall.*`` counters at flush.  Assigned
        #: unconditionally (None when uninstrumented) so plain and
        #: instrumented kernels materialise the *same* attribute set in
        #: the same order — divergent instance shapes would knock the
        #: class off CPython's shared-keys dicts and tax every attribute
        #: access in a mixed plain/instrumented sweep.
        self._syscall_mix: Optional[List[int]] = (
            None if obs is None else [0] * len(_MIX_NAMES)
        )
        self._obs_flushed = False
        self.threads: List[SimThread] = []
        #: Tid-sorted list of RUNNABLE threads — the scheduler's view.
        #: Invariant: a thread appears here exactly when its state is
        #: RUNNABLE; every transition in/out of RUNNABLE updates it.
        self._ready: List[SimThread] = []
        self._live_foreground = 0  # alive non-daemon threads (run-loop gate)
        self._tids = itertools.count(0)
        self._timer_seq = itertools.count(0)
        self._timers: List[Tuple[float, int, SimThread, int, str, Any]] = []
        self._pinned: List[SimThread] = []
        self._wait_ctx: Dict[SimThread, Tuple[str, Any]] = {}  # why a thread waits on a lock
        self.current: Optional[SimThread] = None
        #: Optional syscall interceptor for active-testing tools
        #: (:mod:`repro.activetest`): called as ``hook(thread, syscall)``
        #: before dispatch; returning a positive delay postpones the
        #: syscall by that many virtual seconds (the CalFuzzer-style
        #: "insert a pause at this operation" primitive).
        self.pre_dispatch: Optional[Callable[[SimThread, Any], Optional[float]]] = None
        self.failures: List[ThreadFailure] = []
        self._limit_hit = False
        self._stalled = False
        self._deadlock: Optional[SimDeadlockError] = None

    # ------------------------------------------------------------------
    # Ready-set maintenance
    # ------------------------------------------------------------------
    def _ready_add(self, t: SimThread) -> None:
        """Insert ``t`` into the tid-sorted ready list."""
        ready = self._ready
        if not ready or ready[-1].tid < t.tid:
            ready.append(t)
            return
        tid = t.tid
        lo, hi = 0, len(ready)
        while lo < hi:
            mid = (lo + hi) // 2
            if ready[mid].tid < tid:
                lo = mid + 1
            else:
                hi = mid
        ready.insert(lo, t)

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------
    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        daemon: bool = False,
        **kwargs: Any,
    ) -> SimThread:
        """Create a simulated thread running ``fn(*args, **kwargs)``.

        ``fn`` must be a generator function (its body yields syscalls).
        """
        gen = fn(*args, **kwargs)
        if not hasattr(gen, "send"):
            raise TypeError(f"thread body {fn!r} must be a generator function")
        tid = next(self._tids)
        t = SimThread(tid, name or f"T{tid}", gen, daemon=daemon)
        t.state = TState.RUNNABLE
        t.spawn_time = self.now
        if not daemon:
            self._live_foreground += 1
        self.threads.append(t)
        # Tids are monotone, so a new thread always sorts last.
        self._ready.append(t)
        self.scheduler.on_spawn(t)
        if self.trace is not None:
            self._record(OP.FORK, obj=t, loc=self.current.location() if self.current else "main")
        return t

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _arm_timer(self, thread: SimThread, delay: float, kind: str, payload: Any = None) -> None:
        heapq.heappush(
            self._timers,
            (self.now + delay, next(self._timer_seq), thread, thread.wake_epoch, kind, payload),
        )

    def _fire_due_timers(self) -> None:
        timers = self._timers
        while timers and timers[0][0] <= self.now:
            _, _, thread, epoch, kind, payload = heapq.heappop(timers)
            state = thread.state
            if epoch != thread.wake_epoch or state is _DONE or state is _FAILED:
                continue  # stale: the thread was woken by another path
            if kind == "sleep":
                # Inlined _wake(thread, None): sleeps are most timers.
                thread.wake_epoch += 1
                if state is not _RUNNABLE:
                    ready = self._ready
                    if not ready or ready[-1].tid < thread.tid:
                        ready.append(thread)
                    else:
                        self._ready_add(thread)
                thread.state = _RUNNABLE
                thread.waiting_on = None
                thread.pending = None
            else:
                self._timer_fired(thread, kind, payload)

    def _timer_fired(self, thread: SimThread, kind: str, payload: Any) -> None:
        """Fire one live timer of any kind but ``"sleep"`` (inlined in
        :meth:`_fire_due_timers`)."""
        if kind == "noise":
            # Scheduler-injected delay: wake WITHOUT touching ``pending``
            # — the preceding step's syscall result is still undelivered.
            thread.wake_epoch += 1
            thread.state = TState.RUNNABLE
            thread.waiting_on = None
            self._ready_add(thread)
        elif kind == "wait_timeout":
            cond: SimCondition = payload
            if thread in cond.waiters:
                cond.waiters.remove(thread)
            # A timed-out waiter still reacquires the monitor before
            # ``wait`` returns False, exactly like threading.Condition.
            ctx = self._wait_ctx.pop(thread, ("wait_return", (cond, 1, False)))
            self._begin_reacquire(thread, cond.lock, ctx[1][1], False)
        elif kind == "join_timeout":
            target: SimThread = payload
            if thread in target.joiners:
                target.joiners.remove(thread)
            self._wake(thread, False)
        elif kind == "event_timeout":
            event: SimEvent = payload
            if thread in event.waiters:
                event.waiters.remove(thread)
            self._wake(thread, False)
        elif kind == "retry":
            # An active-testing pause expired: perform the postponed
            # syscall now (without re-consulting the interceptor).
            thread.wake_epoch += 1
            thread.state = TState.RUNNABLE
            thread.waiting_on = None
            self._ready_add(thread)
            prev = self.current
            self.current = thread
            try:
                self._dispatch(thread, payload)
            except SimSyscallError as err:
                thread.pending_exc = RuntimeError(str(err))
            finally:
                self.current = prev
        elif kind == "trigger_timeout":
            entry = payload
            if entry.release is None:
                self.engine.expire(entry)
                self._record(
                    OP.TRIGGER_TIMEOUT, obj=entry.inst, loc="?", extra={"name": entry.inst.name},
                    thread=thread,
                )
                self._wake(thread, False)
            # else: matched in the same instant; the match path woke it.
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown timer kind {kind!r}")

    def _wake(self, thread: SimThread, result: Any) -> None:
        """Move a blocked/sleeping thread back to the runnable set."""
        thread.wake_epoch += 1
        if thread.state is not TState.RUNNABLE:
            # Inlined _ready_add append fast path (hottest wake shape).
            ready = self._ready
            if not ready or ready[-1].tid < thread.tid:
                ready.append(thread)
            else:
                self._ready_add(thread)
        thread.state = TState.RUNNABLE
        thread.waiting_on = None
        thread.pending = result

    def _block(self, t: SimThread, state: TState, waiting_on: Any) -> None:
        """Take a RUNNABLE thread out of the ready set."""
        t.state = state
        t.waiting_on = waiting_on
        self._ready.remove(t)

    # ------------------------------------------------------------------
    # Lock plumbing (shared by Acquire, Release, Condition re-acquire)
    # ------------------------------------------------------------------
    def _grant_lock(
        self, lock: SimLock, thread: SimThread, count: int, loc: Optional[str] = None
    ) -> None:
        lock.owner = thread
        lock.count = count
        thread.held_locks.append(lock)
        ta = self._tappend
        if ta is not None:
            ta(
                self.now,
                thread.tid,
                thread.name,
                OP.ACQUIRE,
                lock,
                loc or current_location(thread.gen),
                None,
                self.step,
            )

    def _begin_reacquire(self, thread: SimThread, lock: SimLock, count: int, result: Any) -> None:
        """A notified/timed-out waiter recontends for the monitor."""
        if lock.owner is None and not lock.waiters:
            self._grant_lock(lock, thread, count)
            self._wake(thread, result)
        else:
            # The thread is already off the ready list (it was blocked on
            # the condition/timeout that got it here).
            self._wait_ctx[thread] = ("wait_return", (lock, count, result))
            thread.waiting_on = lock
            thread.state = TState.BLOCKED
            lock.waiters.append(thread)

    def _release_lock_fully(self, lock: SimLock, thread: SimThread) -> None:
        """Drop ownership and hand the lock to its next FIFO waiter,
        honouring wait-returns (one frame: release + hand-off)."""
        lock.owner = None
        lock.count = 0
        if lock in thread.held_locks:
            thread.held_locks.remove(lock)
        if not lock.waiters:
            return
        nxt = lock.waiters.pop(0)
        ctx = self._wait_ctx.pop(nxt, None)
        if ctx is not None and ctx[0] == "wait_return":
            _, (lk, count, result) = ctx
            self._grant_lock(lock, nxt, count)
            self._wake(nxt, result)
        else:
            loc = ctx[1] if ctx is not None and ctx[0] == "acquire" else None
            self._grant_lock(lock, nxt, 1, loc=loc)
            self._wake(nxt, True)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def _record(
        self,
        op: str,
        obj: Any = None,
        loc: Optional[str] = None,
        extra: Any = None,
        thread: Optional[SimThread] = None,
    ) -> None:
        ta = self._tappend
        if ta is None:
            return
        t = thread if thread is not None else self.current
        tid = t.tid if t else -1
        tname = t.name if t else "main"
        if loc is None:
            loc = current_location(t.gen) if t else "?"
        ta(self.now, tid, tname, op, obj, loc, extra, self.step)

    def _loc(self, call: sc.Syscall, thread: SimThread) -> str:
        # Frame inspection is the single hottest non-essential operation
        # in the dispatch path; skip it entirely when nothing records.
        if self.trace is None:
            return call.loc or "?"
        return call.loc if call.loc is not None else current_location(thread.gen)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_steps: int = 2_000_000, max_time: float = math.inf) -> RunResult:
        """Execute until all non-daemon threads finish, or a terminal
        condition (deadlock, stall, step limit) is reached.

        The loop body is intentionally inlined (selection + step
        execution in one frame): at ~10^5–10^6 steps/sec every Python
        call boundary on the per-step path is measurable.  Semantics are
        pinned step-for-step to :class:`ReferenceKernel` by the
        differential battery.
        """
        scheduler = self.scheduler
        pick = scheduler.pick
        # Noise is an opt-in scheduler feature; resolve the override once
        # instead of calling a no-op method every step.
        noisy = type(scheduler).delay_after_pick is not Scheduler.delay_after_pick
        ready = self._ready
        pinned = self._pinned
        step_cost = self.step_cost
        runnable_state = TState.RUNNABLE
        handlers = _HANDLERS
        mix = self._syscall_mix
        pre_dispatch = self.pre_dispatch

        while True:
            if self.step >= max_steps:
                self._limit_hit = True
                break
            if self._live_foreground == 0:
                break  # normal completion (daemons abandoned, as in CPython)

            # ---- selection ------------------------------------------
            if self.now > max_time:
                self._stalled = True
                break
            thread = None
            if pinned:
                while pinned:
                    t = pinned.pop(0)
                    if t.state is runnable_state:
                        thread = t
                        break
            if thread is None:
                if ready:
                    thread = pick(ready, self.step)
                elif self._advance_idle(max_time):
                    continue  # timers fired; re-select
                else:
                    break  # deadlock or stall, flags already set

            # ---- one step -------------------------------------------
            self.current = thread
            self.step += 1
            thread.steps += 1
            self.now += step_cost
            if thread.tid != self._last_tid:
                self.ctx_switches += 1
                self._last_tid = thread.tid

            pending, thread.pending = thread.pending, None
            exc, thread.pending_exc = thread.pending_exc, None
            try:
                if exc is not None:
                    item = thread.gen.throw(exc)
                else:
                    item = thread.gen.send(pending)
            except StopIteration as stop:
                self._finish(thread, getattr(stop, "value", None))
            except BaseException as err:  # noqa: BLE001 - thread failure is data here
                self._fail(thread, err)
            else:
                try:
                    delay = None
                    if pre_dispatch is not None and isinstance(item, sc.Syscall):
                        delay = pre_dispatch(thread, item)
                    if delay is not None and delay > 0:
                        self._block(thread, TState.SLEEPING, "active-test pause")
                        self._arm_timer(thread, delay, "retry", item)
                    else:
                        # Inlined _dispatch: one call frame per step saved.
                        try:
                            h = handlers[item.__class__]
                        except KeyError:
                            h = self._resolve_handler(thread, item)
                        if mix is not None:
                            mix[item._mix_idx] += 1
                        h(self, thread, item)
                except SimSyscallError as err:
                    # Misuse of a primitive surfaces inside the offending thread.
                    thread.pending_exc = RuntimeError(str(err))
            # Breakpoint ordering: the first-action thread has now executed
            # its next instruction; release partners parked on it.
            if thread.order_waiters:
                for w in thread.order_waiters:
                    if w.state is TState.ORDER_WAIT:
                        self._wake(w, True)
                thread.order_waiters.clear()
            # Scheduler-injected noise (ConTest baseline).  Uses the
            # pending-preserving "noise" timer: the delayed thread may be
            # carrying an undelivered syscall result.
            if noisy and thread.state is runnable_state:
                delay = scheduler.delay_after_pick(thread, self.step)
                if delay > 0.0:
                    self._block(thread, TState.SLEEPING, "noise")
                    self._arm_timer(thread, delay, "noise")
            self.current = None

        return self._result()

    def _advance_idle(self, max_time: float) -> bool:
        """Nothing runnable: advance the clock to the next live timer and
        fire it, or diagnose deadlock/stall.  Returns True when timers
        fired and selection should retry."""
        # Drop stale timers (their thread was woken by another path)
        # before advancing the clock — otherwise a dead breakpoint
        # timeout would postpone deadlock detection and inflate the
        # reported stall time.
        timers = self._timers
        while timers:
            _, _, th, epoch, _, _ = timers[0]
            state = th.state
            if epoch != th.wake_epoch or state is _DONE or state is _FAILED:
                heapq.heappop(timers)
            else:
                break
        if timers:
            deadline = timers[0][0]
            if deadline > max_time:
                self.now = max_time
                self._stalled = any(t.alive for t in self.threads)
                return False
            self.now = max(self.now, deadline)
            self._fire_due_timers()
            return True
        # No runnable threads, no timers.
        if any(t.alive for t in self.threads):
            self._deadlock = self._diagnose_deadlock()
        return False

    def _finish(self, thread: SimThread, result: Any) -> None:
        thread.state = TState.DONE
        thread.result = result
        thread.finish_time = self.now
        self._ready.remove(thread)
        if not thread.daemon:
            self._live_foreground -= 1
        self._record(OP.END, obj=thread, loc="?", thread=thread)
        for j in thread.joiners:
            self._wake(j, True)
            self._record(OP.JOINED, obj=thread, loc="?", thread=j)
        thread.joiners.clear()

    def _fail(self, thread: SimThread, err: BaseException) -> None:
        thread.state = TState.FAILED
        thread.exc = err
        thread.finish_time = self.now
        self._ready.remove(thread)
        if not thread.daemon:
            self._live_foreground -= 1
        self.failures.append(ThreadFailure(thread.name, err, self.now, self.step))
        self._record(OP.FAIL, obj=thread, loc="?", extra=repr(err), thread=thread)
        for j in thread.joiners:
            self._wake(j, True)
            self._record(OP.JOINED, obj=thread, loc="?", thread=j)
        thread.joiners.clear()

    # ------------------------------------------------------------------
    # Syscall dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, t: SimThread, call: Any) -> None:
        """Apply one syscall's effect via the precomputed handler table."""
        try:
            h = _HANDLERS[call.__class__]
        except KeyError:
            h = self._resolve_handler(t, call)
        mix = self._syscall_mix
        if mix is not None:
            mix[call._mix_idx] += 1
        h(self, t, call)

    def _resolve_handler(self, t: SimThread, call: Any) -> Callable[..., None]:
        """Cold path of dispatch: validate the syscall and cache the
        handler of its nearest handled base class."""
        if not isinstance(call, sc.Syscall):
            raise SimSyscallError(f"thread {t.name} yielded non-syscall {call!r}")
        for base in call.__class__.__mro__:
            h = _HANDLERS.get(base)
            if h is not None:
                _HANDLERS[call.__class__] = h
                return h
        raise SimSyscallError(f"unhandled syscall {call!r}")  # pragma: no cover - defensive

    # -- locks ----------------------------------------------------------
    def _h_acquire(self, t: SimThread, call: sc.Acquire) -> None:
        lock = call.lock
        if lock.owner is t:
            if lock.reentrant:
                # Nested monitor entry: no ownership transition, no event.
                lock.count += 1
                t.pending = True
            else:
                # Self-deadlock, like threading.Lock: block on ourselves.
                loc = self._loc(call, t)
                self._record(OP.ACQUIRE_REQ, obj=lock, loc=loc)
                self._block(t, TState.BLOCKED, lock)
                lock.waiters.append(t)
                self._wait_ctx[t] = ("acquire", loc)
        elif lock.owner is None and not lock.waiters:
            # Uncontended grant: the single hottest lock transition.
            lock.owner = t
            lock.count = 1
            t.held_locks.append(lock)
            ta = self._tappend
            if ta is not None:
                ta(
                    self.now,
                    t.tid,
                    t.name,
                    OP.ACQUIRE,
                    lock,
                    call.loc if call.loc is not None else current_location(t.gen),
                    None,
                    self.step,
                )
            t.pending = True
        else:
            loc = self._loc(call, t)
            self._record(OP.ACQUIRE_REQ, obj=lock, loc=loc)
            self._block(t, TState.BLOCKED, lock)
            lock.waiters.append(t)
            self._wait_ctx[t] = ("acquire", loc)

    def _h_release(self, t: SimThread, call: sc.Release) -> None:
        lock = call.lock
        if lock.owner is not t:
            raise SimSyscallError(f"{t.name} released {lock.name} it does not hold")
        lock.count -= 1
        if lock.count > 0:
            return
        ta = self._tappend
        if ta is not None:
            ta(
                self.now,
                t.tid,
                t.name,
                OP.RELEASE,
                lock,
                call.loc if call.loc is not None else current_location(t.gen),
                None,
                self.step,
            )
        self._release_lock_fully(lock, t)

    # -- monitors ---------------------------------------------------------
    def _h_wait(self, t: SimThread, call: sc.Wait) -> None:
        cond = call.cond
        lock = cond.lock
        if lock.owner is not t:
            raise SimSyscallError(f"{t.name} waits on {cond.name} without holding {lock.name}")
        loc = self._loc(call, t)
        saved = lock.count
        self._record(OP.WAIT_ENTER, obj=cond, loc=loc)
        self._record(OP.RELEASE, obj=lock, loc=loc)
        lock.count = 0
        self._release_lock_fully(lock, t)
        self._block(t, TState.BLOCKED, cond)
        cond.waiters.append(t)
        self._wait_ctx[t] = ("wait_return", (lock, saved, True))
        if call.timeout is not None:
            self._arm_timer(t, call.timeout, "wait_timeout", cond)

    def _h_notify(self, t: SimThread, call: sc.Notify) -> None:
        cond = call.cond
        n = call.n
        if cond.lock.owner is not t:
            raise SimSyscallError(f"{t.name} notifies {cond.name} without holding its lock")
        count = len(cond.waiters) if n is None else min(n, len(cond.waiters))
        self._record(OP.NOTIFY, obj=cond, loc=self._loc(call, t), extra=count)
        for _ in range(count):
            w = cond.waiters.pop(0)
            w.wake_epoch += 1  # invalidate any wait_timeout timer
            ctx = self._wait_ctx.pop(w, ("wait_return", (cond.lock, 1, True)))
            _, (lk, saved, _result) = ctx
            self._record(OP.WAIT_EXIT, obj=cond, loc="?", thread=w)
            self._begin_reacquire(w, lk, saved, True)

    # -- time / memory / control ------------------------------------------
    def _h_sleep(self, t: SimThread, call: sc.Sleep) -> None:
        duration = call.duration
        if self._tappend is not None:
            self._record(OP.SLEEP, obj=None, loc=self._loc(call, t), extra=duration)
        if duration <= 0:
            t.pending = None
        else:
            # Inlined _block + _arm_timer.
            t.state = _SLEEPING
            t.waiting_on = "sleep"
            self._ready.remove(t)
            heapq.heappush(
                self._timers,
                (self.now + duration, next(self._timer_seq), t, t.wake_epoch, "sleep", None),
            )

    def _h_read(self, t: SimThread, call: sc.Read) -> None:
        cell = call.cell
        value = cell.value
        ta = self._tappend
        if ta is not None:
            ta(
                self.now, t.tid, t.name, OP.READ, cell,
                call.loc if call.loc is not None else current_location(t.gen), value, self.step,
            )
        t.pending = value

    def _h_write(self, t: SimThread, call: sc.Write) -> None:
        value = call.value
        cell = call.cell
        cell.value = value
        ta = self._tappend
        if ta is not None:
            ta(
                self.now, t.tid, t.name, OP.WRITE, cell,
                call.loc if call.loc is not None else current_location(t.gen), value, self.step,
            )

    def _h_yield(self, t: SimThread, call: sc.Yield) -> None:
        t.pending = None

    def _h_now(self, t: SimThread, call: sc.Now) -> None:
        t.pending = self.now

    def _h_join(self, t: SimThread, call: sc.Join) -> None:
        target = call.thread
        loc = self._loc(call, t)
        self._record(OP.JOIN, obj=target, loc=loc)
        if not target.alive:
            self._record(OP.JOINED, obj=target, loc=loc)
            t.pending = True
            return
        self._block(t, TState.BLOCKED, target)
        target.joiners.append(t)
        if call.timeout is not None:
            self._arm_timer(t, call.timeout, "join_timeout", target)

    def _h_interrupt(self, t: SimThread, call: sc.Interrupt) -> None:
        t.pending = self.interrupt(call.thread, call.exc)

    # -- semaphores --------------------------------------------------------
    def _h_sem_p(self, t: SimThread, call: sc.AcquireSem) -> None:
        sem = call.sem
        if sem.value > 0:
            sem.value -= 1
            # SEM_P is recorded at *grant* time so the trace order gives
            # the happens-before edge V -> P.
            self._record(OP.SEM_P, obj=sem, loc=self._loc(call, t))
            t.pending = True
        else:
            self._block(t, TState.BLOCKED, sem)
            sem.waiters.append(t)

    def _h_sem_v(self, t: SimThread, call: sc.ReleaseSem) -> None:
        sem = call.sem
        self._record(OP.SEM_V, obj=sem, loc=self._loc(call, t))
        if sem.waiters:
            w = sem.waiters.pop(0)
            self._record(OP.SEM_P, obj=sem, loc="?", thread=w)
            self._wake(w, True)
        else:
            sem.value += 1

    # -- barriers -----------------------------------------------------------
    def _h_barrier(self, t: SimThread, call: sc.BarrierWait) -> None:
        barrier = call.barrier
        idx = barrier.count
        barrier.count += 1
        self._record(OP.BARRIER, obj=barrier, loc=self._loc(call, t), extra=idx)
        if barrier.count >= barrier.parties:
            for i, w in enumerate(barrier.waiters):
                # Release events after the last arrival: every waiter's
                # continuation is ordered after every arrival.
                self._record(OP.BARRIER, obj=barrier, loc="?", extra="release", thread=w)
                self._wake(w, i)
            barrier.waiters.clear()
            barrier.count = 0
            barrier.generation += 1
            t.pending = idx
        else:
            self._block(t, TState.BLOCKED, barrier)
            barrier.waiters.append(t)

    # -- events ---------------------------------------------------------------
    def _h_event_wait(self, t: SimThread, call: sc.EventWait) -> None:
        event = call.event
        if event.flag:
            self._record(OP.EVENT_WAIT, obj=event, loc=self._loc(call, t))
            t.pending = True
            return
        self._block(t, TState.BLOCKED, event)
        event.waiters.append(t)
        if call.timeout is not None:
            self._arm_timer(t, call.timeout, "event_timeout", event)

    def _h_event_set(self, t: SimThread, call: sc.EventSet) -> None:
        event = call.event
        event.flag = True
        self._record(OP.EVENT_SET, obj=event, loc=self._loc(call, t))
        for w in event.waiters:
            # EVENT_WAIT is recorded at wake time (after EVENT_SET in
            # trace order) so the set -> wait-return edge is visible.
            self._record(OP.EVENT_WAIT, obj=event, loc="?", thread=w)
            self._wake(w, True)
        event.waiters.clear()

    def _h_event_clear(self, t: SimThread, call: sc.EventClear) -> None:
        call.event.flag = False

    # -- annotations -------------------------------------------------------
    def _h_begin_atomic(self, t: SimThread, call: sc.BeginAtomic) -> None:
        self._record(OP.ATOMIC_BEGIN, obj=None, loc=self._loc(call, t), extra=call.label)

    def _h_end_atomic(self, t: SimThread, call: sc.EndAtomic) -> None:
        self._record(OP.ATOMIC_END, obj=None, loc=self._loc(call, t), extra=call.label)

    def _h_annotate(self, t: SimThread, call: sc.Annotate) -> None:
        self._record(
            OP.ANNOTATE, obj=None, loc=self._loc(call, t),
            extra={"kind": call.kind, "data": call.data},
        )

    # -- concurrent breakpoints --------------------------------------------
    def _h_trigger(self, t: SimThread, call: sc.Trigger) -> None:
        """A thread reached a breakpoint site: skip it, park it, or release
        a match.  A match of any size runs one path: ``ordered[0]`` is
        pinned for its next step and every later member waits in
        ``ORDER_WAIT`` for its predecessor's next step."""
        inst = call.inst
        if not GLOBAL.enabled:
            t.pending = False
            return
        loc = self._loc(call, t)
        self._record(OP.TRIGGER_VISIT, obj=inst, loc=loc, extra={"name": inst.name})
        runtimectx.push_held_locks(t.held_locks)
        try:
            result = self.engine.arrive(
                inst, call.is_first, thread_key=t.tid, now=self.now, timeout=call.timeout
            )
        finally:
            runtimectx.pop_held_locks()

        if isinstance(result, Skipped):
            t.pending = False
            return

        entry = result.entry
        entry.handle = t
        if isinstance(result, Matched):
            threads = [e.handle for e in result.ordered]
            self._record(
                OP.TRIGGER_HIT,
                obj=inst,
                loc=loc,
                extra={
                    "name": inst.name,
                    "threads": (t.name, *[th.name for th in threads if th is not t]),
                },
            )
            # Exact Section 2 semantics: wake the partners, pin the first
            # member of the release order, and chain the rest so each
            # resumes only after its predecessor's next instruction.
            for th in threads:
                if th is not t:
                    self._wake(th, True)
            t.pending = True
            self._pinned.append(threads[0])
            for prev, nxt in zip(threads, threads[1:]):
                self._block(nxt, TState.ORDER_WAIT, prev)
                prev.order_waiters.append(nxt)
            return

        self._record(OP.TRIGGER_POSTPONE, obj=inst, loc=loc, extra={"name": inst.name})
        self._block(t, TState.BLOCKED, ("breakpoint", entry))
        self._arm_timer(t, call.timeout, "trigger_timeout", entry)

    # ------------------------------------------------------------------
    # Interruption
    # ------------------------------------------------------------------
    def interrupt(self, target: SimThread, exc: Optional[BaseException] = None) -> bool:
        """Deliver ``exc`` into ``target`` at its next scheduling point.

        Blocked threads are unwound from whatever they wait on first; a
        thread parked in a condition ``wait`` reacquires the monitor
        before the exception is raised (Java's ``InterruptedException``
        contract).  Returns False for finished threads.
        """
        if not target.alive:
            return False
        if exc is None:
            exc = ThreadInterrupted()
        target.pending_exc = exc

        waiting = target.waiting_on
        if target.state in (TState.RUNNABLE, TState.NEW, TState.ORDER_WAIT):
            # Will run (or be released by its predecessor) anyway; the
            # exception fires at its next step.
            return True
        if target.state is TState.SLEEPING:
            self._wake(target, None)
            return True

        # BLOCKED: unwind the wait.
        if isinstance(waiting, SimCondition):
            if target in waiting.waiters:
                waiting.waiters.remove(target)
            target.wake_epoch += 1  # kill the wait timer
            ctx = self._wait_ctx.pop(target, ("wait_return", (waiting.lock, 1, False)))
            _, (lock, count, _result) = ctx
            # Reacquire the monitor; the exception is raised once granted.
            self._begin_reacquire(target, lock, count, False)
            return True
        if isinstance(waiting, SimLock):
            if target in waiting.waiters:
                waiting.waiters.remove(target)
            self._wait_ctx.pop(target, None)
            self._wake(target, None)
            return True
        if isinstance(waiting, (SimSemaphore, SimBarrier, SimEvent)):
            if target in waiting.waiters:
                waiting.waiters.remove(target)
            self._wake(target, None)
            return True
        if isinstance(waiting, SimThread):  # join
            if target in waiting.joiners:
                waiting.joiners.remove(target)
            self._wake(target, None)
            return True
        if isinstance(waiting, tuple) and waiting and waiting[0] == "breakpoint":
            self.engine.cancel(waiting[1])
            self._wake(target, None)
            return True
        # Unknown wait (active-test pause etc.): wake and deliver.
        self._wake(target, None)
        return True

    # ------------------------------------------------------------------
    # Deadlock diagnosis & results
    # ------------------------------------------------------------------
    def _diagnose_deadlock(self) -> SimDeadlockError:
        waiters = {t.name: t.describe_block() for t in self.threads if t.blocked}
        # Follow lock-ownership edges to find a cycle.
        cycle = None
        for start in self.threads:
            if not start.blocked or not isinstance(start.waiting_on, SimLock):
                continue
            seen: List[SimThread] = []
            cur: Optional[SimThread] = start
            while cur is not None and cur not in seen:
                seen.append(cur)
                target = cur.waiting_on
                cur = target.owner if isinstance(target, SimLock) else None
            if cur is not None:
                cycle = [x.name for x in seen[seen.index(cur):]] + [cur.name]
                break
        return SimDeadlockError(waiters, cycle)

    def _check_step_accounting(self) -> None:
        """End-of-run consistency cross-check of the three independent
        step counts: the kernel's global counter (what obs flush
        reports), the per-thread counters (what ``sim.timeline`` /
        ``RunResult.threads`` consumers re-derive totals from), and the
        trace's final event step.  A mismatch means an accounting bug
        that would silently skew every downstream metric, so it is a
        hard error, not a warning."""
        per_thread = sum(t.steps for t in self.threads)
        if per_thread != self.step:
            raise RuntimeError(
                f"step accounting mismatch: kernel counted {self.step} steps "
                f"but thread counters sum to {per_thread}"
            )
        if self.trace is not None:
            last = self.trace.last_step()
            if last > self.step:
                raise RuntimeError(
                    f"step accounting mismatch: trace records step {last} "
                    f"but the kernel only counted {self.step}"
                )

    def _flush_obs(self) -> None:
        """Fold the run's accumulated counts into the metrics registry.

        Called once from :meth:`_result`; hot-path accumulation uses
        flat slot counters so instrumented runs stay within the <5 %
        obs-overhead gate (``benchmarks/bench_obs_overhead.py``).
        """
        m = self.obs
        if m is None or self._obs_flushed:
            return
        self._obs_flushed = True
        counts = {
            "kernel.runs": 1,
            "kernel.steps": self.step,
            "kernel.ctx_switches": self.ctx_switches,
            "kernel.threads_spawned": len(self.threads),
        }
        for name, n in zip(_MIX_NAMES, self._syscall_mix):
            if n:
                counts[name] = n
        if self.failures:
            counts["kernel.thread_failures"] = len(self.failures)
        if self._deadlock is not None:
            counts["kernel.deadlocks"] = 1
        if self._stalled:
            counts["kernel.stalls"] = 1
        if self._limit_hit:
            counts["kernel.step_limit_hits"] = 1
        # The engine contributes its engine.* counters into the same
        # dict so the run's counters land in one registry call.
        self.engine.flush_metrics(into=counts)
        m.add_counters(counts)
        m.histogram("kernel.virtual_seconds").observe(self.now)

    def _result(self) -> RunResult:
        completed = all(not t.alive or t.daemon for t in self.threads)
        self._check_step_accounting()
        self._flush_obs()
        return RunResult(
            time=self.now,
            steps=self.step,
            completed=completed and not self._deadlock and not self._stalled,
            deadlocked=self._deadlock is not None,
            deadlock=self._deadlock,
            stalled=self._stalled,
            limit_hit=self._limit_hit,
            failures=list(self.failures),
            trace=self.trace,
            breakpoint_stats=self.engine.snapshot(),
            threads=list(self.threads),
        )

    def state_signature(self) -> str:
        """Process-portable digest of scheduling-visible kernel state.

        Covers the clock, step count, RNG state, every thread's
        lifecycle (state, wake epoch, held locks, what it waits on),
        pending timers, and the state keys of synchronisation primitives
        reachable from threads.  Two kernels that executed the same
        choice sequence produce the same signature *in any process* —
        identities are ``uid``/``tid`` based, never ``id()`` based — so
        the determinism tests can check that the fast kernel and the
        reference kernel end one schedule in the same state.

        It is a fidelity check, not a full heap dump: application state
        held in plain Python objects is outside the kernel's view (the
        differential batteries compare it via ``observe`` snapshots and
        traces instead).
        """
        prims: Dict[int, Any] = {}

        def note(obj: Any) -> Any:
            if isinstance(obj, SimThread):
                return ("SimThread", obj.tid)
            key = getattr(obj, "state_key", None)
            if key is None:
                return type(obj).__name__
            prims[obj.uid] = obj
            return (type(obj).__name__, obj.uid)

        threads = tuple(
            (
                t.tid,
                t.name,
                t.state.name,
                t.wake_epoch,
                t.steps,
                t.daemon,
                tuple(note(lk) for lk in t.held_locks),
                note(t.waiting_on) if t.waiting_on is not None else None,
            )
            for t in self.threads
        )
        timers = tuple(
            (when, seq, thread.tid, epoch, kind)
            for when, seq, thread, epoch, kind, _payload in sorted(
                self._timers, key=lambda e: (e[0], e[1])
            )
        )
        body = repr(
            (
                self.step,
                self.now,
                self.ctx_switches,
                self.rng.getstate(),
                threads,
                timers,
                tuple(prims[uid].state_key() for uid in sorted(prims)),
                tuple(
                    sorted(
                        (name, repr(stats))
                        for name, stats in self.engine.snapshot().items()
                    )
                ),
                self._limit_hit,
                self._stalled,
                self._deadlock is not None,
                len(self.failures),
            )
        )
        return hashlib.sha1(body.encode()).hexdigest()


#: Class-keyed syscall dispatch table (the fast path of
#: :meth:`Kernel._dispatch`).  Subclasses of handled syscalls are
#: resolved through their MRO and cached here on first dispatch.
_HANDLERS: Dict[type, Callable[..., None]] = {
    sc.Acquire: Kernel._h_acquire,
    sc.Release: Kernel._h_release,
    sc.Wait: Kernel._h_wait,
    sc.Notify: Kernel._h_notify,
    sc.Sleep: Kernel._h_sleep,
    sc.Read: Kernel._h_read,
    sc.Write: Kernel._h_write,
    sc.Yield: Kernel._h_yield,
    sc.Now: Kernel._h_now,
    sc.Join: Kernel._h_join,
    sc.Interrupt: Kernel._h_interrupt,
    sc.AcquireSem: Kernel._h_sem_p,
    sc.ReleaseSem: Kernel._h_sem_v,
    sc.BarrierWait: Kernel._h_barrier,
    sc.EventWait: Kernel._h_event_wait,
    sc.EventSet: Kernel._h_event_set,
    sc.EventClear: Kernel._h_event_clear,
    sc.BeginAtomic: Kernel._h_begin_atomic,
    sc.EndAtomic: Kernel._h_end_atomic,
    sc.Annotate: Kernel._h_annotate,
    sc.Trigger: Kernel._h_trigger,
}
