"""The pre-rewrite kernel loop, kept as a differential oracle.

:class:`ReferenceKernel` preserves the original (pre fast-path)
per-step machinery of :class:`~repro.sim.kernel.Kernel` verbatim:

* selection re-derives the runnable set each step with a scan+sort over
  all threads (``_next_thread``) instead of consulting the maintained
  ``_ready`` list;
* dispatch walks the original 20-way ``isinstance`` chain
  (``_dispatch`` + ``_do_*``) instead of the class-keyed handler table;
* tracing eagerly allocates an :class:`~repro.sim.trace.Event` object
  per record (:class:`ReferenceTrace`) instead of the flat slot buffer.

Everything else — timers, lock plumbing, wake/finish bookkeeping — is
inherited, so the two kernels share one semantics implementation and
differ only in the rewritten hot paths.  That makes this class both:

* the **correctness oracle** of the differential battery
  (``tests/sim/test_kernel_determinism.py``): for any program, scheduler
  and seed, fast and reference kernels must pick identical threads and
  emit bit-identical traces; and
* the **perf denominator** of ``benchmarks/bench_kernel_throughput.py``:
  the gated metric is the machine-relative ``speedup_vs_reference``.

The inherited helpers maintain the fast path's ``_ready`` list as a side
effect; the reference loop never consults it, and stale or duplicate
entries are harmless — every RUNNABLE thread always retains at least its
spawn entry, so the inherited ``_finish``/``_fail`` removal cannot fail.

Do not "improve" this module: its value is that it does NOT change when
the fast path does.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, List, Optional

from repro.core import runtimectx
from repro.core.engine import Matched, Skipped

from . import syscalls as sc
from .errors import SimSyscallError
from .kernel import Kernel, RunResult
from .primitives import SimCondition, SimLock
from .scheduler import Scheduler
from .thread import SimThread, TState
from .trace import OP, Event

__all__ = ["ReferenceKernel", "ReferenceTrace"]


class ReferenceTrace:
    """The original eager trace: one :class:`Event` object per record."""

    def __init__(self) -> None:
        self.events: List[Event] = []
        self._seq = 0

    def record(
        self,
        time: float,
        tid: int,
        tname: str,
        op: str,
        obj: Any = None,
        loc: str = "?",
        extra: Any = None,
        step: int = -1,
    ) -> Event:
        ev = Event(self._seq, time, tid, tname, op, obj, loc, extra, step)
        self.events.append(ev)
        self._seq += 1
        return ev

    # Same call signature as the flat Trace's hot path, so the shared
    # kernel helpers (``_record``, ``_grant_lock``) work on both.
    def append(
        self,
        time: float,
        tid: int,
        tname: str,
        op: str,
        obj: Any = None,
        loc: str = "?",
        extra: Any = None,
        step: int = -1,
    ) -> None:
        self.record(time, tid, tname, op, obj, loc, extra, step)

    def last_step(self) -> int:
        return self.events[-1].step if self.events else -1

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class ReferenceKernel(Kernel):
    """Kernel with the pre-rewrite selection/dispatch/trace hot paths."""

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        seed: Optional[int] = None,
        record_trace: bool = False,
        step_cost: float = 1e-6,
        obs: Any = None,
    ) -> None:
        super().__init__(
            scheduler=scheduler, seed=seed, record_trace=False, step_cost=step_cost, obs=obs
        )
        self.trace = ReferenceTrace() if record_trace else None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Original tracing and lock-grant paths (eager Event per record,
    # unconditional source-location computation on grant)
    # ------------------------------------------------------------------
    def _record(
        self,
        op: str,
        obj: Any = None,
        loc: Optional[str] = None,
        extra: Any = None,
        thread: Optional[SimThread] = None,
    ) -> None:
        if self.trace is None:
            return
        t = thread if thread is not None else self.current
        tid = t.tid if t else -1
        tname = t.name if t else "main"
        if loc is None:
            loc = t.location() if t else "?"
        self.trace.record(self.now, tid, tname, op, obj, loc, extra, step=self.step)

    def _grant_lock(
        self, lock: SimLock, thread: SimThread, count: int, loc: Optional[str] = None
    ) -> None:
        lock.owner = thread
        lock.count = count
        thread.held_locks.append(lock)
        self._record(OP.ACQUIRE, obj=lock, loc=loc or thread.location(), thread=thread)

    # ------------------------------------------------------------------
    # Original main loop
    # ------------------------------------------------------------------
    def run(self, max_steps: int = 2_000_000, max_time: float = math.inf) -> RunResult:
        """Execute with the original select-then-step loop."""
        while True:
            if self.step >= max_steps:
                self._limit_hit = True
                break
            if self._live_foreground == 0:
                break  # normal completion (daemons abandoned, as in CPython)

            thread = self._next_thread(max_time)
            if thread is None:
                break  # deadlock or stall, flags already set
            self._execute_step(thread)

        return self._result()

    def _next_thread(self, max_time: float) -> Optional[SimThread]:
        while True:
            if self.now > max_time:
                self._stalled = True
                return None
            while self._pinned:
                t = self._pinned.pop(0)
                if t.state is TState.RUNNABLE:
                    return t
            runnable = [t for t in self.threads if t.state is TState.RUNNABLE]
            if runnable:
                runnable.sort(key=lambda t: t.tid)
                return self.scheduler.pick(runnable, self.step)
            # Drop stale timers (their thread was woken by another path)
            # before advancing the clock.
            while self._timers:
                _, _, th, epoch, _, _ = self._timers[0]
                if epoch != th.wake_epoch or not th.alive:
                    heapq.heappop(self._timers)
                else:
                    break
            if self._timers:
                deadline = self._timers[0][0]
                if deadline > max_time:
                    self.now = max_time
                    self._stalled = any(t.alive for t in self.threads)
                    return None
                self.now = max(self.now, deadline)
                self._fire_due_timers()
                continue
            # No runnable threads, no timers.
            if any(t.alive for t in self.threads):
                self._deadlock = self._diagnose_deadlock()
                return None
            return None

    def _execute_step(self, thread: SimThread) -> None:
        self.current = thread
        self.step += 1
        thread.steps += 1
        self.now += self.step_cost
        if thread.tid != self._last_tid:
            self.ctx_switches += 1
            self._last_tid = thread.tid
        if thread.state is TState.NEW:
            thread.state = TState.RUNNABLE

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
                if self.pre_dispatch is not None and isinstance(item, sc.Syscall):
                    delay = self.pre_dispatch(thread, item)
                if delay is not None and delay > 0:
                    thread.state = TState.SLEEPING
                    thread.waiting_on = "active-test pause"
                    self._arm_timer(thread, delay, "retry", item)
                else:
                    self._dispatch(thread, item)
            except SimSyscallError as err:
                thread.pending_exc = RuntimeError(str(err))
        if thread.order_waiters:
            for w in thread.order_waiters:
                if w.state is TState.ORDER_WAIT:
                    self._wake(w, True)
            thread.order_waiters.clear()
        if thread.state is TState.RUNNABLE:
            delay = self.scheduler.delay_after_pick(thread, self.step)
            if delay > 0.0:
                thread.state = TState.SLEEPING
                thread.waiting_on = "noise"
                self._arm_timer(thread, delay, "noise")
        self.current = None

    # ------------------------------------------------------------------
    # Original isinstance-chain dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, t: SimThread, call: Any) -> None:
        if not isinstance(call, sc.Syscall):
            raise SimSyscallError(f"thread {t.name} yielded non-syscall {call!r}")
        mix = self._syscall_mix
        if mix is not None and hasattr(call, "_mix_idx"):
            mix[call._mix_idx] += 1
        loc = self._loc(call, t)

        if isinstance(call, sc.Acquire):
            self._do_acquire(t, call.lock, loc)
        elif isinstance(call, sc.Release):
            self._do_release(t, call.lock, loc)
        elif isinstance(call, sc.Wait):
            self._do_wait(t, call.cond, call.timeout, loc)
        elif isinstance(call, sc.Notify):
            self._do_notify(t, call.cond, call.n, loc)
        elif isinstance(call, sc.Sleep):
            self._record(OP.SLEEP, obj=None, loc=loc, extra=call.duration)
            if call.duration <= 0:
                t.pending = None
            else:
                t.state = TState.SLEEPING
                t.waiting_on = "sleep"
                self._arm_timer(t, call.duration, "sleep")
        elif isinstance(call, sc.Read):
            value = call.cell.value
            self._record(OP.READ, obj=call.cell, loc=loc, extra=value)
            t.pending = value
        elif isinstance(call, sc.Write):
            call.cell.value = call.value
            self._record(OP.WRITE, obj=call.cell, loc=loc, extra=call.value)
        elif isinstance(call, sc.Yield):
            t.pending = None
        elif isinstance(call, sc.Now):
            t.pending = self.now
        elif isinstance(call, sc.Join):
            self._do_join(t, call.thread, call.timeout, loc)
        elif isinstance(call, sc.Interrupt):
            t.pending = self.interrupt(call.thread, call.exc)
        elif isinstance(call, sc.AcquireSem):
            self._do_sem_p(t, call.sem, loc)
        elif isinstance(call, sc.ReleaseSem):
            self._do_sem_v(t, call.sem, loc)
        elif isinstance(call, sc.BarrierWait):
            self._do_barrier(t, call.barrier, loc)
        elif isinstance(call, sc.EventWait):
            self._do_event_wait(t, call.event, call.timeout, loc)
        elif isinstance(call, sc.EventSet):
            call.event.flag = True
            self._record(OP.EVENT_SET, obj=call.event, loc=loc)
            for w in call.event.waiters:
                self._record(OP.EVENT_WAIT, obj=call.event, loc="?", thread=w)
                self._wake(w, True)
            call.event.waiters.clear()
        elif isinstance(call, sc.EventClear):
            call.event.flag = False
        elif isinstance(call, sc.BeginAtomic):
            self._record(OP.ATOMIC_BEGIN, obj=None, loc=loc, extra=call.label)
        elif isinstance(call, sc.EndAtomic):
            self._record(OP.ATOMIC_END, obj=None, loc=loc, extra=call.label)
        elif isinstance(call, sc.Annotate):
            self._record(OP.ANNOTATE, obj=None, loc=loc, extra={"kind": call.kind, "data": call.data})
        elif isinstance(call, sc.Trigger):
            self._do_trigger(t, call, loc)
        else:  # pragma: no cover - defensive
            raise SimSyscallError(f"unhandled syscall {call!r}")

    # -- locks ----------------------------------------------------------
    def _do_acquire(self, t: SimThread, lock: SimLock, loc: str) -> None:
        if lock.owner is t:
            if lock.reentrant:
                lock.count += 1
                t.pending = True
            else:
                self._record(OP.ACQUIRE_REQ, obj=lock, loc=loc)
                t.state = TState.BLOCKED
                t.waiting_on = lock
                lock.waiters.append(t)
                self._wait_ctx[t] = ("acquire", loc)
        elif lock.owner is None and not lock.waiters:
            self._grant_lock(lock, t, 1, loc=loc)
            t.pending = True
        else:
            self._record(OP.ACQUIRE_REQ, obj=lock, loc=loc)
            t.state = TState.BLOCKED
            t.waiting_on = lock
            lock.waiters.append(t)
            self._wait_ctx[t] = ("acquire", loc)

    def _do_release(self, t: SimThread, lock: SimLock, loc: str) -> None:
        if lock.owner is not t:
            raise SimSyscallError(f"{t.name} released {lock.name} it does not hold")
        lock.count -= 1
        if lock.count > 0:
            return
        self._record(OP.RELEASE, obj=lock, loc=loc)
        self._release_lock_fully(lock, t)

    # -- monitors ---------------------------------------------------------
    def _do_wait(self, t: SimThread, cond: SimCondition, timeout: Optional[float], loc: str) -> None:
        lock = cond.lock
        if lock.owner is not t:
            raise SimSyscallError(f"{t.name} waits on {cond.name} without holding {lock.name}")
        saved = lock.count
        self._record(OP.WAIT_ENTER, obj=cond, loc=loc)
        self._record(OP.RELEASE, obj=lock, loc=loc)
        lock.count = 0
        self._release_lock_fully(lock, t)
        t.state = TState.BLOCKED
        t.waiting_on = cond
        cond.waiters.append(t)
        self._wait_ctx[t] = ("wait_return", (lock, saved, True))
        if timeout is not None:
            self._arm_timer(t, timeout, "wait_timeout", cond)

    def _do_notify(self, t: SimThread, cond: SimCondition, n: Optional[int], loc: str) -> None:
        if cond.lock.owner is not t:
            raise SimSyscallError(f"{t.name} notifies {cond.name} without holding its lock")
        count = len(cond.waiters) if n is None else min(n, len(cond.waiters))
        self._record(OP.NOTIFY, obj=cond, loc=loc, extra=count)
        for _ in range(count):
            w = cond.waiters.pop(0)
            w.wake_epoch += 1
            ctx = self._wait_ctx.pop(w, ("wait_return", (cond.lock, 1, True)))
            _, (lk, saved, _result) = ctx
            self._record(OP.WAIT_EXIT, obj=cond, loc="?", thread=w)
            self._begin_reacquire(w, lk, saved, True)

    # -- join ------------------------------------------------------------
    def _do_join(self, t: SimThread, target: SimThread, timeout: Optional[float], loc: str) -> None:
        self._record(OP.JOIN, obj=target, loc=loc)
        if not target.alive:
            self._record(OP.JOINED, obj=target, loc=loc)
            t.pending = True
            return
        t.state = TState.BLOCKED
        t.waiting_on = target
        target.joiners.append(t)
        if timeout is not None:
            self._arm_timer(t, timeout, "join_timeout", target)

    # -- semaphores --------------------------------------------------------
    def _do_sem_p(self, t: SimThread, sem: Any, loc: str) -> None:
        if sem.value > 0:
            sem.value -= 1
            self._record(OP.SEM_P, obj=sem, loc=loc)
            t.pending = True
        else:
            t.state = TState.BLOCKED
            t.waiting_on = sem
            sem.waiters.append(t)

    def _do_sem_v(self, t: SimThread, sem: Any, loc: str) -> None:
        self._record(OP.SEM_V, obj=sem, loc=loc)
        if sem.waiters:
            w = sem.waiters.pop(0)
            self._record(OP.SEM_P, obj=sem, loc="?", thread=w)
            self._wake(w, True)
        else:
            sem.value += 1

    # -- barriers -----------------------------------------------------------
    def _do_barrier(self, t: SimThread, barrier: Any, loc: str) -> None:
        idx = barrier.count
        barrier.count += 1
        self._record(OP.BARRIER, obj=barrier, loc=loc, extra=idx)
        if barrier.count >= barrier.parties:
            for i, w in enumerate(barrier.waiters):
                self._record(OP.BARRIER, obj=barrier, loc="?", extra="release", thread=w)
                self._wake(w, i)
            barrier.waiters.clear()
            barrier.count = 0
            barrier.generation += 1
            t.pending = idx
        else:
            t.state = TState.BLOCKED
            t.waiting_on = barrier
            barrier.waiters.append(t)

    # -- events ---------------------------------------------------------------
    def _do_event_wait(self, t: SimThread, event: Any, timeout: Optional[float], loc: str) -> None:
        if event.flag:
            self._record(OP.EVENT_WAIT, obj=event, loc=loc)
            t.pending = True
            return
        t.state = TState.BLOCKED
        t.waiting_on = event
        event.waiters.append(t)
        if timeout is not None:
            self._arm_timer(t, timeout, "event_timeout", event)

    # -- concurrent breakpoints --------------------------------------------
    def _do_trigger(self, t: SimThread, call: sc.Trigger, loc: str) -> None:
        from repro.core.config import GLOBAL

        inst = call.inst
        if not GLOBAL.enabled:
            t.pending = False
            return
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
            for th in threads:
                if th is not t:
                    self._wake(th, True)
            t.pending = True
            self._pinned.append(threads[0])
            for prev, nxt in zip(threads, threads[1:]):
                nxt.state = TState.ORDER_WAIT
                nxt.waiting_on = prev
                prev.order_waiters.append(nxt)
            return

        self._record(OP.TRIGGER_POSTPONE, obj=inst, loc=loc, extra={"name": inst.name})
        t.state = TState.BLOCKED
        t.waiting_on = ("breakpoint", entry)
        self._arm_timer(t, call.timeout, "trigger_timeout", entry)
