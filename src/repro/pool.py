"""One fault-tolerant process pool: the only place the package forks.

Trial sweeps (:mod:`repro.harness.parallel`), sharded exploration
(:mod:`repro.sim.explore`, :mod:`repro.sim.dpor`) and the service's
persistent job workers (:mod:`repro.svc.pool`) all fan work out through
:class:`Pool`.  The module is stdlib-only and imports nothing from
:mod:`repro`.

Each worker is a process (forked where the platform can fork, so it
inherits the caller's closures; spawned otherwise, when ``fn`` must be
picklable) with one private duplex pipe: killing a worker can corrupt
only its own pipe, which the parent already treats as a crash.  The
parent sends a batch of tasks; the worker streams ``begin`` before each
task, ``ok`` or ``err`` after it, and ``done`` after the batch.

The fault contract is the same for every caller:

* **Exception** — a task that raises is reported ``kind="exception"``;
  the worker survives.
* **Crash** — a worker that dies (``os._exit``, a signal, a result that
  cannot be pickled) is reaped and replaced.  The task it had begun is
  blamed; a worker that died before any ``begin`` blames its batch's
  first unfinished task, so a worker that always dies on receipt still
  converges.  The rest of the batch is re-queued at no cost.
* **Retry** — an exception or a crash is retried, in a batch of its own,
  while the attempt count is within the caller's ``max_retries``.
* **Timeout** — a task still running ``timeout`` seconds after its
  ``begin`` has its worker killed and replaced, and is reported
  ``kind="timeout"``.  It is never retried: tasks are deterministic, it
  would stall again.
* **Exactly once** — every task is reported once, as a :class:`Result`
  carrying its attempt count.  Bookkeeping is keyed by position in the
  task list, so tasks need not be hashable.

Workers are non-daemonic, so a task may start a nested pool, and are
always retired by their pool.  A new worker first closes every
parent-side pipe end its fork copied, from every pool in the process, so
a parent holds the only copy of each worker's peer end: a parent that
dies without a goodbye (SIGKILL) reaches its idle workers as EOF, and
they exit instead of lingering as orphans.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import time
from multiprocessing import connection as mpc
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

__all__ = ["FORKS", "ParallelExecutionError", "Pool", "Result"]

#: Workers fork where the platform can; elsewhere they spawn.
FORKS = "fork" in multiprocessing.get_all_start_methods()
_CTX = multiprocessing.get_context("fork" if FORKS else "spawn")

#: Serialises pipe creation with fork, so no worker forks while another
#: worker's parent-side end exists but is missing from ``_HELD_ENDS``.
_FORK_LOCK = threading.Lock()
#: Pipe ends this process holds that a worker it forks must close.
_HELD_ENDS: set = set()


class ParallelExecutionError(RuntimeError):
    """The pool lost track of a task (a bug, not a workload failure)."""


@dataclasses.dataclass(frozen=True)
class Result:
    """How one task ended: its value, or the failure that ended it."""

    task: Any
    ok: bool
    value: Any = None
    #: ``"exception"``, ``"crash"`` or ``"timeout"``; None when ``ok``.
    kind: Optional[str] = None
    message: str = ""
    attempts: int = 1


def _worker_main(conn: Any, fn: Callable[[Any, int], Any]) -> None:
    """Worker body: run batches of ``(index, task, attempt)`` until told
    to exit (``None``) or the parent's end closes."""
    global _FORK_LOCK, _HELD_ENDS
    for end in _HELD_ENDS:
        end.close()
    # The fork copied the lock in the state the forking thread held it
    # in; a task that starts its own pool would wait on it forever.
    _FORK_LOCK = threading.Lock()
    _HELD_ENDS = {conn}
    try:
        for batch in iter(conn.recv, None):
            for index, task, attempt in batch:
                conn.send(("begin", index, attempt))
                try:
                    value = fn(task, attempt)
                except Exception as exc:  # noqa: BLE001 - reported as a failure
                    conn.send(("err", index, attempt, f"{type(exc).__name__}: {exc}"))
                else:
                    conn.send(("ok", index, attempt, value))
            conn.send(("done",))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # the parent is gone: nobody is left to report to
    finally:
        conn.close()


#: A task's index in the task list and the attempt it is on (0 = first).
_Item = Tuple[int, int]


@dataclasses.dataclass(eq=False)
class _Worker:
    """One worker process, its parent-side pipe end and its batch."""

    slot: int
    proc: Any
    conn: Any
    batch: Optional[List[_Item]] = None
    done: set = dataclasses.field(default_factory=set)
    current: Optional[_Item] = None
    began: float = 0.0
    served: int = 0


@dataclasses.dataclass
class _Call:
    """One :meth:`Pool.map` call: its tasks, queued batches and budget."""

    tasks: List[Any]
    queue: List[List[_Item]]
    max_retries: int
    timeout: Optional[float]


class Pool:
    """``workers`` processes that run ``fn(task, attempt)`` per task.

    A pool outlives any number of :meth:`map` calls; each map is driven
    by one thread at a time, while :meth:`kill` and :meth:`close` may come
    from another.  ``max_tasks_per_worker`` replaces a worker gracefully
    once it has answered that many tasks.  ``on_event(name)`` observes
    the pool: ``"spawned"``, ``"retired"``, ``"recycled"``, ``"served"``
    (a task answered, ok or not), ``"crash"`` and ``"timeout"`` (a worker
    lost).  As a context manager the pool is started on entry and closed
    on exit.
    """

    def __init__(
        self,
        fn: Callable[[Any, int], Any],
        workers: int = 1,
        *,
        max_tasks_per_worker: Optional[int] = None,
        on_event: Optional[Callable[[str], None]] = None,
        name: str = "repro-pool",
    ) -> None:
        if workers <= 0:
            raise ValueError(f"pool workers must be positive, got {workers}")
        self._fn = fn
        self.max_tasks_per_worker = max_tasks_per_worker
        self._on_event = on_event
        self.name = name
        self._workers: List[Optional[_Worker]] = [None] * workers
        self._lock = threading.Lock()  # guards _workers and _stopping
        self._stopping = False

    def __enter__(self) -> "Pool":
        return self.start()

    def __exit__(self, exc_type: Any, *_: Any) -> None:
        self.close(kill=exc_type is not None)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Pool":
        """Fork every worker; return the pool."""
        for slot in range(len(self._workers)):
            self._spawn(slot)
        return self

    def pids(self) -> List[Optional[int]]:
        """The live worker PID of each slot (None while it has none)."""
        with self._lock:
            return [None if w is None else w.proc.pid for w in self._workers]

    def kill(self) -> None:
        """Hard-kill every worker and fork no more: in-flight tasks end
        as crashes and nothing is retried."""
        for worker in self._stop():
            worker.proc.kill()

    def close(self, kill: bool = False) -> None:
        """Retire every worker; ``kill`` skips the graceful exit message."""
        for worker in self._stop():
            self._retire(worker, kill=kill)

    def _stop(self) -> List[_Worker]:
        """Fork no more workers; return the live ones."""
        with self._lock:
            self._stopping = True
        return self._live()

    def _emit(self, event: str) -> None:
        if self._on_event is not None:
            self._on_event(event)

    def _live(self) -> List[_Worker]:
        with self._lock:
            return [w for w in self._workers if w is not None]

    def _spawn(self, slot: int) -> Optional[_Worker]:
        """Fork a worker into ``slot``; None once the pool is stopping."""
        if self._stopping:
            return None
        with _FORK_LOCK:
            conn, child = _CTX.Pipe(duplex=True)
            _HELD_ENDS.add(conn)
            proc = _CTX.Process(target=_worker_main, args=(child, self._fn),
                                name=f"{self.name}-{slot}", daemon=False)
            try:
                proc.start()
            except BaseException:
                _HELD_ENDS.discard(conn)
                conn.close()
                raise
            finally:
                child.close()
        worker = _Worker(slot, proc, conn)
        with self._lock:
            stopping = self._stopping
            if not stopping:
                self._workers[slot] = worker
        if stopping:  # lost the race with close(): never publish it
            self._reap(worker, kill=True)
            return None
        self._emit("spawned")
        return worker

    def _retire(self, worker: _Worker, *, kill: bool) -> None:
        """Take ``worker`` out of its slot and reap the process."""
        with self._lock:
            owned = self._workers[worker.slot] is worker
            if owned:
                self._workers[worker.slot] = None
        self._reap(worker, kill=kill)
        if owned:
            self._emit("retired")

    def _replace(self, worker: _Worker, *, kill: bool) -> Optional[_Worker]:
        self._retire(worker, kill=kill)
        return self._spawn(worker.slot)

    @staticmethod
    def _reap(worker: _Worker, *, kill: bool) -> None:
        if kill:
            worker.proc.kill()
        else:
            try:
                worker.conn.send(None)
            except OSError:
                pass  # already dead; join reaps it
        worker.proc.join(timeout=5)
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(timeout=5)
        _HELD_ENDS.discard(worker.conn)
        worker.conn.close()

    # ------------------------------------------------------------------
    # Running tasks
    # ------------------------------------------------------------------
    def map(
        self,
        tasks: Iterable[Any],
        *,
        max_retries: int = 0,
        timeout: Optional[float] = None,
        chunk_size: int = 1,
    ) -> Iterator[Result]:
        """Run every task and yield one :class:`Result` per task as it ends.

        Tasks travel to workers in batches of ``chunk_size``; results
        arrive in completion order.  ``timeout`` is the per-task
        wall-clock budget (None = unlimited).  The generator returns only
        once every worker is idle again, so the pool is ready for the
        next call.
        """
        tasks = list(tasks)
        n = len(tasks)
        batches = [[(i, 0) for i in range(lo, min(lo + chunk_size, n))]
                   for lo in range(0, n, chunk_size)]
        call = _Call(tasks, batches[::-1], max_retries, timeout)  # pop() = next
        left = n
        while left or any(w.batch is not None for w in self._live()):
            self._dispatch(call)
            busy = [w for w in self._live() if w.batch is not None]
            if busy:
                finished = self._step(call, busy)
            elif call.queue and self._stopping:
                finished = [Result(tasks[i], False, kind="crash", attempts=a + 1,
                                   message=f"{self.name} is stopping")
                            for batch in call.queue for i, a in batch]
                call.queue.clear()
            else:
                raise ParallelExecutionError(
                    f"{left} task(s) unaccounted with no work in flight"
                )
            for result in finished:
                left -= 1
                yield result

    def _dispatch(self, call: _Call) -> None:
        """Hand queued batches to idle workers."""
        for worker in self._live():
            if not call.queue:
                return
            if worker.batch is not None:
                continue
            if not worker.proc.is_alive():  # died idle: replace, charge no task
                worker = self._replace(worker, kill=True)
                if worker is None:
                    continue
            worker.batch, worker.done, worker.current = call.queue.pop(), set(), None
            try:
                worker.conn.send([(i, call.tasks[i], a) for i, a in worker.batch])
            except OSError:
                pass  # the worker is dead; _step reaps it and blames the batch

    def _step(self, call: _Call, busy: List[_Worker]) -> List[Result]:
        """Wait for a message, an exit or a deadline among ``busy`` and act
        on it; return the tasks that ended."""
        timeout, wait = call.timeout, None
        began = [w.began for w in busy if w.current is not None]
        if timeout is not None and began:
            wait = max(0.0, min(began) + timeout - time.monotonic())
        ready = set(mpc.wait([w.conn for w in busy] + [w.proc.sentinel for w in busy], wait))
        finished: List[Result] = []
        for w in busy:
            if w.conn in ready:
                try:
                    msg = w.conn.recv()
                except (EOFError, OSError):
                    finished += self._lost(call, w, "crash", "worker died mid-task")
                else:
                    finished += self._handle(call, w, msg)
            elif w.proc.sentinel in ready and not w.conn.poll():
                finished += self._lost(call, w, "crash", "worker process exited")
            elif (
                timeout is not None
                and w.current is not None
                and time.monotonic() - w.began >= timeout
                and not w.conn.poll()  # no unread result racing the deadline
            ):
                finished += self._lost(call, w, "timeout", f"exceeded its {timeout}s timeout")
        return finished

    def _handle(self, call: _Call, w: _Worker, msg: Tuple[Any, ...]) -> List[Result]:
        """Apply one worker message; return the task it ended, if any."""
        if msg[0] == "begin":
            w.current, w.began = (msg[1], msg[2]), time.monotonic()
            return []
        if msg[0] == "done":
            w.batch = None
            cap = self.max_tasks_per_worker
            if cap is not None and w.served >= cap:
                self._emit("recycled")
                self._replace(w, kill=False)
            return []
        tag, index, attempt, payload = msg
        w.done.add(index)
        w.current = None
        w.served += 1
        self._emit("served")
        if tag == "ok":
            return [Result(call.tasks[index], True, payload, attempts=attempt + 1)]
        return self._settle(call, index, attempt, "exception", payload)

    def _lost(self, call: _Call, w: _Worker, kind: str, message: str) -> List[Result]:
        """A worker died or timed out: blame one task, re-queue the rest
        of its batch and replace the worker."""
        self._emit(kind)
        unfinished = [(i, a) for i, a in w.batch if i not in w.done]
        blame = w.current or (unfinished[0] if unfinished else None)
        finished: List[Result] = []
        if blame is not None:
            finished = self._settle(call, *blame, kind, message)
            rest = [item for item in unfinished if item[0] != blame[0]]
            if rest:
                call.queue.append(rest)
        self._replace(w, kill=True)
        return finished

    def _settle(
        self, call: _Call, index: int, attempt: int, kind: str, message: str
    ) -> List[Result]:
        """Retry a failed attempt while the budget allows; else report it."""
        if kind != "timeout" and attempt < call.max_retries and not self._stopping:
            call.queue.append([(index, attempt + 1)])
            return []
        return [Result(call.tasks[index], False, kind=kind, message=message,
                       attempts=attempt + 1)]
