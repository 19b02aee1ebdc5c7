"""Fault-tolerant parallel trial execution.

The paper's protocol runs every configuration 100 times; each trial is
fully determined by ``(app class, config, seed)``, so the sweep is
embarrassingly parallel.  This module fans seeded trials out across a
pool of worker *processes* (the kernel is pure Python; threads would
serialise on the GIL) while preserving the serial runner's output
bit-for-bit:

* **Chunked seed partitioning** — seeds are dealt to workers in chunks
  to amortise IPC, but every per-trial result is streamed back
  individually and keyed by seed, so aggregation (via
  :class:`~repro.harness.stats.TrialAggregator`) is independent of which
  worker ran what, in which order.
* **Per-trial wall-clock timeouts** — a worker stuck in one trial past
  ``trial_timeout`` seconds is killed; the trial is recorded as a
  structured :class:`~repro.harness.stats.TrialFailure` (timeouts are
  not retried: the trial is deterministic, it would stall again) and the
  rest of its chunk is re-queued.
* **Bounded crash retry** — a worker that dies mid-trial (segfault,
  ``os._exit``, an exception escaping the trial) costs one attempt for
  the trial it was executing; the trial is re-queued until
  ``max_retries`` attempts are exhausted, then recorded as a failure.
  The sweep never aborts because one worker died.
* **Result equivalence, enforced in code** — the aggregator accepts each
  seed exactly once and refuses to finalise with seeds unaccounted for;
  finalisation orders by seed.  For any fixed seed range the parallel
  and serial runners therefore produce identical :class:`TrialStats`
  (same hit counts, same per-seed runtime lists), keeping every paper
  table reproducible regardless of worker count.

Workers communicate over one duplex pipe each (no shared queue): killing
a worker can corrupt only its own pipe, which the parent already treats
as a crash.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from multiprocessing import connection as mpc
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.apps.base import AppConfig, BaseApp
from repro.obs.context import ObsContext

from .stats import TrialAggregator, TrialFailure, TrialOutcome, TrialStats

__all__ = [
    "ParallelExecutionError",
    "run_trials_parallel",
    "execute_trial",
    "default_workers",
]

#: Messages worker -> parent.
_MSG_BEGIN = "begin"  # (seed, attempt): about to execute this trial
_MSG_OK = "ok"  # (seed, attempt, TrialOutcome)
_MSG_ERR = "err"  # (seed, attempt, message): trial raised, worker survives
_MSG_DONE = "done"  # (): chunk finished, worker idle

#: Parent poll period while waiting for worker messages (seconds).
_POLL = 0.02


class ParallelExecutionError(RuntimeError):
    """The pool lost track of a trial (a bug, not a workload failure)."""


def check_trial_count(n: int) -> None:
    """Refuse a negative sweep size; ``n == 0`` is the empty sweep."""
    if n < 0:
        raise ValueError(f"n must be >= 0 (number of trials), got {n}")


def default_workers() -> int:
    """Worker count used for ``workers="auto"``: one per CPU, min 2."""
    return max(2, os.cpu_count() or 1)


def execute_trial(
    app_cls: Type[BaseApp], cfg: AppConfig, seed: int,
    reuse_obs: Optional[ObsContext] = None,
) -> TrialOutcome:
    """Run one seeded trial and reduce it to a picklable scalar record.

    This is the single definition of "one trial" — the serial loop in
    :mod:`repro.harness.runner` and every pool worker call exactly this,
    so the two execution modes cannot diverge semantically.  When the
    config asks for metrics, the trial runs under a per-trial
    :class:`repro.obs.ObsContext` and its registry travels back on the
    outcome in wire form; wall-clock latency is recorded as a *volatile*
    metric (excluded from the parallel == serial determinism contract).

    ``reuse_obs`` lets a sweep share one context across its trials (the
    registry is reset before each trial) — allocating ~20 metric objects
    per trial costs more in allocation + GC than the trial's entire
    flush, so both runners pass a sweep-scoped context.  Reuse is an
    optimisation only: zeroed metrics left over from earlier trials
    merge as exact no-ops, so the merged sweep registry is identical.
    """
    app = app_cls(dataclasses.replace(cfg, params=dict(cfg.params)))
    obs = None
    wall = None
    if cfg.collect_metrics:
        if reuse_obs is not None:
            obs = reuse_obs
            obs.metrics.reset()
        else:
            # Bus disabled: nothing outside this function could have
            # subscribed, so trials take the compiled no-op signal path.
            obs = ObsContext.create(bus_enabled=False)
        t0 = time.perf_counter()
    run = app.run(seed=seed, obs=obs)
    wire = None
    if obs is not None:
        # Wall-clock latency is volatile (and per-sweep anyway), so it
        # travels as a plain float and is folded into one histogram by
        # the aggregator — no per-trial Histogram allocation here.
        wall = time.perf_counter() - t0
        wire = obs.metrics.to_wire()
    return TrialOutcome(
        seed=seed,
        bug_hit=bool(run.bug_hit),
        bp_hit=bool(run.bp_hit()),
        runtime=run.runtime,
        error_time=run.error_time if run.bug_hit else None,
        metrics=wire,
        wall_time=wall,
    )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _worker_main(
    conn,
    app_cls: Type[BaseApp],
    cfg: AppConfig,
    trial_hook: Optional[Callable[[int, int], None]],
) -> None:
    """Pool worker: receive seed chunks, stream back per-trial results.

    ``trial_hook(seed, attempt)`` runs before each trial; it exists for
    fault-injection tests (raise → trial error; ``os._exit`` → worker
    crash) and is None in production use.
    """
    reuse = ObsContext.create(bus_enabled=False) if cfg.collect_metrics else None
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            for seed, attempt in msg[1]:
                conn.send((_MSG_BEGIN, seed, attempt))
                try:
                    if trial_hook is not None:
                        trial_hook(seed, attempt)
                    outcome = execute_trial(app_cls, cfg, seed, reuse_obs=reuse)
                except Exception as exc:
                    conn.send((_MSG_ERR, seed, attempt, f"{type(exc).__name__}: {exc}"))
                else:
                    conn.send((_MSG_OK, seed, attempt, outcome))
            conn.send((_MSG_DONE,))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Chunk:
    """A batch of (seed, attempt) pairs assigned to one worker."""

    items: List[Tuple[int, int]]

    def unfinished(self, done: set) -> List[Tuple[int, int]]:
        return [(s, a) for s, a in self.items if s not in done]


class _Worker:
    """One pool member: process + its private duplex pipe."""

    def __init__(self, ctx, app_cls, cfg, trial_hook) -> None:
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child, app_cls, cfg, trial_hook),
            daemon=True,
        )
        self.proc.start()
        child.close()
        self.chunk: Optional[_Chunk] = None
        self.done_seeds: set = set()
        self.current: Optional[Tuple[int, int]] = None  # (seed, attempt)
        self.begin_time: float = 0.0

    @property
    def idle(self) -> bool:
        return self.chunk is None

    def assign(self, chunk: _Chunk) -> None:
        self.chunk = chunk
        self.done_seeds = set()
        self.current = None
        self.begin_time = time.monotonic()
        self.conn.send(("chunk", chunk.items))

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=5)
        try:
            self.conn.close()
        except OSError:
            pass


def _chunk_seeds(
    base_seed: int, n: int, workers: int, chunk_size: Optional[int]
) -> List[_Chunk]:
    """Partition ``base_seed .. base_seed+n-1`` into dispatch chunks.

    Default size targets ~4 chunks per worker so a slow chunk cannot
    leave the rest of the pool idle at the tail of the sweep.
    """
    if chunk_size is None:
        chunk_size = max(1, n // (workers * 4) or 1)
    chunks = []
    for start in range(0, n, chunk_size):
        seeds = range(base_seed + start, base_seed + min(start + chunk_size, n))
        chunks.append(_Chunk([(s, 0) for s in seeds]))
    return chunks


def run_trials_parallel(
    app_cls: Type[BaseApp],
    n: int = 100,
    bug: Optional[str] = None,
    timeout: float = 0.100,
    flip_order: bool = False,
    use_policies: bool = True,
    base_seed: int = 0,
    params: Optional[Dict[str, Any]] = None,
    *,
    workers: int = 0,
    trial_timeout: Optional[float] = None,
    max_retries: int = 2,
    chunk_size: Optional[int] = None,
    trial_hook: Optional[Callable[[int, int], None]] = None,
    collect_metrics: bool = False,
    on_outcome: Optional[Callable[[TrialOutcome], None]] = None,
) -> TrialStats:
    """Parallel, fault-tolerant equivalent of :func:`repro.harness.run_trials`.

    ``workers <= 0`` picks :func:`default_workers`.  ``trial_timeout`` is
    the per-trial *wall-clock* budget (None = unlimited) — unrelated to
    the breakpoint pause ``timeout``, which is virtual time inside the
    simulation.  ``max_retries`` bounds additional attempts for a trial
    whose worker crashed or raised.  ``trial_hook`` is a picklable
    fault-injection callable for tests.  ``on_outcome`` observes each
    successful outcome parent-side as it streams in (failures never reach
    it — the result cache relies on that to store only real results).
    """
    from repro.obs.context import current_sink

    check_trial_count(n)
    collect = collect_metrics or current_sink() is not None
    if n == 0:
        return TrialAggregator(
            app_cls.name, bug, base_seed, 0, collect_metrics=collect
        ).finalize()
    if workers <= 0:
        workers = default_workers()
    workers = min(workers, n)
    cfg = AppConfig(
        bug=bug,
        timeout=timeout,
        flip_order=flip_order,
        use_policies=use_policies,
        params=dict(params or {}),
        collect_metrics=collect,
    )
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    agg = TrialAggregator(app_cls.name, bug, base_seed, n, collect_metrics=collect)
    pending: List[_Chunk] = _chunk_seeds(base_seed, n, workers, chunk_size)
    pool: List[_Worker] = [
        _Worker(ctx, app_cls, cfg, trial_hook) for _ in range(workers)
    ]

    def _fail_or_retry(seed: int, attempt: int, kind: str, message: str) -> None:
        """Crash/exception on attempt ``attempt``: retry or account."""
        if kind != "timeout" and attempt < max_retries:
            agg.note_retry()
            pending.append(_Chunk([(seed, attempt + 1)]))
        else:
            agg.add_failure(
                TrialFailure(seed=seed, kind=kind, attempts=attempt + 1, message=message)
            )

    def _reap(w: _Worker, kind: str, message: str) -> None:
        """Worker lost (crash or timeout kill): blame its current trial,
        re-queue the untouched remainder of its chunk, refill the pool."""
        assert w.chunk is not None
        agg.note_worker_crash()
        unfinished = w.chunk.unfinished(w.done_seeds)
        if w.current is not None:
            seed, attempt = w.current
        elif unfinished:
            # Died before reporting a begin: blame the first unfinished
            # seed so a worker that always dies on receipt still converges.
            seed, attempt = unfinished[0]
        else:
            seed = None  # chunk fully reported; died sending DONE
        if seed is not None:
            _fail_or_retry(seed, attempt, kind, message)
            rest = [(s, a) for s, a in unfinished if s != seed]
            if rest:
                pending.append(_Chunk(rest))
        w.kill()
        pool.remove(w)
        if agg.pending:
            pool.append(_Worker(ctx, app_cls, cfg, trial_hook))

    try:
        while agg.pending:
            for w in pool:
                if w.idle and pending:
                    w.assign(pending.pop())
            busy = [w for w in pool if not w.idle]
            if not busy:
                if pending:
                    continue
                raise ParallelExecutionError(
                    f"{agg.pending} trial(s) unaccounted with no work in flight"
                )
            ready = mpc.wait([w.conn for w in busy], timeout=_POLL)
            for w in list(busy):
                if w.conn not in ready:
                    continue
                try:
                    msg = w.conn.recv()
                except (EOFError, OSError):
                    _reap(w, "crash", "worker died mid-trial")
                    continue
                if msg[0] == _MSG_BEGIN:
                    w.current = (msg[1], msg[2])
                    w.begin_time = time.monotonic()
                elif msg[0] == _MSG_OK:
                    agg.add(msg[3])
                    if on_outcome is not None:
                        on_outcome(msg[3])
                    w.done_seeds.add(msg[1])
                    w.current = None
                elif msg[0] == _MSG_ERR:
                    _fail_or_retry(msg[1], msg[2], "exception", msg[3])
                    w.done_seeds.add(msg[1])
                    w.current = None
                elif msg[0] == _MSG_DONE:
                    w.chunk = None
            # Liveness + per-trial deadline checks.
            now = time.monotonic()
            for w in list(pool):
                if w.idle:
                    continue
                if not w.proc.is_alive() and not w.conn.poll():
                    _reap(w, "crash", "worker process exited")
                elif (
                    trial_timeout is not None
                    and w.current is not None
                    and now - w.begin_time > trial_timeout
                    and not w.conn.poll()  # no unread result racing the deadline
                ):
                    _reap(w, "timeout", f"exceeded trial_timeout={trial_timeout}s")
    finally:
        for w in pool:
            w.stop()
        for w in pool:
            w.kill()
    return agg.finalize()
