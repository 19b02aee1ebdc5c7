"""Wall-clock span recorder for the benchmark's traced runs.

Spans are recorded from outside the program: :func:`install` replaces
the public functions listed in :data:`SITES` with timing wrappers, at
every module that bound them by name, before any server forks its pool
(forked workers inherit the wrappers).  Each span records its name,
layer, start, end, parent span, job label and pid.  A process keeps
its spans in memory and appends them to ``spans.<pid>.jsonl`` in the
trace directory whenever a root span (one without a parent) closes.

Tracing can be switched off and on in every process at once through a
one-byte flag file that each recorder maps shared; the benchmark uses
that to measure the tracing overhead on identical jobs.

Analysis (:func:`load`, :func:`self_times`, :func:`layer_self`,
:func:`chrome_trace`) runs in the benchmark process after the servers
have exited.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import itertools
import json
import mmap
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Layer of the benchmark's own root span (one per job): its self time
#: is the time no layer span covers.
ROOT_LAYER = "bench"
ROOT_SPAN = "bench.job"

#: Wrapped callables: span name -> (layer, sites).  A site is
#: ``"module:attr"`` for a function bound by name in that module, or
#: ``"module:Class.method"``.  Every module that imported a function by
#: name is listed, so no call path escapes its wrapper.
SITES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "harness.run_trials": ("harness", (
        "repro.harness.runner:run_trials",
        "repro.harness:run_trials",
        "repro.harness.tables:run_trials",
        "repro.infer.confirm:run_trials",
        "repro.infer.pipeline:run_trials",
        "repro.__main__:run_trials",
    )),
    "apps.BaseApp.run": ("apps", ("repro.apps.base:BaseApp.run",)),
    "sim.kernel.Kernel.run": ("sim.kernel", ("repro.sim.kernel:Kernel.run",)),
    "harness.explore_summary": ("sim.explore", (
        "repro.harness.exploration:explore_summary",
        "repro.harness:explore_summary",
    )),
    "harness.explore_app": ("sim.explore", (
        "repro.harness.exploration:explore_app",
        "repro.harness:explore_app",
    )),
    "sim.snapshot.StatelessPool.run": ("sim.snapshot", (
        "repro.sim.snapshot:StatelessPool.run",
    )),
    "cache.ResultCache.run_trials": ("cache", ("repro.cache.results:ResultCache.run_trials",)),
    "cache.ResultCache.explore": ("cache", ("repro.cache.results:ResultCache.explore",)),
    "cache.ResultCache.infer": ("cache", ("repro.cache.results:ResultCache.infer",)),
    "svc.try_cached_result": ("cache", (
        "repro.svc.jobs:try_cached_result",
        "repro.svc.executor:try_cached_result",
    )),
    "svc.execute_job": ("svc.worker", (
        "repro.svc.jobs:execute_job",
        "repro.svc.pool:execute_job",
        "repro.svc:execute_job",
    )),
    "infer.infer_app": ("infer", (
        "repro.infer.pipeline:infer_app",
        "repro.infer:infer_app",
    )),
    "infer.confirm_bug": ("infer", (
        "repro.infer.confirm:confirm_bug",
        "repro.infer:confirm_bug",
        "repro.infer.pipeline:confirm_bug",
    )),
    "infer.steer_candidate": ("infer", (
        "repro.infer.confirm:steer_candidate",
        "repro.infer:steer_candidate",
        "repro.infer.pipeline:steer_candidate",
    )),
    "detect.analyze": ("detect", (
        "repro.detect.analyze:analyze",
        "repro.detect:analyze",
        "repro.infer.pipeline:analyze",
    )),
}

#: Span attributes taken from a wrapped call's return value.
_RESULT_ATTRS: Dict[str, Callable[[Any], Dict[str, Any]]] = {
    "sim.kernel.Kernel.run": lambda result: {"steps": result.steps},
    "harness.explore_app": lambda result: {"schedules": result.exploration.count},
}


def _spec_label(spec: Any) -> str:
    """Job label for server-side spans, which never see the bench's id."""
    seed = spec.seed if spec.kind != "trials" else spec.base_seed
    return f"{spec.kind}:{spec.app}:{spec.bug}:{seed}:{spec.trials}"


#: Job labels taken from a wrapped call's arguments (server side).
_JOB_FROM_ARGS: Dict[str, Callable[[tuple], str]] = {
    "svc.execute_job": lambda args: _spec_label(args[0]),
    "svc.try_cached_result": lambda args: _spec_label(args[1]),
}


@dataclasses.dataclass(frozen=True)
class Span:
    """One closed span, as read back from a ``spans.<pid>.jsonl`` file."""

    name: str
    layer: str
    start: float
    end: float
    sid: int
    parent: int
    pid: int
    tid: int
    job: Optional[str]
    attrs: Dict[str, Any]

    @property
    def duration(self) -> float:
        """Wall seconds between start and end."""
        return self.end - self.start


def write_flag(trace_dir: Path, enabled: bool) -> None:
    """Create or set the shared on/off flag of a trace directory."""
    (Path(trace_dir) / "enabled").write_bytes(b"\x01" if enabled else b"\x00")


class Recorder:
    """Per-process span recorder bound to one trace directory."""

    def __init__(self, trace_dir: os.PathLike) -> None:
        self.trace_dir = Path(trace_dir)
        with open(self.trace_dir / "enabled", "r+b") as fh:
            self._flag = mmap.mmap(fh.fileno(), 1)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._buf: List[str] = []

    def set_enabled(self, enabled: bool) -> None:
        """Switch recording on or off in every process of the run."""
        self._flag[0] = 1 if enabled else 0

    # -- recording ------------------------------------------------------
    def _state(self) -> Tuple[List[int], List[Optional[str]]]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.jobs = [None]
        return local.stack, local.jobs

    @contextlib.contextmanager
    def span(self, name: str, layer: str, job: Optional[str] = None):
        """Record the enclosed block as one span (bench-side spans)."""
        if not self._flag[0]:
            yield {}
            return
        stack, jobs = self._state()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        jobs.append(job if job is not None else jobs[-1])
        attrs: Dict[str, Any] = {}
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            label = jobs.pop()
            self._record(name, layer, start, end, sid, parent, label, attrs)

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        """A timing wrapper around ``fn`` recording spans named ``name``."""
        result_attrs = _RESULT_ATTRS.get(name)
        job_from = _JOB_FROM_ARGS.get(name)
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder._flag[0]:
                return fn(*args, **kwargs)
            job = job_from(args) if job_from is not None else None
            with recorder.span(name, layer, job) as attrs:
                result = fn(*args, **kwargs)
                if result_attrs is not None:
                    attrs.update(result_attrs(result))
                return result

        traced.__wrapped_span__ = name
        return traced

    def _record(self, name, layer, start, end, sid, parent, job, attrs) -> None:
        line = json.dumps(
            [name, layer, start, end, sid, parent, threading.get_ident(), job, attrs],
            separators=(",", ":"),
        )
        pid = os.getpid()
        with self._lock:
            if pid != self._pid:
                # A forked child inherits its parent's unflushed spans.
                self._buf = []
                self._pid = pid
            self._buf.append(line)
            if parent == 0:
                path = self.trace_dir / f"spans.{pid}.jsonl"
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write("\n".join(self._buf) + "\n")
                self._buf = []


def resolve_site(site: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, current value)`` of one ``module:attr`` site."""
    module_name, _, path = site.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


_installed: Optional[Recorder] = None


def install(trace_dir: os.PathLike, patch: Callable[[Any, str, Any], None] = setattr) -> Recorder:
    """Wrap every site in :data:`SITES`; returns the process's recorder.

    All sites of one span name must hold the same function object, which
    is what proves the site list names every import of it.  ``patch``
    performs each replacement (tests pass one that undoes itself).
    """
    global _installed
    if _installed is not None:
        return _installed
    recorder = Recorder(trace_dir)
    for name, (layer, sites) in SITES.items():
        resolved = [resolve_site(site) for site in sites]
        originals = {id(value) for _, _, value in resolved}
        if len(originals) != 1:
            raise RuntimeError(f"sites of {name} bind different objects: {sites}")
        wrapper = recorder.wrap(name, layer, resolved[0][2])
        for owner, attr, _ in resolved:
            patch(owner, attr, wrapper)
    _installed = recorder
    return recorder


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def load(trace_dir: os.PathLike) -> List[Span]:
    """Every span written to ``trace_dir`` by any process."""
    spans: List[Span] = []
    for path in sorted(Path(trace_dir).glob("spans.*.jsonl")):
        pid = int(path.name.split(".")[1])
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                name, layer, start, end, sid, parent, tid, job, attrs = json.loads(line)
                spans.append(Span(name, layer, start, end, sid, parent, pid, tid, job, attrs))
    return spans


def self_times(spans: Iterable[Span]) -> Dict[Tuple[int, int], float]:
    """Self time of each span, keyed by ``(pid, sid)``.

    A span's self time is its duration minus the durations of its direct
    children (same process, ``parent`` pointing at it).
    """
    spans = list(spans)
    own = {(s.pid, s.sid): s.duration for s in spans}
    for s in spans:
        key = (s.pid, s.parent)
        if s.parent and key in own:
            own[key] -= s.duration
    return own


def within(spans: Iterable[Span], t0: float, t1: float) -> List[Span]:
    """Spans that started and ended inside ``[t0, t1]``."""
    return [s for s in spans if s.start >= t0 and s.end <= t1]


def layer_self(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self time per layer."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for s in spans:
        totals[s.layer] = totals.get(s.layer, 0.0) + own[(s.pid, s.sid)]
    return totals


def total(spans: Iterable[Span], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(s.duration for s in spans if s.name == name)


def chrome_trace(spans: Iterable[Span], t0: float) -> Dict[str, Any]:
    """A Chrome/Perfetto trace-event document of ``spans`` (µs from t0)."""
    events = []
    for s in spans:
        args = dict(s.attrs)
        if s.job is not None:
            args["job"] = s.job
        events.append({
            "name": s.name,
            "cat": s.layer,
            "ph": "X",
            "ts": round((s.start - t0) * 1e6, 3),
            "dur": round(s.duration * 1e6, 3),
            "pid": s.pid,
            "tid": s.tid,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
