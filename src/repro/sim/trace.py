"""Execution traces: the raw material for the dynamic detectors.

The kernel (optionally) records an :class:`Event` per syscall effect.
Detectors in :mod:`repro.detect` are pure trace analyzers — Eraser-style
locksets, vector-clock happens-before, lock-order graphs, contention and
atomicity checks all consume this one format, mirroring how the paper's
Methodology I/II leans on CalFuzzer/Eraser reports computed from dynamic
observation.

Storage is a *flat slot buffer*, not a list of objects: large runs
generate hundreds of thousands of events, and allocating an ``Event``
per record made trace append the dominant cost of traced runs.
:meth:`Trace.append` extends a flat Python list by the event's eight
fields in one C-level operation at a fixed stride — amortized O(1) via
the list's own geometric over-allocation — and defers :class:`Event`
construction until somebody actually iterates the trace: the kernel's
hot loop never pays for objects the detectors may never ask for.
``seq`` is implicit (the slot index), so nothing is stored for it.
Materialized views are cached keyed on length, so the usual
record-everything-then-analyze flow materializes exactly once.

Analyses that need only a few fields of every event (the explorers'
per-step footprints read op, object and step) call
:meth:`Trace.columns` instead: one strided slice of the flat buffer per
field, so no :class:`Event` is built.  Only this module reads the
buffer itself.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

__all__ = ["Event", "Trace", "OP", "trace_fingerprint"]


class OP:
    """Interned event op-codes."""

    START = "start"
    END = "end"
    FAIL = "fail"
    FORK = "fork"
    JOIN = "join"
    JOINED = "joined"  # join completed: happens-before edge from target END
    ACQUIRE_REQ = "acquire_req"
    ACQUIRE = "acquire"
    RELEASE = "release"
    WAIT_ENTER = "wait_enter"
    WAIT_EXIT = "wait_exit"
    NOTIFY = "notify"
    READ = "read"
    WRITE = "write"
    SEM_P = "sem_p"
    SEM_V = "sem_v"
    BARRIER = "barrier"
    EVENT_WAIT = "event_wait"
    EVENT_SET = "event_set"
    SLEEP = "sleep"
    ATOMIC_BEGIN = "atomic_begin"
    ATOMIC_END = "atomic_end"
    ANNOTATE = "annotate"
    TRIGGER_VISIT = "trigger_visit"
    TRIGGER_POSTPONE = "trigger_postpone"
    TRIGGER_HIT = "trigger_hit"
    TRIGGER_TIMEOUT = "trigger_timeout"


class Event:
    """One observed operation.

    ``obj`` is the synchronisation object / memory cell involved (or
    ``None``); ``loc`` is a ``file:line`` string — the explicit ``loc``
    tag of the syscall when present, otherwise derived from the
    generator frame.  ``extra`` carries op-specific payload (written
    value, notify count, breakpoint name, ...).
    """

    __slots__ = ("seq", "time", "tid", "tname", "op", "obj", "loc", "extra", "step")

    def __init__(
        self,
        seq: int,
        time: float,
        tid: int,
        tname: str,
        op: str,
        obj: Any = None,
        loc: str = "?",
        extra: Any = None,
        step: int = -1,
    ) -> None:
        self.seq = seq
        self.time = time
        self.tid = tid
        self.tname = tname
        self.op = op
        self.obj = obj
        self.loc = loc
        self.extra = extra
        #: Kernel scheduling step that produced the event (-1 if unknown):
        #: the key for mapping events back onto scheduler choices (DPOR).
        self.step = step

    def __repr__(self) -> str:
        objname = getattr(self.obj, "name", self.obj)
        return (
            f"Event({self.seq}, t={self.time:.6f}, {self.tname}, {self.op},"
            f" obj={objname!r}, loc={self.loc})"
        )


#: The fields of an event slot, in buffer order.
_FIELDS = ("time", "tid", "tname", "op", "obj", "loc", "extra", "step")
_STRIDE = len(_FIELDS)


class Trace:
    """An append-only sequence of :class:`Event` with small query helpers.

    Internally a flat slot buffer (see module docstring).  ``events``
    materializes the :class:`Event` view lazily and caches it; the cache
    is keyed on length, so :meth:`append` never touches it.
    """

    __slots__ = ("_flat", "_len", "_view")

    def __init__(self) -> None:
        self._flat: List[Any] = []
        self._len = 0
        self._view: Optional[List[Event]] = None

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
        """Record one event: the kernel's O(1)-amortized hot path.

        A single C-level extend of the flat buffer — list over-allocation
        is the preallocation, so there is no Python-side capacity logic.
        """
        self._flat += (time, tid, tname, op, obj, loc, extra, step)
        self._len += 1

    def _event(self, seq: int) -> Event:
        i = seq * _STRIDE
        f = self._flat
        return Event(
            seq, f[i], f[i + 1], f[i + 2], f[i + 3], f[i + 4], f[i + 5], f[i + 6], f[i + 7]
        )

    @property
    def events(self) -> List[Event]:
        """Materialized event list (cached until the next append)."""
        view = self._view
        if view is None or len(view) != self._len:
            view = self._view = [self._event(s) for s in range(self._len)]
        return view

    def columns(self, *fields: str) -> Tuple[List[Any], ...]:
        """One list per named field (``"op"``, ``"obj"``, ...), each
        holding that field of every event in order: a strided slice of
        the flat buffer, with no :class:`Event` built."""
        f = self._flat
        return tuple(f[_FIELDS.index(name)::_STRIDE] for name in fields)

    def last_step(self) -> int:
        """``step`` of the most recent event (-1 when empty) — events
        arrive in nondecreasing step order, so this is the maximum."""
        if self._len == 0:
            return -1
        return self._flat[(self._len - 1) * _STRIDE + 7]

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def by_op(self, *ops: str) -> List[Event]:
        """Events whose op-code is one of ``ops`` (preserves order)."""
        wanted = set(ops)
        return [e for e in self.events if e.op in wanted]

    def by_thread(self, tname: str) -> List[Event]:
        """Events of one thread, in order."""
        return [e for e in self.events if e.tname == tname]

    def by_obj(self, obj: Any) -> List[Event]:
        """Events touching one object, in order."""
        return [e for e in self.events if e.obj is obj]

    def annotations(self, kind: Optional[str] = None) -> List[Event]:
        """Annotation events, optionally of one kind."""
        evs = self.by_op(OP.ANNOTATE)
        if kind is None:
            return evs
        return [e for e in evs if e.extra and e.extra.get("kind") == kind]

    def format(self, limit: Optional[int] = None) -> str:
        """Human-readable dump (first ``limit`` events)."""
        rows = self.events if limit is None else self.events[:limit]
        return "\n".join(repr(e) for e in rows)


def trace_fingerprint(trace: Any) -> str:
    """Canonical SHA-256 of a trace's observable content.

    The encoding covers every field of every event.  ``obj`` is
    projected to ``(type name, .name)`` — identity is process-local and
    must not leak into the fingerprint — and floats are ``repr``-ed so
    the text is exact, not rounded.  Two runs fingerprint equal iff
    their traces are bit-identical under this projection; the golden
    corpus (``tests/sim/golden/``) pins these per app+seed.
    """
    import hashlib

    h = hashlib.sha256()
    for e in trace:
        obj = e.obj
        if obj is None:
            objkey = "-"
        else:
            objkey = f"{type(obj).__name__}:{getattr(obj, 'name', None)}"
        h.update(
            (
                f"{e.seq}|{e.time!r}|{e.tid}|{e.tname}|{e.op}|{objkey}|"
                f"{e.loc}|{e.extra!r}|{e.step}\n"
            ).encode()
        )
    return h.hexdigest()
