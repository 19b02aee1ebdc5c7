"""Schedule recording and exact replay.

``(program, scheduler, seed)`` already determines a run; these utilities
make the schedule itself a first-class artefact:

* :class:`RecordingScheduler` wraps any scheduler and logs the tid chosen
  at every step;
* :class:`ReplayScheduler` re-applies a recorded choice list, yielding a
  bit-exact re-execution — including of *shorter* prefixes, which it
  runs to completion on the lowest runnable tid.  ``repro.obs.traceio``
  replays exported traces with it; the explorers steer their runs with
  their own prefix scheduler (``repro.sim.snapshot._DFSScheduler``).

This is the "record and replay" baseline the paper contrasts against
(Section 1's heavy-weight alternative) in its cheapest possible form: on
the simulation substrate the recording is just the choice list, so the
comparison benches can put breakpoints and replay side by side.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .scheduler import RandomScheduler, Scheduler
from .thread import SimThread

__all__ = ["RecordingScheduler", "ReplayScheduler", "ReplayDivergence"]


class ReplayDivergence(RuntimeError):
    """The program reached a state the recorded schedule cannot drive.

    Raised when the recorded tid is not runnable at the replayed step —
    the program under replay differs from the recorded one (or the
    recording was truncated and ``strict`` is set).
    """


class RecordingScheduler(Scheduler):
    """Delegates to an inner scheduler and records every choice."""

    def __init__(self, inner: Optional[Scheduler] = None, seed: Optional[int] = None) -> None:
        self.inner = inner if inner is not None else RandomScheduler(seed)
        self.choices: List[int] = []

    def on_spawn(self, thread: SimThread) -> None:
        """Forward the spawn to the inner scheduler."""
        self.inner.on_spawn(thread)

    def pick(self, runnable: Sequence[SimThread], step: int) -> SimThread:
        """Delegate the choice and record the picked tid."""
        chosen = self.inner.pick(runnable, step)
        self.choices.append(chosen.tid)
        return chosen

    def delay_after_pick(self, thread: SimThread, step: int) -> float:
        """Delegate noise injection to the inner scheduler."""
        return self.inner.delay_after_pick(thread, step)


class ReplayScheduler(Scheduler):
    """Re-applies a recorded choice list.

    After the recording is exhausted, picks the lowest runnable tid, so
    prefix replays still run to completion deterministically.  With
    ``strict=True``, divergence — a recorded tid that is not runnable —
    raises :class:`ReplayDivergence` instead of picking the lowest tid.
    """

    def __init__(self, choices: Sequence[int], strict: bool = False) -> None:
        self.choices = list(choices)
        self.strict = strict
        self._idx = 0
        self.replayed = 0
        self.diverged = False

    def pick(self, runnable: Sequence[SimThread], step: int) -> SimThread:
        """Re-apply the recorded tid; past the recording or on divergence
        pick the lowest runnable tid (or raise, when ``strict``)."""
        if self._idx < len(self.choices):
            wanted = self.choices[self._idx]
            self._idx += 1
            for t in runnable:
                if t.tid == wanted:
                    self.replayed += 1
                    return t
            self.diverged = True
            if self.strict:
                raise ReplayDivergence(
                    f"recorded tid {wanted} not runnable at step {step} "
                    f"(runnable: {[t.tid for t in runnable]})"
                )
        return runnable[0]
