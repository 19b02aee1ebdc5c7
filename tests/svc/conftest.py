"""Shared fixtures of the service tests."""

import functools
import os
import select

import pytest


def _hold(started_w, release_r, spec, attempt):
    """Fault hook: report that the job started, then wait to be let go."""
    os.write(started_w, b"s")
    os.read(release_r, 1)


class JobGate:
    """A fault hook that holds every job attempt until the test lets it go.

    The attempt's worker writes one byte when it starts and then blocks
    until the test writes one.  The pipes exist before the service forks
    its pool, so forked and respawned workers alike inherit them.
    """

    def __init__(self):
        self._started_r, self._started_w = os.pipe()
        self._release_r, self._release_w = os.pipe()
        self.hook = functools.partial(_hold, self._started_w, self._release_r)

    def started(self, timeout=60):
        """Wait until one more attempt has started."""
        ready, _, _ = select.select([self._started_r], [], [], timeout)
        assert ready, "no job attempt started"
        os.read(self._started_r, 1)

    def release(self, n=1):
        """Let ``n`` held (or future) attempts run."""
        os.write(self._release_w, b"r" * n)

    def close(self):
        for fd in (self._started_r, self._started_w, self._release_r, self._release_w):
            os.close(fd)


@pytest.fixture()
def gate():
    """A :class:`JobGate`; pass ``gate.hook`` as the service's fault hook."""
    job_gate = JobGate()
    yield job_gate
    job_gate.close()
