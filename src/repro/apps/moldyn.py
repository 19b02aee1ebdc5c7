"""``moldyn`` — the Java Grande molecular-dynamics kernel (1,290 LoC).

Table 1 rows: two silent data races with bounded breakpoints
(``race1``, comment ``bound=4``; ``race2``, comment ``bound=10``).

JGF MolDyn partitions particle pairs across threads; each iteration the
threads compute partial forces and then fold their partial potential
energy (``epot``) and virial (``vir``) into shared accumulators — in the
original, with insufficient synchronisation.  The accumulation is a plain
read-modify-write, so concurrent folds lose terms.

The races fire at *every* iteration once forced, so the paper bounds the
breakpoints (Section 6.3's ``triggers < bound``): reproduce the race a
few times, then stop pausing.  The app's oracle compares the final
accumulators with the deterministic serial sums.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro._lazy import numpy as np

from repro.core.predicates import SitePolicy
from repro.sim.kernel import Kernel, RunResult
from repro.sim.memory import SharedCell
from repro.sim.primitives import SimBarrier
from repro.sim.syscalls import Sleep

from .base import BaseApp, BugSpec

__all__ = ["MoldynApp"]


class MoldynApp(BaseApp):
    """Two simulation threads, iterating force computation + accumulation."""

    name = "moldyn"
    paper_loc = "1,290"
    bugs = {
        "race1": BugSpec(
            id="race1", kind="race", error="",
            description="epot accumulation RMW race across threads",
            comments="bound=4",
        ),
        "race2": BugSpec(
            id="race2", kind="race", error="",
            description="virial accumulation RMW race across threads",
            comments="bound=10",
        ),
    }

    def policies(self) -> Dict[str, SitePolicy]:
        """Fresh per-bug Section 6.3 refinement policies."""
        return {
            "race1": SitePolicy(bound=self.param("race1_bound", 4)),
            "race2": SitePolicy(bound=self.param("race2_bound", 10)),
        }

    def setup(self, kernel: Kernel) -> None:
        """Build shared state and spawn this subject's threads."""
        n_threads = self.param("threads", 2)
        self.iterations = self.param("iterations", 24)
        self.particles = self.param("particles", 64)
        rng = np.random.default_rng(12345)  # fixed: workload, not schedule
        self.positions = rng.random((self.particles, 3))
        self.epot = SharedCell(0.0, name="epot")
        self.vir = SharedCell(0.0, name="vir")
        self.barrier = SimBarrier(n_threads, name="iter_barrier")
        self.expected_epot = 0.0
        self.expected_vir = 0.0
        # Precompute per-thread partials so the expected serial totals
        # are known exactly.
        self._partials = []
        for tid in range(n_threads):
            slice_pos = self.positions[tid::n_threads]
            e = float(np.sum(slice_pos**2))
            v = float(np.sum(np.abs(slice_pos)))
            self._partials.append((e, v))
            self.expected_epot += e * self.iterations
            self.expected_vir += v * self.iterations
        for tid in range(n_threads):
            kernel.spawn(self._sim_thread, tid, name=f"mdrunner{tid}")

    def _sim_thread(self, tid: int):
        e_part, v_part = self._partials[tid]
        rng = self.kernel.rng
        for _ in range(self.iterations):
            # Force computation: pure NumPy between yields (atomic), with
            # jittered virtual duration to stagger the accumulations.
            yield Sleep(rng.uniform(0.0005, 0.005))
            # epot fold: read-modify-write with the race1 breakpoint
            # between read and write — a partner parked here too holds a
            # stale value, so the lost update is certain.
            e = yield from self.epot.get(loc="MolDyn.java:290")
            yield from self.cb_conflict("race1", self.epot, first=True, loc="MolDyn.java:290")
            yield from self.epot.set(e + e_part, loc="MolDyn.java:291")
            # virial fold: same shape (race2).
            v = yield from self.vir.get(loc="MolDyn.java:297")
            yield from self.cb_conflict("race2", self.vir, first=True, loc="MolDyn.java:297")
            yield from self.vir.set(v + v_part, loc="MolDyn.java:298")
        # One phase barrier at the end (the JGF kernel synchronises
        # coarsely around the timed region): within the phase the threads
        # drift apart, which is what makes an *unbounded* breakpoint at
        # the fold sites expensive — each match re-synchronises the
        # threads, charging the accumulated skew (Section 6.3).
        yield from self.barrier.wait(loc="MolDyn.java:305")

    def oracle(self, result: RunResult) -> Optional[str]:
        """Classify the run's symptom, or None for a clean run."""
        if self.epot.peek() < self.expected_epot - 1e-9:
            return "lost epot update"
        if self.vir.peek() < self.expected_vir - 1e-9:
            return "lost virial update"
        return None
