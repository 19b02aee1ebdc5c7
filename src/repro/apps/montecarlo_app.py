"""``montecarlo`` — the Java Grande Monte-Carlo pricing kernel (3,560 LoC).

Table 1 row: one silent race, comment ``bound=10``.

JGF MonteCarlo runs many independent price-path simulations across
threads and gathers per-task results into a shared ``Vector``-backed
results structure.  The results *count* is maintained with an
unsynchronised read-modify-write, so concurrent task completions drop
results — the final aggregate is computed over fewer samples than were
simulated.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro._lazy import numpy as np

from repro.core.predicates import SitePolicy
from repro.sim.kernel import Kernel, RunResult
from repro.sim.memory import SharedCell
from repro.sim.syscalls import Sleep

from .base import BaseApp, BugSpec

__all__ = ["MonteCarloApp"]


class MonteCarloApp(BaseApp):
    """Worker threads simulate price paths and racily count completions."""

    name = "montecarlo"
    paper_loc = "3,560"
    bugs = {
        "race1": BugSpec(
            id="race1", kind="race", error="",
            description="results counter RMW race on task completion",
            comments="bound=10",
        ),
    }

    def policies(self) -> Dict[str, SitePolicy]:
        """Fresh per-bug Section 6.3 refinement policies."""
        return {"race1": SitePolicy(bound=self.param("race1_bound", 10))}

    def setup(self, kernel: Kernel) -> None:
        """Build shared state and spawn this subject's threads."""
        self.n_threads = self.param("threads", 2)
        self.tasks_per_thread = self.param("tasks", 20)
        self.path_length = self.param("path_length", 64)
        self.results_count = SharedCell(0, name="results.count")
        self.results: List[float] = []
        self.expected = self.n_threads * self.tasks_per_thread
        for tid in range(self.n_threads):
            kernel.spawn(self._worker, tid, name=f"mcrunner{tid}")

    def _worker(self, tid: int):
        rng = self.kernel.rng
        paths = np.random.default_rng(1000 + tid)  # workload randomness, fixed
        for _ in range(self.tasks_per_thread):
            # One price-path simulation: vectorised random walk (atomic
            # between yields); virtual duration jitter staggers finishes.
            walk = paths.standard_normal(self.path_length)
            price = float(np.exp(walk.cumsum() * 0.01)[-1])
            yield Sleep(rng.uniform(0.0005, 0.006))
            self.results.append(price)
            # Completion count: racy RMW with the breakpoint in the gap.
            n = yield from self.results_count.get(loc="MonteCarlo.java:121")
            yield from self.cb_conflict(
                "race1", self.results_count, first=True, loc="MonteCarlo.java:121"
            )
            yield from self.results_count.set(n + 1, loc="MonteCarlo.java:122")

    def oracle(self, result: RunResult) -> Optional[str]:
        """Classify the run's symptom, or None for a clean run."""
        if self.results_count.peek() < self.expected:
            return "lost results"
        return None
