"""Common machinery for the re-created benchmark applications.

Each module in :mod:`repro.apps` re-creates one of the paper's evaluation
subjects (Table 1's 15 Java programs, Table 2's 3 C/C++ programs): the
same lock topology, the same conflicting accesses, the same bug class and
error symptom, sized down from the original megabytes to the
concurrency-relevant core (DESIGN.md substitution table).

An app is a :class:`BaseApp` subclass:

* ``setup(kernel)`` builds shared state and spawns the threads;
* ``oracle(result)`` inspects the run and returns the manifested error
  symptom (``"stall"``, ``"exception"``, ...) or ``None``;
* ``bugs`` declares each known Heisenbug (a :class:`BugSpec`), including
  the paper's error column and precision-refinement comments;
* thread code inserts breakpoints through the ``cb_conflict`` /
  ``cb_deadlock`` helpers, which are no-ops unless the run's
  :class:`AppConfig` activates that bug — the analogue of compiling the
  paper's ``triggerHere`` calls in or out.

One instance = one execution; the harness creates a fresh instance per
trial so no state leaks between runs.  An app may still share immutable,
seed-independent reference data across runs, computed once per process
(the raytracer's per-size reference render).
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.predicates import SitePolicy
from repro.core.spec import AtomicityTrigger, ConflictTrigger, DeadlockTrigger
from repro.sim.kernel import Kernel, RunResult
from repro.sim.scheduler import Scheduler
from repro.sim.syscalls import Trigger

__all__ = ["BugSpec", "AppConfig", "AppRun", "BaseApp"]


@dataclasses.dataclass(frozen=True)
class BugSpec:
    """One known Heisenbug of an app (a Table 1 / Table 2 row).

    ``error`` matches the paper's Error column (empty string for races
    with no visible symptom).  ``oracle_mode`` selects what counts as
    "the bug was reproduced" for the probability column:
    ``"error"`` — the symptom must manifest; ``"bp"`` — hitting the
    breakpoint is the reproduction (silent races: the paper's probability
    for these is the probability of triggering the breakpoint).
    ``n_breakpoints`` is Table 2's #CBR column.  ``methodology`` is
    ``1`` (from a testing-tool report) or ``2`` (manual contention
    probing), matching the paper's "Meth. II" comments.
    """

    id: str
    kind: str  # race | atomicity | deadlock | missed-notify | crash | corruption | omission | disorder
    error: str  # paper's Error column ("", "stall", "exception", "test fail", ...)
    description: str
    comments: str = ""
    oracle_mode: str = "error"  # "error" | "bp"
    n_breakpoints: int = 1
    methodology: int = 1


@dataclasses.dataclass
class AppConfig:
    """Per-run configuration.

    ``bug``          — which bug's breakpoints are enabled (None = plain run);
    ``timeout``      — pause time ``T`` passed to every ``trigger_here``;
    ``flip_order``   — swap the two action flags (Section 5's "resolve the
                       contention in both ways");
    ``use_policies`` — apply the app's Section 6.3 precision refinements;
    ``only_breakpoints`` — restrict a multi-breakpoint bug to a subset of
                       its named breakpoints (ablating Table 2's #CBR
                       column: a proper subset should not reproduce);
    ``params``       — app-specific workload overrides;
    ``collect_metrics`` — run under a fresh :class:`repro.obs.MetricsRegistry`
                       and attach the trial's metrics snapshot to its
                       outcome (set by the harness; travels with the
                       config across worker-process boundaries).
    """

    bug: Optional[str] = None
    timeout: float = 0.100
    flip_order: bool = False
    use_policies: bool = True
    only_breakpoints: Optional[frozenset] = None
    params: Dict[str, Any] = dataclasses.field(default_factory=dict)
    collect_metrics: bool = False


@dataclasses.dataclass
class AppRun:
    """Outcome of one app execution."""

    app: str
    bug: Optional[str]
    error: Optional[str]  # manifested symptom, or None
    bug_hit: bool  # per the bug's oracle_mode
    result: RunResult
    error_time: Optional[float]  # virtual time of the first symptom (MTTE)

    @property
    def runtime(self) -> float:
        """Virtual duration of the run."""
        return self.result.time

    def bp_hit(self, name: Optional[str] = None) -> bool:
        """Did the named breakpoint (default: any of the bug's) fire?"""
        stats = self.result.breakpoint_stats
        if name is not None:
            st = stats.get(name)
            return bool(st and st.hits > 0)
        return any(st.hits > 0 for st in stats.values())


class BaseApp(abc.ABC):
    """Base class for all benchmark applications."""

    #: App identifier (registry key and Table 1/2 benchmark column).
    name: str = "app"
    #: Lines of code of the *original* subject, from the paper's table.
    paper_loc: str = "-"
    #: Known bugs, id -> spec.
    bugs: Dict[str, BugSpec] = {}
    #: Virtual-time horizon after which live threads mean "stall"
    #: (the paper's large-timeout stall detection).
    horizon: float = 30.0
    #: Step budget per run (runaway guard; generous).
    max_steps: int = 400_000
    #: Result-cache invalidation tag (:mod:`repro.cache`): bump whenever
    #: the app's workload, oracle, or breakpoint placement changes in a
    #: way that alters trial outcomes for the same ``(config, seed)``.
    cache_version: str = "1"

    def __init__(self, cfg: Optional[AppConfig] = None) -> None:
        self.cfg = cfg if cfg is not None else AppConfig()
        if self.cfg.bug is not None and self.cfg.bug not in self.bugs:
            raise KeyError(f"{self.name}: unknown bug {self.cfg.bug!r}")
        self.kernel: Optional[Kernel] = None
        self.errors: List[Tuple[float, str]] = []  # (virtual time, symptom)
        self._policies: Dict[str, SitePolicy] = {}

    # ------------------------------------------------------------------
    # To be provided by subclasses
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def setup(self, kernel: Kernel) -> None:
        """Create shared state and spawn the app's threads."""

    @abc.abstractmethod
    def oracle(self, result: RunResult) -> Optional[str]:
        """Return the manifested error symptom, or None."""

    def policies(self) -> Dict[str, SitePolicy]:
        """Fresh Section 6.3 refinement policies, keyed by bug id."""
        return {}

    def param(self, key: str, default: Any) -> Any:
        """Workload parameter with per-run override support."""
        return self.cfg.params.get(key, default)

    # ------------------------------------------------------------------
    # Breakpoint insertion helpers (no-ops for inactive bugs)
    # ------------------------------------------------------------------
    def _active(self, bug_id: str) -> bool:
        return self.cfg.bug == bug_id

    def _flip(self, first: bool) -> bool:
        return first != self.cfg.flip_order

    def cb_conflict(
        self,
        bug_id: str,
        obj: Any,
        first: bool,
        loc: Optional[str] = None,
        atomicity: bool = False,
        name: Optional[str] = None,
        local: Optional[Callable[[], bool]] = None,
        policy_key: Optional[str] = None,
        side: Optional[str] = None,
    ):
        """Insert a ConflictTrigger site for ``bug_id`` (generator).

        ``yield from self.cb_conflict(...)`` returns True iff the
        breakpoint fired.  Does nothing unless the run activates
        ``bug_id``.  ``name`` distinguishes multiple breakpoints under
        one bug (Table 2 bugs need up to three — the #CBR column);
        policies are looked up by the effective name, then the bug id.
        ``local`` is an extra per-site local predicate.
        """
        if not self._active(bug_id):
            return False
        bp_name = name if name is not None else bug_id
        if self.cfg.only_breakpoints is not None and bp_name not in self.cfg.only_breakpoints:
            return False
        cls = AtomicityTrigger if atomicity else ConflictTrigger
        inst = cls(
            bp_name, obj,
            policy=self._policy_for(bp_name, bug_id, policy_key),
            local=local,
            side=side,
        )
        hit = yield Trigger(inst, self._flip(first), self.cfg.timeout, loc=loc)
        return hit

    def cb_deadlock(
        self,
        bug_id: str,
        lock1: Any,
        lock2: Any,
        first: bool,
        loc: Optional[str] = None,
        name: Optional[str] = None,
        policy_key: Optional[str] = None,
    ):
        """Insert a DeadlockTrigger site for ``bug_id`` (generator)."""
        if not self._active(bug_id):
            return False
        bp_name = name if name is not None else bug_id
        if self.cfg.only_breakpoints is not None and bp_name not in self.cfg.only_breakpoints:
            return False
        inst = DeadlockTrigger(
            bp_name, lock1, lock2, policy=self._policy_for(bp_name, bug_id, policy_key)
        )
        hit = yield Trigger(inst, self._flip(first), self.cfg.timeout, loc=loc)
        return hit

    def _policy_for(
        self, bp_name: str, bug_id: str, policy_key: Optional[str] = None
    ) -> Optional[SitePolicy]:
        """Refinement lookup: explicit site key, else breakpoint name,
        else bug id.  A per-site key lets one side of a breakpoint carry
        a refinement the other side must not (the Swing EDT side has no
        ``isLockTypeHeld`` condition)."""
        if policy_key is not None:
            return self._policies.get(policy_key)
        pol = self._policies.get(bp_name)
        if pol is None and bp_name != bug_id:
            pol = self._policies.get(bug_id)
        return pol

    # ------------------------------------------------------------------
    # Error bookkeeping available to thread code
    # ------------------------------------------------------------------
    def note_error(self, symptom: str) -> None:
        """Record an observable symptom at the current virtual time."""
        assert self.kernel is not None
        self.errors.append((self.kernel.now, symptom))

    def first_error_time(self, result: RunResult) -> Optional[float]:
        """Virtual time of the first symptom (explicit notes, thread
        failures, or deadlock/stall detection time)."""
        times: List[float] = [t for t, _ in self.errors]
        times.extend(f.time for f in result.failures)
        if result.deadlocked or result.stalled:
            times.append(result.time)
        return min(times) if times else None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        seed: Optional[int] = None,
        scheduler: Optional[Scheduler] = None,
        record_trace: bool = False,
        obs: Any = None,
        kernel_cls: type = Kernel,
    ) -> AppRun:
        """Execute the app once and evaluate its oracle.

        ``obs`` is an optional :class:`repro.obs.MetricsRegistry`; the
        kernel and breakpoint engine record their metrics into it.
        Observability never changes scheduling, so instrumented and
        plain runs of the same seed are identical executions.

        ``kernel_cls`` swaps the execution engine — the golden-trace
        recorder and the differential battery run the same app under
        :class:`~repro.sim._reference.ReferenceKernel` to prove the fast
        path is bit-identical.
        """
        kernel = kernel_cls(scheduler=scheduler, seed=seed, record_trace=record_trace, obs=obs)
        self.kernel = kernel
        if self.cfg.use_policies:
            self._policies = self.policies()
        else:
            self._policies = {}
        self.setup(kernel)
        result = kernel.run(max_steps=self.max_steps, max_time=self.horizon)
        error = self.oracle(result)
        bug_hit = self._bug_hit(error, result)
        return AppRun(
            app=self.name,
            bug=self.cfg.bug,
            error=error,
            bug_hit=bug_hit,
            result=result,
            error_time=self.first_error_time(result) if error else None,
        )

    def _bug_hit(self, error: Optional[str], result: RunResult) -> bool:
        if self.cfg.bug is None:
            return error is not None
        spec = self.bugs[self.cfg.bug]
        if spec.oracle_mode == "bp":
            prefix = self.cfg.bug + ":"
            return any(
                st.hits > 0
                for name, st in result.breakpoint_stats.items()
                if name == self.cfg.bug or name.startswith(prefix)
            )
        return error is not None

    # ------------------------------------------------------------------
    @classmethod
    def bug_ids(cls) -> List[str]:
        """The app's known bug identifiers."""
        return list(cls.bugs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(bug={self.cfg.bug!r})"
