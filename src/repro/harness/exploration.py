"""Systematic schedule exploration of the benchmark applications.

The :mod:`repro.sim.explore` / :mod:`repro.sim.dpor` explorers take a
bare ``build(kernel)`` closure; this module adapts a registered app
(:mod:`repro.apps`) to that contract — a fresh app instance per run
(the explorers assume a deterministic, side-effect-free build), the
app's oracle evaluated as the run's ``observed`` payload, and the hit
statistics the ``repro explore`` CLI prints.

Exploration answers a different question from the trial harness: not
"how often does seed noise reproduce the bug" but "in what *fraction of
the schedule space* does it manifest" — ``hit_fraction`` counts
schedules, ``hit_probability`` weights each schedule by the product of
its branch-choice probabilities (a uniformly random scheduler's chance
of walking it), which is the better analogue of the paper's
reproduction-probability column.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Union

from repro.apps import AppConfig, get_app
from repro.sim.dpor import DporStats, explore_dpor, explore_dpor_sharded
from repro.sim.explore import Bound, Exploration, Outcome, explore

from .runner import _resolve_workers

__all__ = [
    "AppExploration",
    "ExplorationSummary",
    "explore_app",
    "explore_summary",
    "outcome_hit",
]

#: Why ``snapshots=True`` is refused (the keyword is kept for callers).
_SNAPSHOTS_REMOVED = (
    "snapshots=True is no longer supported: the fork snapshot executor "
    "was removed; every exploration replays schedules statelessly"
)


@dataclasses.dataclass(frozen=True)
class ExplorationSummary:
    """The decision-relevant reduction of an :class:`AppExploration`.

    This is what crosses process and storage boundaries: the svc wire
    form and the result cache both carry it instead of the (unbounded)
    outcome list.  ``witnesses`` keeps up to the requested number of
    bug-hitting schedules as explicit choice lists — enough to replay a
    witness locally.  ``to_wire``/``from_wire`` round-trip losslessly
    through JSON.
    """

    app: str
    bug: Optional[str]
    schedules: int
    complete: bool
    hits: int
    hit_fraction: float
    hit_probability: float
    pool_mode: str
    #: ``dataclasses.asdict`` of the :class:`DporStats`, or None.
    dpor: Optional[Dict[str, Any]]
    witnesses: List[List[int]]
    #: Doc form of the :class:`~repro.sim.explore.Bound` applied
    #: (``Bound.to_doc()``), or None when unbounded.
    bound: Optional[Dict[str, Any]] = None
    #: ``{"preemption_cuts": n, "variable_cuts": n}`` when a bound was
    #: applied (any explorer mode), else None.
    cuts: Optional[Dict[str, int]] = None

    def to_wire(self) -> Dict[str, Any]:
        """JSON dict in the established ``repro.svc/1`` explore shape."""
        return {
            "type": "explore",
            "app": self.app,
            "bug": self.bug,
            "schedules": self.schedules,
            "complete": self.complete,
            "hits": self.hits,
            "hit_fraction": self.hit_fraction,
            "hit_probability": self.hit_probability,
            "pool_mode": self.pool_mode,
            "dpor": self.dpor,
            "witnesses": [list(c) for c in self.witnesses],
            "bound": self.bound,
            "cuts": self.cuts,
        }

    @classmethod
    def from_wire(cls, doc: Dict[str, Any]) -> "ExplorationSummary":
        """Inverse of :meth:`to_wire`."""
        return cls(
            app=doc["app"],
            bug=doc["bug"],
            schedules=doc["schedules"],
            complete=doc["complete"],
            hits=doc["hits"],
            hit_fraction=doc["hit_fraction"],
            hit_probability=doc["hit_probability"],
            pool_mode=doc["pool_mode"],
            dpor=doc["dpor"],
            witnesses=[list(c) for c in doc.get("witnesses", [])],
            bound=doc.get("bound"),
            cuts=doc.get("cuts"),
        )


@dataclasses.dataclass
class AppExploration:
    """Result of exploring one app/bug's schedule space."""

    app: str
    bug: Optional[str]
    exploration: Exploration
    #: Reduction statistics when DPOR ran, else None.
    dpor_stats: Optional[DporStats]
    #: Always "stateless"; kept because the summary wire carries it.
    pool_mode: str
    #: Schedules whose oracle reported the bug, over schedules explored.
    hits: int
    hit_fraction: float
    #: Branch-choice-weighted hit probability (see module docstring).
    hit_probability: float
    #: The bound applied to the walk (None = unbounded).
    bound: Optional[Bound] = None

    def summary(self, witness_limit: int = 3) -> ExplorationSummary:
        """Reduce to the bounded, serializable summary form."""
        return ExplorationSummary(
            app=self.app,
            bug=self.bug,
            schedules=self.exploration.count,
            complete=self.exploration.complete,
            hits=self.hits,
            hit_fraction=self.hit_fraction,
            hit_probability=self.hit_probability,
            pool_mode=self.pool_mode,
            dpor=(
                dataclasses.asdict(self.dpor_stats)
                if self.dpor_stats is not None
                else None
            ),
            witnesses=[
                list(c)
                for c in self.exploration.witnesses(outcome_hit, limit=witness_limit)
            ],
            bound=self.bound.to_doc() if self.bound is not None else None,
            cuts=(
                {
                    "preemption_cuts": self.exploration.preemption_cuts,
                    "variable_cuts": self.exploration.variable_cuts,
                }
                if self.bound is not None
                else None
            ),
        )


def outcome_hit(outcome: Outcome) -> bool:
    """Did this schedule's oracle report the bug?"""
    return bool(outcome.observed and outcome.observed.get("bug_hit"))


def _make_build_and_observe(app_name: str, cfg: AppConfig):
    """Fresh-instance build closure + oracle-evaluating observe closure.

    One app instance per run, exactly like the trial harness — explorers
    re-execute ``build`` for every schedule, so instance state must never
    leak between runs.  The holder hands the run's instance to
    ``observe``.
    """
    cls = get_app(app_name)
    holder: Dict[str, Any] = {}

    def build(kernel) -> None:
        app = cls(dataclasses.replace(cfg))
        app.kernel = kernel
        app._policies = app.policies() if cfg.use_policies else {}
        app.setup(kernel)
        holder["app"] = app

    def observe(kernel) -> Dict[str, Any]:
        app = holder["app"]
        result = kernel._result()
        error = app.oracle(result)
        return {
            "error": error,
            "bug_hit": app._bug_hit(error, result),
            "bp_hit": any(st.hits > 0 for st in result.breakpoint_stats.values()),
        }

    return cls, build, observe


def explore_app(
    app_name: str,
    bug: Optional[str] = None,
    *,
    dpor: bool = False,
    sleep_sets: bool = False,
    snapshots: bool = False,
    workers: Union[int, str, None] = None,
    shard_depth: int = 2,
    max_schedules: int = 10_000,
    max_steps: Optional[int] = None,
    seed: int = 0,
    timeout: float = 0.100,
    use_policies: bool = True,
    params: Optional[Dict[str, Any]] = None,
    obs: Any = None,
    bound: Optional[Bound] = None,
) -> AppExploration:
    """Explore an app's schedule space and evaluate its oracle per leaf.

    ``dpor`` switches to partial-order reduction (programs with timed
    operations are rejected — see :mod:`repro.sim.dpor`); ``workers``
    (0/None = serial, ``"auto"`` = one per CPU, negative is refused)
    additionally shards the DPOR tree over that many worker processes.
    ``sleep_sets`` selects the reduction; ``snapshots=True`` raises
    ``ValueError`` (the fork snapshot executor was removed; the keyword
    stays for existing callers).  ``bound`` applies the composable
    preemption/variable cut strategies of
    :class:`~repro.sim.explore.Bound` in every explorer mode (the bound
    is result-relevant: it joins the cache fingerprint).
    """
    if snapshots:
        raise ValueError(_SNAPSHOTS_REMOVED)
    workers = _resolve_workers(workers)
    if bound is not None and not bound.active:
        bound = None
    if bug is not None:
        spec_cls = get_app(app_name)
        if bug not in spec_cls.bugs:
            raise KeyError(
                f"{app_name} has no bug {bug!r}; known: {list(spec_cls.bugs)}"
            )
    cfg = AppConfig(
        bug=bug,
        timeout=timeout,
        use_policies=use_policies,
        params=dict(params or {}),
    )
    cls, build, observe = _make_build_and_observe(app_name, cfg)
    max_steps = max_steps if max_steps is not None else cls.max_steps

    stats: Optional[DporStats] = None
    if dpor and workers:
        exploration, stats = explore_dpor_sharded(
            build,
            max_schedules=max_schedules,
            max_steps=max_steps,
            seed=seed,
            observe=observe,
            workers=workers,
            shard_depth=shard_depth,
            sleep_sets=sleep_sets,
            bound=bound,
        )
    elif dpor:
        exploration, stats = explore_dpor(
            build,
            max_schedules=max_schedules,
            max_steps=max_steps,
            seed=seed,
            observe=observe,
            sleep_sets=sleep_sets,
            obs=obs,
            bound=bound,
        )
    else:
        exploration = explore(
            build,
            max_schedules=max_schedules,
            max_steps=max_steps,
            seed=seed,
            observe=observe,
            max_time=cls.horizon,
            obs=obs,
            bound=bound,
        )

    hits = sum(1 for o in exploration.outcomes if outcome_hit(o))
    return AppExploration(
        app=app_name,
        bug=bug,
        exploration=exploration,
        dpor_stats=stats,
        pool_mode="stateless",
        hits=hits,
        hit_fraction=exploration.probability(outcome_hit),
        hit_probability=exploration.probability(outcome_hit, weighted=True),
        bound=bound,
    )


def explore_summary(
    app_name: str,
    bug: Optional[str] = None,
    *,
    witness_limit: int = 3,
    cache: Optional[Any] = None,
    snapshots: bool = False,
    **kwargs: Any,
) -> ExplorationSummary:
    """Summary-form exploration, served from ``cache`` when one is given.

    Same keyword surface as :func:`explore_app`; with a
    :class:`repro.cache.ResultCache` the summary comes from the
    content-addressed store (running the exploration only on a miss),
    without one it is computed directly — identical either way, which is
    what ``tests/cache/test_differential.py`` asserts.
    """
    if snapshots:
        raise ValueError(_SNAPSHOTS_REMOVED)
    if cache is not None:
        return cache.explore(
            app_name, bug, witness_limit=witness_limit, **kwargs
        )
    return explore_app(app_name, bug, **kwargs).summary(witness_limit=witness_limit)
