"""Golden-trace corpus: canonical per-app trace fingerprints.

The fast-path kernel rewrite (and any future one) is held to a hard
contract: *bit-identical traces* for the same ``(program, scheduler,
seed)``.  This module defines the corpus that pins that contract —
every registry app, run traced at a fixed seed set, plain and with its
first declared bug active — and renders each app's entries to a
canonical JSON document committed under ``tests/sim/golden/``.

``tests/sim/test_golden_traces.py`` re-runs the corpus and compares the
rendered document *byte-for-byte* against the committed file, so any
divergence — one event field, one float, one reordering — fails loudly.
``tools/record_golden.py`` (re)records the files; it accepts
``--reference`` to record through the pre-rewrite
:class:`~repro.sim._reference.ReferenceKernel`, which must produce the
identical corpus (that equality is itself asserted by the differential
battery in ``tests/sim/test_kernel_determinism.py``).

Entries intentionally include the trace fingerprint *and* coarse run
facts (steps, events, virtual time, termination flags): when a
fingerprint diverges, the coarse fields usually localize why.

A second corpus pins the *explorers* the same way
(``tests/sim/golden/explore/corpus.json``, checked by
``tests/sim/test_golden_explore.py``): every registry app walked by the
plain DFS, and the untimed subjects by plain, sleep-set and sharded
DPOR, each unbounded and under one preemption or one variable.

A third pins what *instrumented* runs report
(``tests/sim/golden/metrics/corpus.json``, checked by
``tests/sim/test_golden_metrics.py``): the metric names and a digest of
the deterministic metrics view of a collected trial sweep of every
registry app, and of a sleep-set DPOR explore job on every untimed
subject, serial and sharded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.apps.base import AppConfig, BaseApp
from repro.apps.large import EXPLORE_PARAMS
from repro.apps.registry import ALL_APPS
from repro.harness import runner
from repro.harness.exploration import _make_build_and_observe
from repro.obs.metrics import MetricsRegistry, deterministic_view
from repro.sim import primitives as _primitives
from repro.sim.dpor import explore_dpor, explore_dpor_sharded
from repro.sim.explore import explore
from repro.sim.kernel import Kernel
from repro.sim.snapshot import Bound
from repro.sim.trace import trace_fingerprint
from repro.svc import jobs

__all__ = [
    "GOLDEN_DIR",
    "GOLDEN_SEEDS",
    "golden_cases",
    "golden_entry",
    "render_app_corpus",
    "record_corpus",
    "EXPLORE_GOLDEN",
    "explore_cases",
    "explore_entry",
    "render_explore_corpus",
    "METRICS_GOLDEN",
    "metrics_cases",
    "metrics_entry",
    "render_metrics_corpus",
]

#: Committed corpus location (repo-relative, resolved from this file).
GOLDEN_DIR = Path(__file__).resolve().parents[2] / "tests" / "sim" / "golden"

#: Fixed scheduler/app seeds the corpus pins.  Plain runs are recorded
#: at every seed; the bug-active variant at the first seed only (it is
#: the slow case — breakpoint pauses burn virtual-time timers).
GOLDEN_SEEDS: Tuple[int, ...] = (1, 7)


def golden_cases(app_cls: Type[BaseApp]) -> List[Tuple[int, Optional[str]]]:
    """The ``(seed, bug)`` matrix recorded for one app."""
    cases: List[Tuple[int, Optional[str]]] = [(seed, None) for seed in GOLDEN_SEEDS]
    bugs = sorted(app_cls.bugs)
    if bugs:
        cases.append((GOLDEN_SEEDS[0], bugs[0]))
    return cases


@contextmanager
def _fresh_primitive_ids():
    """Run one golden case with the primitive uid counter pinned to 1.

    Anonymous primitives are named from a process-global counter
    (``lock{uid}``), and those names enter the trace fingerprint — so
    without isolation a corpus entry would depend on how many
    primitives happened to be created earlier in the process (test
    order, recorder order).  Uids are only ever compared within one
    run, so a per-case reset is safe; the ambient counter is restored
    afterwards and keeps counting where it left off."""
    saved = _primitives._ids
    _primitives._ids = itertools.count(1)
    try:
        yield
    finally:
        _primitives._ids = saved


def golden_entry(
    app_cls: Type[BaseApp],
    seed: int,
    bug: Optional[str] = None,
    kernel_cls: type = Kernel,
    instrumented: bool = False,
) -> Dict[str, Any]:
    """One traced run, reduced to its canonical corpus entry.

    ``instrumented`` runs the case with a fresh metrics registry; an
    instrumented run is the same execution, so the entry is the same.
    """
    obs = MetricsRegistry() if instrumented else None
    with _fresh_primitive_ids():
        app = app_cls(AppConfig(bug=bug))
        run = app.run(seed=seed, record_trace=True, kernel_cls=kernel_cls, obs=obs)
    r = run.result
    assert r.trace is not None
    return {
        "app": app_cls.name,
        "seed": seed,
        "bug": bug,
        "fingerprint": trace_fingerprint(r.trace),
        "events": len(r.trace),
        "steps": r.steps,
        "time": repr(r.time),
        "completed": r.completed,
        "deadlocked": r.deadlocked,
        "stalled": r.stalled,
    }


def render_app_corpus(
    app_cls: Type[BaseApp], kernel_cls: type = Kernel, instrumented: bool = False
) -> str:
    """The app's corpus document, canonically serialized."""
    entries = [
        golden_entry(app_cls, seed, bug, kernel_cls=kernel_cls, instrumented=instrumented)
        for seed, bug in golden_cases(app_cls)
    ]
    return json.dumps(entries, indent=2, sort_keys=True) + "\n"


def record_corpus(
    out_dir: Path = GOLDEN_DIR, kernel_cls: type = Kernel, echo: bool = False
) -> List[Path]:
    """(Re)record the full corpus: one JSON file per registry app, and
    the exploration and metrics corpora (which ``kernel_cls`` does not
    affect) in the ``explore/`` and ``metrics/`` subdirectories."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for app_cls in ALL_APPS.values():
        path = out_dir / f"{app_cls.name}.json"
        path.write_text(render_app_corpus(app_cls, kernel_cls=kernel_cls))
        written.append(path)
        if echo:
            print(f"recorded {path}")
    for sub, render in (("explore", render_explore_corpus),
                        ("metrics", render_metrics_corpus)):
        path = out_dir / sub / "corpus.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(render())
        written.append(path)
        if echo:
            print(f"recorded {path}")
    return written


# ---------------------------------------------------------------------------
# Exploration corpus
# ---------------------------------------------------------------------------

#: Committed exploration corpus, one directory below the trace corpus
#: (whose directory holds exactly one file per registry app).
EXPLORE_GOLDEN = GOLDEN_DIR / "explore" / "corpus.json"

#: Bounds every case is walked under.
EXPLORE_BOUNDS = {"none": None, "p1": Bound(preemptions=1), "v1": Bound(variables=1)}

#: The untimed subjects walked in every mode, with small workloads that
#: every mode uses (the large apps' full size is for trial sweeps).
DPOR_SUBJECTS: Dict[str, Dict[str, Any]] = {"bank": {"iters": 2}, **EXPLORE_PARAMS}

#: Plain DFS, DPOR, sleep-set DPOR, and serial sharded DPOR without and
#: with sleep sets.
EXPLORE_MODES = ("plain", "dpor", "dpor-sleep", "sharded", "sharded-sleep")

#: Schedule cap per case; a sharded case caps each shard at a quarter.
EXPLORE_CAP = 20


def explore_cases() -> List[Tuple[str, Optional[str], str, str]]:
    """The ``(app, bug, mode, bound)`` matrix: the plain walk on every
    registry app and every mode on the DPOR subjects, each without a
    bug and with the app's first bug."""
    return [
        (name, bug, mode, bound)
        for name in sorted(ALL_APPS)
        for bug in [None] + sorted(ALL_APPS[name].bugs)[:1]
        for mode in (EXPLORE_MODES if name in DPOR_SUBJECTS else EXPLORE_MODES[:1])
        for bound in EXPLORE_BOUNDS
    ]


def explore_entry(app: str, bug: Optional[str], mode: str, bound: str) -> Dict[str, Any]:
    """One exploration, reduced to its corpus entry: the schedule count
    and a digest of every outcome (choices, result scalars, observation,
    weight, preemptions), the completeness flag, both cut counts and the
    :class:`~repro.sim.dpor.DporStats`."""
    cfg = AppConfig(bug=bug, params=dict(DPOR_SUBJECTS.get(app, {})))
    with _fresh_primitive_ids():
        cls, build, observe = _make_build_and_observe(app, cfg)
        kwargs = dict(
            max_schedules=EXPLORE_CAP,
            max_steps=cls.max_steps,
            observe=observe,
            bound=EXPLORE_BOUNDS[bound],
        )
        stats = None
        if mode == "plain":
            ex = explore(build, max_time=cls.horizon, **kwargs)
        elif mode.startswith("dpor"):
            ex, stats = explore_dpor(build, sleep_sets=mode.endswith("sleep"), **kwargs)
        else:
            kwargs["max_schedules"] //= 4
            ex, stats = explore_dpor_sharded(
                build, workers=0, shard_depth=2, sleep_sets=mode.endswith("sleep"), **kwargs
            )
    return {"app": app, "bug": bug, "mode": mode, "bound": bound,
            "schedules": ex.count, "digest": exploration_digest(ex, stats)}


def exploration_digest(ex: Any, stats: Any = None) -> str:
    """SHA-256 of an exploration: every outcome (choices, result
    scalars, observation, weight, preemptions) in order, then the
    completeness flag, both cut counts and the ``DporStats`` (if any)."""
    digest = hashlib.sha256()
    for o in ex.outcomes:
        r = o.result
        row = (tuple(o.choices), repr(r.time), r.steps, r.completed, r.deadlocked,
               r.stalled, r.limit_hit, len(r.failures), repr(o.observed),
               repr(o.weight), o.preemptions)
        digest.update(repr(row).encode())
    tail = (ex.complete, ex.preemption_cuts, ex.variable_cuts,
            dataclasses.astuple(stats) if stats is not None else None)
    digest.update(repr(tail).encode())
    return digest.hexdigest()


def render_explore_corpus() -> str:
    """The exploration corpus document, canonically serialized."""
    entries = [explore_entry(*case) for case in explore_cases()]
    return json.dumps(entries, indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Metrics corpus
# ---------------------------------------------------------------------------

#: Committed metrics corpus, one directory below the trace corpus.
METRICS_GOLDEN = GOLDEN_DIR / "metrics" / "corpus.json"

#: Trials per collected sweep, and the first seed of each sweep.
METRICS_TRIALS, METRICS_BASE_SEED = 4, 1

#: Worker counts of the explore jobs: the serial walk and the sharded one.
METRICS_EXPLORE_WORKERS = (0, 2)


def metrics_cases() -> List[Tuple[str, str, Optional[str], int]]:
    """The ``(kind, app, bug, workers)`` matrix: a collected trial sweep
    of every registry app without a bug and with its first bug, and a
    sleep-set DPOR explore job with the first bug of every DPOR
    subject, at each of :data:`METRICS_EXPLORE_WORKERS`."""
    trials = [
        ("trials", name, bug, 0)
        for name in sorted(ALL_APPS)
        for bug in [None] + sorted(ALL_APPS[name].bugs)[:1]
    ]
    explore_jobs = [
        ("explore", name, sorted(ALL_APPS[name].bugs)[0], workers)
        for name in sorted(DPOR_SUBJECTS)
        for workers in METRICS_EXPLORE_WORKERS
    ]
    return trials + explore_jobs


def metrics_entry(kind: str, app: str, bug: Optional[str], workers: int) -> Dict[str, Any]:
    """One instrumented run, reduced to its corpus entry: the sorted
    metric names and a SHA-256 of the deterministic metrics view as
    canonical JSON."""
    with _fresh_primitive_ids():
        if kind == "trials":
            stats = runner.run_trials(
                ALL_APPS[app], n=METRICS_TRIALS, bug=bug,
                base_seed=METRICS_BASE_SEED, collect_metrics=True,
            )
            snapshot = stats.metrics
        else:
            registry = MetricsRegistry()
            spec = jobs.JobSpec(
                kind="explore", app=app, bug=bug, dpor=True, sleep_sets=True,
                max_schedules=EXPLORE_CAP, params=dict(DPOR_SUBJECTS[app]),
                workers=workers,
            )
            jobs.execute_job(spec, metrics=registry)
            snapshot = registry.snapshot()
    view = json.dumps(deterministic_view(snapshot), sort_keys=True, separators=(",", ":"))
    return {"kind": kind, "app": app, "bug": bug, "workers": workers,
            "metrics": sorted(snapshot),
            "digest": hashlib.sha256(view.encode()).hexdigest()}


def render_metrics_corpus() -> str:
    """The metrics corpus document, canonically serialized."""
    entries = [metrics_entry(*case) for case in metrics_cases()]
    return json.dumps(entries, indent=1, sort_keys=True) + "\n"
