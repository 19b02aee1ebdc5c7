"""Seeded job rounds, direct execution and output checks.

Every input the program sees is a :class:`repro.svc.jobs.JobSpec` made
here from ``(workload, seed)`` alone, so the same seed always yields the
same jobs.  A workload is an endless iterator of rounds, and the timed
phase runs rounds until time is up.  Position ``i`` of every round
holds the same job shape (kind, app, bug, size), so the benchmark can
take each position's median over the rounds.

What a round holds does not depend on ``--seed``: the seed only draws
the seeds inside the specs (and the order of the ``svc_warm`` requests),
which keeps the cost of a round comparable across seeds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import harness
from repro.apps import ALL_APPS, get_app, table1_bugs, table2_bugs
from repro.apps.large import EXPLORE_PARAMS
from repro.harness.tables import TABLE1_CONFIG
from repro.sim import Bound
from repro.svc.jobs import JobSpec, stats_to_wire


def _interleave(pairs: List[Tuple[str, Optional[str]]]) -> List[Tuple[str, Optional[str]]]:
    """One (app, bug) pair of each app in turn.

    Job costs differ by app far more than by bug, so spreading each
    app's pairs over the pass keeps the mix of any prefix close to the
    mix of the whole pass: a run that gets further through a pass then
    measures the same kind of work, only more of it.
    """
    groups: Dict[str, List[Tuple[str, Optional[str]]]] = {}
    for pair in pairs:
        groups.setdefault(pair[0], []).append(pair)
    rounds = itertools.zip_longest(*groups.values())
    return [pair for round_ in rounds for pair in round_ if pair is not None]


#: The paper's Table 1 and Table 2 rows (37 (app, bug) pairs).
ROWS = _interleave(sorted(table1_bugs()) + sorted(table2_bugs()))

#: Every registered (app, bug) pair, with the large family scaled down
#: to its exploration parameters.
EXPLORE_SHAPES: List[Dict[str, Any]] = [
    {"app": app, "bug": bug, "params": dict(EXPLORE_PARAMS.get(app, {}))}
    for app, bug in _interleave([(a, b) for a in sorted(ALL_APPS) for b in ALL_APPS[a].bugs])
]

#: Sleep-set DPOR shapes: ``bank`` unbounded, the large family bounded.
DPOR_SHAPES: List[Dict[str, Any]] = [
    {"app": "bank", "bug": None, "params": {}},
    *(
        {"app": app, "bug": None, "params": dict(EXPLORE_PARAMS[app]),
         "bound_preemptions": 2}
        for app in ("threadpool", "mesh", "connpool")
    ),
]

#: Apps the inference jobs cycle through (the large family's full-size
#: defaults are for trial sweeps, not for a traced inference run).
INFER_APPS = sorted(a for a in ALL_APPS if a not in EXPLORE_PARAMS)

TRIALS_N = 20           # trials: seeds per sweep
TRIALS_BASES = 2        # trials: base seeds per round (2 x 37 rows x armed/plain)
EXPLORE_MAX = 20        # explore: schedule cap per job
EXPLORE_SEEDS = 2       # explore: explore seeds per round (2 x 50 shapes)
COLD_ROUND = 100        # svc_cold: jobs per round
COLD_TRIALS_N = 10
COLD_INFER_TRIALS = 5
COLD_EXPLORE_MAX = 20
#: svc_cold kind pattern: 12 trials, 5 infer and 3 explore jobs per 20.
COLD_PATTERN = "TTITETTITTETITTITETI"
WARM_START_N = 10
WARM_STEP = 10
WARM_MAX_N = 40
WARM_EXPLORE_MAX = 20
#: svc_warm requests per round: Zipf-spread exact resubmits, and one
#: seed-range extension of each of the 48 trial configs (20 % of the
#: round).
WARM_RESUBMITS = 192
WARM_ZIPF_S = 1.0

#: Workloads served through HTTP.
SVC_WORKLOADS = ("svc_cold", "svc_warm")
WORKLOADS = ("trials", "explore", "svc_cold", "svc_warm")


def _rng(*parts: Any) -> random.Random:
    # String seeds hash through SHA-512: stable across processes and runs.
    return random.Random("/".join(str(p) for p in parts))


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


def _trials_round(seed: int) -> List[JobSpec]:
    """Every paper row armed then plain, on each of two base seeds."""
    out = []
    for base in _rng("trials", seed).sample(range(10**6, 10**9, 10**6), TRIALS_BASES):
        for app, bug in ROWS:
            out.append(JobSpec(kind="trials", app=app, bug=bug, trials=TRIALS_N,
                               base_seed=base, **TABLE1_CONFIG.get((app, bug), {})))
            out.append(JobSpec(kind="trials", app=app, bug=None, trials=TRIALS_N,
                               base_seed=base))
    return out


def _explore_round(seed: int) -> List[JobSpec]:
    """Sleep-set DPOR shapes, then every (app, bug) shape; two explore seeds."""
    shapes = [dict(s, dpor=True, sleep_sets=True) for s in DPOR_SHAPES] + EXPLORE_SHAPES
    out = []
    for explore_seed in _rng("explore", seed).sample(range(10**6), EXPLORE_SEEDS):
        out.extend(JobSpec(kind="explore", max_schedules=EXPLORE_MAX, seed=explore_seed,
                           **shape) for shape in shapes)
    return out


def _cold_round(seed: int, r: int) -> List[JobSpec]:
    """Round ``r`` of distinct trials/infer/explore jobs.

    Position ``i`` has the same shape in every round; the seeds move with
    ``r`` so that no two jobs of a run share a cache entry.  An inference
    job keeps its trace seed (and so its candidates) and moves only the
    seeds of its sweeps.
    """
    rng = _rng("svc_cold", seed)
    trial_base = rng.randrange(1, 1000) * 10**6
    infer_base = trial_base + 5 * 10**5
    explore_seed = rng.randrange(10**6)
    counts = {"T": 0, "I": 0, "E": 0}
    out = []
    for i in range(COLD_ROUND):
        kind = COLD_PATTERN[i % len(COLD_PATTERN)]
        k = counts[kind]
        counts[kind] += 1
        tag = r * COLD_ROUND + i
        if kind == "T":
            app, bug = ROWS[k % len(ROWS)]
            out.append(JobSpec(kind="trials", app=app, bug=bug, trials=COLD_TRIALS_N,
                               base_seed=trial_base + tag * COLD_TRIALS_N,
                               **TABLE1_CONFIG.get((app, bug), {})))
        elif kind == "I":
            out.append(JobSpec(kind="infer", app=INFER_APPS[k % len(INFER_APPS)],
                               seed=explore_seed + k, trials=COLD_INFER_TRIALS,
                               base_seed=infer_base + tag * COLD_INFER_TRIALS))
        else:
            shape = EXPLORE_SHAPES[k % len(EXPLORE_SHAPES)]
            out.append(JobSpec(kind="explore", max_schedules=COLD_EXPLORE_MAX,
                               seed=explore_seed + tag, **shape))
    return out


def warm_configs(seed: int) -> List[JobSpec]:
    """The 64 pre-warmed svc_warm configs: 48 trial sweeps, 16 explorations.

    Every config has its own cache entry: the 37 armed rows plus plain
    sweeps of 11 distinct apps, and 16 distinct exploration shapes.
    """
    rng = _rng("svc_warm", seed, "configs")
    plain_apps = list(dict.fromkeys(app for app, _ in ROWS))[:11]
    trial_rows = ROWS + [(app, None) for app in plain_apps]
    base = rng.randrange(1, 1000) * 10**6
    trials = [
        JobSpec(kind="trials", app=app, bug=bug, trials=WARM_START_N,
                base_seed=base + i * 10**4,
                **(TABLE1_CONFIG.get((app, bug), {}) if bug else {}))
        for i, (app, bug) in enumerate(trial_rows)
    ]
    explore_seed = rng.randrange(10**6)
    explores = [
        JobSpec(kind="explore", max_schedules=WARM_EXPLORE_MAX, seed=explore_seed, **shape)
        for shape in EXPLORE_SHAPES[::3][:16]
    ]
    # Three trial configs, then one exploration.
    return [spec for i in range(16) for spec in (*trials[3 * i:3 * i + 3], explores[i])]


def extend(spec: JobSpec) -> JobSpec:
    """The next sweep of a trial config: 10 more seeds, all new.

    Below ``WARM_MAX_N`` trials the range grows; at the cap it slides by
    10, so the request always reads some seeds and runs 10: a partial hit.
    """
    if spec.trials < WARM_MAX_N:
        return dataclasses.replace(spec, trials=spec.trials + WARM_STEP)
    return dataclasses.replace(spec, base_seed=spec.base_seed + WARM_STEP)


def resubmit_counts(n_configs: int) -> List[int]:
    """Resubmits per config in one round: ``WARM_RESUBMITS`` spread by Zipf.

    A config's rank is its position in :func:`warm_configs`, the same for
    every seed, so the hot configs do not change with the seed.  Counts
    are the Zipf shares rounded by largest remainder.
    """
    weights = [1.0 / (rank + 1) ** WARM_ZIPF_S for rank in range(n_configs)]
    exact = [WARM_RESUBMITS * w / sum(weights) for w in weights]
    counts = [math.floor(x) for x in exact]
    by_remainder = sorted(range(n_configs), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[:WARM_RESUBMITS - sum(counts)]:
        counts[i] += 1
    return counts


def _warm_plan(seed: int) -> Tuple[List[JobSpec], List[Tuple[int, bool]]]:
    """The configs and one round: ``(config index, extend?)`` pairs.

    Each trial config is extended once per round: every extension stores
    10 more seeds in the config's cache entry, so extending hot configs
    more often would grow their entries, and the cost of their hits,
    through the run.  The seed only orders the round.
    """
    configs = warm_configs(seed)
    plan = [(i, False) for i, n in enumerate(resubmit_counts(len(configs))) for _ in range(n)]
    plan += [(i, True) for i, spec in enumerate(configs) if spec.kind == "trials"]
    _rng("svc_warm", seed).shuffle(plan)
    return configs, plan


def _warm_rounds(seed: int) -> Iterator[List[JobSpec]]:
    """Exact resubmits (full hits) and seed-range extensions (partial hits)."""
    configs, plan = _warm_plan(seed)
    while True:
        out = []
        for i, grow in plan:
            if grow:
                configs[i] = extend(configs[i])
            out.append(configs[i])
        yield out


def rounds(workload: str, seed: int) -> Iterator[List[JobSpec]]:
    """The endless rounds of ``workload``."""
    if workload == "trials":
        return itertools.repeat(_trials_round(seed))
    if workload == "explore":
        return itertools.repeat(_explore_round(seed))
    if workload == "svc_cold":
        return (_cold_round(seed, r) for r in itertools.count())
    if workload == "svc_warm":
        return _warm_rounds(seed)
    raise KeyError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def warmup_spec(workload: str) -> JobSpec:
    """The one untimed job each set-up runs (outside every seed range)."""
    if workload == "explore":
        return JobSpec(kind="explore", app="figure4", bug="error1", max_schedules=5)
    return JobSpec(kind="trials", app="figure4", bug="error1", trials=5, base_seed=7 * 10**9)


# ---------------------------------------------------------------------------
# Execution and checks
# ---------------------------------------------------------------------------


def direct(spec: JobSpec) -> Dict[str, Any]:
    """Run a trials or explore spec through the library; wire-form result."""
    if spec.kind == "trials":
        stats = harness.run_trials(
            get_app(spec.app), n=spec.trials, bug=spec.bug, timeout=spec.timeout,
            use_policies=spec.use_policies, base_seed=spec.base_seed,
            params=dict(spec.params),
        )
        return stats_to_wire(stats)
    if spec.kind == "explore":
        return harness.explore_summary(
            spec.app, spec.bug, dpor=spec.dpor, sleep_sets=spec.sleep_sets,
            snapshots=spec.snapshots, max_schedules=spec.max_schedules,
            seed=spec.seed, timeout=spec.timeout, params=dict(spec.params),
            bound=Bound.from_values(spec.bound_preemptions, spec.bound_variables),
        ).to_wire()
    raise ValueError(f"no direct path for {spec.kind!r} jobs")


def digest(wire: Dict[str, Any]) -> str:
    """Content digest of a wire-form result."""
    blob = json.dumps(wire, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check(spec: JobSpec, wire: Dict[str, Any]) -> Optional[str]:
    """Why ``wire`` cannot be the result of ``spec`` (None when it can)."""
    if wire.get("type") != spec.kind or wire.get("app") != spec.app:
        return f"result {wire.get('type')}/{wire.get('app')} for a {spec.kind}/{spec.app} job"
    if spec.kind == "trials":
        if wire["trials"] != spec.trials or wire["bug"] != spec.bug or wire["failures"]:
            return f"trials result {wire['trials']}/{wire['bug']} with failures {wire['failures']}"
    elif spec.kind == "explore":
        if not 0 < wire["schedules"] <= spec.max_schedules:
            return f"explore result of {wire['schedules']} schedules"
    elif wire["trace_seed"] != spec.seed or wire["trials"] != spec.trials:
        return f"infer result for seed {wire['trace_seed']} and {wire['trials']} trials"
    return None
