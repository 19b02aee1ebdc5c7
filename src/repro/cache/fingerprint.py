"""Canonical fingerprints: the cache's content addresses.

A cached result is only valid if it was produced by *exactly* the same
computation — trials are pure functions of ``(app spec + AppConfig,
engine/breakpoint config, seed range, trial timeout)``, explorations of
the analogous strategy tuple, so the cache key must cover every field
that can change the result and nothing that cannot.  Two rules shape
this module:

* **Canonicalisation** — the fingerprint is the SHA-256 of a canonical
  JSON rendering (sorted keys, no whitespace, containers normalised to
  lists) of a plain config document, so two configs that are equal as
  values hash identically no matter how their dicts were built or their
  fields ordered (``tests/cache/test_fingerprint.py`` fuzzes this).
* **Explicit invalidation** — every fingerprint-relevant field appears
  in the document by name: mutate any one (seed base, pause time ``T``,
  predicate refinements, app version tag, schema version, ...) and the
  key changes, so stale entries can never be served.  Fields that are
  contractually result-invariant — the worker count, retry budget,
  chunking — are deliberately *absent*: the differential batteries
  (``tests/harness/test_parallel_runner.py``, ``tests/svc/``) prove
  results bit-identical across them, so a sweep computed at any worker
  count may serve a request at any other.

Each cacheable kind has one key function — :func:`trials_key`,
:func:`explore_key`, :func:`infer_key` — taking the keyword arguments
of its library call (``run_trials``, ``explore_summary``,
``infer_app``) and returning ``(key, config)``: the storage key and the
config document a stored entry embeds.  The result cache looks entries
up and stores them under it, and the fleet router places jobs by it,
so two jobs land on one shard exactly when they could share an entry.

The app version tag is :attr:`repro.apps.base.BaseApp.cache_version`;
bump it whenever an app's workload or oracle changes in a way that
alters trial outcomes.  ``CACHE_SCHEMA`` versions the wire layout of
the cache entries themselves — bumping it orphans (and thereby
invalidates) every existing entry.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Optional, Tuple, Type

__all__ = [
    "CACHE_SCHEMA",
    "canonical_json",
    "trial_config_doc",
    "explore_config_doc",
    "infer_config_doc",
    "trials_key",
    "explore_key",
    "infer_key",
]

#: Version of the cache's on-disk entry layout; a bump invalidates all
#: existing entries (they simply stop matching any key).
CACHE_SCHEMA = 1


def _normalize(obj: Any) -> Any:
    """Reduce a config value to the JSON-compatible canonical form.

    Tuples become lists, sets/frozensets become sorted lists, dict keys
    are stringified (JSON object keys are strings anyway) — so a config
    document equals its own JSON round-trip, which is what lets a loaded
    cache entry's stored config be compared against a requested one with
    plain ``==``.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Mapping):
        return {str(k): _normalize(obj[k]) for k in obj}
    if isinstance(obj, (set, frozenset)):
        return sorted(_normalize(v) for v in obj)
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__!r} for a cache fingerprint: {obj!r}"
    )


def canonical_json(doc: Mapping[str, Any]) -> str:
    """The canonical rendering two equal configs always share."""
    return json.dumps(_normalize(doc), sort_keys=True, separators=(",", ":"))


def _app_version(app_cls: Type) -> str:
    return str(getattr(app_cls, "cache_version", "1"))


def trial_config_doc(
    app_cls: Type,
    *,
    bug: Optional[str] = None,
    timeout: float = 0.100,
    flip_order: bool = False,
    use_policies: bool = True,
    params: Optional[Dict[str, Any]] = None,
    collect_metrics: bool = False,
    trial_timeout: Optional[float] = None,
    only_breakpoints: Optional[frozenset] = None,
) -> Dict[str, Any]:
    """The fingerprint-relevant fields of one trial-sweep configuration.

    Everything here changes per-trial outcomes: the app (and its
    version tag), which bug's breakpoints are armed, the pause time
    ``T``, the resolution order, the Section 6.3 predicate refinements,
    the workload params, whether metrics travel with the outcomes, and
    the per-trial wall-clock budget (it decides which seeds can fail).
    The seed range is *not* here — it keys the per-seed rows inside the
    entry, which is what makes partial-range reuse possible.  Defaults
    are :func:`repro.harness.run_trials`'s.
    """
    return {
        "schema": CACHE_SCHEMA,
        "kind": "trials",
        "app": app_cls.name,
        "app_version": _app_version(app_cls),
        "bug": bug,
        "pause_timeout": float(timeout),
        "flip_order": bool(flip_order),
        "use_policies": bool(use_policies),
        "only_breakpoints": only_breakpoints,
        "params": dict(params or {}),
        "collect_metrics": bool(collect_metrics),
        "trial_timeout": trial_timeout,
    }


def explore_config_doc(
    app_cls: Type,
    *,
    bug: Optional[str],
    dpor: bool,
    sharded: bool,
    max_steps: Optional[int],
    sleep_sets: bool = False,
    shard_depth: Optional[int] = 2,
    max_schedules: int = 10_000,
    seed: int = 0,
    timeout: float = 0.100,
    use_policies: bool = True,
    params: Optional[Dict[str, Any]] = None,
    witness_limit: int = 3,
    bound: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Fingerprint-relevant fields of one exploration summary.

    ``dpor``/``sleep_sets`` select the reduction (the reported
    :class:`~repro.sim.dpor.DporStats` differ across them), and
    ``sharded``/``shard_depth`` fix the frontier layout.  The *worker
    count* is absent: the sharded merge is bit-identical for any count
    (``tests/sim/test_snapshot_explore.py``).  ``max_steps`` must be
    resolved by the caller (an explicit value equal to the app default
    is the same computation and must hash the same).  ``bound`` is the
    doc form of the :class:`~repro.sim.explore.Bound` applied — bounding
    cuts schedules, so it is result-relevant and must key the entry
    (``None`` = unbounded; an *active* bound equal in effect to
    unbounded still hashes separately, which only costs a re-run).
    Defaults are :func:`repro.harness.explore_summary`'s.

    ``"snapshots"`` is a constant ``False``: it named the removed fork
    snapshot executor, and keeping it leaves every existing cache key
    and ring placement where it was.
    """
    return {
        "schema": CACHE_SCHEMA,
        "kind": "explore",
        "app": app_cls.name,
        "app_version": _app_version(app_cls),
        "bug": bug,
        "dpor": bool(dpor),
        "sleep_sets": bool(sleep_sets),
        "snapshots": False,
        "sharded": bool(sharded),
        "shard_depth": int(shard_depth) if sharded and shard_depth is not None else None,
        "max_schedules": int(max_schedules),
        "max_steps": max_steps,
        "seed": int(seed),
        "pause_timeout": float(timeout),
        "use_policies": bool(use_policies),
        "params": dict(params or {}),
        "witness_limit": int(witness_limit),
        "bound": dict(bound) if bound else None,
    }


def infer_config_doc(
    app_cls: Type,
    *,
    trace_seed: int,
    infer_version: int,
    trials: int = 20,
    base_seed: int = 0,
    timeout: float = 0.100,
    use_policies: bool = True,
    params: Optional[Dict[str, Any]] = None,
    trial_timeout: Optional[float] = None,
    steer_attempts: int = 5,
) -> Dict[str, Any]:
    """Fingerprint-relevant fields of one inference report.

    An inference report is a pure function of the traced run
    (``trace_seed`` and the app version tag fix the trace, hence the
    detector findings and candidates), the confirmation sweep shape
    (``trials``/``base_seed``/``timeout``/``use_policies``/``params``/
    ``trial_timeout`` — the same fields a trial fingerprint covers),
    the steering budget, and the pipeline's own heuristics version
    (:data:`repro.infer.INFER_VERSION` — matching tiers and the
    confirmation rule are part of the computation).  The worker count
    is absent per the parallel == serial contract.  Defaults are
    :func:`repro.infer.infer_app`'s.
    """
    return {
        "schema": CACHE_SCHEMA,
        "kind": "infer",
        "app": app_cls.name,
        "app_version": _app_version(app_cls),
        "trace_seed": int(trace_seed),
        "trials": int(trials),
        "base_seed": int(base_seed),
        "pause_timeout": float(timeout),
        "use_policies": bool(use_policies),
        "params": dict(params or {}),
        "trial_timeout": trial_timeout,
        "steer_attempts": int(steer_attempts),
        "infer_version": int(infer_version),
    }


def _keyed(doc: Mapping[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """``(key, config)`` of ``doc`` from its one canonical rendering.

    The key is the SHA-256 of the rendering and the config its JSON
    parse, the round-trip-stable form a stored entry embeds and a load
    compares with ``==``.
    """
    text = canonical_json(doc)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), json.loads(text)


def trials_key(
    app_cls: Type,
    *,
    n: int = 100,
    base_seed: int = 0,
    workers: Any = None,
    max_retries: int = 2,
    trial_hook: Any = None,
    **fields: Any,
) -> Tuple[str, Dict[str, Any]]:
    """``(key, config)`` of a :func:`repro.harness.run_trials` sweep.

    Takes that call's keyword arguments.  The seed range (``n``,
    ``base_seed``) keys rows *inside* the entry, and the worker count,
    retry budget and fault-injection hook never change a result, so
    these five are ignored; every other keyword is a field of
    :func:`trial_config_doc` (a misspelled one raises ``TypeError``).
    """
    return _keyed(trial_config_doc(app_cls, **fields))


def explore_key(
    app_name: str,
    bug: Optional[str] = None,
    *,
    dpor: bool = False,
    workers: Any = None,
    max_steps: Optional[int] = None,
    bound: Any = None,
    obs: Any = None,
    **fields: Any,
) -> Tuple[str, Dict[str, Any]]:
    """``(key, config)`` of a :func:`repro.harness.explore_summary` call.

    Takes that call's keyword arguments (``KeyError`` for an unknown
    app or bug).  The walk is sharded when ``dpor and workers``, and
    only then does ``shard_depth`` count; the worker count itself is
    ignored, as is ``obs``.  ``max_steps=None`` resolves to the app
    default and ``bound`` (a :class:`~repro.sim.explore.Bound`) enters
    as ``Bound.to_doc()``.
    """
    from repro.apps import get_app

    cls = get_app(app_name)
    if bug is not None and bug not in cls.bugs:
        raise KeyError(f"{app_name} has no bug {bug!r}; known: {list(cls.bugs)}")
    return _keyed(
        explore_config_doc(
            cls,
            bug=bug,
            dpor=dpor,
            sharded=bool(dpor and workers),
            max_steps=cls.max_steps if max_steps is None else max_steps,
            bound=bound.to_doc() if bound is not None else None,
            **fields,
        )
    )


def infer_key(
    app_name: str,
    *,
    seed: int = 0,
    workers: Any = None,
    obs: Any = None,
    **fields: Any,
) -> Tuple[str, Dict[str, Any]]:
    """``(key, config)`` of a :func:`repro.infer.infer_app` call.

    Takes that call's keyword arguments (``KeyError`` for an unknown
    app).  ``seed`` is the traced run's ``trace_seed``, the pipeline's
    :data:`~repro.infer.INFER_VERSION` joins the key, and ``workers``
    and ``obs`` are ignored.
    """
    from repro.apps import get_app
    from repro.infer.pipeline import INFER_VERSION

    return _keyed(
        infer_config_doc(
            get_app(app_name), trace_seed=seed, infer_version=INFER_VERSION, **fields
        )
    )
