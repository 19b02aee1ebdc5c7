"""Content-addressed result cache for trial sweeps and explorations.

Public surface: :class:`ResultCache` (the memoizing store the harness,
svc executor and CLI share), the key functions that define its content
addresses (one per cacheable kind: :func:`trials_key`,
:func:`explore_key`, :func:`infer_key`) with the fingerprint helpers
under them, and :class:`CacheStore` for the raw on-disk layer.
See :mod:`repro.cache.results` for the correctness argument and
``docs/architecture.md`` for where the cache sits in the pipeline.
"""

from .fingerprint import (
    CACHE_SCHEMA,
    canonical_json,
    explore_config_doc,
    explore_fingerprint,
    explore_key,
    fingerprint_doc,
    infer_config_doc,
    infer_key,
    trial_config_doc,
    trial_fingerprint,
    trials_key,
)
from .results import ResultCache
from .store import DEFAULT_MAX_BYTES, CacheStore, StoreStats

__all__ = [
    "CACHE_SCHEMA",
    "CacheStore",
    "DEFAULT_MAX_BYTES",
    "ResultCache",
    "StoreStats",
    "canonical_json",
    "explore_config_doc",
    "explore_fingerprint",
    "explore_key",
    "fingerprint_doc",
    "infer_config_doc",
    "infer_key",
    "trial_config_doc",
    "trial_fingerprint",
    "trials_key",
]
