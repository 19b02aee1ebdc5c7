"""Sleep-set DPOR on the large family at full size, pinned.

The exploration corpus walks threadpool, mesh and connpool only at
their scaled-down ``EXPLORE_PARAMS``.  Here each runs at its registry
default size, where one run makes thousands of scheduling choices, so
any per-run pass whose cost grows with the square of the run length
shows up as seconds.  Each case pins the walk's
:class:`~repro.sim.dpor.DporStats` field by field and the exploration
corpus's SHA-256 digest of its outcomes
(:func:`repro.goldens.exploration_digest`).  The values were recorded
from the backward-scan race analysis, before the indexed lookup
replaced it.
"""

import dataclasses

import pytest

from repro.apps.base import AppConfig
from repro.goldens import _fresh_primitive_ids, exploration_digest
from repro.harness.exploration import _make_build_and_observe
from repro.sim.dpor import explore_dpor

#: app -> (first bug, DporStats fields, digest) for max_schedules=2.
PINNED = {
    "threadpool": (
        "audit_race",
        dict(schedules=2, branches_added=402, conservative_fallbacks=53,
             sleep_set_prunes=15, executed_steps=65297, preemption_cuts=0,
             variable_cuts=0),
        "aae6cf318e3233ec93fe41b5751fc1eec59cd2bb9af84896a0d6aca07241c6ed",
    ),
    "mesh": (
        "lost_item",
        dict(schedules=2, branches_added=242, conservative_fallbacks=136,
             sleep_set_prunes=15, executed_steps=19057, preemption_cuts=0,
             variable_cuts=0),
        "12a9151300d54df0e439f77574161c8f5dfed9c1895b2046534c96d451390ac5",
    ),
    "connpool": (
        "grow_race",
        dict(schedules=2, branches_added=546, conservative_fallbacks=392,
             sleep_set_prunes=49, executed_steps=121380, preemption_cuts=0,
             variable_cuts=0),
        "1ef26e8d37308ba17acd7a392a12bd1f90be13ae6582a29cb61d53af8ef80430",
    ),
}


@pytest.mark.parametrize("app", sorted(PINNED))
def test_full_size_sleep_set_dpor_is_pinned(app):
    bug, want_stats, want_digest = PINNED[app]
    with _fresh_primitive_ids():
        cls, build, observe = _make_build_and_observe(app, AppConfig(bug=bug))
        ex, stats = explore_dpor(
            build, max_schedules=2, max_steps=cls.max_steps, observe=observe,
            sleep_sets=True,
        )
    assert dataclasses.asdict(stats) == want_stats
    assert exploration_digest(ex, stats) == want_digest
