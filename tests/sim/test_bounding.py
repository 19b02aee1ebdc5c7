"""Differential battery for bounded systematic search.

Preemption and variable bounding are *cut strategies*: they may only
remove schedules from a walk, never reorder or alter the ones that
remain.  The battery states that as equalities — an exploration under a
bound no schedule can exceed is bit-identical to the unbounded walk
(outcome fingerprints, DPOR statistics, serial and sharded, with and
without sleep sets) — plus the accounting, monotonicity, and restart-
determinism properties the bound's cache-fingerprint role relies on.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS
from repro.apps.large import EXPLORE_PARAMS
from repro.harness import explore_app
from repro.pool import FORKS
from repro.sim import Bound, SharedCell, SimLock, count_preemptions
from repro.sim.dpor import explore_dpor, explore_dpor_sharded
from repro.sim.explore import _var_key, explore
from repro.sim.snapshot import StatelessPool

#: A budget no finite program here can spend: bounded(HUGE) must be
#: bit-identical to unbounded.
HUGE = Bound(preemptions=10**9, variables=10**9)

#: Small caps: the equality must hold on truncated explorations too.
APP_CAPS = dict(max_schedules=8, max_steps=1500)

#: The untimed subjects DPOR accepts, with workloads that keep the
#: walk small (the timed Table 1/2 apps are rejected by DPOR in both
#: bounded and unbounded modes alike).
DPOR_SUBJECTS = [
    ("bank", "lost_update", {"iters": 2}),
    ("threadpool", "audit_race", EXPLORE_PARAMS["threadpool"]),
    ("mesh", "lost_item", EXPLORE_PARAMS["mesh"]),
    ("connpool", "grow_race", EXPLORE_PARAMS["connpool"]),
]


def fingerprint(ex):
    """Everything observable about an exploration except process-local
    trace objects — including the per-schedule preemption count, which
    the bound's accounting must not disturb."""
    return [
        (
            tuple(o.choices),
            o.result.completed,
            o.result.deadlocked,
            o.result.stalled,
            o.result.limit_hit,
            o.result.steps,
            repr(o.observed),
            o.weight,
            o.preemptions,
        )
        for o in ex.outcomes
    ] + [ex.complete]


# ---------------------------------------------------------------------------
# The Bound configuration object


class TestBoundConfig:
    def test_from_values_collapses_double_none(self):
        assert Bound.from_values(None, None) is None
        assert Bound.from_values(2, None) == Bound(preemptions=2)
        assert Bound.from_values(None, 3) == Bound(variables=3)

    def test_doc_round_trip(self):
        b = Bound(preemptions=2, variables=5)
        assert Bound.from_doc(b.to_doc()) == b
        assert Bound(preemptions=0).to_doc() == {"preemptions": 0, "variables": None}

    def test_inactive_bound_has_no_doc(self):
        assert Bound().to_doc() is None
        assert Bound.from_doc(None) is None
        assert not Bound().active and Bound(preemptions=0).active

    @pytest.mark.parametrize("field", ["preemptions", "variables"])
    def test_negative_and_non_int_rejected(self, field):
        with pytest.raises(ValueError):
            Bound(**{field: -1})
        with pytest.raises(ValueError):
            Bound(**{field: True})
        with pytest.raises(ValueError):
            Bound(**{field: 1.5})


# ---------------------------------------------------------------------------
# Differential battery: bounded(HUGE) == unbounded, every registry app


@pytest.mark.parametrize("app_name", sorted(ALL_APPS), ids=str)
def test_huge_bound_is_identity_on_every_app(app_name):
    runs = {
        b: explore_app(app_name, bound=b, **APP_CAPS) for b in (None, HUGE)
    }
    assert fingerprint(runs[HUGE].exploration) == fingerprint(
        runs[None].exploration
    )
    assert runs[HUGE].exploration.preemption_cuts == 0
    assert runs[HUGE].exploration.variable_cuts == 0


@pytest.mark.parametrize("app_name,bug,params", DPOR_SUBJECTS, ids=lambda v: str(v))
@pytest.mark.parametrize("sleep_sets", [False, True], ids=["plain", "sleep"])
def test_huge_bound_is_identity_under_dpor(app_name, bug, params, sleep_sets):
    runs = {
        b: explore_app(
            app_name, bug, dpor=True, sleep_sets=sleep_sets, bound=b,
            max_schedules=60, params=params,
        )
        for b in (None, HUGE)
    }
    assert fingerprint(runs[HUGE].exploration) == fingerprint(
        runs[None].exploration
    )
    # Nothing was ever cut, so the stats must agree exactly — cut
    # counters included (both zero).
    assert runs[HUGE].dpor_stats == runs[None].dpor_stats


@pytest.mark.skipif(not FORKS, reason="sharding requires fork")
def test_huge_bound_is_identity_under_sharded_dpor():
    def walk(bound):
        return explore_app(
            "bank", "lost_update", dpor=True, workers=2, bound=bound,
            params={"iters": 2},
        )

    unbounded, bounded = walk(None), walk(HUGE)
    assert fingerprint(bounded.exploration) == fingerprint(unbounded.exploration)
    assert bounded.dpor_stats == unbounded.dpor_stats


# ---------------------------------------------------------------------------
# Bounded semantics on the acceptance subject


def test_bank_bug_needs_exactly_one_preemption():
    # bug=None: with the bug armed the concurrent breakpoint *pauses*
    # the racy teller, turning the needed preemption into a block (that
    # is the paper's mechanism) — so the bound only bites on the unaided
    # program, where hits are oracle errors.
    walks = {
        p: explore_app(
            "bank", dpor=True, bound=Bound(preemptions=p), params={"iters": 1}
        )
        for p in (0, 1)
    }
    assert walks[0].hits == 0 and walks[0].exploration.preemption_cuts > 0
    assert walks[1].hits > 0
    unbounded = explore_app("bank", dpor=True, params={"iters": 1})
    assert {o.observed["error"] for o in walks[1].exploration.outcomes} == {
        o.observed["error"] for o in unbounded.exploration.outcomes
    }


def test_variable_bound_cuts_and_reports():
    ex = explore_app(
        "bank", dpor=True, bound=Bound(variables=0), params={"iters": 1}
    )
    assert ex.exploration.variable_cuts > 0
    assert ex.exploration.count < explore_app(
        "bank", dpor=True, params={"iters": 1}
    ).exploration.count


# ---------------------------------------------------------------------------
# Property: preemption accounting agrees with the trace


def _program(spec):
    """Random small unguarded program: thread i performs its region list
    of (cell, increments) read-modify-writes."""

    def build(kernel):
        cells = [SharedCell(0, name=f"c{i}") for i in range(2)]

        def body(regions):
            def run():
                for cell_idx, incs in regions:
                    for _ in range(incs):
                        v = yield from cells[cell_idx].get()
                        yield from cells[cell_idx].set(v + 1)

            return run

        for regions in spec:
            kernel.spawn(body(regions))

    return build


PROGRAMS = st.lists(
    st.lists(st.tuples(st.integers(0, 1), st.integers(1, 2)), min_size=1, max_size=2),
    min_size=2,
    max_size=3,
)

#: Two-thread programs small enough that the *uncapped* unbounded walk
#: stays in the hundreds of schedules — what the monotonicity
#: properties need (subset claims are meaningless on truncated walks).
SMALL_PROGRAMS = st.lists(
    st.lists(st.tuples(st.integers(0, 1), st.just(1)), min_size=1, max_size=2),
    min_size=2,
    max_size=2,
)


@settings(max_examples=15, deadline=None)
@given(spec=PROGRAMS)
def test_preemption_accounting_matches_trace(spec):
    """For every explored schedule: the scheduler's incremental count ==
    the reference recomputation, never exceeds the context switches the
    trace actually shows, and the traced tid sequence is the schedule."""
    ex = explore(_program(spec), max_schedules=40)
    pool = StatelessPool(_program(spec), record_trace=True)
    for outcome in ex.outcomes[:10]:
        rec = pool.run(outcome.choices)
        assert rec.choices == tuple(outcome.choices)
        assert rec.preemptions == count_preemptions(rec.choices, rec.runnable_sets)
        assert rec.preemptions == outcome.preemptions
        # The trace's per-step executor must be the schedule itself...
        traced = {}
        for ev in rec.result.trace:
            if ev.step >= 1 and ev.tid >= 0:  # skip kernel-emitted events
                traced.setdefault(ev.step, ev.tid)
        for step, tid in traced.items():
            assert rec.choices[step - 1] == tid
        # ...and preemptive switches are a subset of all switches.
        switches = sum(
            1
            for d in range(1, len(rec.choices))
            if rec.choices[d] != rec.choices[d - 1]
        )
        assert 0 <= rec.preemptions <= switches


# ---------------------------------------------------------------------------
# Property: cuts are monotone in the bound


@settings(max_examples=10, deadline=None)
@given(spec=SMALL_PROGRAMS)
def test_preemption_bound_monotonicity(spec):
    """Raising the preemption budget only ever *adds* schedules, and the
    explored sets are nested up to the unbounded walk."""
    unbounded = explore(_program(spec), max_schedules=100_000)
    assert unbounded.complete
    prev = None
    for p in (0, 1, 2, 10**9):
        ex = explore(_program(spec), max_schedules=100_000, bound=Bound(preemptions=p))
        assert ex.complete
        chosen = {tuple(o.choices) for o in ex.outcomes}
        assert all(o.preemptions <= p for o in ex.outcomes)
        if prev is not None:
            assert prev <= chosen
        prev = chosen
    assert prev == {tuple(o.choices) for o in unbounded.outcomes}


@settings(max_examples=8, deadline=None)
@given(spec=SMALL_PROGRAMS)
def test_variable_bound_monotonicity(spec):
    prev = None
    for v in (0, 1, 2, 10**9):
        ex = explore(_program(spec), max_schedules=100_000, bound=Bound(variables=v))
        assert ex.complete
        chosen = {tuple(o.choices) for o in ex.outcomes}
        if prev is not None:
            assert prev <= chosen
        prev = chosen
    assert prev == {
        tuple(o.choices)
        for o in explore(_program(spec), max_schedules=100_000).outcomes
    }


# ---------------------------------------------------------------------------
# Restart determinism: variable keys are process-portable


_RESTART_SCRIPT = """
import json
from repro.harness import explore_app
from repro.sim import Bound
from repro.sim.explore import _var_key
from repro.sim.memory import SharedCell
from repro.sim.primitives import SimLock

ex = explore_app(
    "bank", "lost_update", dpor=True,
    bound=Bound(preemptions=1, variables=1), params={"iters": 2},
)
print(json.dumps({
    "keys": [_var_key(SharedCell(0, name="k")), _var_key(SimLock("m"))],
    "choices": [list(o.choices) for o in ex.exploration.outcomes],
    "cuts": [ex.exploration.preemption_cuts, ex.exploration.variable_cuts],
    "hits": ex.hits,
}))
"""


def test_variable_bound_deterministic_across_process_restart():
    """The variable-bound subset selection keys shared objects by
    ``Type:name``, so two fresh interpreters must pick the bit-identical
    schedule subset (``id()``-keyed selection would not survive this)."""

    def run_fresh():
        proc = subprocess.run(
            [sys.executable, "-c", _RESTART_SCRIPT],
            capture_output=True,
            text=True,
            check=True,
            env={
                "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
                "PYTHONHASHSEED": "random",
            },
        )
        return json.loads(proc.stdout)

    first, second = run_fresh(), run_fresh()
    assert first == second
    assert first["keys"] == ["SharedCell:k", "SimLock:m"]
    assert first["choices"]  # the bounded walk does explore something
