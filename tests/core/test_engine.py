"""Unit + property tests for the BTrigger matching state machine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BreakpointEngine,
    ConflictTrigger,
    DeadlockTrigger,
    Matched,
    Postponed,
    SitePolicy,
    Skipped,
)


@pytest.fixture()
def engine():
    return BreakpointEngine()


OBJ = object()


def arrive(engine, name="bp", obj=OBJ, first=True, tkey=1, now=0.0, timeout=0.1, policy=None):
    return engine.arrive(ConflictTrigger(name, obj, policy=policy), first, tkey, now, timeout)


class TestArrival:
    def test_first_arrival_postpones(self, engine):
        res = arrive(engine, tkey=1)
        assert isinstance(res, Postponed)
        assert res.entry.deadline == pytest.approx(0.1)
        assert engine.postponed_count("bp") == 1

    def test_partner_matches(self, engine):
        arrive(engine, tkey=1, first=True)
        res = arrive(engine, tkey=2, first=False)
        assert isinstance(res, Matched)
        assert engine.postponed_count("bp") == 0
        assert engine.stats_for("bp").hits == 1

    def test_same_thread_never_matches_itself(self, engine):
        arrive(engine, tkey=1)
        res = arrive(engine, tkey=1)
        assert isinstance(res, Postponed)
        assert engine.postponed_count("bp") == 2

    def test_different_names_do_not_match(self, engine):
        arrive(engine, name="a", tkey=1)
        res = arrive(engine, name="b", tkey=2)
        assert isinstance(res, Postponed)

    def test_different_objects_do_not_match(self, engine):
        arrive(engine, obj=object(), tkey=1)
        res = arrive(engine, obj=object(), tkey=2)
        assert isinstance(res, Postponed)

    def test_failed_local_predicate_skips(self, engine):
        inst = ConflictTrigger("bp", OBJ, local=lambda: False)
        res = engine.arrive(inst, True, 1, 0.0, 0.1)
        assert isinstance(res, Skipped)
        assert engine.stats_for("bp").local_skips == 1
        assert engine.postponed_count() == 0

    def test_policy_skip_counts(self, engine):
        res = arrive(engine, policy=SitePolicy(ignore_first=1))
        assert isinstance(res, Skipped)
        assert engine.stats_for("bp").local_skips == 1


class TestOrdering:
    def test_first_flag_wins(self, engine):
        arrive(engine, tkey=1, first=False)
        res = arrive(engine, tkey=2, first=True)
        assert res.ordered[0] is res.entry
        assert [e.release for e in res.ordered] == [0, 1]

    def test_parked_first_flag_wins(self, engine):
        parked = arrive(engine, tkey=1, first=True).entry
        res = arrive(engine, tkey=2, first=False)
        assert res.ordered == [parked, res.entry]
        assert (parked.release, res.entry.release) == (0, 1)

    def test_tie_broken_by_postpone_order(self, engine):
        parked = arrive(engine, tkey=1, first=True).entry
        res = arrive(engine, tkey=2, first=True)
        # Earlier-parked side (lower token) acts first on a tie.
        assert res.ordered == [parked, res.entry]
        assert parked.release == 0


class TestDeadlockMatching:
    def test_abba_pairs_match(self, engine):
        l1, l2 = object(), object()
        engine.arrive(DeadlockTrigger("d", l1, l2), True, 1, 0.0, 0.1)
        res = engine.arrive(DeadlockTrigger("d", l2, l1), False, 2, 0.0, 0.1)
        assert isinstance(res, Matched)

    def test_same_order_does_not_match(self, engine):
        l1, l2 = object(), object()
        engine.arrive(DeadlockTrigger("d", l1, l2), True, 1, 0.0, 0.1)
        res = engine.arrive(DeadlockTrigger("d", l1, l2), False, 2, 0.0, 0.1)
        assert isinstance(res, Postponed)


class TestExpiry:
    def test_expire_counts_timeout(self, engine):
        res = arrive(engine, tkey=1)
        assert engine.expire(res.entry)
        assert engine.stats_for("bp").timeouts == 1
        assert engine.postponed_count() == 0

    def test_expire_after_match_is_stale(self, engine):
        res1 = arrive(engine, tkey=1)
        arrive(engine, tkey=2)
        assert not engine.expire(res1.entry)
        assert engine.stats_for("bp").timeouts == 0

    def test_cancel_does_not_count_timeout(self, engine):
        res = arrive(engine, tkey=1)
        assert engine.cancel(res.entry)
        assert engine.stats_for("bp").timeouts == 0

    def test_double_expire_is_idempotent(self, engine):
        res = arrive(engine, tkey=1)
        engine.expire(res.entry)
        assert not engine.expire(res.entry)
        assert engine.stats_for("bp").timeouts == 1


class TestPolicyIntegration:
    def test_match_records_trigger_on_both_policies(self, engine):
        p1, p2 = SitePolicy(bound=1), SitePolicy(bound=1)
        engine.arrive(ConflictTrigger("bp", OBJ, policy=p1), True, 1, 0.0, 0.1)
        engine.arrive(ConflictTrigger("bp", OBJ, policy=p2), False, 2, 0.0, 0.1)
        assert p1.triggers == 1 and p2.triggers == 1
        # Next visit with either policy is now skipped.
        res = arrive(engine, tkey=3, policy=p1)
        assert isinstance(res, Skipped)


class TestStats:
    def test_visit_accounting_is_complete(self, engine):
        arrive(engine, tkey=1)  # postpone
        arrive(engine, tkey=2)  # match
        res = arrive(engine, tkey=3)  # postpone
        engine.expire(res.entry)  # timeout
        st = engine.stats_for("bp")
        assert st.visits == 3
        assert st.postpones == 2
        assert st.hits == 1
        assert st.timeouts == 1
        assert st.hit

    def test_reset_clears_everything(self, engine):
        arrive(engine, tkey=1)
        engine.reset()
        assert engine.postponed_count() == 0
        assert engine.stats == {}
        assert engine.total_hits == 0

    def test_snapshot_is_a_copy(self, engine):
        arrive(engine, tkey=1)
        snap = engine.snapshot()
        arrive(engine, tkey=2)
        assert snap["bp"].hits == 0
        assert engine.stats_for("bp").hits == 1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 4),  # thread key
            st.booleans(),  # is_first
            st.integers(0, 1),  # which of two objects
            st.booleans(),  # expire immediately after if postponed
        ),
        max_size=40,
    )
)
def test_engine_invariants_under_random_arrivals(events):
    """Accounting invariants hold for any arrival/expiry sequence:

    visits == local_skips + postpones + matches-as-arriving, every hit
    removes exactly one parked entry, and the parked population equals
    postpones - hits - timeouts - cancels.
    """
    engine = BreakpointEngine()
    objs = [object(), object()]
    arrivals_matched = 0
    for tkey, first, which, expire_now in events:
        res = engine.arrive(ConflictTrigger("bp", objs[which]), first, tkey, 0.0, 0.1)
        if isinstance(res, Matched):
            arrivals_matched += 1
        elif isinstance(res, Postponed) and expire_now:
            engine.expire(res.entry)
    st_ = engine.stats_for("bp")
    assert st_.visits == len(events)
    assert st_.hits == arrivals_matched
    assert st_.visits == st_.local_skips + st_.postpones + st_.hits
    assert engine.postponed_count("bp") == st_.postpones - st_.hits - st_.timeouts
    assert engine.postponed_count("bp") >= 0
