"""N-thread concurrent breakpoints (the paper's Section 2 generalisation)."""

import threading

import pytest

from repro.core import (
    BreakpointEngine,
    GroupTrigger,
    Matched,
    Postponed,
    SitePolicy,
    reset,
)
from repro.sim import Kernel, SharedCell, Sleep


OBJ = object()


def arrive(engine, rank, parties=3, tkey=None, obj=OBJ, policy=None):
    inst = GroupTrigger("g", obj, parties=parties, rank=rank, policy=policy)
    return engine.arrive(inst, True, tkey if tkey is not None else rank, 0.0, 0.1)


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GroupTrigger("g", OBJ, parties=1, rank=0)
        with pytest.raises(ValueError):
            GroupTrigger("g", OBJ, parties=3, rank=3)
        with pytest.raises(ValueError):
            GroupTrigger("g", OBJ, parties=2, rank=-1)

    def test_party_size_must_agree(self):
        a = GroupTrigger("g", OBJ, parties=3, rank=0)
        b = GroupTrigger("g", OBJ, parties=2, rank=0)
        assert not a.predicate_global(b)


class TestEngineGroupMatching:
    def test_fires_only_when_party_complete(self):
        engine = BreakpointEngine()
        assert isinstance(arrive(engine, 0), Postponed)
        assert isinstance(arrive(engine, 1), Postponed)
        res = arrive(engine, 2)
        assert isinstance(res, Matched)
        assert len(res.ordered) == 3
        assert engine.postponed_count("g") == 0
        assert engine.stats_for("g").hits == 1

    def test_release_order_follows_ranks(self):
        engine = BreakpointEngine()
        arrive(engine, 2, tkey=10)
        arrive(engine, 0, tkey=11)
        res = arrive(engine, 1, tkey=12)
        ranks = [e.inst.rank for e in res.ordered]
        assert ranks == [0, 1, 2]
        assert [e.release for e in res.ordered] == [0, 1, 2]

    def test_distinct_threads_required(self):
        engine = BreakpointEngine()
        arrive(engine, 0, tkey=1)
        arrive(engine, 1, tkey=1)  # same thread twice
        res = arrive(engine, 2, tkey=2)
        assert isinstance(res, Postponed)

    def test_different_objects_do_not_mix(self):
        engine = BreakpointEngine()
        arrive(engine, 0, obj=OBJ, tkey=1)
        arrive(engine, 1, obj=object(), tkey=2)
        res = arrive(engine, 2, obj=OBJ, tkey=3)
        assert isinstance(res, Postponed)

    def test_policies_recorded_for_all_members(self):
        engine = BreakpointEngine()
        pols = [SitePolicy(bound=1) for _ in range(3)]
        for rank, pol in enumerate(pols[:-1]):
            inst = GroupTrigger("g", OBJ, parties=3, rank=rank, policy=pol)
            engine.arrive(inst, True, rank, 0.0, 0.1)
        inst = GroupTrigger("g", OBJ, parties=3, rank=2, policy=pols[2])
        engine.arrive(inst, True, 2, 0.0, 0.1)
        assert all(p.triggers == 1 for p in pols)

    def test_pairs_of_a_four_party_group_time_out(self):
        engine = BreakpointEngine()
        r1 = arrive(engine, 0, parties=4, tkey=1)
        r2 = arrive(engine, 1, parties=4, tkey=2)
        assert engine.expire(r1.entry) and engine.expire(r2.entry)
        assert engine.stats_for("g").timeouts == 2


class TestSimBackend:
    def test_three_threads_released_in_rank_order(self):
        cell = SharedCell([], name="order")

        def member(rank):
            yield Sleep(0.001 * (3 - rank))  # arrive in reverse order
            hit = yield from GroupTrigger(
                "g3", cell, parties=3, rank=rank
            ).sim_trigger_here(True, 0.5)
            cell.peek().append((rank, hit))

        for seed in range(10):
            cell.poke([])
            k = Kernel(seed=seed)
            for r in range(3):
                k.spawn(member, r)
            assert k.run().ok
            assert [r for r, _ in cell.peek()] == [0, 1, 2], f"seed {seed}"
            assert all(h for _, h in cell.peek())

    def test_incomplete_party_times_out(self):
        cell = SharedCell(0)
        got = {}

        def member(rank):
            got[rank] = yield from GroupTrigger(
                "g3", cell, parties=3, rank=rank
            ).sim_trigger_here(True, 0.05)

        k = Kernel(seed=0)
        k.spawn(member, 0)
        k.spawn(member, 1)
        result = k.run()
        assert got == {0: False, 1: False}
        assert result.time >= 0.05


class TestOSBackend:
    def test_three_real_threads_match(self):
        obj = object()
        results = []
        lock = threading.Lock()

        def worker(rank):
            hit = GroupTrigger("os-g3", obj, parties=3, rank=rank).trigger_here(True, 2.0)
            with lock:
                results.append((rank, hit))

        threads = [threading.Thread(target=worker, args=(r,)) for r in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        reset()
        assert sorted(results) == [(0, True), (1, True), (2, True)]

    def test_two_of_three_time_out(self):
        obj = object()
        results = []

        def worker(rank):
            results.append(GroupTrigger("os-g3b", obj, parties=3, rank=rank).trigger_here(True, 0.05))

        threads = [threading.Thread(target=worker, args=(r,)) for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        reset()
        assert results == [False, False]


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=100, deadline=None)
@given(
    parties=st.integers(2, 5),
    arrivals=st.lists(st.integers(0, 7), min_size=0, max_size=20),
)
def test_group_matching_invariants(parties, arrivals):
    """For any arrival sequence: a match fires exactly when the k-th
    distinct thread arrives, removes exactly k-1 parked entries, and the
    parked population accounting stays consistent."""
    engine = BreakpointEngine()
    import itertools

    ranks = itertools.cycle(range(parties))
    hits = 0
    for tkey in arrivals:
        inst = GroupTrigger("g", OBJ, parties=parties, rank=next(ranks))
        res = engine.arrive(inst, True, tkey, 0.0, 0.1)
        if isinstance(res, Matched):
            hits += 1
            assert len(res.ordered) == parties
            assert len({e.thread_key for e in res.ordered}) == parties
            assert [e.release for e in res.ordered] == list(range(parties))
            assert [e.inst.rank for e in res.ordered] == sorted(
                e.inst.rank for e in res.ordered
            )
    st_ = engine.stats_for("g")
    assert st_.hits == hits
    assert engine.postponed_count("g") == st_.postpones - hits * (parties - 1)
    assert engine.postponed_count("g") >= 0
