"""Randomized property tests for :class:`BreakpointEngine` bookkeeping.

A seeded driver generates hundreds of arbitrary arrival sequences —
random breakpoint names, objects, thread keys, first/second flags,
failing local predicates, pair triggers interleaved on one engine with
group triggers (2, 3 or 4 parties, by seed), expiries, cancellations
and clock advances — and checks the accounting identities that every
statistic in the paper's tables is computed from:

* ``visits == local_skips + postpones + hits`` per name (each arrival is
  classified exactly once: rejected, parked, or instantly matched);
* every ``Matched`` outcome increments ``hits`` by exactly one, removes
  exactly ``parties - 1`` parked entries on distinct threads, and
  releases its members in (rank, park order), each ``release`` set once;
* ``postpones`` decomposes into matched partners + timeouts + cancels +
  still-parked — nothing is lost or double-counted;
* an entry whose deadline passed never survives its ``expire`` call, is
  never released, and a stale timer (already matched/cancelled) never
  counts a timeout;
* the whole state machine is deterministic: same seed, same sequence,
  same statistics.
"""

import random

import pytest

from repro.core.engine import (
    BreakpointEngine,
    Matched,
    Postponed,
    Skipped,
)
from repro.core.spec import ConflictTrigger, DeadlockTrigger, GroupTrigger

NAMES = ["bp_a", "bp_b", "bp_c", "bp_g"]
N_OBJS = 2
N_THREADS = 4
TIMEOUT = 1.0


def _false():
    return False


def _rank(entry):
    """Model of the release rank: a group member's ``rank``, else the
    pair's first/second flag."""
    if isinstance(entry.inst, GroupTrigger):
        return entry.inst.rank
    return 0 if entry.is_first else 1


class _Driver:
    """Apply a random operation sequence, mirroring the engine's
    bookkeeping in independent counters."""

    def __init__(self, seed: int, ops: int = 60) -> None:
        self.rng = random.Random(seed)
        self.group_parties = 2 + seed % 3
        self.ops = ops
        self.engine = BreakpointEngine()
        self.now = 0.0
        self.objs = [object() for _ in range(N_OBJS)]
        self.locks = [object() for _ in range(2)]
        self.parked = []  # entries we were told to park, not yet resolved
        # Independent model counters, per name:
        self.arrivals = {n: 0 for n in NAMES}
        self.skips = {n: 0 for n in NAMES}
        self.postponed = {n: 0 for n in NAMES}
        self.matches = {n: 0 for n in NAMES}
        self.timeouts = {n: 0 for n in NAMES}
        self.cancels = {n: 0 for n in NAMES}
        self.matched_partners = {n: 0 for n in NAMES}
        self.match_log = []  # Matched outcomes as reported
        self.withdrawn = []  # entries that expired or were cancelled

    # -- operations --------------------------------------------------------
    def _make_trigger(self):
        name = self.rng.choice(NAMES)
        if name == "bp_c":  # deadlock flavour: opposite lock orders
            l1, l2 = self.locks
            if self.rng.random() < 0.5:
                return DeadlockTrigger(name, l1, l2)
            return DeadlockTrigger(name, l2, l1)
        if name == "bp_g":
            parties = self.group_parties
            return GroupTrigger(
                name, self.objs[0], parties=parties, rank=self.rng.randrange(parties)
            )
        local = _false if self.rng.random() < 0.15 else None
        return ConflictTrigger(name, self.rng.choice(self.objs), local=local)

    def _arrive(self):
        inst = self._make_trigger()
        thread_key = self.rng.randrange(N_THREADS)
        parked_before = self.engine.postponed_count(inst.name)
        hits_before = self.engine.stats_for(inst.name).hits
        result = self.engine.arrive(
            inst,
            is_first=self.rng.random() < 0.5,
            thread_key=thread_key,
            now=self.now,
            timeout=TIMEOUT,
        )
        self.arrivals[inst.name] += 1
        if isinstance(result, Skipped):
            self.skips[inst.name] += 1
        elif isinstance(result, Postponed):
            assert result.entry.release is None
            self.postponed[inst.name] += 1
            self.parked.append(result.entry)
        elif isinstance(result, Matched):
            partners = [e for e in result.ordered if e is not result.entry]
            assert len(partners) == inst.parties - 1
            assert self.engine.postponed_count(inst.name) == parked_before - len(partners)
            assert self.engine.stats_for(inst.name).hits == hits_before + 1
            self.matches[inst.name] += 1
            for partner in partners:
                # Only a still-parked entry can be released.
                assert any(partner is e for e in self.parked)
                self.matched_partners[partner.inst.name] += 1
                self.parked.remove(partner)
            self.match_log.append(result)
        else:
            pytest.fail(f"unexpected arrival result {result!r}")

    def _expire_due(self):
        for entry in [e for e in self.parked if e.deadline <= self.now]:
            assert self.engine.expire(entry), "due entry must still be parked"
            self.timeouts[entry.inst.name] += 1
            self.parked.remove(entry)
            self.withdrawn.append(entry)

    def _cancel_random(self):
        if not self.parked:
            return
        entry = self.rng.choice(self.parked)
        assert self.engine.cancel(entry)
        self.cancels[entry.inst.name] += 1
        self.parked.remove(entry)
        self.withdrawn.append(entry)

    def run(self):
        for _ in range(self.ops):
            r = self.rng.random()
            if r < 0.65:
                self._arrive()
            elif r < 0.80:
                self.now += self.rng.choice([0.3, 0.7, 1.1])
                self._expire_due()
            elif r < 0.90:
                self._cancel_random()
            else:
                self.now += 0.1
        return self

    # -- invariant checks --------------------------------------------------
    def check(self):
        eng = self.engine
        for name in NAMES:
            st = eng.stats.get(name)
            if st is None:
                assert self.arrivals[name] == 0
                continue
            # Every arrival classified exactly once.
            assert st.visits == self.arrivals[name]
            assert st.visits == st.local_skips + st.postpones + st.hits, name
            assert st.local_skips == self.skips[name]
            assert st.postpones == self.postponed[name]
            assert st.hits == self.matches[name]
            assert st.timeouts == self.timeouts[name]
            # Postponements are conserved: matched away, timed out,
            # cancelled, or still parked — nothing else.
            still_parked = sum(1 for e in self.parked if e.inst.name == name)
            assert st.postpones == (
                self.matched_partners[name]
                + st.timeouts
                + self.cancels[name]
                + still_parked
            ), name
            assert eng.postponed_count(name) == still_parked
        assert eng.total_hits == sum(
            st.hits for st in eng.stats.values()
        )
        assert eng.postponed_count() == len(self.parked)
        released = set()
        for m in self.match_log:
            # A party of ``parties`` distinct threads, released in
            # (rank, park order), each member's ``release`` set once.
            assert len(m.ordered) == m.entry.inst.parties
            assert len({e.thread_key for e in m.ordered}) == len(m.ordered)
            assert [e.release for e in m.ordered] == list(range(len(m.ordered)))
            order = [(_rank(e), e.token) for e in m.ordered]
            assert order == sorted(order)
            for e in m.ordered:
                assert id(e) not in released
                released.add(id(e))
                if e is not m.entry:
                    assert m.entry.inst.predicate_global(e.inst)
        # An entry that expired or was cancelled is never released.
        assert all(e.release is None for e in self.withdrawn)
        return self


@pytest.mark.parametrize("seed_base", [0, 1000, 2000])
def test_invariants_hold_across_random_sequences(seed_base):
    """300 generated sequences (100 per parametrized batch)."""
    for seed in range(seed_base, seed_base + 100):
        _Driver(seed).run().check()


def test_matched_entries_are_immune_to_stale_timers():
    """A timer that fires after its entry matched must be ignored —
    neither removing state nor counting a timeout."""
    for seed in range(40):
        d = _Driver(seed, ops=40).run()
        for m in d.match_log:
            for entry in m.ordered:
                before = d.engine.stats_for(entry.inst.name).timeouts
                assert d.engine.expire(entry) is False
                assert d.engine.stats_for(entry.inst.name).timeouts == before
        d.check()


def test_no_entry_survives_expiry():
    """After expiring everything due at a late-enough time, the postponed
    sets hold only entries with future deadlines (here: none)."""
    for seed in range(60):
        d = _Driver(seed, ops=50).run()
        d.now += TIMEOUT + 1.0  # every parked deadline is now in the past
        d._expire_due()
        assert d.engine.postponed_count() == 0
        d.check()


def test_cancel_does_not_count_a_timeout():
    for seed in range(40):
        d = _Driver(seed, ops=30).run()
        while d.parked:
            entry = d.parked[0]
            before = d.engine.stats_for(entry.inst.name).timeouts
            assert d.engine.cancel(entry)
            d.cancels[entry.inst.name] += 1
            d.parked.remove(entry)
            assert d.engine.stats_for(entry.inst.name).timeouts == before
            assert d.engine.cancel(entry) is False  # idempotent
        d.check()


def test_driver_is_deterministic():
    """Same seed ⇒ identical statistics and match sequence."""
    for seed in range(30):
        a = _Driver(seed).run()
        b = _Driver(seed).run()
        assert a.engine.snapshot() == b.engine.snapshot()
        assert [
            (m.entry.inst.name, m.entry.thread_key, [e.thread_key for e in m.ordered])
            for m in a.match_log
        ] == [
            (m.entry.inst.name, m.entry.thread_key, [e.thread_key for e in m.ordered])
            for m in b.match_log
        ]
