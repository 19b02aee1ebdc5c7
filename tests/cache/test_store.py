"""The on-disk store: atomicity, corruption fallback, LRU eviction, the byte ledger."""

import json
import multiprocessing
import os

import pytest

from repro.cache import CACHE_SCHEMA, CacheStore
from repro.cache.store import LEDGER_NAME


def _doc(payload="x"):
    return {"schema": CACHE_SCHEMA, "kind": "trials", "config": {"app": payload},
            "seeds": {}}


def _key(i):
    return f"{i:02x}" + "ab" * 31  # 64 hex chars, distinct shard dirs


@pytest.fixture
def events():
    return []


@pytest.fixture
def store(tmp_path, events):
    return CacheStore(str(tmp_path), on_event=events.append)


class TestRoundTrip:
    def test_store_then_load(self, store, events):
        store.store(_key(0), _doc())
        assert store.load(_key(0)) == _doc()
        assert "store" in events

    def test_load_missing_is_none(self, store):
        assert store.load(_key(9)) is None

    def test_entries_shard_by_key_prefix(self, store, tmp_path):
        store.store(_key(0), _doc())
        shard = tmp_path / _key(0)[:2]
        assert (shard / f"{_key(0)}.json").exists()

    def test_no_tmp_files_left_behind(self, store, tmp_path):
        for i in range(5):
            store.store(_key(i), _doc(str(i)))
        entries = set(tmp_path.glob("*/*.json"))
        leftovers = [p for p in tmp_path.rglob("*")
                     if p.is_file() and p not in entries and p != tmp_path / LEDGER_NAME]
        assert leftovers == []

    def test_expect_config_match_serves(self, store):
        store.store(_key(0), _doc("match"))
        assert store.load(_key(0), expect_config={"app": "match"}) is not None


class TestCorruptionFallback:
    def _entry_path(self, store, key):
        store.store(key, _doc())
        return store._path(key)

    def test_junk_bytes_are_a_miss_and_deleted(self, store, events):
        path = self._entry_path(store, _key(0))
        path.write_text("this is not json{{{")
        assert store.load(_key(0)) is None
        assert not path.exists()
        assert "corrupt" in events

    def test_truncated_file_is_a_miss(self, store, events):
        path = self._entry_path(store, _key(1))
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        assert store.load(_key(1)) is None
        assert not path.exists()
        assert "corrupt" in events

    def test_schema_mismatch_is_a_miss(self, store, events):
        path = self._entry_path(store, _key(2))
        doc = _doc()
        doc["schema"] = CACHE_SCHEMA + 1
        path.write_text(json.dumps(doc))
        assert store.load(_key(2)) is None
        assert "corrupt" in events

    def test_config_collision_is_a_miss(self, store, events):
        # Same key, different stored config: treat as corrupt, recompute.
        self._entry_path(store, _key(3))
        assert store.load(_key(3), expect_config={"app": "other"}) is None
        assert "corrupt" in events

    def test_non_dict_payload_is_a_miss(self, store, events):
        path = self._entry_path(store, _key(4))
        path.write_text(json.dumps([1, 2, 3]))
        assert store.load(_key(4)) is None
        assert "corrupt" in events


class TestEviction:
    def test_lru_eviction_respects_size_bound(self, tmp_path, events):
        store = CacheStore(str(tmp_path), max_bytes=2_000, on_event=events.append)
        pad = "p" * 400
        for i in range(8):
            store.store(_key(i), _doc(f"{i}-{pad}"))
            os.utime(store._path(_key(i)), (1_000_000 + i, 1_000_000 + i))
            store._evict()
        assert store.stats().total_bytes <= 2_000
        assert "evict" in events
        # The most recent entry always survives; the oldest are gone.
        assert store.load(_key(7)) is not None
        assert store.load(_key(0)) is None

    def test_hit_refreshes_recency(self, tmp_path):
        store = CacheStore(str(tmp_path), max_bytes=2_000)
        pad = "p" * 400
        for i in range(3):
            store.store(_key(i), _doc(f"{i}-{pad}"))
            os.utime(store._path(_key(i)), (1_000_000 + i, 1_000_000 + i))
        assert store.load(_key(0)) is not None  # touch: now the newest
        now = os.stat(store._path(_key(0))).st_mtime
        assert now > os.stat(store._path(_key(1))).st_mtime

    def test_under_bound_evicts_nothing(self, store, events):
        for i in range(4):
            store.store(_key(i), _doc(str(i)))
        assert "evict" not in events
        assert store.stats().entries == 4


class TestClearAndStats:
    def test_clear_removes_everything(self, store):
        for i in range(3):
            store.store(_key(i), _doc(str(i)))
        assert store.clear() == 3
        assert store.stats().entries == 0
        assert store.stats().total_bytes == 0

    def test_stats_counts_bytes(self, store, tmp_path):
        store.store(_key(0), _doc())
        st = store.stats()
        assert st.entries == 1
        assert st.total_bytes == os.stat(store._path(_key(0))).st_size
        assert st.root == str(tmp_path)

    def test_clear_on_empty_root_is_zero(self, tmp_path):
        assert CacheStore(str(tmp_path / "never-created")).clear() == 0


# ---------------------------------------------------------------------------
# The shared byte ledger
# ---------------------------------------------------------------------------


def _ledger(root):
    return int((root / LEDGER_NAME).read_bytes())


def _scanned_total(root):
    return sum(p.stat().st_size for p in root.glob("*/*.json"))


def _write_distinct(root, max_bytes, first, count, barrier):
    """Forked writer: ``count`` distinct keys from ``first``, ~450 bytes each.

    The barrier holds both writers after their first store, so neither
    finishes before the other has started.
    """
    store = CacheStore(str(root), max_bytes=max_bytes)
    for i in range(first, first + count):
        store.store(_key(i), _doc(f"{i}-" + "p" * 400))
        if i == first:
            barrier.wait(timeout=30)


def _write_one_key(root, writer):
    """Forked writer: 300 stores of one key, sizes varying both ways."""
    store = CacheStore(str(root))
    for i in range(300):
        store.store(_key(0), _doc(f"{writer}-" + "p" * (i % 7 * 50)))


def _fork_writers(*jobs):
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=fn, args=args) for fn, args in jobs]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
    for p in procs:
        if p.is_alive():
            p.kill()
            p.join()
    assert [p.exitcode for p in procs] == [0] * len(procs)


class TestLedger:
    def test_store_under_bound_never_lists_the_directory(self, store, tmp_path, monkeypatch):
        for i in range(20):
            store.store(_key(i), _doc(str(i)))
        listings = []
        real_scandir = os.scandir
        monkeypatch.setattr(os, "scandir", lambda *a: listings.append(a) or real_scandir(*a))
        for i in range(20, 60):
            store.store(_key(i), _doc(str(i)))
        monkeypatch.undo()
        assert listings == []
        assert _ledger(tmp_path) == _scanned_total(tmp_path)

    def test_two_handles_share_one_bound(self, tmp_path):
        # Each handle alone stores less than max_bytes; together they
        # exceed it, so a counter private to a handle never evicts.
        a = CacheStore(str(tmp_path), max_bytes=6_000)
        b = CacheStore(str(tmp_path), max_bytes=6_000)
        for i in range(20):
            (a if i % 2 == 0 else b).store(_key(i), _doc(f"{i}-" + "p" * 400))
            assert _scanned_total(tmp_path) <= 6_000
            assert _ledger(tmp_path) == _scanned_total(tmp_path)
        assert a.stats().entries < 20

    def test_rewriting_a_key_tracks_growth_and_shrinkage(self, store, tmp_path):
        for payload in ("short", "p" * 500, "mid" * 10, "x"):
            store.store(_key(0), _doc(payload))
            assert _ledger(tmp_path) == _scanned_total(tmp_path)

    @pytest.mark.parametrize("content", [None, b"garbage\n", b"123\n",
                                         b"%020d\ntrailing junk" % 5])
    def test_missing_or_garbage_ledger_is_rebuilt_by_one_scan(self, store, tmp_path,
                                                              monkeypatch, content):
        for i in range(3):
            store.store(_key(i), _doc(str(i)))
        ledger = tmp_path / LEDGER_NAME
        if content is None:
            ledger.unlink()
        else:
            ledger.write_bytes(content)
        scans = []
        real_scan = store._scan
        monkeypatch.setattr(store, "_scan", lambda: scans.append(1) or real_scan())
        store.store(_key(3), _doc("3"))
        assert len(scans) == 1
        assert _ledger(tmp_path) == _scanned_total(tmp_path)
        assert len(ledger.read_bytes()) == 21
        store.store(_key(4), _doc("4"))
        assert len(scans) == 1

    @pytest.mark.parametrize("damage", ["junk", "truncate", "collision"])
    def test_corrupt_delete_on_load_over_counts_never_under(self, store, tmp_path, damage):
        for i in range(3):
            store.store(_key(i), _doc(str(i)))
        path = store._path(_key(1))
        if damage == "junk":
            path.write_text("}junk{")
        elif damage == "truncate":
            path.write_text(path.read_text()[:10])
        expect = {"app": "other"} if damage == "collision" else None
        assert store.load(_key(1), expect_config=expect) is None
        assert not path.exists()
        assert _ledger(tmp_path) > _scanned_total(tmp_path)
        store.store(_key(3), _doc("3"))
        assert _ledger(tmp_path) >= _scanned_total(tmp_path)

    def test_over_count_resyncs_when_it_reaches_the_bound(self, tmp_path):
        store = CacheStore(str(tmp_path), max_bytes=3_000)
        for i in range(4):
            store.store(_key(i), _doc(f"{i}-" + "p" * 400))
        store.load(_key(0), expect_config={"app": "other"})  # deleted, still counted
        for i in range(4, 7):
            store.store(_key(i), _doc(f"{i}-" + "p" * 400))
        assert _ledger(tmp_path) == _scanned_total(tmp_path) <= 3_000
        assert store.stats().entries == 6  # only the over-count was shed

    def test_clear_resets_the_ledger_and_removes_stray_temps(self, store, tmp_path):
        for i in range(3):
            store.store(_key(i), _doc(str(i)))
        stray = store._path(_key(0)).with_name("orphan.tmp")
        stray.write_text("half a doc")
        assert store.clear() == 3
        assert not stray.exists()
        assert _ledger(tmp_path) == 0

    def test_failed_publish_removes_its_temp_file(self, store, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            store.store(_key(0), _doc())
        monkeypatch.undo()
        assert list(tmp_path.rglob("*.tmp")) == []
        assert _ledger(tmp_path) >= _scanned_total(tmp_path)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked children")
class TestConcurrentWriters:
    def test_two_processes_stay_within_the_bound(self, tmp_path):
        # 20 entries of ~450 bytes per writer: under the bound alone, over together.
        barrier = multiprocessing.get_context("fork").Barrier(2)
        _fork_writers((_write_distinct, (tmp_path, 12_000, 0, 20, barrier)),
                      (_write_distinct, (tmp_path, 12_000, 100, 20, barrier)))
        store = CacheStore(str(tmp_path), max_bytes=12_000)
        assert _scanned_total(tmp_path) <= 12_000
        assert _ledger(tmp_path) == _scanned_total(tmp_path)
        assert store.stats().entries < 40

    def test_same_key_stores_never_raise(self, tmp_path):
        _fork_writers((_write_one_key, (tmp_path, "a")), (_write_one_key, (tmp_path, "b")))
        store = CacheStore(str(tmp_path))
        assert store.load(_key(0)) is not None
        assert list(tmp_path.rglob("*.tmp")) == []
        assert _ledger(tmp_path) == _scanned_total(tmp_path)
