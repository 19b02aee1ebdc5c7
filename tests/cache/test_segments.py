"""Trial rows in seed-range segments: a store writes only its new seeds.

A trials config's rows live in immutable ``<start>+<count>.json`` files
inside the config key's directory.  These tests pin what that buys: an
extension writes one file of just the new rows and rewrites nothing, a
lookup whose range no segment covers opens no file, and a damaged
segment costs only its own seeds.  Every answer still equals a fresh
``run_trials`` bit for bit.
"""

import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.apps import get_app
from repro.cache import CacheStore, ResultCache
from repro.harness import run_trials
from repro.obs.metrics import MetricsRegistry

Figure4 = get_app("figure4")


def _files(root):
    """Every stored document under ``root``: path -> (inode, bytes)."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name.endswith(".json"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as f:
                    out[path] = (os.stat(path).st_ino, f.read())
    return out


def _counter(reg, name):
    return reg.snapshot().get(name, {}).get("value", 0)


def _crash_seed_3(seed, attempt):
    """Kill the trial worker on every attempt of seed 3 (picklable)."""
    if seed == 3:
        os._exit(17)


class TestNewSeedsOnly:
    def test_extension_writes_one_file_of_just_the_new_rows(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_trials(Figure4, n=100, bug="error1", cache=cache)
        before = _files(tmp_path)
        served = run_trials(Figure4, n=110, bug="error1", cache=cache)
        after = _files(tmp_path)

        assert served == run_trials(Figure4, n=110, bug="error1")
        # Every earlier file is the same file, byte for byte.
        assert {p: after[p] for p in before} == before
        new = set(after) - set(before)
        assert len(new) == 1
        doc = json.loads(after[new.pop()][1])
        assert sorted(map(int, doc["seeds"])) == list(range(100, 110))

    def test_fetch_of_an_uncovered_range_opens_no_file(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        run_trials(Figure4, n=20, bug="error1", cache=cache)
        loads = []
        real_load = CacheStore.load
        monkeypatch.setattr(CacheStore, "load",
                            lambda self, *a, **kw: loads.append(a) or real_load(self, *a, **kw))
        assert cache.fetch_trials(Figure4, n=10, bug="error1", base_seed=20) is None
        assert cache.fetch_trials(Figure4, n=30, bug="error1", base_seed=-5) is None
        assert cache.fetch_trials(Figure4, n=10, bug=None) is None
        assert loads == []

    def test_a_corrupt_segment_loses_only_its_own_seeds(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        run_trials(Figure4, n=10, bug="error1", cache=cache)
        run_trials(Figure4, n=20, bug="error1", cache=cache)
        [damaged] = tmp_path.glob("*/*/10+10.json")
        damaged.write_text("}junk{")

        from repro.harness import parallel

        ran = []
        real_trial = parallel.execute_trial
        monkeypatch.setattr(parallel, "execute_trial",
                            lambda cls, cfg, seed, **kw: ran.append(seed)
                            or real_trial(cls, cfg, seed, **kw))
        reg = MetricsRegistry()
        served = run_trials(Figure4, n=20, bug="error1", cache=cache.with_metrics(reg))
        monkeypatch.undo()

        assert served == run_trials(Figure4, n=20, bug="error1")
        assert ran == list(range(10, 20))
        assert _counter(reg, "cache.partial_hit") == 1
        assert _counter(reg, "cache.corrupt") == 1
        assert _counter(reg, "cache.store") == 1

    def test_every_gap_of_a_request_runs_in_one_call(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        run_trials(Figure4, n=5, bug="error1", cache=cache)
        run_trials(Figure4, n=5, bug="error1", base_seed=10, cache=cache)

        from repro.harness import parallel

        calls = []
        real_run_seeds = parallel.run_seeds
        monkeypatch.setattr(parallel, "run_seeds",
                            lambda agg, cls, seeds, **kw: calls.append(list(seeds))
                            or real_run_seeds(agg, cls, seeds, **kw))
        served = run_trials(Figure4, n=20, bug="error1", cache=cache)
        monkeypatch.undo()

        assert served == run_trials(Figure4, n=20, bug="error1")
        assert calls == [[5, 6, 7, 8, 9, 15, 16, 17, 18, 19]]
        assert sorted(p.name for p in tmp_path.glob("*/*/*.json")) == [
            "0+5.json", "10+5.json", "15+5.json", "5+5.json"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked children")
    def test_a_failed_seed_splits_the_stored_run(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        got = run_trials(Figure4, n=8, bug="error1", workers=2, max_retries=0,
                         trial_hook=_crash_seed_3, cache=cache)
        assert [f.seed for f in got.failures] == [3]
        assert sorted(p.name for p in tmp_path.glob("*/*/*.json")) == ["0+3.json", "4+4.json"]


class TestSegmentFiles:
    def test_names_round_trip_negative_starts(self, tmp_path):
        store = CacheStore(str(tmp_path))
        key = "ab" * 32
        for seg in [(-15, 10), (-5, 10), (0, 1), (7, 3)]:
            store.store(key, {"schema": 0}, segment=seg)
        (tmp_path / key[:2] / key / "007+3.json").write_text("{}")  # not a spelling we write
        assert sorted(store.segments(key)) == [(-15, 10), (-5, 10), (0, 1), (7, 3)]

    def test_undecodable_bytes_are_a_corrupt_miss(self, tmp_path):
        events = []
        store = CacheStore(str(tmp_path), on_event=events.append)
        key = "cd" * 32
        store.store(key, {"schema": 0}, segment=(0, 5))
        path = tmp_path / key[:2] / key / "0+5.json"
        path.write_bytes(b'{"schema": "\xff\xfe"}')
        assert store.load(key, segment=(0, 5)) is None
        assert events[-1] == "corrupt"
        assert not path.exists()


class TestParentLayout:
    def test_whole_entry_is_ignored_counted_and_cleared(self, tmp_path, capsys):
        argv = ("run", "figure4", "error1", "--trials", "8", "--cache-dir", str(tmp_path))
        assert main(list(argv)) == 0
        cold = capsys.readouterr().out
        # Rewrite the store as the single-file layout once wrote it:
        # <key[:2]>/<key>.json holding every row of the config.
        [segment] = tmp_path.glob("*/*/0+8.json")
        key_dir = segment.parent
        whole = key_dir.with_name(key_dir.name + ".json")
        segment.rename(whole)
        key_dir.rmdir()
        whole_bytes = whole.read_bytes()
        assert set(json.loads(whole_bytes)) == {"schema", "kind", "config", "seeds"}

        assert main(list(argv)) == 0
        assert capsys.readouterr().out == cold
        assert whole.read_bytes() == whole_bytes
        assert [p.name for p in tmp_path.glob("*/*/*.json")] == ["0+8.json"]

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "entries     : 2" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 2" in capsys.readouterr().out
        assert list(tmp_path.rglob("*.json")) == []


# ---------------------------------------------------------------------------
# Property: any sequence of sweeps is served bit-identically, and each seed
# is written exactly once
# ---------------------------------------------------------------------------

_sweeps = st.lists(st.tuples(st.integers(-12, 24), st.integers(1, 10)), min_size=1, max_size=5)


@settings(max_examples=25, deadline=None)
@given(sweeps=_sweeps)
def test_sweeps_equal_fresh_and_write_each_seed_once(sweeps):
    written = []
    real_store = CacheStore.store

    def counting_store(self, key, doc, **kw):
        written.append(len(doc["seeds"]))
        return real_store(self, key, doc, **kw)

    requested = set()
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.object(CacheStore, "store", counting_store):
        cache = ResultCache(root)
        for base, n in sweeps:
            served = run_trials(Figure4, n=n, bug="error1", base_seed=base, cache=cache)
            assert served == run_trials(Figure4, n=n, bug="error1", base_seed=base)
            requested.update(range(base, base + n))
            assert sum(written) == len(requested)
