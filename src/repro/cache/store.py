"""On-disk entry store: atomic writes, LRU eviction, corruption fallback.

The store is deliberately dumb — it maps a hex fingerprint to one JSON
document, or to a directory of immutable *segment* documents named by
the ``(start, count)`` seed run each holds, and knows nothing about
trials or explorations.  Four robustness rules, each proven in
``tests/cache/test_store.py``, hold for entries and segments alike:

* **Atomic writes.**  Each store writes its own ``tempfile.mkstemp``
  sibling (``*.tmp``) and publishes it with :func:`os.replace`, so a
  crash mid-write can never leave a half-written entry where a reader
  would find it, and two writers of one key never share a temp file.
* **Corruption falls back to recompute.**  A file that fails to parse,
  has the wrong schema, or whose embedded config document does not
  match the requested one is deleted and reported as a miss — the
  cache can be slow, it can never be wrong.
* **A shared byte ledger.**  The byte total of all entries lives in a
  fixed-width file at the root (:data:`LEDGER_NAME`).  Every store takes
  an exclusive :func:`fcntl.flock` on it, opened for that call alone so
  no lock is inherited across a fork, and adds ``new - old`` entry size
  *before* :func:`os.replace` publishes (a shrink is subtracted after),
  so a writer killed mid-store, or a corrupt entry deleted on load, can
  only over-count.  A store under ``max_bytes`` therefore costs the
  same at any entry count; a missing or unparsable ledger (a cache
  written before the ledger existed) is rebuilt by one scan.  The
  ledger is on disk, not in process memory, because the daemon's pool
  workers are separate writers of one root.
* **LRU size bound across writers.**  Only when the ledger exceeds
  ``max_bytes`` does a store list the entries (one :func:`os.scandir`
  pass, one ``stat`` each), evict the least-recently-used ones (by file
  mtime, then path; hits re-touch) until the bound holds, and rewrite
  the exact total — all under the lock.  Once concurrent stores have
  returned, the entries fit in ``max_bytes``.  A segment is evicted on
  its own; losing it loses only its seeds.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from .fingerprint import CACHE_SCHEMA

__all__ = ["CacheStore", "StoreStats", "DEFAULT_MAX_BYTES", "LEDGER_NAME", "Segment"]

#: Default size bound — generous for this repo's JSON entries (a 1000-trial
#: sweep with metrics is ~1 MB), small enough to exercise eviction in tests.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: The byte ledger's file name at the cache root; safe to delete, since
#: the next store rebuilds it with one scan.
LEDGER_NAME = ".bytes"

# Twenty zero-padded digits and a newline: any other content is unparsable.
_LEDGER_DIGITS = 20
_LEDGER_SIZE = _LEDGER_DIGITS + 1

#: A segment file name, ``<start>+<count>.json``, in the one spelling
#: ``"%d+%d.json"`` writes (so ``-5+10.json`` holds seeds -5..4); any
#: other name in a key's directory is not a segment and is never read.
#: Matched line by line over one newline-joined directory listing.
_SEGMENT_NAMES = re.compile(r"^(0|-?[1-9][0-9]*)\+([1-9][0-9]*)\.json$", re.MULTILINE)

#: A seed run ``(start, count)``: the name of one segment of an entry.
Segment = Tuple[int, int]


@dataclass(frozen=True)
class StoreStats:
    """Point-in-time accounting of the on-disk store (``repro cache stats``)."""

    root: str
    entries: int
    total_bytes: int
    max_bytes: int


class CacheStore:
    """Filesystem store of fingerprint-keyed JSON entries.

    A whole entry lives at ``root/<key[:2]>/<key>.json``; a segmented
    entry is the directory ``root/<key[:2]>/<key>/`` of segment files
    ``<start>+<count>.json``, each a complete document that is written
    once and never rewritten.  The byte ledger is ``root/.bytes``.  The
    two-hex-char fan-out keeps directory listings small without
    mattering for correctness.  The store never raises on a bad entry;
    every failure mode degrades to a miss (``on_event("corrupt")`` lets
    the owner count it).
    """

    def __init__(
        self,
        root: os.PathLike,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.root = Path(root)
        self.max_bytes = int(max_bytes)
        self._on_event = on_event
        self._root = os.fspath(self.root)

    # -- internals ---------------------------------------------------------

    def _event(self, name: str) -> None:
        if self._on_event is not None:
            self._on_event(name)

    def _file(self, key: str, segment: Optional[Segment] = None) -> str:
        if segment is None:
            return os.path.join(self._root, key[:2], key + ".json")
        return os.path.join(self._root, key[:2], key, "%d+%d.json" % segment)

    def _path(self, key: str) -> Path:
        return Path(self._file(key))

    def _scan(self) -> Tuple[List[Tuple[float, str, int]], List[str]]:
        """List the shard directories, and the key directories in them, once.

        Returns ``(mtime, path, size)`` for every entry and segment, one
        ``stat`` each, and the paths of stray ``*.tmp`` files.  Files
        that vanish mid-scan (a concurrent corrupt-entry delete) are
        skipped.
        """
        entries: List[Tuple[float, str, int]] = []
        temps: List[str] = []
        try:
            # (directory, is a shard): a shard's subdirectories are key
            # directories, and nothing below those is read.
            dirs = [(d.path, True) for d in os.scandir(self.root) if d.is_dir()]
        except OSError:
            return entries, temps
        while dirs:
            path, shard = dirs.pop()
            try:
                files = list(os.scandir(path))
            except OSError:
                continue
            for f in files:
                if f.name.endswith(".tmp"):
                    temps.append(f.path)
                elif f.is_dir():
                    if shard:
                        dirs.append((f.path, False))
                elif f.name.endswith(".json") and f.is_file():
                    try:
                        st = f.stat()
                    except OSError:
                        continue
                    entries.append((st.st_mtime, f.path, st.st_size))
        return entries, temps

    @contextmanager
    def _ledger(self) -> Iterator[int]:
        """Hold the exclusive ledger lock; yields the ledger's descriptor.

        The root must exist.  Closing the descriptor releases the lock,
        including when the process dies mid-store.
        """
        fd = os.open(self.root / LEDGER_NAME, os.O_RDWR | os.O_CREAT, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield fd
        finally:
            os.close(fd)

    @staticmethod
    def _read_total(fd: int) -> Optional[int]:
        raw = os.pread(fd, _LEDGER_SIZE + 1, 0)
        if len(raw) != _LEDGER_SIZE or not raw.endswith(b"\n") or not raw[:-1].isdigit():
            return None
        return int(raw)

    @staticmethod
    def _write_total(fd: int, total: int) -> None:
        os.pwrite(fd, b"%0*d\n" % (_LEDGER_DIGITS, total), 0)
        os.ftruncate(fd, _LEDGER_SIZE)  # drops the tail of a longer, unparsable ledger

    def _discard(self, path: Union[str, Path]) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- read/write --------------------------------------------------------

    def segments(self, key: str) -> List[Segment]:
        """The ``(start, count)`` segments stored under ``key``, in no order.

        One listing of the key's directory; no segment is opened, so a
        caller can tell which seeds are stored before reading any.
        """
        try:
            names = os.listdir(os.path.join(self._root, key[:2], key))
        except OSError:
            return []
        return [(int(s), int(c)) for s, c in _SEGMENT_NAMES.findall("\n".join(names))]

    def load(
        self,
        key: str,
        *,
        segment: Optional[Segment] = None,
        expect_config: Optional[Dict[str, Any]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Return the entry for ``key`` (or one segment of it), or ``None`` on any failure.

        ``expect_config`` is hash-collision paranoia: the caller passes
        the normalized config document it fingerprinted and the entry is
        only served if the stored copy compares equal.  Unreadable,
        unparsable, wrong-schema, and mismatched entries are deleted so
        they cannot fail again (the ledger keeps counting them until the
        next scan: an over-count, never an under-count).
        """
        path = self._file(key, segment)
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return None
        try:
            chunks = []
            while True:
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except OSError:
            return None
        finally:
            os.close(fd)
        try:
            doc = json.loads(b"".join(chunks))
        except ValueError:  # includes a UnicodeDecodeError
            doc = None
        if (
            not isinstance(doc, dict)
            or doc.get("schema") != CACHE_SCHEMA
            or (expect_config is not None and doc.get("config") != expect_config)
        ):
            self.reject(key, segment=segment)
            return None
        try:
            os.utime(path)  # a hit refreshes the LRU position
        except OSError:
            pass
        return doc

    def reject(self, key: str, *, segment: Optional[Segment] = None) -> None:
        """Delete a damaged entry (or one segment of it) and count it ``corrupt``.

        :meth:`load` rejects a file it cannot parse or match; an owner
        rejects a loaded document whose payload it cannot use.  Either
        way the ledger keeps counting the bytes until the next scan.
        """
        self._event("corrupt")
        self._discard(self._file(key, segment))

    def store(self, key: str, doc: Dict[str, Any], *, segment: Optional[Segment] = None) -> None:
        """Atomically publish ``doc`` under ``key`` (or as one segment of it), then enforce the bound.

        Lists the entries only when the ledger says the bound is
        exceeded (or the ledger must be rebuilt).
        """
        path = self._file(key, segment)
        parent = os.path.dirname(path)
        data = json.dumps(doc, separators=(",", ":")).encode("utf-8")
        os.makedirs(parent, exist_ok=True)
        with self._ledger() as fd:
            tmp_fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
            try:
                with os.fdopen(tmp_fd, "wb") as f:
                    f.write(data)
                total = self._read_total(fd)
                if total is None:
                    total = sum(size for _, _, size in self._scan()[0])
                    self._write_total(fd, total)
                try:
                    old = os.stat(path).st_size
                except FileNotFoundError:
                    old = 0
                delta = len(data) - old
                if delta > 0:
                    total += delta
                    self._write_total(fd, total)
                os.replace(tmp, path)
            except BaseException:
                self._discard(tmp)
                raise
            self._event("store")
            if delta < 0:
                total += delta
                self._write_total(fd, total)
        if total > self.max_bytes:
            self._evict()

    # -- maintenance -------------------------------------------------------

    def _evict(self) -> int:
        """Drop least-recently-used entries until the byte bound holds.

        Scans under the ledger lock, so the scanned total is exact and
        replaces the ledger's.
        """
        with self._ledger() as fd:
            entries, _ = self._scan()
            total = sum(size for _, _, size in entries)
            evicted = 0
            for _, path, size in sorted(entries):
                if total <= self.max_bytes:
                    break
                self._discard(path)
                total -= size
                evicted += 1
                self._event("evict")
            self._write_total(fd, total)
        return evicted

    def clear(self) -> int:
        """Delete every entry and stray temp file; returns how many entries were removed."""
        if not self.root.is_dir():
            return 0
        with self._ledger() as fd:
            entries, temps = self._scan()
            for _, path, _ in entries:
                self._discard(path)
            for path in temps:
                self._discard(path)
            self._write_total(fd, 0)
        return len(entries)

    def stats(self) -> StoreStats:
        """Entry count and exact byte total (one scan) for ``repro cache stats``."""
        entries, _ = self._scan()
        return StoreStats(
            root=str(self.root),
            entries=len(entries),
            total_bytes=sum(size for _, _, size in entries),
            max_bytes=self.max_bytes,
        )
