"""A persistent, process-shared synthesis cache (sqlite) and its tiering.

The in-memory :class:`repro.engine.cache.SynthesisCache` dies with the
process, so harness runs, sharded sweep workers and CI jobs each pay the
full synthesis cost for workloads every other process has already solved.
:class:`DiskSynthesisCache` persists entries in a single sqlite database:

* **keying** reuses the session's canonical cache key (design fingerprint ×
  architecture × template × budget × BMC window × validation flag),
  serialized to a stable JSON string;
* **values** are pickled :class:`repro.engine.session.LakeroadResult`
  objects (the cache itself is payload-agnostic — it stores any picklable
  value);
* **schema versioning**: a bumped :data:`SCHEMA_VERSION` makes an old
  database read as empty instead of serving stale or shape-incompatible
  entries;
* **corruption**: an unreadable database file is quarantined (renamed to
  ``*.corrupt``) and replaced with a fresh one — a damaged cache must never
  take the tool down;
* **concurrency**: WAL journaling plus a busy timeout make concurrent
  readers/writers from sharded sweep workers safe; processes opening one
  database together wait out each other's locks (contention is never
  taken for corruption) and check its schema in one write transaction;
* **lifetime statistics**: per-run hit/miss counts are folded into the meta
  table on write/close, so ``lakeroad cache stats`` reports hit rates over
  the database's whole life, not just one process.

:class:`TieredSynthesisCache` layers the disk cache *under* the in-memory
LRU as a read-through/write-through tier: gets fall through memory to disk
(promoting hits back into memory), puts write both.  Sessions build the
tier automatically when given a ``cache_dir``.
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import threading
import time
import warnings
from pathlib import Path
from typing import Any, Dict, Hashable, Optional

from repro.engine.cache import SynthesisCache

__all__ = ["SCHEMA_VERSION", "DB_NAME", "DiskSynthesisCache",
           "TieredSynthesisCache", "peek_schema_version", "peek_entry_count"]

#: Bump whenever the stored value shape (or the key derivation) changes in a
#: way that makes old entries unusable; mismatched databases fall back to
#: empty instead of deserializing stale results.  v2: SynthesisOutcome grew
#: the incremental-CEGIS statistics fields and the entries table gained a
#: ``last_used_at`` column for LRU eviction.  v3: SynthesisOutcome carries
#: its solver counters as one ``stats`` map, and LakeroadResult dropped its
#: ``cache_hits``/``cache_misses`` fields.
SCHEMA_VERSION = 3

#: The database filename inside a cache directory (the CLI and the session
#: must agree on it).
DB_NAME = "synthesis-cache.sqlite"
_DB_NAME = DB_NAME  # historical alias


def canonical_key(key: Hashable) -> str:
    """A stable text form of a cache key (tuples become JSON arrays)."""
    return json.dumps(key, sort_keys=True, default=repr)


#: The connections' busy timeout, which is also how long opening a
#: database keeps retrying while other processes hold its locks.
_BUSY_SECONDS = 30.0


def _is_contention(error: sqlite3.Error) -> bool:
    """Whether ``error`` is lock contention (SQLITE_BUSY / SQLITE_LOCKED:
    another connection holds the database), as opposed to damage."""
    code = getattr(error, "sqlite_errorcode", None)  # Python 3.11+
    if code is None:
        return "locked" in str(error)
    return code & 0xFF in (5, 6)  # SQLITE_BUSY, SQLITE_LOCKED


def _peek_row(directory, db_name: str, query: str) -> Optional[tuple]:
    """The first row of ``query`` on a read-only connection, or None if
    the database is missing or unreadable.  The connection is opened for
    this one query and closed after it, so a replaced database
    (quarantine, ``clear``) is never read through a stale handle."""
    path = Path(directory) / db_name
    try:
        connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True,
                                     timeout=5.0)
    except sqlite3.Error:
        return None
    try:
        return connection.execute(query).fetchone()
    except sqlite3.Error:
        return None
    finally:
        connection.close()


def peek_schema_version(directory, db_name: str = DB_NAME) -> Optional[int]:
    """Read a cache database's schema version without opening it for
    writing (and therefore without triggering the schema migration, which
    drops unreadable entries).  Returns None if the database is missing,
    unreadable, or carries no version stamp."""
    row = _peek_row(directory, db_name,
                    "SELECT value FROM meta WHERE key = 'schema_version'")
    try:
        return int(row[0]) if row is not None else None
    except ValueError:
        return None


def peek_entry_count(directory, db_name: str = DB_NAME) -> Optional[int]:
    """Count a cache database's entries without opening it for writing
    (works on any schema version that has an ``entries`` table).  Returns
    None if the database is missing or unreadable."""
    row = _peek_row(directory, db_name, "SELECT COUNT(*) FROM entries")
    return int(row[0]) if row is not None else None


class DiskSynthesisCache:
    """A sqlite-backed synthesis cache shared across processes.

    Hit/miss counters are per-instance (per-process); the entry set is the
    shared database.  All failure modes degrade to cache misses — a cache
    must accelerate runs, never abort them.
    """

    def __init__(self, directory, db_name: str = _DB_NAME,
                 max_entries: Optional[int] = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / db_name
        #: Size cap: a put that grows the table past this evicts the
        #: least-recently-used entries back down to the cap.  None means
        #: unbounded (the historical behavior); ``lakeroad cache prune``
        #: offers one-shot trimming for unbounded caches.
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._connection: Optional[sqlite3.Connection] = None
        #: The process that owns ``_connection``.  sqlite handles must not
        #: be used across a fork (the service and sweep pools fork with a
        #: session — and therefore a cache — already open), so every
        #: operation checks the pid and reopens in the child.
        self._pid = os.getpid()
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.evictions = 0
        #: Hit/miss counts not yet folded into the database's lifetime
        #: counters (meta keys ``lifetime_hits``/``lifetime_misses``);
        #: flushed on the next write operation or on close, so
        #: ``lakeroad cache stats`` can report hit rates across every run
        #: that ever used the cache, not just the current process.
        self._unflushed_hits = 0
        self._unflushed_misses = 0
        #: Recency updates buffered by ``get`` (key -> last-use time) and
        #: flushed on the next write operation (put/prune/close): hits stay
        #: pure reads instead of each taking sqlite's single-writer lock.
        self._dirty_recency: Dict[str, float] = {}
        #: High-water mark for recency/creation stamps.  Wall clocks step
        #: backwards (NTP corrections, VM migrations); an entry stamped
        #: after such a step would look *older* than everything before it
        #: and the LRU evictor would drop the hottest entries first.
        #: ``_stamp`` clamps against this mark so stamps are strictly
        #: increasing within a process regardless of what the clock does.
        self._last_stamp = 0.0
        #: Local estimate of the entry count, so the per-query stats path
        #: never runs COUNT(*); exact at open and after len(), drifts only
        #: on key overwrites and on other processes' concurrent writes.
        self._entry_estimate = 0
        self._open()
        self._entry_estimate = self._count_entries()

    # ------------------------------------------------------------------ #
    # Connection lifecycle
    # ------------------------------------------------------------------ #
    def _open(self) -> None:
        try:
            self._connection = self._connect()
        except sqlite3.DatabaseError:
            self._quarantine()
            self._connection = self._connect()

    def _connect(self) -> Optional[sqlite3.Connection]:
        """:meth:`_initialise`, waiting out other processes' locks.

        Lock contention is not damage: processes opening one fresh
        directory together contend while they initialise it, and some
        lock waits fail at once instead of using the busy timeout.  Those
        are retried for the busy budget; a database still locked after it
        is skipped with a warning (None: the cache runs without its disk
        tier).  Any other error propagates, for :meth:`_open` to
        quarantine.
        """
        deadline = time.monotonic() + _BUSY_SECONDS
        while True:
            try:
                return self._initialise()
            except sqlite3.DatabaseError as error:
                if not _is_contention(error):
                    raise
                if time.monotonic() > deadline:
                    warnings.warn(
                        f"synthesis cache database {self.path} stayed locked "
                        f"for {_BUSY_SECONDS:.0f}s; running without the disk "
                        "cache", RuntimeWarning, stacklevel=3)
                    return None
                time.sleep(0.01)

    def _initialise(self) -> sqlite3.Connection:
        connection = sqlite3.connect(str(self.path), timeout=_BUSY_SECONDS,
                                     check_same_thread=False)
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(
                f"PRAGMA busy_timeout={int(_BUSY_SECONDS * 1000)}")
            # Check and migrate the schema in one write transaction: an
            # opener that finds no version stamp must not drop the entries
            # another opener wrote after stamping it.
            connection.execute("BEGIN IMMEDIATE")
            connection.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)")
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'").fetchone()
            if row is None or row[0] != str(SCHEMA_VERSION):
                # Entries written under another schema are unusable (and may
                # even have different columns); start empty rather than
                # deserializing stale shapes.
                connection.execute("DROP TABLE IF EXISTS entries")
                # Lifetime hit/miss counters describe the dropped entry
                # set; reset them alongside it.
                connection.execute(
                    "DELETE FROM meta WHERE key IN "
                    "('lifetime_hits', 'lifetime_misses')")
                connection.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)))
            connection.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " key TEXT PRIMARY KEY, value BLOB NOT NULL,"
                " created_at REAL NOT NULL, last_used_at REAL NOT NULL)")
            connection.execute(
                "CREATE INDEX IF NOT EXISTS entries_lru ON entries(last_used_at)")
            connection.commit()
        except BaseException:
            connection.close()
            raise
        return connection

    def _guard_fork(self) -> None:
        """Reopen in a forked child (called with the lock held).

        The inherited connection is the parent's: it is dropped without
        ``close()`` (closing would tear down sqlite state the parent is
        still using — the leaked fd is the lesser evil).  The buffered
        hit/miss/recency counters were duplicated by the fork and will be
        flushed by the parent, so the child resets them rather than
        double-counting.
        """
        if self._pid == os.getpid():
            return
        self._connection = None
        self._dirty_recency.clear()
        self._unflushed_hits = 0
        self._unflushed_misses = 0
        self._pid = os.getpid()
        self._open()
        try:
            row = self._connection.execute(
                "SELECT COUNT(*) FROM entries").fetchone()
            self._entry_estimate = int(row[0])
        except (sqlite3.Error, AttributeError):
            self._entry_estimate = 0

    def _stamp(self) -> float:
        """A wall-clock timestamp clamped to be strictly increasing within
        this process (called with the lock held).  The epsilon keeps
        ordering information across a backwards clock step — ties would
        otherwise fall back to key order in the LRU eviction query."""
        now = time.time()
        if now <= self._last_stamp:
            now = self._last_stamp + 1e-6
        self._last_stamp = now
        return now

    def _quarantine(self) -> None:
        """Move a damaged database aside and warn; the cache starts fresh."""
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
            self._connection = None
        quarantined = self.path.with_name(self.path.name + ".corrupt")
        try:
            os.replace(self.path, quarantined)
        except OSError:
            try:
                self.path.unlink()
            except OSError:
                pass
        for sidecar in (f"{self.path}-wal", f"{self.path}-shm"):
            try:
                os.unlink(sidecar)
            except OSError:
                pass
        warnings.warn(
            f"synthesis cache database {self.path} was unreadable; "
            f"quarantined to {quarantined} and starting empty",
            RuntimeWarning, stacklevel=3)

    def close(self) -> None:
        with self._lock:
            if self._pid != os.getpid():
                # A forked child closing an inherited cache: the connection
                # and the buffered counters belong to the parent — drop
                # them, flush nothing.
                self._connection = None
                self._dirty_recency.clear()
                self._unflushed_hits = 0
                self._unflushed_misses = 0
                return
            self._flush_recency()
            if self._connection is not None:
                try:
                    self._connection.close()
                except sqlite3.Error:
                    pass
                self._connection = None

    # ------------------------------------------------------------------ #
    # Cache protocol (mirrors SynthesisCache)
    # ------------------------------------------------------------------ #
    def get(self, key: Hashable) -> Optional[Any]:
        text_key = canonical_key(key)
        with self._lock:
            self._guard_fork()
            if self._connection is None:
                self.misses += 1
                self._unflushed_misses += 1
                return None
            try:
                row = self._connection.execute(
                    "SELECT value FROM entries WHERE key = ?", (text_key,)).fetchone()
            except sqlite3.Error:
                self.errors += 1
                self.misses += 1
                self._unflushed_misses += 1
                return None
            if row is None:
                self.misses += 1
                self._unflushed_misses += 1
                return None
            try:
                value = pickle.loads(row[0])
            except Exception:
                # An undeserializable entry is useless; drop it so the next
                # run recomputes and overwrites.
                self.errors += 1
                self.misses += 1
                self._unflushed_misses += 1
                try:
                    self._connection.execute(
                        "DELETE FROM entries WHERE key = ?", (text_key,))
                    self._connection.commit()
                    self._entry_estimate = max(0, self._entry_estimate - 1)
                except sqlite3.Error:
                    pass
                return None
            self._dirty_recency[text_key] = self._stamp()
            self.hits += 1
            self._unflushed_hits += 1
            return value

    def _flush_recency(self) -> None:
        """Persist buffered last-use times (called with the lock held)."""
        self._flush_lifetime()
        if not self._dirty_recency or self._connection is None:
            return
        updates = [(used_at, key)
                   for key, used_at in self._dirty_recency.items()]
        self._dirty_recency.clear()
        try:
            self._connection.executemany(
                "UPDATE entries SET last_used_at = ? WHERE key = ?", updates)
            self._connection.commit()
        except sqlite3.Error:
            pass  # recency is best-effort; worst case the LRU order coarsens

    def _flush_lifetime(self) -> None:
        """Fold this run's hit/miss counts into the database's lifetime
        counters (called with the lock held).  Best-effort, like recency:
        a failed flush costs statistics, never correctness."""
        if (not self._unflushed_hits and not self._unflushed_misses) \
                or self._connection is None:
            return
        updates = [("lifetime_hits", self._unflushed_hits),
                   ("lifetime_misses", self._unflushed_misses)]
        self._unflushed_hits = 0
        self._unflushed_misses = 0
        try:
            for key, delta in updates:
                if delta:
                    self._connection.execute(
                        "INSERT INTO meta (key, value) VALUES (?, ?) "
                        "ON CONFLICT(key) DO UPDATE SET "
                        "value = CAST(CAST(value AS INTEGER) + CAST(excluded.value AS INTEGER) AS TEXT)",
                        (key, str(delta)))
            self._connection.commit()
        except sqlite3.Error:
            pass

    def lifetime_stats(self) -> Dict[str, int]:
        """Cumulative hit/miss counters over every run that used this
        database (persisted in the meta table), including this instance's
        not-yet-flushed counts."""
        with self._lock:
            self._guard_fork()
            # Snapshot the unflushed counts under the lock: a concurrent
            # flush zeroes them after folding them into the meta table, and
            # an outside-the-lock snapshot would count those twice.
            totals = {"lifetime_hits": self._unflushed_hits,
                      "lifetime_misses": self._unflushed_misses}
            if self._connection is None:
                return totals
            try:
                rows = self._connection.execute(
                    "SELECT key, value FROM meta WHERE key IN "
                    "('lifetime_hits', 'lifetime_misses')").fetchall()
            except sqlite3.Error:
                return totals
        for key, value in rows:
            try:
                totals[key] += int(value)
            except (TypeError, ValueError):
                pass
        return totals

    def put(self, key: Hashable, value: Any) -> None:
        text_key = canonical_key(key)
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.errors += 1
            return
        with self._lock:
            self._guard_fork()
            if self._connection is None:
                return
            self._flush_recency()
            try:
                now = self._stamp()
                self._connection.execute(
                    "INSERT OR REPLACE INTO entries "
                    "(key, value, created_at, last_used_at) "
                    "VALUES (?, ?, ?, ?)", (text_key, blob, now, now))
                self._connection.commit()
                self._entry_estimate += 1
            except sqlite3.Error:
                self.errors += 1
                return
            if self.max_entries is not None and \
                    self._entry_estimate > self.max_entries:
                self._evict_over_cap()

    def _evict_over_cap(self) -> None:
        """Delete least-recently-used entries beyond ``max_entries``.

        Called with the lock held.  Uses the exact count (the estimate may
        drift under overwrites and concurrent writers) and is best-effort:
        an eviction failure degrades to an oversized cache, never an error.
        """
        try:
            row = self._connection.execute(
                "SELECT COUNT(*) FROM entries").fetchone()
            count = int(row[0])
            excess = count - self.max_entries
            if excess > 0:
                self._connection.execute(
                    "DELETE FROM entries WHERE key IN ("
                    " SELECT key FROM entries"
                    " ORDER BY last_used_at ASC, created_at ASC, key ASC"
                    " LIMIT ?)", (excess,))
                self._connection.commit()
                self.evictions += excess
                count -= excess
            self._entry_estimate = count
        except sqlite3.Error:
            self.errors += 1

    def prune(self, max_entries: Optional[int] = None,
              max_age_seconds: Optional[float] = None) -> int:
        """One-shot trim: drop entries unused for ``max_age_seconds`` and/or
        LRU-evict down to ``max_entries``.  Returns the number removed."""
        removed = 0
        with self._lock:
            self._guard_fork()
            if self._connection is None:
                return 0
            self._flush_recency()
            try:
                if max_age_seconds is not None:
                    cursor = self._connection.execute(
                        "DELETE FROM entries WHERE last_used_at < ?",
                        (self._stamp() - max_age_seconds,))
                    removed += cursor.rowcount if cursor.rowcount > 0 else 0
                if max_entries is not None:
                    row = self._connection.execute(
                        "SELECT COUNT(*) FROM entries").fetchone()
                    excess = int(row[0]) - max_entries
                    if excess > 0:
                        self._connection.execute(
                            "DELETE FROM entries WHERE key IN ("
                            " SELECT key FROM entries"
                            " ORDER BY last_used_at ASC, created_at ASC, key ASC"
                            " LIMIT ?)", (excess,))
                        removed += excess
                self._connection.commit()
                row = self._connection.execute(
                    "SELECT COUNT(*) FROM entries").fetchone()
                self._entry_estimate = int(row[0])
            except sqlite3.Error:
                self.errors += 1
        return removed

    def size_bytes(self) -> int:
        """On-disk footprint of the database (plus WAL sidecar)."""
        total = 0
        for path in (self.path, Path(f"{self.path}-wal")):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> None:
        with self._lock:
            self._guard_fork()
            self.hits = 0
            self.misses = 0
            self.errors = 0
            self._entry_estimate = 0
            self._dirty_recency.clear()
            self._unflushed_hits = 0
            self._unflushed_misses = 0
            if self._connection is None:
                return
            try:
                self._connection.execute("DELETE FROM entries")
                self._connection.execute(
                    "DELETE FROM meta WHERE key IN "
                    "('lifetime_hits', 'lifetime_misses')")
                self._connection.commit()
            except sqlite3.Error:
                self.errors += 1

    def _count_entries(self) -> int:
        with self._lock:
            self._guard_fork()
            if self._connection is None:
                return 0
            try:
                row = self._connection.execute(
                    "SELECT COUNT(*) FROM entries").fetchone()
            except sqlite3.Error:
                return 0
            return int(row[0])

    def __len__(self) -> int:
        """Exact entry count (COUNT(*)); also refreshes the estimate."""
        count = self._count_entries()
        self._entry_estimate = count
        return count

    def stats(self) -> Dict[str, int]:
        """Counters for the per-query hot path.

        ``entries`` is the local estimate (no COUNT(*) table scan — sessions
        read stats on every mapping); call ``len(cache)`` for the exact
        shared count.
        """
        return {"hits": self.hits, "misses": self.misses,
                "entries": self._entry_estimate, "errors": self.errors,
                "evictions": self.evictions}


class TieredSynthesisCache:
    """An in-memory LRU over a persistent disk tier.

    Reads fall through memory to disk and promote hits back into memory;
    writes go to both tiers.  ``stats()`` reports the combined view the
    session's counters expect (``hits``/``misses``/``entries``) plus the
    per-tier breakdown.
    """

    def __init__(self, memory: Optional[SynthesisCache] = None,
                 disk: Optional[DiskSynthesisCache] = None) -> None:
        if disk is None:
            raise ValueError("TieredSynthesisCache requires a disk tier; "
                             "use SynthesisCache alone for memory-only caching")
        self.memory = memory if memory is not None else SynthesisCache()
        self.disk = disk

    def get(self, key: Hashable) -> Optional[Any]:
        value = self.memory.get(key)
        if value is not None:
            return value
        value = self.disk.get(key)
        if value is not None:
            self.memory.put(key, value)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self.memory.put(key, value)
        self.disk.put(key, value)

    def clear(self) -> None:
        self.memory.clear()
        self.disk.clear()

    def prune(self, max_entries: Optional[int] = None,
              max_age_seconds: Optional[float] = None) -> int:
        """Trim the disk tier; the in-memory LRU is already size-capped."""
        return self.disk.prune(max_entries=max_entries,
                               max_age_seconds=max_age_seconds)

    def lifetime_stats(self) -> Dict[str, int]:
        """The disk tier's cross-run hit/miss counters (memory-tier hits
        are per-process by nature and not persisted)."""
        return self.disk.lifetime_stats()

    def close(self) -> None:
        self.disk.close()

    def __len__(self) -> int:
        return len(self.disk)

    def stats(self) -> Dict[str, int]:
        memory = self.memory.stats()
        disk = self.disk.stats()
        return {
            # Combined counters: a disk hit is still a cache hit, and only a
            # miss in *both* tiers is a true miss (every memory miss falls
            # through to the disk tier, where it is counted exactly once).
            "hits": memory["hits"] + disk["hits"],
            "misses": disk["misses"],
            "entries": disk["entries"],
            "memory_hits": memory["hits"],
            "memory_entries": memory["entries"],
            "disk_hits": disk["hits"],
            "disk_errors": disk["errors"],
        }
