"""A persistent, process-shared synthesis cache (sqlite).

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

A session given a ``cache_dir`` uses this cache as its one store, in
place of the in-memory LRU: every hit is a disk hit.
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

__all__ = ["SCHEMA_VERSION", "DB_NAME", "DiskSynthesisCache",
           "peek_schema_version", "peek_entry_count"]

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

    def __init__(self, directory, db_name: str = DB_NAME) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / db_name
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
        #: and ``prune`` would drop the hottest entries first.  ``_stamp``
        #: clamps against this mark so stamps are strictly increasing
        #: within a process regardless of what the clock does.
        self._last_stamp = 0.0
        self._open()

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
        is skipped with a warning (None: every get misses and every put
        is dropped, each counted in ``errors``).  Any other error
        propagates, for :meth:`_open` to quarantine.
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

    def _stamp(self) -> float:
        """A wall-clock timestamp clamped to be strictly increasing within
        this process (called with the lock held).  The epsilon keeps
        ordering information across a backwards clock step — ties would
        otherwise fall back to key order in ``prune``'s LRU query."""
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
                self.errors += 1
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
                self.errors += 1
                return
            self._flush_recency()
            try:
                now = self._stamp()
                self._connection.execute(
                    "INSERT OR REPLACE INTO entries "
                    "(key, value, created_at, last_used_at) "
                    "VALUES (?, ?, ?, ?)", (text_key, blob, now, now))
                self._connection.commit()
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

    def __len__(self) -> int:
        """Exact entry count of the shared database (COUNT(*))."""
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

    def stats(self) -> Dict[str, int]:
        """This instance's hit/miss/error counters and the shared entry
        count (exact: sessions read stats once per sweep, not per map)."""
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self), "errors": self.errors}
