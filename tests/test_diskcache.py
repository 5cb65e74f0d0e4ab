"""Tests for the persistent synthesis cache: cross-process round trips,
schema-version fallback, corruption quarantine, and disk-backed sessions."""

import multiprocessing
import os
import pickle
import sqlite3
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.engine import diskcache
from repro.engine.budget import Budget
from repro.engine.cache import SynthesisCache
from repro.engine.diskcache import (
    DB_NAME,
    SCHEMA_VERSION,
    DiskSynthesisCache,
    canonical_key,
)
from repro.engine.session import MappingSession, synthesis_cache_key
from repro.hdl.behavioral import verilog_to_behavioral

from _fixtures import AND4, MUL8

KEY = SynthesisCache.key("fingerprint", "sofa", "bitwise", 60.0, 1, True)


def _fresh_process_map(cache_dir: Path, print_expr: str) -> str:
    """Map AND4 with a disk-cached session in a brand-new interpreter."""
    script = (
        "from repro.engine.session import MappingSession\n"
        f"session = MappingSession(cache_dir={str(cache_dir)!r})\n"
        f"result = session.map_verilog({AND4!r}, template='bitwise',"
        " arch='sofa', timeout_seconds=60)\n"
        f"print(({print_expr}))\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip().splitlines()[-1]


class TestDiskCacheUnit:
    def test_round_trip_and_counters(self, tmp_path):
        cache = DiskSynthesisCache(tmp_path)
        assert cache.get(KEY) is None
        cache.put(KEY, {"answer": 42})
        assert cache.get(KEY) == {"answer": 42}
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1,
                                 "errors": 0}
        cache.close()

    def test_entries_survive_reopening(self, tmp_path):
        first = DiskSynthesisCache(tmp_path)
        first.put(KEY, [1, 2, 3])
        first.close()
        second = DiskSynthesisCache(tmp_path)
        assert second.get(KEY) == [1, 2, 3]
        second.close()

    def test_clear_empties_the_database(self, tmp_path):
        cache = DiskSynthesisCache(tmp_path)
        cache.put(KEY, "value")
        cache.clear()
        assert len(cache) == 0
        assert cache.get(KEY) is None
        cache.close()

    def test_canonical_key_is_stable_and_distinct(self):
        other = SynthesisCache.key("fingerprint", "sofa", "bitwise", 61.0, 1, True)
        assert canonical_key(KEY) == canonical_key(KEY)
        assert canonical_key(KEY) != canonical_key(other)

    def test_two_instances_share_one_database(self, tmp_path):
        """WAL mode: concurrent handles (as sweep workers hold) see each
        other's writes."""
        writer = DiskSynthesisCache(tmp_path)
        reader = DiskSynthesisCache(tmp_path)
        writer.put(KEY, "shared")
        assert reader.get(KEY) == "shared"
        writer.close()
        reader.close()


class TestSchemaAndCorruption:
    def test_keys_and_schema_match_existing_cache_dirs(self):
        """A cache dir written since schema 3 keeps answering: the key of a
        fixed request is the tuple such dirs hold, with the probe budget
        (32) in its last slot."""
        key = synthesis_cache_key(verilog_to_behavioral(AND4), "sofa",
                                  "bitwise",
                                  Budget.for_architecture("sofa", override=60),
                                  1, True)
        assert key == ("9aae17951f37cbcc1b9089c99a22980f"
                       "106298070de45de76f47221ac7a522cb",
                       "sofa", "bitwise", 60.0, 1, True, 32)
        assert canonical_key(key) == (
            '["9aae17951f37cbcc1b9089c99a22980f106298070de45de76f47221ac7a5'
            '22cb", "sofa", "bitwise", 60.0, 1, true, 32]')
        assert SCHEMA_VERSION == 3

    def test_schema_version_mismatch_falls_back_to_empty(self, tmp_path):
        cache = DiskSynthesisCache(tmp_path)
        cache.put(KEY, "old-schema-value")
        # Simulate a database written by a different code version.
        cache._connection.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),))
        cache._connection.commit()
        cache.close()

        reopened = DiskSynthesisCache(tmp_path)
        assert len(reopened) == 0
        assert reopened.get(KEY) is None
        # The new-version cache is fully usable afterwards.
        reopened.put(KEY, "new-schema-value")
        assert reopened.get(KEY) == "new-schema-value"
        reopened.close()

    def test_corrupted_database_is_quarantined_not_fatal(self, tmp_path):
        path = tmp_path / "synthesis-cache.sqlite"
        path.write_bytes(b"this is definitely not a sqlite database")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            cache = DiskSynthesisCache(tmp_path)
        assert path.with_name(path.name + ".corrupt").exists()
        cache.put(KEY, "recovered")
        assert cache.get(KEY) == "recovered"
        cache.close()

    def test_concurrent_first_opens_never_quarantine(self, tmp_path):
        """Two processes opening one fresh cache directory at once contend
        for sqlite's locks while they initialise it; the contention must
        be waited out, never taken for corruption (which would move the
        other process's live database aside)."""
        context = multiprocessing.get_context("fork")

        def opener(directory, barrier, index):
            barrier.wait(30)
            cache = DiskSynthesisCache(directory)
            cache.put(("opener", index), index)
            cache.close()

        for trial in range(60):
            directory = tmp_path / str(trial)
            barrier = context.Barrier(2)
            openers = [context.Process(target=opener,
                                       args=(directory, barrier, index))
                       for index in range(2)]
            for process in openers:
                process.start()
            for process in openers:
                process.join(60)
                assert process.exitcode == 0, f"trial {trial}"
            assert not list(directory.glob("*.corrupt")), f"trial {trial}"
            cache = DiskSynthesisCache(directory)
            assert [cache.get(("opener", index)) for index in range(2)] \
                == [0, 1], f"trial {trial}"
            cache.close()

    def test_lock_held_past_the_busy_budget_skips_the_disk_tier(
            self, tmp_path, monkeypatch):
        """Contention that outlasts the busy budget degrades like any
        other cache failure: a warning and no disk tier, never a
        quarantine."""
        DiskSynthesisCache(tmp_path).close()
        holder = sqlite3.connect(str(tmp_path / DB_NAME))
        holder.execute("BEGIN EXCLUSIVE")
        monkeypatch.setattr(diskcache, "_BUSY_SECONDS", 0.2)
        try:
            with pytest.warns(RuntimeWarning, match="stayed locked"):
                cache = DiskSynthesisCache(tmp_path)
        finally:
            holder.rollback()
            holder.close()
        assert not list(tmp_path.glob("*.corrupt"))
        cache.put(KEY, "value")
        assert cache.get(KEY) is None
        # The dropped put and the unanswerable get are errors, so a run
        # that never reached its database cannot pass for a clean one.
        assert cache.stats() == {"hits": 0, "misses": 1, "entries": 0,
                                 "errors": 2}
        cache.close()

    def test_undeserializable_entry_is_dropped_as_miss(self, tmp_path):
        cache = DiskSynthesisCache(tmp_path)
        cache._connection.execute(
            "INSERT INTO entries (key, value, created_at, last_used_at) "
            "VALUES (?, ?, 0, 0)",
            (canonical_key(KEY), b"\x80garbage-pickle"))
        cache._connection.commit()
        assert cache.get(KEY) is None
        assert len(cache) == 0  # the bad row was deleted
        assert cache.stats()["errors"] == 1
        cache.close()


class TestSessionIntegration:
    def test_fingerprint_is_process_independent(self):
        """Regression: commutative-operand canonicalization used to sort by
        the PYTHONHASHSEED-randomized ``hash()``, so the "canonical" design
        fingerprint differed between interpreters — silently defeating any
        cross-process cache."""
        script = (
            "from repro.engine.cache import program_fingerprint\n"
            "from repro.hdl.behavioral import verilog_to_behavioral\n"
            f"print(program_fingerprint(verilog_to_behavioral({AND4!r}).program))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        fingerprints = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            env["PYTHONHASHSEED"] = seed
            completed = subprocess.run([sys.executable, "-c", script], env=env,
                                       capture_output=True, text=True, timeout=120)
            assert completed.returncode == 0, completed.stderr
            fingerprints.add(completed.stdout.strip())
        assert len(fingerprints) == 1

    def test_round_trip_across_two_fresh_processes(self, tmp_path):
        """The headline property: a second run in a brand-new interpreter
        is served from the on-disk cache."""
        cold = _fresh_process_map(tmp_path, "result.status, result.cache_hit")
        assert cold == "('success', False)"
        warm = _fresh_process_map(
            tmp_path,
            "result.status, result.cache_hit, result.verilog is not None")
        assert warm == "('success', True, True)"

    def test_session_cache_dir_is_the_sessions_one_store(self, tmp_path):
        session = MappingSession(cache_dir=tmp_path)
        assert isinstance(session.cache, DiskSynthesisCache)
        cold = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                   timeout_seconds=60)
        assert not cold.cache_hit
        # A repeat on the same session is a disk hit: there is no memory
        # store in front of the disk.
        again = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                    timeout_seconds=60)
        assert again.cache_hit
        assert session.cache_stats() == {"hits": 1, "misses": 1,
                                         "entries": 1, "errors": 0}
        assert session.cache.lifetime_stats() == {"lifetime_hits": 1,
                                                  "lifetime_misses": 1}

        # A second session over the same directory hits it too.
        other = MappingSession(cache_dir=tmp_path)
        warm = other.map_verilog(AND4, template="bitwise", arch="sofa",
                                 timeout_seconds=60)
        assert warm.cache_hit
        assert warm.status == cold.status
        assert warm.verilog == cold.verilog
        assert warm.hole_values == cold.hole_values
        assert other.cache_stats()["hits"] == 1

    def test_timeouts_are_never_persisted(self, tmp_path):
        session = MappingSession(cache_dir=tmp_path)
        first = session.map_verilog(MUL8, template="dsp", arch="intel-cyclone10lp",
                                    timeout_seconds=0.0, validate=False)
        assert first.status == "timeout"
        assert len(session.cache) == 0

        fresh = MappingSession(cache_dir=tmp_path)
        second = fresh.map_verilog(MUL8, template="dsp", arch="intel-cyclone10lp",
                                   timeout_seconds=0.0, validate=False)
        assert second.status == "timeout"
        assert not second.cache_hit

    def test_entries_with_retired_fields_still_load(self, tmp_path):
        """An entry pickled when SynthesisOutcome still had its
        ``time_seconds`` field is served as a hit without it."""
        session = MappingSession(cache_dir=tmp_path)
        cold = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                   timeout_seconds=60)
        disk = session.cache
        (text_key, blob), = disk._connection.execute(
            "SELECT key, value FROM entries").fetchall()
        archived = pickle.loads(blob)
        archived.synthesis.__dict__["time_seconds"] = 0.25
        disk._connection.execute(
            "UPDATE entries SET value = ? WHERE key = ?",
            (pickle.dumps(archived), text_key))
        disk._connection.commit()
        disk.close()

        warm = MappingSession(cache_dir=tmp_path).map_verilog(
            AND4, template="bitwise", arch="sofa", timeout_seconds=60)
        assert warm.cache_hit
        assert (warm.status, warm.verilog, warm.hole_values) == \
            (cold.status, cold.verilog, cold.hole_values)
        assert not hasattr(warm.synthesis, "time_seconds")

    def test_disk_hits_are_isolated_from_caller_mutation(self, tmp_path):
        session = MappingSession(cache_dir=tmp_path)
        cold = session.map_verilog(AND4, template="bitwise", arch="sofa",
                                   timeout_seconds=60)
        cold.hole_values["tampered"] = 1
        warm = MappingSession(cache_dir=tmp_path).map_verilog(
            AND4, template="bitwise", arch="sofa", timeout_seconds=60)
        assert warm.cache_hit
        assert "tampered" not in warm.hole_values


class TestLruEviction:
    def test_prune_by_entry_count(self, tmp_path):
        cache = DiskSynthesisCache(tmp_path)
        for index in range(6):
            cache.put(("key", index), index)
        cache.get(("key", 0))  # most recently used
        removed = cache.prune(max_entries=2)
        assert removed == 4
        assert len(cache) == 2
        assert cache.get(("key", 0)) == 0  # survived (recently used)
        cache.close()

    def test_prune_by_age(self, tmp_path):
        cache = DiskSynthesisCache(tmp_path)
        cache.put(("old",), "old")
        cache._connection.execute(
            "UPDATE entries SET last_used_at = 0")  # pretend it is ancient
        cache._connection.commit()
        cache.put(("new",), "new")
        removed = cache.prune(max_age_seconds=3600.0)
        assert removed == 1
        assert cache.get(("new",)) == "new"
        assert cache.get(("old",)) is None
        cache.close()



class _FakeClock:
    """A settable stand-in for ``time.time`` (simulates clock steps)."""

    def __init__(self, now: float) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestMonotonicRecency:
    """Recency stamps are clamped strictly increasing per process, so a
    backwards wall-clock step (NTP correction, VM migration) cannot make
    freshly-touched entries look like the coldest ones."""

    def test_backwards_clock_step_does_not_evict_hot_entries(
            self, tmp_path, monkeypatch):
        clock = _FakeClock(900.0)
        monkeypatch.setattr(time, "time", clock)
        cache = DiskSynthesisCache(tmp_path)
        cache.put(("a",), "a")
        clock.now = 1000.0
        cache.put(("b",), "b")
        clock.now = 100.0  # the clock steps backwards
        assert cache.get(("a",)) == "a"  # touched after the step: hottest
        cache.put(("c",), "c")
        assert cache.prune(max_entries=2) == 1  # one entry must go
        # The clamp keeps A's recency above B's pre-step stamp, so the
        # stale B is evicted — an unclamped time.time() would stamp the
        # just-touched A at 100 and evict it first.
        assert cache.get(("a",)) == "a"
        assert cache.get(("c",)) == "c"
        assert cache.get(("b",)) is None
        cache.close()

    def test_prune_by_age_survives_backwards_clock_step(
            self, tmp_path, monkeypatch):
        clock = _FakeClock(900.0)
        monkeypatch.setattr(time, "time", clock)
        cache = DiskSynthesisCache(tmp_path)
        cache.put(("old",), "old")
        clock.now = 1000.0
        cache.put(("new",), "new")
        clock.now = 100.0  # the clock steps backwards
        # The clamped "now" stays at ~1000, so exactly the entry unused
        # for longer than 50s ages out.  An unclamped prune would compute
        # a cutoff of 50 and remove nothing.
        removed = cache.prune(max_age_seconds=50.0)
        assert removed == 1
        assert cache.get(("new",)) == "new"
        assert cache.get(("old",)) is None
        cache.close()


class TestCacheCli:
    def _populate(self, tmp_path):
        cache = DiskSynthesisCache(tmp_path)
        for index in range(4):
            cache.put(("key", index), index)
        cache.close()

    def test_stats_prune_clear(self, tmp_path, capsys):
        from repro.cli import main

        self._populate(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "entries: 4" in capsys.readouterr().out
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--max-entries", "1"]) == 0
        assert "pruned 3 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out

    def test_missing_database_is_an_error(self, tmp_path):
        from repro.cli import main

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 1

    def test_stats_refuses_to_migrate_an_old_schema(self, tmp_path):
        """'cache stats' must never trigger the (entry-dropping) schema
        migration; only an explicit clear may reset an old database."""
        from repro.cli import main

        cache = DiskSynthesisCache(tmp_path)
        cache.put(KEY, "payload")
        cache._connection.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION - 1),))
        cache._connection.commit()
        cache.close()

        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 1
        # The refusal must have left the database untouched.
        from repro.engine.diskcache import peek_schema_version
        assert peek_schema_version(tmp_path) == SCHEMA_VERSION - 1
        # clear is the sanctioned way out.
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert peek_schema_version(tmp_path) == SCHEMA_VERSION


class TestLifetimeCounters:
    """Per-run hit/miss counts persist in the meta table, so `lakeroad
    cache stats` can report hit rates over the database's whole life."""

    def test_counters_accumulate_across_runs(self, tmp_path):
        first = DiskSynthesisCache(tmp_path)
        first.get(KEY)                  # miss
        first.put(KEY, "payload")
        first.get(KEY)                  # hit
        first.close()

        second = DiskSynthesisCache(tmp_path)
        second.get(KEY)                 # hit
        second.get(("other",))          # miss
        lifetime = second.lifetime_stats()
        # Not-yet-flushed counts from the live instance are included.
        assert lifetime == {"lifetime_hits": 2, "lifetime_misses": 2}
        second.close()

        third = DiskSynthesisCache(tmp_path)
        assert third.lifetime_stats() == {"lifetime_hits": 2,
                                          "lifetime_misses": 2}
        third.close()

    def test_clear_resets_lifetime_counters(self, tmp_path):
        cache = DiskSynthesisCache(tmp_path)
        cache.get(KEY)
        cache.put(KEY, "payload")
        cache.get(KEY)
        cache.clear()
        assert cache.lifetime_stats() == {"lifetime_hits": 0,
                                          "lifetime_misses": 0}
        cache.close()

    def test_schema_migration_resets_lifetime_counters(self, tmp_path):
        cache = DiskSynthesisCache(tmp_path)
        cache.put(KEY, "payload")
        cache.get(KEY)
        cache._connection.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION - 1),))
        cache._connection.commit()
        cache.close()
        reopened = DiskSynthesisCache(tmp_path)
        assert reopened.lifetime_stats() == {"lifetime_hits": 0,
                                             "lifetime_misses": 0}
        reopened.close()

    def test_cli_stats_reports_lifetime_hit_rate(self, tmp_path, capsys):
        from repro.cli import main

        cache = DiskSynthesisCache(tmp_path)
        cache.get(KEY)
        cache.put(KEY, "payload")
        cache.get(KEY)
        cache.get(KEY)
        cache.close()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "lifetime: 2 hits, 1 misses (67% hit rate)" in out
