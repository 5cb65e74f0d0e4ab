"""Local worker processes: sharded sweeps and the worker body they share
with the service.

The paper's evaluation is embarrassingly parallel — thousands of
independent (workload × architecture) synthesis queries.  This module
runs them on forked local workers that all speak one pipe protocol:

* :func:`_worker_main` is the only local worker body.  Each worker owns
  its own :class:`repro.engine.session.MappingSession`, built from a
  picklable :class:`SessionSpec` (sessions hold sqlite handles, thread
  locks and solver state and never cross a process boundary).  It answers
  ``("request", id, MapRequest)`` with the unit of work every plane runs,
  :func:`repro.harness.runner.map_request`, until ``("stop",)``, which it
  answers with its session's cache counters.
  :class:`repro.engine.service.SolverService` spawns the same body.
* :func:`run_sweep` deals a benchmark list round-robin over such workers,
  one request in flight per worker, and merges the records
  **deterministically**: the merged list preserves the input benchmark
  order exactly, regardless of which worker finished first; per-worker
  cache statistics are summed into one aggregate.

``workers=1`` runs the very same unit of work in-process
(:func:`repro.harness.runner.map_benchmark`), so the serial sweep is the
degenerate case of the sharded one rather than a separate
implementation.

Each sweep setting has one home: the per-request settings are the
:class:`~repro.harness.runner.ExperimentConfig`, the session recipe is
the :class:`SessionSpec` (the same on every plane: serial, sharded,
served and distributed), and the worker count is the plane's
``workers=`` argument.  A spec's shared ``cache_dir`` (see
:mod:`repro.engine.diskcache`) lets workers — and later runs — reuse each
other's synthesis results.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field, fields
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Sequence

from repro.engine.stats import this_run
from repro.harness.runner import (
    ExperimentConfig,
    MappingRecord,
    MapRequest,
    map_benchmark,
    map_request,
)
from repro.workloads.generator import Microbenchmark

__all__ = ["SessionSpec", "SweepResult", "SweepInterrupted", "run_sweep"]


class SweepInterrupted(RuntimeError):
    """A sweep was interrupted (SIGINT/SIGTERM) but drained cleanly.

    ``result`` holds the completed records (in input order) and the
    statistics gathered before the interrupt: workers finished their
    in-flight benchmark, closed their sessions (flushing disk-cache
    lifetime counters) and exited — no orphan processes, no quarantined
    databases, just a shorter record list.
    """

    def __init__(self, result: "SweepResult") -> None:
        super().__init__(
            f"sweep interrupted after {len(result.records)} record(s)")
        self.result = result


@dataclass(frozen=True)
class SessionSpec:
    """A picklable recipe for building equivalent sessions in workers.

    Worker processes cannot receive a live :class:`MappingSession`; they
    receive this spec and build their own.  The spec is also what makes a
    parallel sweep reproducible: every worker's session is configured
    identically.  It is the one session recipe of every plane, the
    serial sweep's included.
    """

    cache_dir: Optional[str] = None
    enable_cache: bool = True

    def to_dict(self) -> Dict[str, object]:
        """The JSON wire form: the distributed handshake ships this
        instead of a pickle, so coordinator and workers need not share a
        pickle protocol (or trust each other's bytestreams)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SessionSpec":
        """Rebuild from the wire form; unknown keys from newer peers are
        ignored so mixed-version fleets degrade instead of crashing."""
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items()
                      if key in known})

    def build(self):
        from repro.engine.session import MappingSession

        return MappingSession(cache_dir=self.cache_dir,
                              enable_cache=self.enable_cache)


@dataclass
class SweepResult:
    """A merged sharded sweep: ordered records plus aggregated statistics."""

    records: List[MappingRecord]
    #: The workers' session cache counters, merged by
    #: :func:`merge_cache_stats`: hits, misses and errors add up, and
    #: ``entries`` is the shared database's row count when the workers
    #: share a cache dir.
    cache_stats: Dict[str, int] = field(default_factory=dict)
    workers: int = 1

    @property
    def record_cache_hits(self) -> int:
        """How many records were served from a synthesis cache."""
        return sum(1 for record in self.records if record.cache_hit)

    @property
    def hit_rate(self) -> float:
        return self.record_cache_hits / len(self.records) if self.records else 0.0

    @property
    def stats(self) -> Dict[str, float]:
        """The solver counters of the records that ran synthesis this run,
        merged, with the derived rates (:func:`repro.engine.stats.this_run`:
        cache hits replay archived counters and are skipped)."""
        return this_run(self.records)

    def outcome_counts(self) -> Dict[str, int]:
        counts: Counter = Counter(record.outcome for record in self.records)
        return dict(counts)


def _worker_main(spec: SessionSpec, conn) -> None:
    """Worker body: serve requests on one warm session until told to stop.

    The parent coordinates shutdown (and handles the terminal's signals),
    so workers ignore SIGINT/SIGTERM — a Ctrl-C must never kill a worker
    mid-sqlite-write and quarantine the shared cache.  The ``with`` block
    guarantees the session closes on every exit path, flushing the disk
    cache's lifetime counters.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    except (OSError, ValueError):  # pragma: no cover - exotic platforms
        pass
    try:
        with spec.build() as session:
            while True:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    return  # the parent died; exit, closing the session
                if message[0] == "stop":
                    try:
                        conn.send(("stats", dict(session.cache_stats())))
                    except (BrokenPipeError, OSError):
                        pass
                    return
                _, request_id, request = message
                try:
                    record = map_request(session, request)
                    payload = ("result", request_id, record.to_dict())
                except Exception as exc:  # noqa: BLE001 - crosses the pipe
                    payload = ("error", request_id,
                               f"{type(exc).__name__}: {exc}")
                try:
                    conn.send(payload)
                except (BrokenPipeError, OSError):
                    return
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


def _fork_context():
    """Prefer ``fork``: cheap, it inherits the warm interpreter, and with it
    any patch of :func:`map_request` made before the worker starts.  Falls
    back to the platform default where ``fork`` does not exist."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _start_worker(spec: SessionSpec, name: str):
    """Start one :func:`_worker_main` process; returns the process and the
    parent's end of its pipe."""
    context = _fork_context()
    parent_conn, child_conn = context.Pipe(duplex=True)
    process = context.Process(target=_worker_main, args=(spec, child_conn),
                              name=name, daemon=True)
    process.start()
    child_conn.close()
    return process, parent_conn


def merge_cache_stats(totals: Counter, stats: Dict[str, int],
                      shared_store: bool) -> None:
    """Fold one worker session's cache counters into ``totals``.

    Hits, misses and errors add up, and so do the entries of per-worker
    in-memory stores.  Workers sharing one disk cache (``shared_store``)
    each report its exact row count, so there ``entries`` is the largest
    report, not the sum.
    """
    stats = dict(stats)
    if shared_store:
        totals["entries"] = max(totals["entries"], stats.pop("entries", 0))
    totals.update(stats)


def _stop_workers(workers, cache_totals: Counter,
                  shared_store: bool) -> None:
    """Stop and join every ``(process, conn)`` worker, merging into
    ``cache_totals`` the session statistics each sends as its reply to
    ``stop`` (:func:`merge_cache_stats`).

    A worker still mapping answers once its request is done (its result is
    dropped); one that has not exited within 10 s is killed — workers
    ignore SIGTERM — so none outlives its caller.
    """
    for _, conn in workers:
        try:
            conn.send(("stop",))
        except OSError:
            pass
    deadline = time.monotonic() + 10.0
    for process, conn in workers:
        try:
            while conn.poll(max(0.0, deadline - time.monotonic())):
                message = conn.recv()
                if message[0] == "stats":
                    merge_cache_stats(cache_totals, message[1], shared_store)
                    break
        except (EOFError, OSError):
            pass
        conn.close()
        process.join(max(0.0, deadline - time.monotonic()))
        if process.is_alive():
            process.kill()
            process.join()


def run_sweep(benchmarks: Sequence[Microbenchmark],
              config: Optional[ExperimentConfig] = None,
              workers: int = 1,
              session_spec: Optional[SessionSpec] = None) -> SweepResult:
    """Run a (possibly sharded) Lakeroad sweep and aggregate statistics.

    Every session the sweep uses is built from ``session_spec``
    (``SessionSpec()`` when omitted).  ``workers=1`` runs in-process on
    one such session.
    With more workers the benchmarks are dealt round-robin — worker ``k``
    maps ``k``, ``k + workers``, … in that order, one request in flight at
    a time; widths (and therefore synthesis costs) trend upward through
    enumeration order, so interleaving balances the workers — and the
    merged records are returned in input order.

    SIGINT or SIGTERM drains a sharded sweep: no new request is sent,
    every worker finishes its in-flight one, and :class:`SweepInterrupted`
    carries the completed records.  A worker that fails or dies stops the
    sweep with a ``RuntimeError`` naming its benchmark.

    The returned :class:`SweepResult` merges the per-record solver
    counters over the designs that actually ran synthesis this run
    (:attr:`SweepResult.stats`).  Among them, ``db_size_peak`` — the
    largest learned-clause database any candidate solver reached, which
    the solver's LBD clause reduction keeps bounded — is the number to
    watch on paper-scale enumerations with hard candidate queries.
    """
    config = config or ExperimentConfig()
    benchmarks = list(benchmarks)
    workers = max(1, int(workers))
    workers = min(workers, len(benchmarks)) if benchmarks else 1
    spec = session_spec if session_spec is not None else SessionSpec()

    if workers == 1:
        with spec.build() as session:
            records = []
            try:
                for benchmark in benchmarks:
                    records.append(map_benchmark(session, benchmark, config))
            except KeyboardInterrupt:
                # Drain semantics for the serial case: keep what completed;
                # leaving the block closes the session, flushing the disk
                # cache's lifetime counters.
                raise SweepInterrupted(SweepResult(
                    records=records,
                    cache_stats=dict(session.cache_stats()),
                    workers=1)) from None
            return SweepResult(records=records,
                               cache_stats=dict(session.cache_stats()),
                               workers=1)

    interrupted: List[int] = []
    previous = {}
    merged: List[Optional[MappingRecord]] = [None] * len(benchmarks)
    cache_totals: Counter = Counter()
    started = []
    try:
        # While the workers run, SIGINT/SIGTERM only set a flag: raised as
        # KeyboardInterrupt they could land inside a pipe read, a pipe
        # write or a fork and leave a worker (or a half-read message)
        # behind.  Only the main thread can install handlers, and only it
        # receives signals.
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous[signum] = signal.signal(
                    signum, lambda number, frame: interrupted.append(number))
        for rank in range(workers):
            started.append(_start_worker(spec, f"lakeroad-sweep-{rank}"))
        # A busy worker's pipe → its in-flight index and its indices to go.
        busy: Dict[object, tuple] = {}

        def feed(conn, shard: deque) -> None:
            if shard and not interrupted:
                index = shard.popleft()
                busy[conn] = (index, shard)
                try:
                    conn.send(("request", index, MapRequest.from_benchmark(
                        benchmarks[index], config)))
                except OSError:
                    pass  # the worker is gone; wait() reports its EOF

        for rank, (_, conn) in enumerate(started):
            feed(conn, deque(range(rank, len(benchmarks), workers)))
        while busy:
            for conn in wait(list(busy)):
                index, shard = busy.pop(conn)
                name = benchmarks[index].name
                try:
                    kind, _, payload = conn.recv()
                except (EOFError, OSError):
                    raise RuntimeError(f"sweep worker exited while mapping "
                                       f"{name}") from None
                if kind == "error":
                    raise RuntimeError(f"sweep worker failed on {name}: "
                                       f"{payload}")
                merged[index] = MappingRecord.from_dict(payload)
                feed(conn, shard)
    except KeyboardInterrupt:
        interrupted.append(signal.SIGINT)  # landed before the handlers did
    finally:
        _stop_workers(started, cache_totals, spec.cache_dir is not None)
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    result = SweepResult(records=[r for r in merged if r is not None],
                         cache_stats=dict(cache_totals),
                         workers=workers)
    if interrupted:
        raise SweepInterrupted(result)
    return result
