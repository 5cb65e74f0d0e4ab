"""Process-level parallel execution: sharded sweeps over worker sessions.

The paper's evaluation is embarrassingly parallel — thousands of
independent (workload × architecture) synthesis queries — but the harness
was single-process.  This module shards a benchmark list across a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* each worker owns its own :class:`repro.engine.session.MappingSession`,
  built from a picklable :class:`SessionSpec` (sessions themselves hold
  sqlite handles, thread locks and solver state and never cross a process
  boundary);
* results travel back as :meth:`MappingRecord.to_dict` payloads tagged
  with their input index, and are merged **deterministically**: the merged
  list preserves the input benchmark order exactly, regardless of which
  worker finished first;
* per-worker cache and portfolio statistics are summed into one aggregate.

``workers=1`` runs the very same per-benchmark code path
(:func:`repro.harness.runner.map_benchmark`) in-process, so the serial
sweep is the degenerate case of the sharded one rather than a separate
implementation.  A shared ``cache_dir`` (see
:mod:`repro.engine.diskcache`) lets workers — and later runs — reuse each
other's synthesis results.
"""

from __future__ import annotations

import multiprocessing
import signal
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.stats import this_run
from repro.harness.runner import (
    ExperimentConfig,
    MappingRecord,
    map_benchmark,
)
from repro.workloads.generator import Microbenchmark

__all__ = ["SessionSpec", "SweepResult", "SweepInterrupted", "run_sweep",
           "run_lakeroad_parallel"]


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
    identically.
    """

    cache_dir: Optional[str] = None
    enable_cache: bool = True
    random_probes: int = 32

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "SessionSpec":
        return cls(cache_dir=config.cache_dir,
                   random_probes=config.random_probes)

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
                              enable_cache=self.enable_cache,
                              random_probes=self.random_probes)


@dataclass
class SweepResult:
    """A merged sharded sweep: ordered records plus aggregated statistics."""

    records: List[MappingRecord]
    #: Summed per-worker session cache counters.  Hit/miss counters add up
    #: exactly; ``entries`` sums each worker's end-of-shard view, so with a
    #: shared disk cache the same persistent entry can be counted by every
    #: worker that sees it.
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: Summed per-worker portfolio first-answer win counts.
    portfolio_wins: Dict[str, int] = field(default_factory=dict)
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


#: Cooperative stop flag for graceful sweep shutdown.  Created in the
#: parent before the pool forks and inherited by the workers (it never
#: crosses a pickle boundary, so it stays compatible with executor-task
#: pickling); ``None`` on platforms without fork, where interrupts fall
#: back to the executor's own teardown.
_STOP_EVENT = None


def _worker_initializer() -> None:
    """Pool workers ignore SIGINT/SIGTERM: the parent coordinates shutdown
    via :data:`_STOP_EVENT`, and a signal delivered mid-sqlite-write would
    quarantine the shared synthesis cache (``*.corrupt``)."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    except (OSError, ValueError):  # pragma: no cover - exotic platforms
        pass


def _run_shard(spec: SessionSpec, config: ExperimentConfig,
               items: Sequence[Tuple[int, Microbenchmark]]) -> dict:
    """Worker body: map one shard on a private session.

    Returns plain dicts only — the payload crosses the process boundary, so
    records ship in their :meth:`MappingRecord.to_dict` wire format keyed
    by original input index.  If the parent requests a stop the shard
    drains: the in-flight benchmark finishes, the rest are skipped, and the
    ``with`` exit closes the session (flushing cache counters) as usual.
    """
    with spec.build() as session:
        records = []
        for index, benchmark in items:
            if _STOP_EVENT is not None and _STOP_EVENT.is_set():
                break
            records.append((index,
                            map_benchmark(session, benchmark, config).to_dict()))
        return {
            "records": records,
            "cache": dict(session.cache_stats()),
            "wins": dict(session.portfolio_wins()),
        }


def _pool_context():
    """Prefer ``fork`` (cheap, inherits the warm interpreter); fall back to
    the platform default where it does not exist."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def run_sweep(benchmarks: Sequence[Microbenchmark],
              config: Optional[ExperimentConfig] = None,
              workers: Optional[int] = None,
              session=None,
              session_spec: Optional[SessionSpec] = None) -> SweepResult:
    """Run a (possibly sharded) Lakeroad sweep and aggregate statistics.

    ``workers`` defaults to ``config.workers``; 1 runs in-process on
    ``session`` (built from ``session_spec``/``config`` when omitted).
    With more workers the benchmarks are dealt round-robin across shards —
    widths (and therefore synthesis costs) trend upward through enumeration
    order, so interleaving balances the shards — and the merged records are
    returned in input order.

    The returned :class:`SweepResult` merges the per-record solver
    counters over the designs that actually ran synthesis this run
    (:attr:`SweepResult.stats`).  Among them, ``db_size_peak`` — the
    largest learned-clause database any candidate solver reached, which
    the solver's LBD clause reduction keeps bounded — is the number to
    watch on paper-scale enumerations with hard candidate queries.
    """
    config = config or ExperimentConfig()
    benchmarks = list(benchmarks)
    if workers is None:
        workers = config.workers
    workers = max(1, int(workers))
    workers = min(workers, len(benchmarks)) if benchmarks else 1
    spec = session_spec if session_spec is not None else SessionSpec.from_config(config)

    if workers == 1:
        own_session = session is None
        if own_session:
            session = spec.build()
        try:
            records = []
            try:
                for benchmark in benchmarks:
                    records.append(map_benchmark(session, benchmark, config))
            except KeyboardInterrupt:
                # Drain semantics for the serial case: keep what completed;
                # the finally below closes the session, flushing the disk
                # cache's lifetime counters.
                raise SweepInterrupted(SweepResult(
                    records=records,
                    cache_stats=dict(session.cache_stats()),
                    portfolio_wins=dict(session.portfolio_wins()),
                    workers=1)) from None
            return SweepResult(records=records,
                               cache_stats=dict(session.cache_stats()),
                               portfolio_wins=dict(session.portfolio_wins()),
                               workers=1)
        finally:
            if own_session:
                session.close()

    if session is not None:
        raise ValueError("an in-memory session cannot be shared across worker "
                         "processes; pass a SessionSpec (or config.cache_dir) "
                         "instead")

    shards: List[List[Tuple[int, Microbenchmark]]] = [[] for _ in range(workers)]
    for index, benchmark in enumerate(benchmarks):
        shards[index % workers].append((index, benchmark))

    merged: List[Optional[MappingRecord]] = [None] * len(benchmarks)
    cache_totals: Counter = Counter()
    win_totals: Counter = Counter()

    def _merge(payload: dict) -> None:
        for index, data in payload["records"]:
            merged[index] = MappingRecord.from_dict(data)
        cache_totals.update(payload["cache"])
        win_totals.update(payload["wins"])

    global _STOP_EVENT
    context = _pool_context()
    stop_event = context.Event() if context is not None else None
    _STOP_EVENT = stop_event
    interrupted = False
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=context,
                                 initializer=_worker_initializer) as pool:
            futures = [pool.submit(_run_shard, spec, config, shard)
                       for shard in shards]
            try:
                for future in futures:
                    _merge(future.result())
            except KeyboardInterrupt:
                # Graceful drain: tell workers to stop after their current
                # item, then collect every shard's partial payload.  The
                # workers ignore the terminal's SIGINT, so they are still
                # alive to finish and flush their sessions.
                interrupted = True
                if stop_event is not None:
                    stop_event.set()
                for future in futures:
                    try:
                        _merge(future.result(timeout=600))
                    except Exception:  # noqa: BLE001 - partial drain
                        pass
    finally:
        _STOP_EVENT = None

    if interrupted:
        raise SweepInterrupted(SweepResult(
            records=[record for record in merged if record is not None],
            cache_stats=dict(cache_totals),
            portfolio_wins=dict(win_totals),
            workers=workers))

    assert all(record is not None for record in merged), \
        "sharding lost records (worker returned a partial shard)"
    return SweepResult(records=merged,  # type: ignore[arg-type]
                       cache_stats=dict(cache_totals),
                       portfolio_wins=dict(win_totals),
                       workers=workers)


def run_lakeroad_parallel(benchmarks: Sequence[Microbenchmark],
                          config: Optional[ExperimentConfig] = None,
                          workers: Optional[int] = None,
                          session_spec: Optional[SessionSpec] = None
                          ) -> List[MappingRecord]:
    """The sharded sweep as a drop-in for :func:`run_lakeroad`.

    Returns the merged records in input order; ``workers=1`` is the serial
    run on one in-process session.  Use :func:`run_sweep` when the
    aggregated cache/portfolio statistics are needed too.
    """
    return run_sweep(benchmarks, config, workers=workers,
                     session_spec=session_spec).records
