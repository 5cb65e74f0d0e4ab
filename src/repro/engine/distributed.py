"""Cross-machine distributed sweeps: a TCP coordinator and worker nodes.

``run_sweep`` shards a benchmark grid across local processes; this module
takes the same grid across machines while keeping the invariant every
parallel layer in this repo is pinned to: **distributed ≡ serial record
equality**.  The shape follows the classic cluster-computing playbook —
a coordinator owning the work queue, workers pulling shards when idle:

* **Wire format** — the service's newline-delimited JSON protocol
  (requests carry ``id``/``op``, responses echo ``id`` and ``ok``) over
  plain TCP, served by the service's one socket layer
  (:class:`~repro.engine.service.ServerThread`): the coordinator is only
  an ``answer`` coroutine for its ops, so it shares the per-connection
  stream limit, overrun recovery, pipelining and graceful drain of
  ``lakeroad serve``.  Nothing pickled crosses the network: benchmarks,
  configs and session specs travel as their ``to_dict`` wire forms and
  results as :meth:`MappingRecord.to_dict` payloads.
* **Handshake** — workers open with ``hello`` carrying a shared token
  (compared via :func:`hmac.compare_digest`); the reply carries the
  :class:`SessionSpec`/:class:`ExperimentConfig` JSON the worker builds
  its :class:`MappingSession` from.  Workers sharing a ``cache_dir``
  share its disk cache; no cache entry crosses the wire.
* **Work stealing** — workers pull the next shard when idle (``next``),
  renew a per-shard lease while solving (``heartbeat``), and stream the
  shard's records back (``result``).  A reaper on the server's loop
  expires leases and requeues their shards, so a dead or wedged worker's
  work is reassigned; a per-shard retry budget fails the sweep loudly
  instead of spinning forever.  A ``next`` with nothing to lease is held
  until a shard is requeued or the sweep ends, for at most one poll
  interval, so an idle worker hears ``done`` as soon as the last shard
  merges.
* **Exactly-once merge** — shards are merged by shard id: the first
  complete result for a shard wins, later duplicates (a slow-but-alive
  worker racing its own reassignment) are acknowledged with
  ``accepted: false`` and discarded.  Records land in a slot array keyed
  by global input index, so the merged list preserves input order no
  matter which worker finished first — the same determinism argument as
  :func:`repro.engine.parallel.run_sweep`.
* **Artifacts + resume** — accepted shards are written as per-shard
  JSONL files under ``artifact_dir`` next to a grid-fingerprint
  manifest; a restarted coordinator with a matching manifest resumes
  from the completed shards instead of recomputing them.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import json
import os
import secrets
import signal
import socket as socket_mod
import sys
import threading
import time
from collections import Counter, deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.parallel import (SessionSpec, SweepResult, _fork_context,
                                   merge_cache_stats)
from repro.engine.service import Connection, ServerThread, ServiceClient
from repro.harness.runner import ExperimentConfig, MappingRecord, map_benchmark
from repro.workloads.generator import Microbenchmark

__all__ = ["PROTOCOL_VERSION", "DEFAULT_SHARD_SIZE", "DEFAULT_LEASE_TIMEOUT",
           "DEFAULT_RETRY_BUDGET", "CoordinatorUnreachable", "WorkerRejected",
           "DistributedSweepResult", "SweepCoordinator", "run_worker",
           "run_distributed_sweep", "parse_address"]

#: Bumped when the coordinator/worker message shapes change incompatibly;
#: the handshake carries it so mismatched nodes fail with a clear error.
#: v2: records carry their solver counters as one nested ``stats`` map.
#: Both sides ignore message keys they do not know, so a v2 peer that still
#: ships disk-cache entries in ``hello``/``result`` works with one that
#: neither sends nor reads them.
PROTOCOL_VERSION = 2

DEFAULT_SHARD_SIZE = 4
DEFAULT_LEASE_TIMEOUT = 30.0
DEFAULT_RETRY_BUDGET = 3

MANIFEST_NAME = "MANIFEST.json"

_UNSET = object()


class CoordinatorUnreachable(ConnectionError):
    """The worker exhausted its reconnect budget without a coordinator."""


class WorkerRejected(RuntimeError):
    """The coordinator refused the handshake (bad token or protocol)."""


def parse_address(text: str) -> Tuple[str, int]:
    """``"HOST:PORT"`` → ``(host, port)`` (host defaults to loopback)."""
    host, sep, port = str(text).rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return (host or "127.0.0.1", int(port))


@dataclass
class DistributedSweepResult(SweepResult):
    """A merged distributed sweep: everything :class:`SweepResult` carries
    plus the coordinator's scheduling telemetry (shards completed / stolen
    / retried, per-worker throughput, straggler p95)."""

    telemetry: Dict[str, Any] = field(default_factory=dict)


class _Lease:
    """One outstanding shard assignment (all mutation on the server's loop)."""

    __slots__ = ("shard_id", "conn_id", "worker", "deadline", "dispatched_at")

    def __init__(self, shard_id: int, conn_id: int, worker: str,
                 deadline: float, dispatched_at: float) -> None:
        self.shard_id = shard_id
        self.conn_id = conn_id
        self.worker = worker
        self.deadline = deadline
        self.dispatched_at = dispatched_at


class SweepCoordinator:
    """Serves sweep shards to TCP workers and merges their records.

    The coordinator answers its ops on a
    :class:`~repro.engine.service.ServerThread`, whose loop also runs the
    lease reaper; every piece of scheduling state (queue, leases, merge
    slots, telemetry) is touched only from that loop, so the ops need no
    locks.  The public surface — :meth:`start`, :meth:`wait`,
    :meth:`telemetry`, :meth:`close` — is safe to call from any thread.
    """

    def __init__(self, benchmarks: Sequence[Microbenchmark],
                 config: Optional[ExperimentConfig] = None,
                 session_spec: Optional[SessionSpec] = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 token: Optional[str] = None,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 retry_budget: int = DEFAULT_RETRY_BUDGET,
                 artifact_dir=None) -> None:
        self.benchmarks = list(benchmarks)
        if not self.benchmarks:
            raise ValueError("a distributed sweep needs at least one benchmark")
        self.config = config if config is not None else ExperimentConfig()
        self.spec = session_spec if session_spec is not None \
            else SessionSpec()
        self.host = host
        self.port = int(port)
        self.token = token if token is not None else secrets.token_hex(16)
        self.shard_size = max(1, int(shard_size))
        self.lease_timeout = float(lease_timeout)
        self.retry_budget = max(0, int(retry_budget))
        #: How often the reaper runs, and how long a ``next`` with nothing
        #: to lease is held.
        self._poll_interval = max(0.05, min(1.0, self.lease_timeout / 4.0))
        self.artifact_dir = Path(artifact_dir) if artifact_dir else None

        self._shards: List[List[Tuple[int, Microbenchmark]]] = [
            list(enumerate(self.benchmarks))[start:start + self.shard_size]
            for start in range(0, len(self.benchmarks), self.shard_size)]
        self._queue: Deque[int] = deque(range(len(self._shards)))
        self._leases: Dict[int, _Lease] = {}
        self._completed: Dict[int, int] = {}
        self._retries: Dict[int, int] = {}
        self._merged: List[Optional[dict]] = [None] * len(self.benchmarks)
        self._worker_cache: Dict[str, Dict[str, int]] = {}
        self._worker_stats: Dict[str, Dict[str, float]] = {}
        self._shard_seconds: List[float] = []
        self._counters: Counter = Counter()
        #: The worker name of each connection that passed ``hello``.
        self._workers: Dict[int, str] = {}
        self._failure: Optional[str] = None
        self._result: Optional[DistributedSweepResult] = None
        self._done = threading.Event()
        #: Set when a shard is requeued or the sweep ends: the news a held
        #: ``next`` waits for.
        self._news = asyncio.Event()
        self._server: Optional[ServerThread] = None
        self._reaping: Optional[Future] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> Tuple[str, int]:
        """Bind and serve on a background thread; returns (host, port)."""
        if self._server is not None:
            raise RuntimeError("coordinator already started")
        if self.artifact_dir is not None:
            self._load_artifacts()
        # Everything may already be merged (a full resume from artifacts).
        self._maybe_finish()
        try:
            self._server = ServerThread(self._answer, (self.host, self.port))
        except OSError as exc:
            raise RuntimeError(
                f"coordinator could not bind {self.host}:{self.port}: "
                f"{exc}") from exc
        self.port = self._server.address[1]
        self._reaping = asyncio.run_coroutine_threadsafe(self._reaper(),
                                                         self._server.loop)
        return (self.host, self.port)

    def wait(self, timeout: Optional[float] = None) -> DistributedSweepResult:
        """Block until every shard is merged (or the sweep fails)."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"distributed sweep incomplete after {timeout}s "
                f"({len(self._completed)}/{len(self._shards)} shards)")
        if self._failure is not None:
            raise RuntimeError(self._failure)
        assert self._result is not None
        return self._result

    def close(self, linger: float = 2.0) -> None:
        """Stop serving.  ``linger`` gives connected workers a moment to
        poll once more and see ``done`` instead of a reset connection."""
        if self._server is None or self._server.loop.is_closed():
            return
        deadline = time.monotonic() + max(0.0, linger)
        while self._workers and time.monotonic() < deadline:
            time.sleep(0.05)
        self._reaping.cancel()
        # Answer held ``next`` requests now rather than at their poll
        # interval, so the drain does not wait for them.
        self._server.loop.call_soon_threadsafe(self._news.set)
        self._server.close()

    def __enter__(self) -> "SweepCoordinator":
        if self._server is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Protocol (on the server's loop)
    # ------------------------------------------------------------------ #
    async def _reaper(self) -> None:
        while True:
            await asyncio.sleep(self._poll_interval)
            self._expire_leases()

    async def _answer(self, message: dict, conn: Connection) -> dict:
        request_id = message.get("id")
        op = message.get("op")
        if op == "hello":
            return self._op_hello(conn, message, request_id)
        if conn.number not in self._workers:
            conn.hang_up = True
            return {"id": request_id, "ok": False,
                    "error": "handshake required (send hello first)"}
        if op == "next":
            response = self._op_next(conn.number, request_id)
            if "wait" in response:
                response = await self._held_next(conn.number, request_id)
            return response
        if op == "heartbeat":
            return self._op_heartbeat(conn.number, message, request_id)
        if op == "result":
            return self._op_result(conn.number, message, request_id)
        if op == "ping":
            return {"id": request_id, "ok": True, "pong": True}
        return {"id": request_id, "ok": False,
                "error": f"unknown op {op!r}"}

    async def _held_next(self, conn_id: int, request_id) -> dict:
        """Answer a ``next`` that found nothing to lease once there is
        news (a requeued shard, the end of the sweep) or a poll interval
        has passed."""
        # No await since _op_next found nothing, so no news is lost here.
        self._news.clear()
        try:
            await asyncio.wait_for(self._news.wait(), self._poll_interval)
        except asyncio.TimeoutError:
            pass
        return self._op_next(conn_id, request_id)

    def _op_hello(self, conn: Connection, message: dict,
                  request_id) -> dict:
        token = str(message.get("token", ""))
        if not hmac.compare_digest(token, self.token):
            conn.hang_up = True
            return {"id": request_id, "ok": False, "error": "bad token"}
        protocol = int(message.get("protocol", PROTOCOL_VERSION))
        if protocol != PROTOCOL_VERSION:
            conn.hang_up = True
            return {"id": request_id, "ok": False,
                    "error": f"protocol mismatch: coordinator speaks "
                             f"{PROTOCOL_VERSION}, worker {protocol}"}
        self._workers[conn.number] = str(message.get("worker")
                                         or f"worker-{conn.number}")
        conn.on_close = partial(self._release_conn, conn.number)
        return {"id": request_id, "ok": True,
                "protocol": PROTOCOL_VERSION,
                "spec": self.spec.to_dict(),
                "config": self.config.to_dict(),
                "shards": len(self._shards),
                "total": len(self.benchmarks),
                "shard_size": self.shard_size,
                "lease_timeout": self.lease_timeout,
                "resumed": int(self._counters["shards_resumed"])}

    def _op_next(self, conn_id: int, request_id) -> dict:
        self._expire_leases()
        if self._failure is not None:
            return {"id": request_id, "ok": False, "error": self._failure}
        if len(self._completed) == len(self._shards):
            return {"id": request_id, "ok": True, "shard": None, "done": True}
        shard_id = None
        while self._queue:
            candidate = self._queue.popleft()
            if candidate not in self._completed:
                shard_id = candidate
                break
        if shard_id is None:
            # _answer holds this reply (_held_next), so the worker has
            # waited already when it gets it: ``wait: 0``, ask again.
            return {"id": request_id, "ok": True, "shard": None, "wait": 0}
        now = time.monotonic()
        self._leases[shard_id] = _Lease(shard_id, conn_id,
                                        self._workers[conn_id],
                                        now + self.lease_timeout, now)
        items = [[index, benchmark.to_dict()]
                 for index, benchmark in self._shards[shard_id]]
        return {"id": request_id, "ok": True,
                "shard": {"id": shard_id, "items": items}}

    def _op_heartbeat(self, conn_id: int, message: dict, request_id) -> dict:
        try:
            shard_id = int(message.get("shard"))
        except (TypeError, ValueError):
            return {"id": request_id, "ok": False, "error": "bad shard id"}
        lease = self._leases.get(shard_id)
        if lease is not None and lease.conn_id == conn_id:
            lease.deadline = time.monotonic() + self.lease_timeout
            return {"id": request_id, "ok": True, "abandon": False}
        # Completed, reassigned, or never leased to this worker: tell the
        # worker to drop the shard (its result would be a duplicate).
        return {"id": request_id, "ok": True, "abandon": True}

    def _op_result(self, conn_id: int, message: dict, request_id) -> dict:
        if self._failure is not None:
            return {"id": request_id, "ok": False, "error": self._failure}
        try:
            shard_id = int(message.get("shard"))
            if not 0 <= shard_id < len(self._shards):
                raise ValueError(shard_id)
        except (TypeError, ValueError):
            return {"id": request_id, "ok": False, "error": "bad shard id"}
        if shard_id in self._completed:
            # Exactly-once merge: the first complete result won.
            self._counters["duplicate_results"] += 1
            return {"id": request_id, "ok": True,
                    "accepted": False, "duplicate": True}
        expected = {index for index, _ in self._shards[shard_id]}
        received: Dict[int, dict] = {}
        for entry in message.get("records") or []:
            try:
                index, data = entry
                index = int(index)
            except (TypeError, ValueError):
                continue
            if index in expected and isinstance(data, dict):
                received[index] = data
        lease = self._leases.pop(shard_id, None)
        if set(received) != expected:
            self._requeue(shard_id,
                          f"incomplete result from {self._workers[conn_id]} "
                          f"({len(received)}/{len(expected)} records)")
            return {"id": request_id, "ok": True, "accepted": False,
                    "error": "incomplete shard"}
        for index, data in received.items():
            self._merged[index] = data
        self._completed[shard_id] = len(received)
        # A stolen shard the original worker still finished first may sit
        # requeued; completing it must also pull it out of the queue.
        try:
            self._queue.remove(shard_id)
        except ValueError:
            pass
        now = time.monotonic()
        started = lease.dispatched_at if lease is not None else now
        duration = max(0.0, now - started)
        self._shard_seconds.append(duration)
        worker = self._workers[conn_id]
        stats = self._worker_stats.setdefault(
            worker, {"shards": 0, "records": 0, "seconds": 0.0})
        stats["shards"] += 1
        stats["records"] += len(received)
        stats["seconds"] += duration
        self._worker_cache[worker] = dict(message.get("cache") or {})
        if self.artifact_dir is not None:
            _write_shard_artifact(self.artifact_dir, shard_id,
                                  received.items())
        self._maybe_finish()
        return {"id": request_id, "ok": True, "accepted": True}

    # ------------------------------------------------------------------ #
    # Scheduling (on the server's loop)
    # ------------------------------------------------------------------ #
    def _expire_leases(self) -> None:
        now = time.monotonic()
        for shard_id, lease in list(self._leases.items()):
            if lease.deadline < now:
                del self._leases[shard_id]
                self._counters["shards_stolen"] += 1
                self._requeue(shard_id,
                              f"lease expired on {lease.worker} "
                              f"(no heartbeat for {self.lease_timeout}s)")

    def _release_conn(self, conn_id: int) -> None:
        self._workers.pop(conn_id, None)
        for shard_id, lease in list(self._leases.items()):
            if lease.conn_id == conn_id:
                del self._leases[shard_id]
                self._requeue(shard_id,
                              f"worker {lease.worker} disconnected")

    def _requeue(self, shard_id: int, reason: str) -> None:
        if shard_id in self._completed:
            return
        self._retries[shard_id] = self._retries.get(shard_id, 0) + 1
        self._counters["shards_retried"] += 1
        if self._retries[shard_id] > self.retry_budget:
            self._fail(f"shard {shard_id} exhausted its retry budget "
                       f"({self.retry_budget}); last failure: {reason}")
            return
        # Front of the queue: a reassigned shard is the oldest work.
        self._queue.appendleft(shard_id)
        self._news.set()

    def _fail(self, message: str) -> None:
        if self._failure is None:
            self._failure = message
        self._done.set()
        self._news.set()

    def _maybe_finish(self) -> None:
        if self._failure is not None \
                or len(self._completed) != len(self._shards):
            return
        assert all(entry is not None for entry in self._merged), \
            "merge lost records despite all shards reporting complete"
        records = [MappingRecord.from_dict(entry) for entry in self._merged]
        # Workers build their sessions from this spec, so they are taken
        # to share its cache dir (one that run_worker pointed at another
        # disk is counted as if it did).
        cache_totals: Counter = Counter()
        for stats in self._worker_cache.values():
            merge_cache_stats(cache_totals, stats,
                              self.spec.cache_dir is not None)
        self._result = DistributedSweepResult(
            records=records,
            cache_stats=dict(cache_totals),
            workers=max(1, len(self._worker_stats)),
            telemetry=self.telemetry())
        self._done.set()
        self._news.set()

    def telemetry(self) -> Dict[str, Any]:
        """A snapshot of the scheduling counters (thread-safe to read)."""
        durations = sorted(self._shard_seconds)
        p95 = durations[int(0.95 * (len(durations) - 1))] if durations else 0.0
        workers = {}
        for name, stats in self._worker_stats.items():
            seconds = stats["seconds"]
            workers[name] = {
                "shards": int(stats["shards"]),
                "records": int(stats["records"]),
                "seconds": round(seconds, 6),
                "records_per_second":
                    stats["records"] / seconds if seconds > 0 else 0.0,
            }
        return {
            "shards": len(self._shards),
            "shard_size": self.shard_size,
            "shards_completed": len(self._completed),
            "shards_resumed": int(self._counters["shards_resumed"]),
            "shards_stolen": int(self._counters["shards_stolen"]),
            "shards_retried": int(self._counters["shards_retried"]),
            "duplicate_results": int(self._counters["duplicate_results"]),
            "active_leases": len(self._leases),
            "straggler_p95_seconds": p95,
            "workers": workers,
        }

    # ------------------------------------------------------------------ #
    # Artifacts
    # ------------------------------------------------------------------ #
    def _fingerprint(self) -> str:
        payload = {
            "benchmarks": [benchmark.to_dict()
                           for benchmark in self.benchmarks],
            "config": self.config.to_dict(),
            "spec": self.spec.to_dict(),
            "shard_size": self.shard_size,
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def _load_artifacts(self) -> None:
        """Resume completed shards from a previous coordinator's artifact
        directory; anything from a different grid is discarded."""
        self.artifact_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = self.artifact_dir / MANIFEST_NAME
        fingerprint = self._fingerprint()
        manifest = None
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError):
            manifest = None
        if not (isinstance(manifest, dict)
                and manifest.get("fingerprint") == fingerprint):
            # Different grid (or first run): stale shard files must not
            # survive to be mistaken for this grid's results later.
            for stale in self.artifact_dir.glob("shard-*.jsonl"):
                try:
                    stale.unlink()
                except OSError:
                    pass
            manifest_path.write_text(json.dumps({
                "fingerprint": fingerprint,
                "total": len(self.benchmarks),
                "shards": len(self._shards),
                "shard_size": self.shard_size,
            }, indent=2) + "\n")
            return
        resumed = []
        for shard_id in range(len(self._shards)):
            expected = {index for index, _ in self._shards[shard_id]}
            received: Dict[int, dict] = {}
            try:
                with _shard_path(self.artifact_dir,
                                 shard_id).open() as handle:
                    for line in handle:
                        if not line.strip():
                            continue
                        entry = json.loads(line)
                        index = int(entry["index"])
                        if index in expected:
                            received[index] = entry["record"]
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if set(received) != expected:
                continue  # partial artifact: recompute the shard
            for index, data in received.items():
                self._merged[index] = data
            self._completed[shard_id] = len(received)
            resumed.append(shard_id)
        self._counters["shards_resumed"] = len(resumed)
        self._queue = deque(shard_id for shard_id in self._queue
                            if shard_id not in self._completed)


# --------------------------------------------------------------------------- #
# Worker
# --------------------------------------------------------------------------- #
def run_worker(address, token: str, *, worker_name: Optional[str] = None,
               cache_dir=_UNSET, artifact_dir=None,
               reconnect_attempts: int = 5,
               reconnect_backoff: float = 0.25) -> Dict[str, int]:
    """Serve one worker node: pull shards, solve, stream records back.

    ``address`` is ``(host, port)`` or ``"host:port"``.  The session is
    built once from the coordinator's spec; ``cache_dir`` (when passed)
    overrides the spec's path for machines with different filesystems.
    Connection losses retry with bounded exponential backoff —
    :class:`CoordinatorUnreachable` when the budget runs out,
    :class:`WorkerRejected` immediately on a refused handshake.  Returns
    counters: shards/records contributed, duplicates, abandons.
    """
    if isinstance(address, str):
        address = parse_address(address)
    address = (str(address[0]), int(address[1]))
    name = worker_name or f"{socket_mod.gethostname()}-{os.getpid()}"
    artifact_dir = Path(artifact_dir) if artifact_dir else None
    if artifact_dir is not None:
        artifact_dir.mkdir(parents=True, exist_ok=True)
    stats: Dict[str, int] = {"shards": 0, "records": 0, "abandoned": 0,
                             "duplicates": 0, "reconnects": 0}
    session = None
    config: Optional[ExperimentConfig] = None
    attempts = 0

    def _sleep_backoff() -> None:
        time.sleep(min(reconnect_backoff * (2 ** max(0, attempts - 1)), 5.0))

    def _work_loop(client: ServiceClient, beat_every: float) -> bool:
        """Pull/solve/report until the coordinator says done (True) or the
        connection dies (an exception the outer loop turns into a retry)."""
        while True:
            response = client.request({"op": "next"}, timeout=30.0)
            if not response.get("ok"):
                raise RuntimeError(f"coordinator refused work: "
                                   f"{response.get('error', 'unknown error')}")
            shard = response.get("shard")
            if shard is None:
                if response.get("done"):
                    return True
                time.sleep(min(float(response.get("wait", 0.25)), 2.0))
                continue
            shard_id = int(shard["id"])
            items = [(int(index), Microbenchmark.from_dict(data))
                     for index, data in shard["items"]]
            abandoned = threading.Event()
            stop_beat = threading.Event()

            def _beat() -> None:
                while not stop_beat.wait(beat_every):
                    try:
                        reply = client.request(
                            {"op": "heartbeat", "shard": shard_id},
                            timeout=10.0)
                    except Exception:  # noqa: BLE001 - connection trouble
                        return  # the main loop will hit it too
                    if not reply.get("ok") or reply.get("abandon"):
                        abandoned.set()
                        return

            beat = threading.Thread(target=_beat, name="lakeroad-heartbeat",
                                    daemon=True)
            beat.start()
            records: List[Tuple[int, dict]] = []
            try:
                for index, benchmark in items:
                    if abandoned.is_set():
                        break
                    record = map_benchmark(session, benchmark, config)
                    records.append((index, record.to_dict()))
            finally:
                stop_beat.set()
                beat.join(timeout=10.0)
            if abandoned.is_set() and len(records) < len(items):
                # The shard was reassigned mid-solve; drop the partial work.
                stats["abandoned"] += 1
                continue
            if artifact_dir is not None:
                # A worker-local copy, for post-mortems on the worker side.
                _write_shard_artifact(artifact_dir, shard_id, records)
            reply = client.request(
                {"op": "result", "shard": shard_id, "records": records,
                 "cache": dict(session.cache_stats())}, timeout=120.0)
            if not reply.get("ok"):
                raise RuntimeError(f"coordinator rejected shard {shard_id}: "
                                   f"{reply.get('error', 'unknown error')}")
            if reply.get("accepted"):
                stats["shards"] += 1
                stats["records"] += len(records)
            else:
                stats["duplicates"] += 1

    try:
        while True:
            try:
                client = ServiceClient(address, connect_timeout=1.0)
            except OSError as exc:
                attempts += 1
                if attempts > reconnect_attempts:
                    raise CoordinatorUnreachable(
                        f"no coordinator at {address[0]}:{address[1]} "
                        f"after {attempts} attempt(s): {exc}") from exc
                _sleep_backoff()
                continue
            try:
                hello = client.request(
                    {"op": "hello", "token": token, "worker": name,
                     "protocol": PROTOCOL_VERSION}, timeout=30.0)
                if not hello.get("ok"):
                    raise WorkerRejected(
                        hello.get("error", "handshake rejected"))
                attempts = 0
                if session is None:
                    spec = SessionSpec.from_dict(hello["spec"])
                    if cache_dir is not _UNSET:
                        spec = replace(spec, cache_dir=cache_dir)
                    config = ExperimentConfig.from_dict(hello["config"])
                    session = spec.build()
                beat_every = max(0.05, min(10.0, float(hello.get(
                    "lease_timeout", DEFAULT_LEASE_TIMEOUT)) / 3.0))
                if _work_loop(client, beat_every):
                    return stats
                stats["reconnects"] += 1
            except WorkerRejected:
                raise
            except (ConnectionError, OSError, FutureTimeoutError) as exc:
                attempts += 1
                stats["reconnects"] += 1
                if attempts > reconnect_attempts:
                    raise CoordinatorUnreachable(
                        f"lost the coordinator at {address[0]}:{address[1]} "
                        f"after {attempts} attempt(s): {exc}") from exc
                _sleep_backoff()
            finally:
                client.close()
    finally:
        if session is not None:
            session.close()


def _shard_path(artifact_dir: Path, shard_id: int) -> Path:
    return artifact_dir / f"shard-{shard_id:05d}.jsonl"


def _write_shard_artifact(artifact_dir: Path, shard_id: int,
                          records: Iterable[Tuple[int, dict]]) -> None:
    """Write a shard's ``(index, record dict)`` pairs as index-ordered
    ``{"index", "record"}`` JSON lines, atomically (tmp file + replace);
    a write that fails leaves no partial file behind."""
    path = _shard_path(artifact_dir, shard_id)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as handle:
            for index, record in sorted(records):
                handle.write(json.dumps(
                    {"index": index, "record": record}) + "\n")
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass


# --------------------------------------------------------------------------- #
# Loopback fleet: the whole topology on one machine
# --------------------------------------------------------------------------- #
def _local_worker_main(address: Tuple[str, int], token: str,
                       name: str) -> None:
    """Entry point for loopback worker processes (module-level so it
    survives both fork and spawn start methods)."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (OSError, ValueError):  # pragma: no cover - exotic platforms
        pass
    try:
        run_worker(address, token, worker_name=name)
    except Exception:  # noqa: BLE001 - exit code is the report
        sys.exit(1)


def run_distributed_sweep(benchmarks: Sequence[Microbenchmark],
                          config: Optional[ExperimentConfig] = None,
                          workers: int = 2,
                          session_spec: Optional[SessionSpec] = None, *,
                          shard_size: int = DEFAULT_SHARD_SIZE,
                          lease_timeout: float = 15.0,
                          retry_budget: int = DEFAULT_RETRY_BUDGET,
                          artifact_dir=None,
                          timeout: float = 600.0) -> DistributedSweepResult:
    """The full coordinator/worker topology over loopback TCP.

    Spawns ``workers`` local worker processes against an in-process
    coordinator — the bench's distributed section, the failure-matrix
    tests and the CI smoke job all drive this one entry point.
    """
    coordinator = SweepCoordinator(
        benchmarks, config, session_spec, shard_size=shard_size,
        lease_timeout=lease_timeout, retry_budget=retry_budget,
        artifact_dir=artifact_dir)
    coordinator.start()
    context = _fork_context()
    processes = [
        context.Process(target=_local_worker_main,
                        args=((coordinator.host, coordinator.port),
                              coordinator.token, f"local-{rank}"),
                        daemon=True)
        for rank in range(max(1, int(workers)))]
    for process in processes:
        process.start()
    try:
        result = coordinator.wait(timeout=timeout)
    finally:
        for process in processes:
            process.join(timeout=15.0)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        coordinator.close()
    return result
