"""Lakeroad-as-a-service: a warm solver-worker pool behind a batching,
deduplicating front door.

Every ``lakeroad map`` invocation pays import + vendor-library load +
solver cold-start — fine for one hard instance, fatal for heavy traffic
over many *small* queries.  This module keeps the expensive state alive:

* **Worker pool** — a set of long-lived worker processes running the
  local worker body sharded sweeps use
  (:func:`repro.engine.parallel._worker_main`), each holding one warm
  :class:`~repro.engine.session.MappingSession` built from a
  :class:`~repro.engine.parallel.SessionSpec`.  The session — its
  primitive library and solver — survives across requests, so no request
  pays the process cold start.  The front door answers every repeat, so
  a worker session caches nothing unless the spec's ``cache_dir`` gives
  it a disk to write through to.
* **Front door** — :class:`SolverService`, a single dispatcher thread
  multiplexing worker pipes through a ``selectors`` loop (no threads per
  request, no new dependencies).  Before anything reaches a worker it is

  - **coalesced**: two concurrent requests with the same canonical
    synthesis-cache key (see
    :func:`repro.engine.session.synthesis_cache_key`) share one solve and
    each get their own reply;
  - **cache-checked**: an in-memory result cache, falling through to a
    read-only view of the persistent
    :class:`~repro.engine.diskcache.DiskSynthesisCache` when the spec has
    a ``cache_dir``, answers repeats without any IPC;
  - **sent to an idle worker**: a worker holds at most one request, so
    a request that still needs a solve waits in the front door until a
    worker is idle;
  - **crash-isolated**: a dead worker is restarted and its one in-flight
    request is re-sent — callers never see the crash.

* **QoS layer** — the front door is also a fair, bounded queue in front
  of a fixed pool of ``workers`` processes:

  - **per-client fairness**: submissions are tagged with a client id and
    held in per-client FIFO queues; a round-robin scheduler hands each
    idle worker the head of the client that has waited longest, so a
    flooding client cannot starve the others (order within a client is
    preserved);
  - **bounded admission**: a global ``max_pending`` cap and a per-client
    ``client_queue`` cap; a submission over either raises
    :class:`ServiceOverloaded` carrying a backlog-derived
    ``retry_after_ms`` hint, which the socket layer turns into a
    structured ``{"error": "overloaded", "retry_after_ms": ...}`` reply
    on a still-live connection.

* **Socket layer** — the one asyncio server both network planes run
  (:func:`_serve_main`): newline-delimited JSON on a unix socket or TCP,
  requests pipelined per connection, a line over
  :data:`DEFAULT_STREAM_LIMIT` answered with an error on a live
  connection, and a graceful drain on stop.  What a request means is an
  ``answer(message, conn)`` coroutine: ``lakeroad serve``
  (:func:`run_server`) answers ``ping``/``stats``/``map`` through the
  service, and the distributed sweep's
  :class:`~repro.engine.distributed.SweepCoordinator` answers its shard
  ops on a :class:`ServerThread`, whose loop also runs its lease reaper.
  :class:`ServiceClient` is the pipelining client of both (and the
  ``lakeroad request`` subcommand).  Control-plane ops (``ping``,
  ``stats``) never pass through admission — they are answered inline even
  when the map queue is saturated.

**Determinism contract.**  Workers execute the same per-request unit of
work as the serial sweep (:func:`repro.harness.runner.map_request`), the
front door derives byte-identical cache keys via
:func:`synthesis_cache_key`, and shared results are re-stamped with each
requester's own labels through :func:`repro.harness.runner.record_labels`,
the helper ``map_request`` stamps with — so served records equal serial
``run_sweep`` records (modulo wall-clock fields), regardless of
scheduling order.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import selectors
import signal
import socket
import threading
import time
import warnings
from collections import Counter, deque
from concurrent.futures import Future
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.engine.budget import TIMEOUT as TIMEOUT_STATUS
from repro.engine.budget import Budget
from repro.engine.cache import SynthesisCache
from repro.engine.parallel import SessionSpec, _start_worker, _stop_workers
from repro.harness.runner import (
    ExperimentConfig,
    MappingRecord,
    MapRequest,
    record_from_result,
    record_labels,
)

__all__ = ["MapRequest", "SolverService", "ServiceClient", "ServerThread",
           "Connection", "ServiceOverloaded", "run_server", "DEFAULT_SOCKET",
           "DEFAULT_STREAM_LIMIT"]

#: Default unix-socket path for ``lakeroad serve`` / ``lakeroad request``.
DEFAULT_SOCKET = "/tmp/lakeroad.sock"

#: Per-connection line limit of the socket layer.  asyncio's default
#: StreamReader limit is 64 KiB — smaller than a map request carrying a
#: large inlined Verilog source, and hitting it used to kill the
#: connection (``LimitOverrunError`` propagating out of ``readline``).
#: 16 MiB comfortably covers any design the engine can actually solve
#: while still bounding what one connection can buffer.
DEFAULT_STREAM_LIMIT = 16 * 1024 * 1024

#: Default global cap on admitted-but-unfinished map submissions.
DEFAULT_MAX_PENDING = 256

#: Default per-client cap on admitted-but-unfinished map submissions.
DEFAULT_CLIENT_QUEUE = 64


class ServiceOverloaded(RuntimeError):
    """The service refused a submission because a pending cap is full.

    ``retry_after_ms`` is the server's backlog-derived hint for when a
    retry is likely to be admitted; the socket layer forwards it verbatim
    in the structured ``overloaded`` reply.
    """

    def __init__(self, retry_after_ms: int,
                 reason: str = "pending queue is full") -> None:
        super().__init__(f"service overloaded: {reason} "
                         f"(retry in {retry_after_ms} ms)")
        self.retry_after_ms = retry_after_ms


# --------------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------------- #
def _restamp(payload: Dict[str, Any], labels: Dict[str, Any],
             cache_hit: bool, time_seconds: float) -> MappingRecord:
    """A shared result payload re-labelled for one requester.

    The outcome-derived fields (status, resources, solver telemetry) are
    replayed verbatim; ``labels`` (:func:`record_labels` of the
    requester's request) and the wall-clock fields belong to the
    requester.
    """
    return replace(MappingRecord.from_dict(payload), **labels,
                   cache_hit=cache_hit, time_seconds=time_seconds)


class _Pending:
    """One in-flight solve and every requester waiting on it."""

    __slots__ = ("key", "request", "waiters", "request_id", "submitted_at",
                 "admitted_by")

    def __init__(self, key, request: MapRequest, request_id: int,
                 admitted_by: str) -> None:
        self.key = key
        self.request = request
        #: ``(future, labels, client)`` triples: coalesced duplicates may
        #: carry different labels (sign twins share a fingerprint), so each
        #: waiter's record is stamped from its own request.
        self.waiters: List[Tuple[Future, Dict[str, Any], str]] = []
        self.request_id = request_id
        self.submitted_at = time.monotonic()
        #: The one client that passed ``_admit`` for this solve; coalesced
        #: duplicates ride along without taking a slot, so exactly this
        #: client's slot is returned when the solve resolves.
        self.admitted_by = admitted_by


class _WorkerHandle:
    """A worker process, its pipe, and the one request it is solving."""

    __slots__ = ("index", "process", "conn", "current", "served")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None
        #: Written to the pipe and not yet answered; ``None`` when idle.
        self.current: Optional[_Pending] = None
        self.served = 0


class SolverService:
    """The warm-pool front door: dedup, cache check, dispatch to idle
    workers, crash restart, per-client fair scheduling and bounded
    admission in front of a fixed pool of ``workers`` processes.

    Thread-safe: ``submit`` may be called from any thread (the asyncio
    socket layer calls it from executor threads); a single dispatcher
    thread owns the worker pipes.  Close the service (or use it as a
    context manager) to drain in-flight work, stop the workers cleanly and
    collect their session statistics.

    ``max_pending`` / ``client_queue`` are global and per-client caps on
    admitted-but-unfinished submissions (the defaults are effectively
    unbounded); over either, ``submit`` raises :class:`ServiceOverloaded`
    with a ``retry_after_ms`` hint.
    """

    def __init__(self, spec: Optional[SessionSpec] = None, workers: int = 2,
                 *, max_pending: int = DEFAULT_MAX_PENDING,
                 client_queue: int = DEFAULT_CLIENT_QUEUE) -> None:
        if workers < 1:
            raise ValueError("a service needs at least one worker")
        if max_pending < 1 or client_queue < 1:
            raise ValueError("pending caps must be at least 1")
        self.spec = spec if spec is not None else SessionSpec()
        #: What the workers build: the front door answers and coalesces
        #: every repeat before dispatch, so a worker's own store is only
        #: worth keeping as the writer of a shared disk cache.
        self._worker_spec = replace(
            self.spec,
            enable_cache=self.spec.enable_cache
            and self.spec.cache_dir is not None)
        self.workers = workers
        self.max_pending = max_pending
        self.client_queue = client_queue

        self._lock = threading.Lock()
        self._inflight: Dict[Any, _Pending] = {}
        #: Per-client FIFO queues of not-yet-sent submissions plus the
        #: round-robin rotation the fair scheduler walks: a client is in
        #: the rotation exactly while its queue is non-empty.
        self._client_queues: Dict[str, Deque[_Pending]] = {}
        self._rr_order: Deque[str] = deque()
        self._pending_total = 0
        self._client_pending: Counter = Counter()
        self._client_stats: Dict[str, Counter] = {}
        self._next_request_id = 0
        self._closed = False
        self._failed: Optional[str] = None
        self._drain_deadline: Optional[float] = None
        self._stats: Counter = Counter()
        self._worker_cache_stats: Counter = Counter()
        self._restarts_left = max(8, workers * 4)
        #: EMA of observed solve seconds, feeding the retry_after_ms hint.
        self._solve_ema: Optional[float] = None

        # Front-door result cache: an in-memory payload LRU, falling
        # through to the spec's persistent disk cache when one exists.  The
        # disk tier is read-only here — workers already write through to it,
        # and a second writer would double-write every entry.
        self._front_cache: Optional[SynthesisCache] = None
        self._disk = None
        if self.spec.enable_cache:
            self._front_cache = SynthesisCache()
            if self.spec.cache_dir is not None:
                from repro.engine.diskcache import DiskSynthesisCache

                self._disk = DiskSynthesisCache(self.spec.cache_dir)
        self._arch_names: Dict[str, str] = {}

        self._selector = selectors.DefaultSelector()
        self._waker_r, self._waker_w = os.pipe()
        os.set_blocking(self._waker_r, False)
        self._selector.register(self._waker_r, selectors.EVENT_READ,
                                data=None)
        self._pool = [_WorkerHandle(index) for index in range(workers)]
        for handle in self._pool:
            self._spawn(handle)
        self._thread = threading.Thread(target=self._dispatch_loop,
                                        name="lakeroad-service-dispatcher",
                                        daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Submission (any thread)
    # ------------------------------------------------------------------ #
    def submit(self, request: MapRequest,
               client: str = "") -> "Future[MappingRecord]":
        """Submit one request; the future resolves to a MappingRecord.

        ``client`` tags the submission for fair scheduling and the
        per-client pending cap (the socket layer passes a per-connection
        id; direct library callers share the default tag).  Raises
        :class:`ServiceOverloaded` when a pending cap is full — coalesced
        duplicates and front-cache hits are admitted for free.
        """
        future: "Future[MappingRecord]" = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if self._failed is not None:
                raise RuntimeError(f"service failed: {self._failed}")
        try:
            key, labels = self._key_and_labels(request)
        except Exception as exc:  # unparseable verilog, unknown arch, ...
            future.set_exception(exc)
            with self._lock:
                self._stats["requests"] += 1
                self._stats["errors"] += 1
            return future
        started = time.monotonic()
        caching = self._front_cache is not None and request.use_cache is not False
        with self._lock:
            self._stats["requests"] += 1
            self._client_counter(client)["submitted"] += 1
            pending = self._inflight.get(key)
            if pending is not None:
                pending.waiters.append((future, labels, client))
                self._stats["coalesced"] += 1
                return future
            if caching:
                payload = self._cache_get(key)
                if payload is not None:
                    self._client_counter(client)["served"] += 1
                    future.set_result(_restamp(
                        payload, labels, cache_hit=True,
                        time_seconds=time.monotonic() - started))
                    return future
            self._admit(client)
            self._next_request_id += 1
            pending = _Pending(key, request, self._next_request_id, client)
            pending.waiters.append((future, labels, client))
            self._inflight[key] = pending
            queue = self._client_queues.get(client)
            if queue is None:
                queue = deque()
                self._client_queues[client] = queue
                self._rr_order.append(client)
            queue.append(pending)
        self._wake()
        return future

    def map_benchmark(self, benchmark,
                      config: Optional[ExperimentConfig] = None,
                      client: str = "") -> "Future[MappingRecord]":
        return self.submit(MapRequest.from_benchmark(benchmark, config),
                           client=client)

    def _client_counter(self, client: str) -> Counter:
        """The per-client QoS counters (lock held)."""
        counter = self._client_stats.get(client)
        if counter is None:
            counter = Counter()
            self._client_stats[client] = counter
        return counter

    def _admit(self, client: str) -> None:
        """Reserve one pending slot for ``client`` or raise (lock held)."""
        if self._pending_total >= self.max_pending:
            reason = f"global pending cap ({self.max_pending}) reached"
        elif self._client_pending[client] >= self.client_queue:
            reason = (f"client {client or '<default>'!r} pending cap "
                      f"({self.client_queue}) reached")
        else:
            self._pending_total += 1
            self._client_pending[client] += 1
            return
        self._stats["rejections"] += 1
        self._client_counter(client)["rejected"] += 1
        raise ServiceOverloaded(self._retry_after_ms(), reason)

    def _retry_after_ms(self) -> int:
        """Backlog-derived retry hint (lock held): roughly one average
        solve per backlog slot per worker, clamped to [50 ms, 10 s]."""
        ema = self._solve_ema if self._solve_ema is not None else 0.25
        estimate = ema * (1.0 + self._pending_total / self.workers)
        return int(min(10_000.0, max(50.0, estimate * 1000.0)))

    def _release_slots(self, pending: _Pending) -> None:
        """Return the one admission slot this solve took (lock held).

        Only ``pending.admitted_by`` passed ``_admit``; coalesced
        duplicates and front-cache hits never took a slot, so releasing
        per-waiter would over-credit the caps until backpressure stopped
        triggering.  The ``served`` counter, by contrast, *is* per-waiter.
        """
        admitted = pending.admitted_by
        if self._pending_total > 0:
            self._pending_total -= 1
        if self._client_pending[admitted] <= 1:
            self._client_pending.pop(admitted, None)
        else:
            self._client_pending[admitted] -= 1
        for _, _, client in pending.waiters:
            self._client_counter(client)["served"] += 1

    def _key_and_labels(self, request: MapRequest
                        ) -> Tuple[Any, Dict[str, Any]]:
        """The dedup/cache key for one request and the labels its record
        carries.

        The key must match :meth:`MappingSession.map_design`'s derivation
        exactly (both go through :func:`synthesis_cache_key`), and the
        labels ``map_request``'s (both go through :func:`record_labels`).
        """
        from repro.engine.session import synthesis_cache_key
        from repro.hdl.behavioral import verilog_to_behavioral

        design = verilog_to_behavioral(request.verilog, request.module_name)
        arch_name = self._arch_name(request.arch)
        budget = Budget.for_architecture(arch_name,
                                         override=request.timeout_seconds)
        key = synthesis_cache_key(design, arch_name, request.template,
                                  budget, request.extra_cycles,
                                  request.validate)
        return key, record_labels(request, design)

    def _arch_name(self, arch: str) -> str:
        name = self._arch_names.get(arch)
        if name is None:
            from repro.arch import load_architecture

            name = load_architecture(str(arch)).name
            self._arch_names[arch] = name
        return name

    def _cache_get(self, key) -> Optional[Dict[str, Any]]:
        """Front-door lookup (lock held): memory first, then the disk tier."""
        payload = self._front_cache.get(key)
        if payload is not None:
            self._stats["front_memory_hits"] += 1
            return payload
        if self._disk is not None:
            result = self._disk.get(key)
            if result is not None:
                self._stats["front_disk_hits"] += 1
                payload = record_from_result(
                    result, architecture=result.architecture,
                    benchmark=result.design_name).to_dict()
                self._front_cache.put(key, payload)
                return payload
        return None

    # ------------------------------------------------------------------ #
    # Dispatcher thread
    # ------------------------------------------------------------------ #
    def _wake(self) -> None:
        try:
            os.write(self._waker_w, b"x")
        except OSError:  # pragma: no cover - closed during shutdown
            pass

    def _dispatch_loop(self) -> None:
        try:
            while True:
                events = self._selector.select(timeout=0.25)
                for key, _ in events:
                    if key.data is None:
                        try:
                            os.read(self._waker_r, 65536)
                        except OSError:
                            pass
                    else:
                        self._drain_worker(key.data)
                self._assign_submissions()
                with self._lock:
                    done = self._closed and not self._inflight
                    expired = self._drain_deadline is not None \
                        and time.monotonic() > self._drain_deadline
                if done or expired:
                    break
        except Exception as exc:  # noqa: BLE001 - never die silently
            self._fail(f"dispatcher crashed: {type(exc).__name__}: {exc}")
        finally:
            self._shutdown_workers()

    def _assign_submissions(self) -> None:
        """Round-robin dispatch from client queues to idle workers.

        Each idle worker, lowest index first, takes the head of the client
        at the front of the rotation, and that client moves to the back —
        so the next idle worker goes to whoever waited longest, and a
        flooder's queue depth cannot delay another client by more than
        one request per rotation.  FIFO within a client is absolute: only
        a client's head is ever sent.
        """
        for handle in self._pool:
            if handle.current is not None:
                continue
            with self._lock:
                if not self._rr_order:
                    return
                client = self._rr_order.popleft()
                queue = self._client_queues[client]
                pending = queue.popleft()
                if queue:
                    self._rr_order.append(client)
                else:
                    del self._client_queues[client]
                self._stats["dispatched"] += 1
            self._send(handle, pending)

    def _send(self, handle: _WorkerHandle, pending: _Pending) -> None:
        """Make ``pending`` the worker's one request and write it."""
        handle.current = pending
        try:
            handle.conn.send(("request", pending.request_id, pending.request))
        except (BrokenPipeError, OSError):
            self._restart(handle)

    def _drain_worker(self, handle: _WorkerHandle) -> None:
        try:
            while handle.conn.poll():
                message = handle.conn.recv()
                self._handle_message(handle, message)
        except (EOFError, OSError):
            self._restart(handle)

    def _handle_message(self, handle: _WorkerHandle, message) -> None:
        kind, _, payload = message
        pending, handle.current = handle.current, None
        if pending is None:  # _fail already failed this request
            return
        handle.served += 1
        if kind == "error":
            with self._lock:
                self._inflight.pop(pending.key, None)
                self._stats["errors"] += 1
                self._release_slots(pending)
            error = RuntimeError(payload)
            for future, _, _ in pending.waiters:
                future.set_exception(error)
            return
        now = time.monotonic()
        caching = self._front_cache is not None \
            and pending.request.use_cache is not False \
            and payload["outcome"] != TIMEOUT_STATUS
        with self._lock:
            # Publish to the cache *before* dropping the in-flight entry:
            # a submit racing this completion must land on one or the
            # other, never dispatch a duplicate solve.
            if caching:
                self._front_cache.put(pending.key, payload)
            self._inflight.pop(pending.key, None)
            self._stats["completed"] += 1
            if payload.get("cache_hit"):
                self._stats["worker_cache_hits"] += 1
            self._release_slots(pending)
            solve_seconds = float(payload.get("time_seconds") or 0.0)
            if self._solve_ema is None:
                self._solve_ema = solve_seconds
            else:
                self._solve_ema = 0.2 * solve_seconds + 0.8 * self._solve_ema
        # The first waiter is the request that actually solved; coalesced
        # duplicates are warm serves, exactly as the session cache would
        # have treated them had they arrived sequentially.
        first, *rest = pending.waiters
        first[0].set_result(_restamp(payload, first[1],
                                     cache_hit=bool(payload.get("cache_hit")),
                                     time_seconds=payload["time_seconds"]))
        for future, labels, _ in rest:
            future.set_result(_restamp(payload, labels, cache_hit=True,
                                       time_seconds=now - pending.submitted_at))

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(self, handle: _WorkerHandle) -> None:
        handle.process, handle.conn = _start_worker(
            self._worker_spec, f"lakeroad-worker-{handle.index}")
        self._selector.register(handle.conn, selectors.EVENT_READ,
                                data=handle)

    def _retire(self, handle: _WorkerHandle, kill_timeout: float = 5.0) -> None:
        try:
            self._selector.unregister(handle.conn)
        except (KeyError, ValueError, OSError):
            # Not registered, or already retired once (the connection's fd
            # is gone) — retiring is idempotent.
            pass
        try:
            handle.conn.close()
        except OSError:
            pass
        process = handle.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(kill_timeout)
            if process.is_alive():  # pragma: no cover - stuck in C code
                process.kill()
                process.join(kill_timeout)

    def _restart(self, handle: _WorkerHandle) -> None:
        """Replace a dead worker and re-send the request it was solving."""
        with self._lock:
            stopping = self._closed and not self._inflight
            exhausted = not stopping and self._restarts_left <= 0
            if not stopping and not exhausted:
                self._restarts_left -= 1
                self._stats["worker_restarts"] += 1
        if exhausted:
            # Retire the dead pipe first or its EOF-ready fd would spin the
            # selector loop forever.
            self._retire(handle)
            self._fail("worker crashed more times than the restart budget "
                       "allows (is the SessionSpec buildable?)")
            return
        self._retire(handle)
        self._spawn(handle)
        if handle.current is not None:
            self._send(handle, handle.current)

    def _fail(self, reason: str) -> None:
        """Terminal failure: refuse new work, fail everything queued and in
        flight (a busy worker's late reply is then dropped)."""
        for handle in self._pool:
            handle.current = None
        with self._lock:
            self._failed = reason
            pendings = list(self._inflight.values())
            self._inflight.clear()
            self._client_queues.clear()
            self._rr_order.clear()
            for pending in pendings:
                self._release_slots(pending)
        error = RuntimeError(f"service failed: {reason}")
        for pending in pendings:
            for future, _, _ in pending.waiters:
                if not future.done():
                    future.set_exception(error)
        warnings.warn(f"lakeroad service: {reason}", RuntimeWarning,
                      stacklevel=2)

    def _shutdown_workers(self) -> None:
        # Anything still pending past the drain deadline fails loudly
        # rather than hanging its callers forever.
        with self._lock:
            leftovers = list(self._inflight.values())
            self._inflight.clear()
            self._client_queues.clear()
            self._rr_order.clear()
            for pending in leftovers:
                self._release_slots(pending)
        if leftovers:
            error = RuntimeError("service shut down before this request "
                                 "completed (drain timeout)")
            for pending in leftovers:
                for future, _, _ in pending.waiters:
                    if not future.done():
                        future.set_exception(error)
        _stop_workers([(handle.process, handle.conn) for handle in self._pool],
                      self._worker_cache_stats, self.spec.cache_dir is not None)
        for handle in self._pool:
            self._retire(handle)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Front-door counters; ``warm_hit_rate`` is the share of requests
        served without a fresh solve (front-door hits, coalesced
        duplicates, and worker-session cache hits).  The QoS block adds
        pool-size, rejection and per-client counters."""
        with self._lock:
            stats = dict(self._stats)
            stats["pending"] = self._pending_total
            stats["clients"] = {client: dict(counter)
                                for client, counter in
                                self._client_stats.items()}
        for key in ("requests", "coalesced", "front_memory_hits",
                    "front_disk_hits", "dispatched", "completed",
                    "worker_cache_hits", "worker_restarts", "errors",
                    "rejections"):
            stats.setdefault(key, 0)
        warm = (stats["coalesced"] + stats["front_memory_hits"]
                + stats["front_disk_hits"] + stats["worker_cache_hits"])
        stats["warm_served"] = warm
        stats["warm_hit_rate"] = warm / stats["requests"] \
            if stats["requests"] else 0.0
        stats["workers"] = self.workers
        stats["in_flight"] = len(self._inflight)
        stats["worker_requests"] = [handle.served for handle in self._pool]
        return stats

    def worker_cache_stats(self) -> Dict[str, int]:
        """The worker sessions' cache counters, merged like a sharded
        sweep's (complete after close)."""
        return dict(self._worker_cache_stats)

    def close(self, timeout: float = 30.0) -> None:
        """Drain in-flight requests, stop workers cleanly, release pipes.

        Requests still running when ``timeout`` expires fail with a
        RuntimeError instead of hanging their callers.  Safe to call more
        than once.
        """
        with self._lock:
            if self._closed:
                already = True
            else:
                already = False
                self._closed = True
                self._drain_deadline = time.monotonic() + timeout
        if not already:
            self._wake()
        self._thread.join(timeout + 15.0)
        if self._disk is not None:
            self._disk.close()
            self._disk = None
        try:
            os.close(self._waker_w)
            os.close(self._waker_r)
        except OSError:
            pass
        try:
            self._selector.close()
        except (OSError, RuntimeError):  # pragma: no cover
            pass

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Socket layer: newline-delimited JSON over a unix or TCP socket
# --------------------------------------------------------------------------- #
class Connection:
    """One client connection, as an ``answer`` coroutine sees it."""

    __slots__ = ("number", "hang_up", "on_close")

    def __init__(self, number: int) -> None:
        #: 1, 2, ... in accept order on one server.
        self.number = number
        #: Set by ``answer`` to close the connection once its reply is
        #: written.
        self.hang_up = False
        #: Called once when the connection ends.
        self.on_close: Optional[Callable[[], None]] = None


async def _readline_limited(reader) -> Tuple[bytes, bool]:
    """``reader.readline()`` that survives an oversized line.

    Returns ``(line, overrun)``.  A line exceeding the stream limit makes
    ``readline`` raise (``LimitOverrunError`` surfaced as ``ValueError``)
    and clear the buffer at an arbitrary point, which can also swallow the
    *next* legitimate request; propagating it kills the connection.  This
    drains the oversized line through its terminating newline — discarding
    it chunk by chunk without ever buffering past the limit — and reports
    ``(b"", True)`` so the caller can answer with a structured JSON error
    and keep serving the connection.
    """
    overrun = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            # EOF: mid-drain the partial tail is garbage, otherwise an
            # unterminated final line is returned as readline would.
            return (b"" if overrun else exc.partial), overrun
        except asyncio.LimitOverrunError as exc:
            # ``consumed`` bytes are known not to contain the newline;
            # discard exactly those and look again (readuntil leaves the
            # buffer intact on overrun, so nothing is lost).
            overrun = True
            await reader.readexactly(max(1, exc.consumed))
            continue
        if overrun:
            return b"", True  # the tail of the oversized line
        return line, False


def _error_response(request_id, message: str) -> bytes:
    return (json.dumps({"id": request_id, "ok": False,
                        "error": message}) + "\n").encode()


async def _send(writer, write_lock: asyncio.Lock, data: bytes) -> None:
    async with write_lock:
        try:
            writer.write(data)
            await writer.drain()
        except (ConnectionError, OSError):
            pass


async def _serve_line(answer, line: bytes, writer, write_lock: asyncio.Lock,
                      conn: Connection) -> None:
    request_id = None
    try:
        message = json.loads(line)
        if not isinstance(message, dict):
            raise ValueError("request must be a JSON object")
        request_id = message.get("id")
        response = await answer(message, conn)
        data = (json.dumps(response) + "\n").encode()
    except Exception as exc:  # noqa: BLE001 - reported to the client
        data = _error_response(request_id, f"{type(exc).__name__}: {exc}")
    await _send(writer, write_lock, data)
    if conn.hang_up:
        writer.close()


async def _handle_client(answer, reader, writer, draining: asyncio.Event,
                         conn: Connection) -> None:
    """One client connection: pipelined requests, responses as they finish.

    On shutdown (``draining`` set) the handler stops reading new requests
    but every request already accepted still gets its response.  A request
    line over the stream limit gets a structured error response (id
    ``None`` — the line never parsed) instead of a dead socket.
    """
    write_lock = asyncio.Lock()
    pending: set = set()
    drain_wait = asyncio.ensure_future(draining.wait())
    try:
        while True:
            read_task = asyncio.ensure_future(_readline_limited(reader))
            done, _ = await asyncio.wait(
                {read_task, drain_wait},
                return_when=asyncio.FIRST_COMPLETED)
            if read_task not in done:
                read_task.cancel()
                break
            line, overrun = read_task.result()
            if overrun:
                await _send(writer, write_lock, _error_response(
                    None, f"request line exceeded the {DEFAULT_STREAM_LIMIT}"
                          f"-byte stream limit and was discarded"))
                continue
            if not line:
                break
            if line.strip():
                task = asyncio.ensure_future(
                    _serve_line(answer, line, writer, write_lock, conn))
                pending.add(task)
                task.add_done_callback(pending.discard)
    finally:
        drain_wait.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if conn.on_close is not None:
            conn.on_close()
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _serve_main(answer, address,
                      stop: Optional[asyncio.Event] = None,
                      ready: Optional[Callable[[Any], None]] = None) -> None:
    """Serve ``answer(message, conn)`` on ``address`` — a unix-socket path
    or a ``(host, port)`` pair — until ``stop`` is set (until SIGINT or
    SIGTERM when it is None), then drain: no new connections, no new
    requests on open ones, every request already read answered.  ``ready``
    gets the bound address (a TCP port of 0 picks a free one) once the
    server listens."""
    draining = asyncio.Event()
    clients: set = set()
    connection_numbers = itertools.count(1)

    async def handler(reader, writer):
        task = asyncio.current_task()
        clients.add(task)
        try:
            await _handle_client(answer, reader, writer, draining,
                                 Connection(next(connection_numbers)))
        finally:
            clients.discard(task)

    if isinstance(address, tuple):
        server = await asyncio.start_server(
            handler, address[0], address[1], limit=DEFAULT_STREAM_LIMIT)
        bound: Any = (address[0], server.sockets[0].getsockname()[1])
    else:
        bound = Path(address)
        if bound.exists():
            bound.unlink()
        server = await asyncio.start_unix_server(
            handler, path=str(bound), limit=DEFAULT_STREAM_LIMIT)
    loop = asyncio.get_running_loop()
    signals = (signal.SIGINT, signal.SIGTERM) if stop is None else ()
    if stop is None:
        stop = asyncio.Event()
    for signum in signals:
        loop.add_signal_handler(signum, stop.set)
    if ready is not None:
        ready(bound)
    try:
        await stop.wait()
        server.close()
        draining.set()
        if clients:
            await asyncio.gather(*list(clients), return_exceptions=True)
        await server.wait_closed()
    finally:
        for signum in signals:
            loop.remove_signal_handler(signum)
        if isinstance(bound, Path):
            try:
                bound.unlink()
            except OSError:
                pass


async def _answer_service(service: SolverService, message: dict,
                          conn: Connection) -> dict:
    """One ``lakeroad serve`` request: ``ping`` and ``stats`` are the
    control plane, answered inline — never queued behind map traffic and
    never subject to admission caps; ``map`` goes through the service."""
    request_id = message.get("id")
    op = message.get("op", "map")
    if op == "ping":
        return {"id": request_id, "ok": True, "pong": True}
    if op == "stats":
        return {"id": request_id, "ok": True, "stats": service.stats()}
    if op != "map":
        raise ValueError(f"unknown op {op!r}")
    use_cache = message.get("use_cache")
    request = MapRequest(
        verilog=message["verilog"],
        template=message.get("template", "dsp"),
        arch=message.get("arch", "xilinx-ultrascale-plus"),
        module_name=message.get("module"),
        timeout_seconds=message.get("timeout"),
        extra_cycles=int(message.get("extra_cycles", 1)),
        validate=bool(message.get("validate", False)),
        use_cache=None if use_cache is None else bool(use_cache),
        benchmark=message.get("benchmark", ""),
        form=message.get("form", ""),
        width=int(message.get("width", 0)),
        stages=int(message.get("stages", 0)),
        signed=bool(message.get("signed", False)),
    )
    # A request's "client" field overrides the connection's fair-scheduling
    # tag (sweep workers funnelling many logical clients through one
    # connection).
    client = str(message.get("client") or f"conn-{conn.number}")
    try:
        # submit() parses and fingerprints the design — CPU work that
        # belongs on an executor thread, not the event loop.
        future = await asyncio.get_running_loop().run_in_executor(
            None, partial(service.submit, request, client=client))
    except ServiceOverloaded as exc:
        # The structured backpressure reply: the connection stays live,
        # the client learns when a retry is likely to be admitted.
        return {"id": request_id, "ok": False, "error": "overloaded",
                "retry_after_ms": int(exc.retry_after_ms)}
    record = await asyncio.wrap_future(future)
    return {"id": request_id, "ok": True, "record": record.to_dict()}


def run_server(service: SolverService, socket_path=DEFAULT_SOCKET) -> None:
    """Serve until SIGINT/SIGTERM, then drain and return (blocking)."""
    asyncio.run(_serve_main(partial(_answer_service, service), socket_path))


class ServerThread:
    """The socket layer on a background thread, for tests, benchmarks and
    the sweep coordinator.

    ``answer`` is a :class:`SolverService` (served as ``lakeroad serve``
    serves it) or an ``answer(message, conn)`` coroutine function;
    ``address`` a unix-socket path or a ``(host, port)`` pair, and
    :attr:`address` the bound one.  :attr:`loop` runs the server, and
    coroutines beside it.  ``close()`` triggers the same graceful drain as
    a signal would.  An error that keeps the server from listening (an
    address in use) is raised here.
    """

    def __init__(self, answer, address=DEFAULT_SOCKET) -> None:
        if isinstance(answer, SolverService):
            answer = partial(_answer_service, answer)
        self.address = address
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[Exception] = None
        self._thread = threading.Thread(target=self._run, args=(answer,),
                                        name="lakeroad-serve", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            self._thread.join()
            raise self._error

    def _run(self, answer) -> None:
        async def main():
            self.loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            await _serve_main(answer, self.address, self._stop,
                              ready=self._listening)

        try:
            asyncio.run(main())
        except Exception as exc:  # noqa: BLE001 - raised by __init__
            if self._ready.is_set():
                raise
            self._error = exc
        finally:
            self._ready.set()

    def _listening(self, address) -> None:
        self.address = address
        self._ready.set()

    def close(self) -> None:
        if self.loop is not None and self._stop is not None \
                and self._thread.is_alive():
            self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ServiceClient:
    """A pipelining client: many requests in flight on one connection.

    Responses are matched to requests by id on a reader thread, so callers
    can fire a burst of ``submit`` calls and collect futures — the pattern
    the serve benchmarks and the CI smoke job use to saturate the pool.

    ``address`` is a unix-socket path or a ``(host, port)`` tuple for the
    distributed sweep's TCP coordinator.
    """

    def __init__(self, address=DEFAULT_SOCKET,
                 connect_timeout: float = 10.0) -> None:
        if isinstance(address, tuple):
            self.address: Any = (str(address[0]), int(address[1]))
            family = socket.AF_INET
        else:
            self.address = str(address)
            family = socket.AF_UNIX
        deadline = time.monotonic() + connect_timeout
        while True:
            sock = socket.socket(family, socket.SOCK_STREAM)
            try:
                sock.connect(self.address)
                break
            except OSError:
                sock.close()
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        if family == socket.AF_INET:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - platform quirk
                pass
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._lock = threading.Lock()
        #: Serializes sendall: concurrent submitters (e.g. a worker's
        #: heartbeat thread next to its result uploads) must not
        #: interleave partial writes inside one line.
        self._send_lock = threading.Lock()
        self._pending: Dict[int, Future] = {}
        self._next_id = 0
        self._closed = False
        #: Set once the reader thread has stopped (EOF or a socket error).
        self._disconnected = False
        self._reader = threading.Thread(target=self._read_loop,
                                        name="lakeroad-client-reader",
                                        daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            for line in self._rfile:
                if not line.strip():
                    continue
                try:
                    message = json.loads(line)
                except ValueError:
                    continue
                with self._lock:
                    future = self._pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (OSError, ValueError):
            pass
        finally:
            # Nothing reads responses from here on: later submits fail at
            # once instead of waiting for one.
            with self._lock:
                self._disconnected = True
                leftovers = list(self._pending.values())
                self._pending.clear()
            error = ConnectionError("server closed the connection")
            for future in leftovers:
                if not future.done():
                    future.set_exception(error)

    def submit(self, payload: Dict[str, Any]) -> "Future[dict]":
        """Send one request; the future resolves to the response dict.

        Once the server has closed the connection, the future fails with
        ``ConnectionError``.
        """
        future: "Future[dict]" = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("client is closed")
            if self._disconnected:
                future.set_exception(
                    ConnectionError("server closed the connection"))
                return future
            self._next_id += 1
            request_id = self._next_id
            self._pending[request_id] = future
        message = dict(payload)
        message["id"] = request_id
        try:
            with self._send_lock:
                self._sock.sendall((json.dumps(message) + "\n").encode())
        except OSError as exc:
            with self._lock:
                self._pending.pop(request_id, None)
            future.set_exception(exc)
        return future

    def request(self, payload: Dict[str, Any],
                timeout: Optional[float] = None,
                retry_overloaded: int = 0) -> Dict[str, Any]:
        """One request/response round trip.

        ``retry_overloaded`` bounds how many times a structured
        ``overloaded`` rejection is retried, sleeping the server's
        ``retry_after_ms`` hint between attempts; ``timeout`` is the
        overall deadline across every attempt, so a saturated server
        surfaces as the usual ``FutureTimeoutError`` rather than an
        unbounded retry loop.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        attempt = 0
        while True:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            response = self.submit(payload).result(timeout=remaining)
            if not (isinstance(response, dict)
                    and response.get("error") == "overloaded"):
                return response
            if attempt >= retry_overloaded:
                return response
            attempt += 1
            delay = min(float(response.get("retry_after_ms", 100)) / 1000.0,
                        2.0)
            if deadline is not None:
                delay = min(delay, max(0.0, deadline - time.monotonic()))
            time.sleep(delay)

    def map_verilog(self, verilog: str, timeout: Optional[float] = None,
                    retry_overloaded: int = 0, **fields) -> Dict[str, Any]:
        payload = {"op": "map", "verilog": verilog}
        payload.update(fields)
        return self.request(payload, timeout=timeout,
                            retry_overloaded=retry_overloaded)

    def stats(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        response = self.request({"op": "stats"}, timeout=timeout)
        if not response.get("ok"):
            raise RuntimeError(response.get("error", "stats failed"))
        return response["stats"]

    def ping(self, timeout: Optional[float] = None) -> bool:
        """Control-plane liveness probe (bypasses admission entirely)."""
        response = self.request({"op": "ping"}, timeout=timeout)
        return bool(response.get("ok")) and bool(response.get("pong"))

    def close(self) -> None:
        with self._lock:
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._rfile.close()
            self._sock.close()
        except OSError:
            pass
        self._reader.join(timeout=5.0)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
