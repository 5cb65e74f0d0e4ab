"""QoS tests for the service layer: per-client fair scheduling and
bounded admission with structured backpressure in front of a fixed
worker pool.

Scheduling-semantics tests swap the worker-side solve for the
deterministic stand-in from ``tests/loadgen.py`` (monkeypatched before
service construction; the fork start method snapshots it into every
worker), so they assert on *ordering and admission*, not solver
wall-clock.  The served-equals-serial suite at the bottom runs real
solves on a two-worker pool.
"""

import contextlib
import multiprocessing
import time

import pytest

import repro.engine.parallel as parallel_mod
from repro.engine.parallel import SessionSpec, run_sweep
from repro.engine.service import (
    MapRequest,
    ServerThread,
    ServiceClient,
    ServiceOverloaded,
    SolverService,
)
from repro.harness.runner import ExperimentConfig

from _fixtures import small_workloads as _fast_benchmarks
from loadgen import (
    Profile,
    design_verilog,
    drive_service,
    encode_delay,
    make_fake_serve,
    percentile,
    plan,
    summarize,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
pytestmark = pytest.mark.skipif(not HAS_FORK,
                                reason="requires the fork start method")

ARCH = "intel-cyclone10lp"


def _req(index: int, flavor: str = "q", delay=None, use_cache=False,
         benchmark=None) -> MapRequest:
    """A distinct-by-construction request (identical repeats coalesce and
    are admitted for free, so admission tests must vary the design)."""
    return MapRequest(verilog=design_verilog(index, flavor), arch=ARCH,
                      template="dsp", use_cache=use_cache,
                      benchmark=benchmark or f"{flavor}{index}",
                      form=encode_delay(delay))


def _gate():
    return multiprocessing.get_context("fork").Event()


def _wait_until(predicate, timeout: float = 15.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@contextlib.contextmanager
def fake_service(monkeypatch, delay: float = 0.0, gate=None, spec=None,
                 **kwargs):
    """A SolverService whose workers run the deterministic fake solve.

    The patch must land before construction — fork inherits it.  On exit
    the gate (if any) is released first so ``close()`` drains instead of
    timing out on a permanently blocked worker.
    """
    monkeypatch.setattr(parallel_mod, "map_request",
                        make_fake_serve(delay, gate))
    service = SolverService(spec or SessionSpec(enable_cache=False), **kwargs)
    try:
        yield service
    finally:
        if gate is not None:
            gate.set()
        service.close()


# --------------------------------------------------------------------------- #
# Bounded admission
# --------------------------------------------------------------------------- #
class TestAdmission:
    def test_rejects_above_global_cap(self, monkeypatch):
        gate = _gate()
        with fake_service(monkeypatch, gate=gate, workers=1,
                          max_pending=4, client_queue=64) as service:
            admitted, rejected = [], 0
            for i in range(7):
                try:
                    admitted.append(service.submit(_req(i)))
                except ServiceOverloaded as exc:
                    rejected += 1
                    assert 50 <= exc.retry_after_ms <= 10_000
            assert len(admitted) == 4 and rejected == 3
            gate.set()
            for future in admitted:
                assert future.result(timeout=60).outcome == "success"
            stats = service.stats()
        assert stats["rejections"] == 3
        assert stats["clients"][""]["rejected"] == 3

    def test_rejects_above_per_client_cap_without_punishing_others(
            self, monkeypatch):
        gate = _gate()
        with fake_service(monkeypatch, gate=gate, workers=1,
                          max_pending=64, client_queue=2) as service:
            a = [service.submit(_req(i), client="a") for i in range(2)]
            with pytest.raises(ServiceOverloaded, match="client 'a'"):
                service.submit(_req(2), client="a")
            # Client b's budget is untouched by a's full queue.
            b = service.submit(_req(10), client="b")
            gate.set()
            for future in a + [b]:
                future.result(timeout=60)
            stats = service.stats()
        assert stats["clients"]["a"]["rejected"] == 1
        assert stats["clients"]["b"].get("rejected", 0) == 0

    def test_no_rejections_at_or_below_the_cap(self, monkeypatch):
        gate = _gate()
        with fake_service(monkeypatch, gate=gate, workers=1,
                          max_pending=8, client_queue=8) as service:
            futures = [service.submit(_req(i)) for i in range(8)]
            with pytest.raises(ServiceOverloaded):
                service.submit(_req(8))
            gate.set()
            for future in futures:
                future.result(timeout=60)
            assert service.stats()["rejections"] == 1

    def test_completion_releases_admission_slots(self, monkeypatch):
        gate = _gate()
        with fake_service(monkeypatch, gate=gate, workers=1,
                          max_pending=2) as service:
            first = [service.submit(_req(i)) for i in range(2)]
            with pytest.raises(ServiceOverloaded):
                service.submit(_req(2))
            gate.set()
            for future in first:
                future.result(timeout=60)
            # Slots came back: the same submission is admitted now.
            assert service.submit(_req(2)).result(timeout=60) is not None
            assert service.stats()["pending"] == 0

    def test_coalesced_duplicates_are_admitted_free(self, monkeypatch):
        gate = _gate()
        with fake_service(monkeypatch, gate=gate, workers=1,
                          max_pending=1) as service:
            head = service.submit(_req(0))
            # Identical design: coalesces onto the in-flight solve, no slot.
            twin = service.submit(_req(0))
            with pytest.raises(ServiceOverloaded):
                service.submit(_req(1))
            gate.set()
            assert head.result(60).comparable() == twin.result(60).comparable()
            assert service.stats()["coalesced"] == 1

    def test_coalesced_completion_releases_exactly_one_slot(
            self, monkeypatch):
        """Regression: a solve with coalesced waiters must return one
        admission slot, not one per waiter — per-waiter release credited
        the caps for slots never taken, so backpressure quietly stopped
        triggering under dedup-heavy traffic."""
        with fake_service(monkeypatch, workers=1, max_pending=2) as service:
            # The head solve needs a real delay: an instant fake solve can
            # finish before the twins below are even submitted, and then
            # nothing coalesces.
            fast = service.submit(_req(0, delay=0.5), client="a")
            # Two riders on the same solve (one from another client):
            # neither took a slot, so neither may release one.
            twins = [service.submit(_req(0, delay=0.5), client="a"),
                     service.submit(_req(0, delay=0.5), client="b")]
            slow = service.submit(_req(1, delay=2.0), client="a")
            fast.result(timeout=60)
            # Only the fast solve's single slot came back; the slow solve
            # still holds the other, so the cap admits exactly one more.
            refill = service.submit(_req(2), client="b")
            with pytest.raises(ServiceOverloaded):
                service.submit(_req(3), client="b")
            for future in twins + [slow, refill]:
                future.result(timeout=60)
            assert service.stats()["pending"] == 0
            assert service.stats()["coalesced"] == 2

    def test_front_cache_hits_are_admitted_free(self, monkeypatch):
        gate = _gate()
        gate.set()
        with fake_service(monkeypatch, gate=gate, spec=SessionSpec(),
                          workers=1, max_pending=1) as service:
            warm_key = service.submit(_req(0, use_cache=None)).result(60)
            assert warm_key is not None
            gate.clear()
            blocked = service.submit(_req(1, use_cache=None))  # fills the cap
            with pytest.raises(ServiceOverloaded):
                service.submit(_req(2, use_cache=None))
            # The cached design answers instantly despite the full cap.
            hit = service.submit(_req(0, use_cache=None)).result(timeout=10)
            assert hit.cache_hit
            gate.set()
            blocked.result(timeout=60)


# --------------------------------------------------------------------------- #
# Per-client fair scheduling
# --------------------------------------------------------------------------- #
class TestFairScheduling:
    def test_fifo_preserved_within_a_client(self, monkeypatch):
        completed = []
        with fake_service(monkeypatch, delay=0.002, workers=1) as service:
            futures = []
            for i in range(10):
                future = service.submit(_req(i), client="solo")
                future.add_done_callback(
                    lambda f, i=i: completed.append(i))
                futures.append(future)
            for future in futures:
                future.result(timeout=60)
        assert completed == list(range(10))

    def test_round_robin_interleaves_a_flooder_with_a_steady_client(
            self, monkeypatch):
        gate = _gate()
        completed = []
        with fake_service(monkeypatch, delay=0.004, gate=gate,
                          workers=1) as service:
            futures = []
            for i in range(8):
                future = service.submit(_req(i, flavor="f"), client="flood")
                future.add_done_callback(
                    lambda f, tag=("flood", i): completed.append(tag))
                futures.append(future)
            for i in range(2):
                future = service.submit(_req(100 + i, flavor="s"),
                                        client="steady")
                future.add_done_callback(
                    lambda f, tag=("steady", i): completed.append(tag))
                futures.append(future)
            gate.set()
            for future in futures:
                future.result(timeout=60)
        positions = [idx for idx, (client, _) in enumerate(completed)
                     if client == "steady"]
        # DRR: the late steady client is served within the first rotations,
        # not behind the flooder's whole queue (which would be 8 and 9).
        assert len(completed) == 10
        assert positions[0] < positions[1]
        assert positions[1] <= 5, completed

    def test_flood_does_not_starve_a_steady_client(self, monkeypatch):
        """The acceptance criterion: under a pipelined flood, a steady
        client's p95 stays within 3x its uncontended p95 (the steady
        solves dominate their own latency, not the flooder's backlog)."""
        steady = Profile(name="steady", kind="steady", requests=6,
                         think_seconds=0.01, base=1000, flavor="s",
                         delay=0.05)
        flood = Profile(name="flood", kind="flooder", requests=40,
                        base=0, flavor="f", delay=0.02)
        with fake_service(monkeypatch, workers=1) as service:
            uncontended = summarize(drive_service(service, [steady], seed=7))
            contended = summarize(
                drive_service(service, [flood, steady], seed=7))
        p95_alone = uncontended["steady"]["p95_latency_seconds"]
        p95_flooded = contended["steady"]["p95_latency_seconds"]
        assert uncontended["steady"]["served"] == 6
        assert contended["steady"]["served"] == 6          # zero starvation
        assert contended["flood"]["served"] == 40          # below the cap...
        assert contended["flood"]["rejected"] == 0         # ...no rejections
        assert p95_alone >= 0.05                           # the sleep floor
        assert p95_flooded <= 3.0 * p95_alone, \
            f"steady p95 {p95_flooded:.3f}s vs uncontended {p95_alone:.3f}s"
        # The flooder queues behind itself, not behind the steady client.
        assert contended["flood"]["p95_latency_seconds"] > p95_flooded


# --------------------------------------------------------------------------- #
# Constructor bounds and the QoS counters
# --------------------------------------------------------------------------- #
class TestElasticPool:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 1, "max_pending": 0},            # unusable cap
        {"workers": 0},                              # no worker
    ])
    def test_invalid_bounds_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverService(SessionSpec(), **kwargs)

    def test_stats_expose_the_qos_counters(self, monkeypatch):
        with fake_service(monkeypatch, workers=1) as service:
            service.submit(_req(0), client="c").result(timeout=60)
            stats = service.stats()
        for key in ("pending", "clients", "rejections", "workers"):
            assert key in stats, key
        assert stats["clients"]["c"]["submitted"] == 1
        assert stats["clients"]["c"]["served"] == 1


# --------------------------------------------------------------------------- #
# Backpressure and the control plane over the socket
# --------------------------------------------------------------------------- #
class TestSocketBackpressure:
    def _map_payload(self, index, flavor="x", client=None):
        payload = {"op": "map", "verilog": design_verilog(index, flavor),
                   "arch": ARCH, "use_cache": False,
                   "benchmark": f"{flavor}{index}"}
        if client is not None:
            payload["client"] = client
        return payload

    def test_overloaded_reply_arrives_on_a_live_connection(
            self, monkeypatch, tmp_path):
        socket_path = tmp_path / "qos.sock"
        gate = _gate()
        with fake_service(monkeypatch, gate=gate, workers=1, max_pending=2,
                          client_queue=2) as service:
            with ServerThread(service, socket_path):
                with ServiceClient(socket_path) as client:
                    futures = [client.submit(self._map_payload(i))
                               for i in range(4)]
                    # The requests race through executor threads, so *which*
                    # two are admitted is arbitrary — but with the workers
                    # wedged, exactly the two over-cap ones answer now.
                    assert _wait_until(
                        lambda: sum(f.done() for f in futures) == 2)
                    rejected = [f for f in futures if f.done()]
                    for future in rejected:
                        response = future.result(timeout=5)
                        assert response["ok"] is False
                        assert response["error"] == "overloaded"
                        assert isinstance(response["retry_after_ms"], int)
                        assert response["retry_after_ms"] >= 50
                    # The connection survived the rejections.
                    assert client.ping(timeout=10)
                    gate.set()
                    for future in futures:
                        if future not in rejected:
                            assert future.result(timeout=60)["ok"] is True

    def test_control_plane_bypasses_admission_when_saturated(
            self, monkeypatch, tmp_path):
        """Satellite regression: stats/ping answered promptly while the
        map queue is at its cap and every worker is wedged."""
        socket_path = tmp_path / "qos.sock"
        gate = _gate()
        with fake_service(monkeypatch, gate=gate, workers=1, max_pending=2,
                          client_queue=2) as service:
            with ServerThread(service, socket_path):
                with ServiceClient(socket_path) as client:
                    backlog = [client.submit(self._map_payload(i))
                               for i in range(2)]
                    # Wait for both maps to be admitted (they cross an
                    # executor thread), then time the control plane.
                    assert _wait_until(
                        lambda: service.stats()["pending"] == 2)
                    started = time.monotonic()
                    assert client.ping(timeout=5.0)
                    stats = client.stats(timeout=5.0)
                    assert time.monotonic() - started < 5.0
                    assert stats["pending"] == 2
                    gate.set()
                    for future in backlog:
                        assert future.result(timeout=60)["ok"] is True

    def test_client_retry_honours_the_hint_until_admitted(
            self, monkeypatch, tmp_path):
        socket_path = tmp_path / "qos.sock"
        with fake_service(monkeypatch, delay=0.05, workers=1,
                          max_pending=2, client_queue=2) as service:
            with ServerThread(service, socket_path):
                with ServiceClient(socket_path) as client:
                    flood = [client.submit(self._map_payload(i))
                             for i in range(6)]
                    # Bounded retry rides out the backlog.
                    response = client.map_verilog(
                        design_verilog(50, "x"), arch=ARCH, use_cache=False,
                        timeout=60, retry_overloaded=16, benchmark="patient")
                    assert response["ok"] is True, response
                    rejected = sum(
                        1 for f in flood
                        if f.result(timeout=60).get("error") == "overloaded")
            assert service.stats()["rejections"] >= rejected >= 1

    def test_zero_retries_surface_the_rejection(self, monkeypatch, tmp_path):
        socket_path = tmp_path / "qos.sock"
        gate = _gate()
        with fake_service(monkeypatch, gate=gate, workers=1, max_pending=1,
                          client_queue=1) as service:
            with ServerThread(service, socket_path):
                with ServiceClient(socket_path) as client:
                    admitted = client.submit(self._map_payload(0))
                    assert _wait_until(
                        lambda: service.stats()["pending"] == 1)
                    response = client.request(self._map_payload(1),
                                              timeout=30,
                                              retry_overloaded=0)
                    assert response.get("error") == "overloaded"
                    gate.set()
                    assert admitted.result(timeout=60)["ok"] is True

    def test_connections_get_distinct_client_ids(self, monkeypatch,
                                                 tmp_path):
        socket_path = tmp_path / "qos.sock"
        with fake_service(monkeypatch, workers=1) as service:
            with ServerThread(service, socket_path):
                with ServiceClient(socket_path) as first:
                    first.map_verilog(design_verilog(0, "x"), arch=ARCH,
                                      use_cache=False, timeout=60)
                with ServiceClient(socket_path) as second:
                    second.map_verilog(design_verilog(1, "x"), arch=ARCH,
                                       use_cache=False, timeout=60)
            clients = service.stats()["clients"]
        assert "conn-1" in clients and "conn-2" in clients
        assert clients["conn-1"]["served"] == 1
        assert clients["conn-2"]["served"] == 1

    def test_explicit_client_field_overrides_the_connection_id(
            self, monkeypatch, tmp_path):
        socket_path = tmp_path / "qos.sock"
        with fake_service(monkeypatch, workers=1) as service:
            with ServerThread(service, socket_path):
                with ServiceClient(socket_path) as client:
                    client.request(self._map_payload(0, client="tenant-a"),
                                   timeout=60)
            clients = service.stats()["clients"]
        assert clients["tenant-a"]["served"] == 1
        assert "conn-1" not in clients


# --------------------------------------------------------------------------- #
# Determinism: served == serial while most of the sweep waits to be sent
# --------------------------------------------------------------------------- #
class TestServedEqualsSerialUnderChurn:
    def test_served_records_equal_serial_sweep(self):
        benchmarks = _fast_benchmarks(4)
        config = ExperimentConfig()
        serial = run_sweep(benchmarks, config, workers=1).records
        spec = SessionSpec()
        # A worker holds one request, so most of the sweep waits in the
        # client queue and every completion re-runs dispatch across both
        # workers.
        with SolverService(spec, workers=2) as service:
            futures = [service.map_benchmark(b, config) for b in benchmarks]
            served = [future.result() for future in futures]
            stats = service.stats()
        assert [r.comparable() for r in serial] == \
            [r.comparable() for r in served]
        assert stats["workers"] == 2


# --------------------------------------------------------------------------- #
# The load generator itself
# --------------------------------------------------------------------------- #
class TestLoadgen:
    def test_same_seed_same_schedule(self):
        profile = Profile(name="steady-0", kind="steady", requests=12,
                          think_seconds=0.02)
        assert plan(profile, 42) == plan(profile, 42)

    def test_different_seed_different_schedule(self):
        profile = Profile(name="steady-0", kind="steady", requests=12,
                          think_seconds=0.02)
        assert plan(profile, 1) != plan(profile, 2)

    def test_flooder_plans_have_no_think_time(self):
        profile = Profile(name="f", kind="flooder", requests=8)
        assert all(step.think_seconds == 0.0 for step in plan(profile, 3))

    def test_generated_designs_are_distinct(self):
        sources = {design_verilog(i, flavor)
                   for flavor in ("qa", "qb") for i in range(64)}
        assert len(sources) == 128

    def test_summarize_counts_and_percentiles(self):
        from loadgen import Outcome

        outcomes = {"c": [Outcome("c", i, "ok", latency_seconds=i / 100.0)
                          for i in range(20)]
                    + [Outcome("c", 99, "rejected", 0.0)]}
        summary = summarize(outcomes)["c"]
        assert summary["requests"] == 21
        assert summary["served"] == 20 and summary["rejected"] == 1
        assert summary["p50_latency_seconds"] == pytest.approx(0.10)
        assert summary["p95_latency_seconds"] == pytest.approx(0.19)
        assert percentile([], 0.95) == 0.0


# --------------------------------------------------------------------------- #
# CLI: the request deadline (exit code 6) and bounded retries
# --------------------------------------------------------------------------- #
class TestCli:
    def test_request_deadline_exits_6_when_server_is_saturated(
            self, monkeypatch, tmp_path, capsys):
        """Satellite: a reachable-but-wedged server must surface as the
        distinct deadline exit code, not an eternal block."""
        from repro.cli import main

        socket_path = tmp_path / "qos.sock"
        source = tmp_path / "design.v"
        source.write_text(design_verilog(0, "x"))
        gate = _gate()
        with fake_service(monkeypatch, gate=gate, workers=1) as service:
            with ServerThread(service, socket_path):
                code = main(["request", str(source),
                             "--socket", str(socket_path),
                             "--arch-desc", ARCH,
                             "--deadline", "0.5", "--retries", "0"])
                gate.set()
        assert code == 6
        assert "deadline" in capsys.readouterr().err

    def test_request_surfaces_overload_after_bounded_retries(
            self, monkeypatch, tmp_path, capsys):
        from repro.cli import main

        socket_path = tmp_path / "qos.sock"
        source = tmp_path / "design.v"
        source.write_text(design_verilog(1, "x"))
        gate = _gate()
        with fake_service(monkeypatch, gate=gate, workers=1, max_pending=1,
                          client_queue=1) as service:
            with ServerThread(service, socket_path):
                with ServiceClient(socket_path) as filler:
                    admitted = filler.submit(
                        {"op": "map", "verilog": design_verilog(0, "x"),
                         "arch": ARCH, "use_cache": False})
                    assert _wait_until(
                        lambda: service.stats()["pending"] == 1)
                    code = main(["request", str(source),
                                 "--socket", str(socket_path),
                                 "--arch-desc", ARCH,
                                 "--deadline", "10", "--retries", "1"])
                    gate.set()
                    admitted.result(timeout=60)
        assert code == 1
        assert "pending cap" in capsys.readouterr().err
