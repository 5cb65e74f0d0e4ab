"""Tests for the service layer: the warm worker pool, the deduplicating
front door, the socket protocol, graceful shutdown, and the bench diff."""

import json
import multiprocessing
import os
import signal
import socket as socket_mod
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from repro.engine.diskcache import (
    DB_NAME,
    DiskSynthesisCache,
    peek_entry_count,
    peek_schema_version,
)
from repro.engine.distributed import PROTOCOL_VERSION, SweepCoordinator
from repro.engine.parallel import SessionSpec, SweepInterrupted, run_sweep
from repro.engine.service import (
    MapRequest,
    ServerThread,
    ServiceClient,
    SolverService,
)
from repro.harness.bench import diff_snapshots, git_revision
from repro.harness.runner import ExperimentConfig, MappingRecord, map_request
from repro.workloads import enumerate_workloads

from _fixtures import ADD4, AND4, MUL8, small_workloads as _fast_benchmarks

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="requires the fork start method")

pytestmark = needs_fork


def _mul_request(**overrides) -> MapRequest:
    fields = dict(verilog=MUL8, arch="intel-cyclone10lp", benchmark="mul8")
    fields.update(overrides)
    return MapRequest(**fields)


# --------------------------------------------------------------------------- #
# Front-door semantics
# --------------------------------------------------------------------------- #
class TestFrontDoor:
    def test_concurrent_identical_requests_coalesce_to_one_solve(self):
        with SolverService(SessionSpec(), workers=2) as service:
            futures = [service.submit(_mul_request()) for _ in range(8)]
            records = [future.result(timeout=120) for future in futures]
            stats = service.stats()
        assert stats["dispatched"] == 1
        assert stats["coalesced"] == 7
        # One solve, eight replies, identical content.
        assert len({json.dumps(r.comparable(), sort_keys=True)
                    for r in records}) == 1
        assert sum(1 for r in records if not r.cache_hit) == 1

    def test_coalesced_sign_twins_get_their_own_metadata(self):
        """Two requests may share a solve (canonical fingerprints ignore
        signedness) yet must come back under their own labels."""
        with SolverService(SessionSpec(), workers=1) as service:
            plain = service.submit(_mul_request(benchmark="mul", signed=False))
            twin = service.submit(_mul_request(benchmark="mul_signed",
                                               signed=True))
            first, second = plain.result(120), twin.result(120)
        assert first.benchmark == "mul" and not first.signed
        assert second.benchmark == "mul_signed" and second.signed
        assert first.outcome == second.outcome

    def test_sequential_repeat_hits_the_front_cache(self):
        with SolverService(SessionSpec(), workers=2) as service:
            cold = service.submit(_mul_request()).result(timeout=120)
            warm = service.submit(_mul_request()).result(timeout=120)
            stats = service.stats()
        assert not cold.cache_hit and warm.cache_hit
        assert stats["dispatched"] == 1
        assert stats["front_memory_hits"] == 1
        assert cold.comparable() == warm.comparable()

    def test_front_door_reads_the_disk_tier_across_services(self, tmp_path):
        spec = SessionSpec(cache_dir=str(tmp_path))
        with SolverService(spec, workers=1) as service:
            cold = service.submit(_mul_request()).result(timeout=120)
        with SolverService(spec, workers=1) as service:
            warm = service.submit(_mul_request()).result(timeout=120)
            stats = service.stats()
        assert stats["front_disk_hits"] == 1
        assert stats["dispatched"] == 0
        assert cold.comparable() == warm.comparable()

    def test_workers_cache_nothing_without_a_cache_dir(self):
        """The front door answers and coalesces every repeat, so workers
        without a disk to write through to keep no store of their own."""
        benchmarks = _fast_benchmarks(4)
        config = ExperimentConfig()
        with SolverService(SessionSpec(), workers=2) as service:
            futures = [service.map_benchmark(b, config)
                       for b in benchmarks * 3]
            [future.result(timeout=120) for future in futures]
            stats = service.stats()
        assert stats["dispatched"] >= 1
        assert service.worker_cache_stats()["entries"] == 0

    def test_workers_write_every_solve_to_the_cache_dir(self, tmp_path):
        benchmarks = _fast_benchmarks(4)
        config = ExperimentConfig()
        spec = SessionSpec(cache_dir=str(tmp_path))
        with SolverService(spec, workers=2) as service:
            futures = [service.map_benchmark(b, config)
                       for b in benchmarks * 3]
            records = [future.result(timeout=120) for future in futures]
            stats = service.stats()
        assert all(record.outcome != "timeout" for record in records)
        assert stats["dispatched"] >= 1
        assert peek_entry_count(tmp_path) == stats["dispatched"] \
            == service.worker_cache_stats()["entries"]

    def test_use_cache_false_disables_caching_but_not_dedup(self):
        with SolverService(SessionSpec(), workers=1) as service:
            first = service.submit(_mul_request(use_cache=False))
            second = service.submit(_mul_request(use_cache=False))
            first.result(120), second.result(120)
            third = service.submit(_mul_request(use_cache=False)).result(120)
            stats = service.stats()
        assert stats["coalesced"] == 1          # concurrent pair shared
        assert stats["front_memory_hits"] == 0  # nothing was cached
        assert stats["dispatched"] == 2         # the third solved again
        assert not third.cache_hit

    def test_distinct_designs_spread_over_idle_workers(self):
        with SolverService(SessionSpec(), workers=2) as service:
            a = service.submit(MapRequest(verilog=AND4, arch="sofa",
                                          template="bitwise", benchmark="a"))
            b = service.submit(MapRequest(verilog=ADD4, arch="sofa",
                                          template="bitwise", benchmark="b"))
            a.result(120), b.result(120)
            stats = service.stats()
        assert sorted(stats["worker_requests"]) == [1, 1]

    def test_unparseable_verilog_fails_the_future_only(self):
        with SolverService(SessionSpec(), workers=1) as service:
            bad = service.submit(MapRequest(verilog="not verilog at all"))
            with pytest.raises(Exception):
                bad.result(timeout=30)
            good = service.submit(_mul_request()).result(timeout=120)
            assert good.benchmark == "mul8"
            assert service.stats()["errors"] == 1

    def test_submit_after_close_is_refused(self):
        service = SolverService(SessionSpec(), workers=1)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(_mul_request())


# --------------------------------------------------------------------------- #
# Crash recovery
# --------------------------------------------------------------------------- #
class TestCrashRecovery:
    def test_killed_worker_is_restarted_and_requests_survive(self):
        benchmarks = _fast_benchmarks(4)
        config = ExperimentConfig()
        with SolverService(SessionSpec(), workers=2) as service:
            futures = [service.map_benchmark(b, config) for b in benchmarks]
            # SIGKILL both workers mid-burst (they ignore SIGTERM by
            # design); each one's in-flight request must be re-sent.
            for handle in service._pool:
                handle.process.kill()
            records = [future.result(timeout=120) for future in futures]
            stats = service.stats()
        assert stats["worker_restarts"] >= 1
        assert [r.benchmark for r in records] == [b.name for b in benchmarks]
        serial = run_sweep(benchmarks, config, workers=1).records
        assert [r.comparable() for r in serial] == \
            [r.comparable() for r in records]

    def test_restart_budget_caps_a_crash_loop(self):
        with SolverService(SessionSpec(), workers=1) as service:
            service._restarts_left = 0
            with pytest.warns(RuntimeWarning, match="restart budget"):
                service._pool[0].process.kill()
                deadline = time.monotonic() + 30
                while service._failed is None and time.monotonic() < deadline:
                    time.sleep(0.05)
            assert service._failed is not None
            with pytest.raises(RuntimeError, match="service failed"):
                service.submit(_mul_request())

    def test_a_busy_workers_late_reply_after_the_budget_ran_out_is_dropped(
            self, monkeypatch):
        """The failure fails the busy worker's request at once; its reply,
        arriving later, must not crash the dispatcher or replace the
        failure's reason."""
        import repro.engine.parallel as parallel_mod
        from loadgen import design_verilog, encode_delay, make_fake_serve

        monkeypatch.setattr(parallel_mod, "map_request", make_fake_serve())
        with SolverService(SessionSpec(enable_cache=False),
                           workers=2) as service:
            slow = service.submit(MapRequest(
                verilog=design_verilog(0, "x"), arch="intel-cyclone10lp",
                use_cache=False, form=encode_delay(0.5)))
            deadline = time.monotonic() + 30
            while service.stats()["dispatched"] == 0 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            service._restarts_left = 0
            with pytest.warns(RuntimeWarning, match="restart budget"):
                service._pool[1].process.kill()  # worker 0 holds the solve
                with pytest.raises(RuntimeError, match="restart budget"):
                    slow.result(timeout=30)
            time.sleep(1.0)  # the busy worker answers meanwhile
            assert "restart budget" in service._failed
            assert service._thread.is_alive()


# --------------------------------------------------------------------------- #
# Determinism: served ≡ serial
# --------------------------------------------------------------------------- #
class TestServedEqualsSerial:
    def test_served_records_equal_serial_sweep(self):
        benchmarks = _fast_benchmarks(4)
        config = ExperimentConfig()
        serial = run_sweep(benchmarks, config, workers=1).records
        spec = SessionSpec()
        with SolverService(spec, workers=2) as service:
            futures = [service.map_benchmark(b, config) for b in benchmarks]
            served = [future.result() for future in futures]
        assert [r.comparable() for r in serial] == \
            [r.comparable() for r in served]
        assert [r.benchmark for r in served] == [b.name for b in benchmarks]

    @pytest.mark.parametrize("label_first", [False, True],
                             ids=["unlabelled", "labelled_then_unlabelled"])
    def test_sign_twins_sharing_a_solve_keep_their_own_labels(
            self, label_first):
        """Sign twins share one solve, and each record carries its own
        request's labels, as ``map_request`` on one session stamps them:
        a request without a ``benchmark`` label gets its module's name and
        output width, never the labels of the request that solved."""
        config = ExperimentConfig()
        by_name = {b.name: b for b in enumerate_workloads("lattice-ecp5", 8)}
        requests = [MapRequest.from_benchmark(by_name[name], config)
                    for name in ("mul_and_w8_p1_s", "mul_and_w8_p1_u")]
        unlabelled = dict(benchmark="", form="", width=0, stages=0,
                          signed=False)
        requests = [request if label_first and index == 0
                    else replace(request, **unlabelled)
                    for index, request in enumerate(requests)]
        spec = SessionSpec()
        with spec.build() as session:
            serial = [map_request(session, request) for request in requests]
        with SolverService(spec, workers=1) as service:
            futures = [service.submit(request) for request in requests]
            served = [future.result(timeout=120) for future in futures]
            stats = service.stats()
        assert stats["dispatched"] == 1
        assert [r.benchmark for r in served] == \
            ["mul_and_w8_p1_s", "mul_and_w8_p1_u"]
        assert [r.comparable() for r in served] == \
            [r.comparable() for r in serial]


# --------------------------------------------------------------------------- #
# The socket layer
# --------------------------------------------------------------------------- #
@contextmanager
def _serving(plane, tmp_path):
    """A server of one network plane: ``lakeroad serve``'s service on a
    unix socket, or the sweep coordinator on TCP.  Yields its address and
    the ``hello`` a client must send first (None for the service)."""
    if plane == "service":
        socket_path = tmp_path / "serve.sock"
        with SolverService(SessionSpec(), workers=1) as service, \
                ServerThread(service, socket_path):
            yield socket_path, None
    else:
        with SweepCoordinator(_fast_benchmarks(2)) as coordinator:
            yield (coordinator.host, coordinator.port), {
                "op": "hello", "token": coordinator.token,
                "protocol": PROTOCOL_VERSION}


class TestSocketLayer:
    def test_pipelined_requests_and_stats(self, tmp_path):
        socket_path = tmp_path / "serve.sock"
        benchmarks = _fast_benchmarks(4)
        with SolverService(SessionSpec(), workers=2) as service:
            with ServerThread(service, socket_path):
                with ServiceClient(socket_path) as client:
                    assert client.request({"op": "ping"})["pong"] is True
                    futures = [client.submit({
                        "op": "map", "verilog": b.verilog,
                        "arch": b.architecture, "benchmark": b.name})
                        for b in benchmarks * 4]
                    responses = [f.result(timeout=120) for f in futures]
                    stats = client.stats()
            assert not socket_path.exists()  # removed on graceful drain
        assert all(response["ok"] for response in responses)
        assert stats["requests"] == len(benchmarks) * 4
        # 4 unique designs, 16 requests: at least 12 served warm.
        assert stats["warm_served"] >= 12

    def test_use_cache_on_the_wire_is_an_opt_out(self, tmp_path):
        """JSON ``null`` caches like ``true``; only ``false`` opts out."""
        socket_path = tmp_path / "serve.sock"

        def payload(use_cache):
            return {"op": "map", "verilog": MUL8, "arch": "intel-cyclone10lp",
                    "benchmark": "mul8", "use_cache": use_cache}

        with SolverService(SessionSpec(), workers=1) as service:
            with ServerThread(service, socket_path):
                with ServiceClient(socket_path) as client:
                    opted_out = [client.request(payload(False), timeout=120)
                                 for _ in range(2)]
                    cached = [client.request(payload(None), timeout=120)
                              for _ in range(2)]
                    stats = client.stats()
        assert [r["record"]["cache_hit"] for r in opted_out] == [False, False]
        assert [r["record"]["cache_hit"] for r in cached] == [False, True]
        assert stats["dispatched"] == 3

    def test_a_negative_or_nan_timeout_is_an_error(self, tmp_path):
        """A served time limit is a non-negative number, as on the CLI:
        -1 and NaN (which Python's json parses) are refused instead of
        answering ``timeout`` or running without a limit."""
        socket_path = tmp_path / "serve.sock"
        with SolverService(SessionSpec(), workers=1) as service:
            with ServerThread(service, socket_path):
                with ServiceClient(socket_path) as client:
                    responses = [client.request(
                        {"op": "map", "verilog": MUL8,
                         "arch": "intel-cyclone10lp", "timeout": timeout},
                        timeout=120) for timeout in (-1, float("nan"))]
                    stats = client.stats()
        for response in responses:
            assert response["ok"] is False
            assert response["error"].startswith("ValueError: ")
        assert stats["errors"] == 2 and stats["dispatched"] == 0

    def test_socket_records_equal_direct_submission(self, tmp_path):
        benchmarks = _fast_benchmarks(3)
        config = ExperimentConfig()
        serial = run_sweep(benchmarks, config, workers=1).records
        socket_path = tmp_path / "serve.sock"
        with SolverService(SessionSpec(), workers=2) as service:
            with ServerThread(service, socket_path):
                with ServiceClient(socket_path) as client:
                    responses = [client.map_verilog(
                        b.verilog, arch=b.architecture, benchmark=b.name,
                        form=b.form.name, width=b.width, stages=b.stages,
                        signed=b.signed, timeout=120)
                        for b in benchmarks]
        served = [MappingRecord.from_dict(r["record"]) for r in responses]
        assert [r.comparable() for r in serial] == \
            [r.comparable() for r in served]

    def test_request_larger_than_64k_default_asyncio_limit(self, tmp_path):
        # Regression: the server used to leave asyncio's default 64 KiB
        # stream limit in place, so a large inlined Verilog source raised
        # LimitOverrunError and the connection just died.
        socket_path = tmp_path / "serve.sock"
        padding = "// " + "x" * (96 * 1024) + "\n"
        with SolverService(SessionSpec(), workers=1) as service:
            with ServerThread(service, socket_path):
                with ServiceClient(socket_path) as client:
                    response = client.map_verilog(
                        padding + MUL8, arch="intel-cyclone10lp",
                        benchmark="mul8-padded", timeout=120)
        assert response["ok"] is True
        assert len(json.dumps({"verilog": padding + MUL8})) > 64 * 1024

    @pytest.mark.parametrize("plane", ["service", "coordinator"])
    def test_oversized_line_answered_with_error_not_dead_socket(
            self, plane, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.engine.service.DEFAULT_STREAM_LIMIT", 1024)
        with _serving(plane, tmp_path) as (address, hello):
            tcp = isinstance(address, tuple)
            with socket_mod.socket(
                    socket_mod.AF_INET if tcp else socket_mod.AF_UNIX,
                    socket_mod.SOCK_STREAM) as sock:
                sock.connect(address if tcp else str(address))
                sock.settimeout(30)
                reader = sock.makefile("rb")
                if hello is not None:
                    sock.sendall(json.dumps(hello).encode() + b"\n")
                    assert json.loads(reader.readline())["ok"] is True
                oversized = json.dumps(
                    {"id": 1, "op": "map", "verilog": "y" * 4096})
                sock.sendall(oversized.encode() + b"\n")
                error = json.loads(reader.readline())
                assert error["ok"] is False
                assert "limit" in error["error"]
                # The connection survives: the next request is served.
                sock.sendall(b'{"id": 2, "op": "ping"}\n')
                pong = json.loads(reader.readline())
                assert pong["ok"] is True
                assert pong["id"] == 2

    @pytest.mark.parametrize("plane", ["service", "coordinator"])
    def test_malformed_requests_are_answered_not_fatal(self, plane, tmp_path):
        with _serving(plane, tmp_path) as (address, hello), \
                ServiceClient(address) as client:
            if hello is not None:
                assert client.request(hello)["ok"] is True
            unknown = client.request({"op": "selfdestruct"})
            assert unknown["ok"] is False
            missing = client.request({"op": "map"})
            assert missing["ok"] is False
            # The connection is still serviceable afterwards.
            assert client.request({"op": "ping"})["ok"] is True

    def test_submit_after_the_server_hung_up_fails_at_once(self):
        """Once the client's reader has read EOF, nothing would resolve a
        new request's future; on TCP the first send to the closed peer
        succeeds, so ``request`` without a timeout would block forever.
        The submit fails with ``ConnectionError`` instead."""
        async def answer(message, conn):
            return {"id": message.get("id"), "ok": True, "pong": True}

        server = ServerThread(answer, ("127.0.0.1", 0))
        with ServiceClient(server.address) as client:
            assert client.request({"op": "ping"}, timeout=30)["ok"] is True
            server.close()
            client._reader.join(timeout=30)
            assert not client._reader.is_alive()
            with pytest.raises(ConnectionError):
                client.submit({"op": "ping"}).result(timeout=3)

    def test_request_cli_reports_a_rejected_design_in_one_line(
            self, tmp_path, capsys):
        from repro.cli import main

        socket_path = tmp_path / "serve.sock"
        rejected = tmp_path / "comb.v"
        rejected.write_text("module m(input [3:0] a, output reg [3:0] out); "
                            "always @(*) out = a; endmodule")
        unread = tmp_path / "unread.v"
        unread.write_text("module m(input [3:0] a, output [3:0] out); "
                          "assign out = 4'd3; endmodule")
        design = tmp_path / "mul8.v"
        design.write_text(MUL8)
        argv = ["request", "--socket", str(socket_path),
                "--arch-desc", "intel-cyclone10lp"]
        with SolverService(SessionSpec(), workers=1) as service:
            with ServerThread(service, socket_path):
                assert main([*argv, str(rejected)]) == 1
                [line] = capsys.readouterr().err.splitlines()
                assert line.startswith("request failed: ParseError: ")
                assert main([*argv, str(unread)]) == 1
                [line] = capsys.readouterr().err.splitlines()
                assert line.startswith("request failed: ElaborationError: ")
                # The server stays up and serves the next request.
                assert main([*argv, str(design)]) == 0
                assert json.loads(capsys.readouterr().out)["outcome"] == \
                    "success"


# --------------------------------------------------------------------------- #
# Graceful shutdown
# --------------------------------------------------------------------------- #
class TestGracefulShutdown:
    def test_close_flushes_cache_counters_and_leaves_no_corruption(
            self, tmp_path):
        spec = SessionSpec(cache_dir=str(tmp_path))
        with SolverService(spec, workers=2) as service:
            service.submit(_mul_request()).result(timeout=120)
        assert not list(tmp_path.glob("*.corrupt"))
        check = DiskSynthesisCache(tmp_path)
        lifetime = check.lifetime_stats()
        check.close()
        # The worker's cold solve was a disk-tier miss, flushed on close.
        assert lifetime["lifetime_misses"] >= 1

    def test_close_collects_worker_session_stats(self, tmp_path):
        # Workers keep a store (and count its misses) only over a cache dir.
        spec = SessionSpec(cache_dir=str(tmp_path))
        with SolverService(spec, workers=2) as service:
            service.submit(_mul_request()).result(timeout=120)
            service.submit(_mul_request(use_cache=None)).result(timeout=120)
        worker_stats = service.worker_cache_stats()
        assert worker_stats.get("misses", 0) >= 1

    def test_no_worker_processes_survive_close(self):
        service = SolverService(SessionSpec(), workers=2)
        processes = [handle.process for handle in service._pool]
        service.submit(_mul_request()).result(timeout=120)
        service.close()
        assert all(not process.is_alive() for process in processes)

    def test_serial_sweep_interrupt_drains_completed_records(self, monkeypatch):
        from repro.engine import parallel as parallel_mod

        benchmarks = _fast_benchmarks(3)
        calls = []
        original = parallel_mod.map_benchmark

        def interrupting(session, benchmark, config):
            if len(calls) == 1:
                raise KeyboardInterrupt
            calls.append(benchmark.name)
            return original(session, benchmark, config)

        monkeypatch.setattr(parallel_mod, "map_benchmark", interrupting)
        with pytest.raises(SweepInterrupted) as info:
            run_sweep(benchmarks, ExperimentConfig(), workers=1)
        assert len(info.value.result.records) == 1
        assert info.value.result.records[0].benchmark == benchmarks[0].name

    @pytest.mark.slow
    def test_sweep_cli_sigterm_drains_and_exits_130(self, tmp_path):
        """`lakeroad sweep` under SIGTERM: drained exit, code 130, no
        quarantined cache databases, no orphan workers."""
        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "sweep",
             "--arch", "xilinx-ultrascale-plus", "--count", "12",
             "--max-width", "16", "--workers", "2",
             "--cache-dir", str(cache_dir)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        time.sleep(3.0)
        process.send_signal(signal.SIGTERM)
        try:
            _, stderr = process.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            process.kill()
            raise
        if process.returncode == 0:
            pytest.skip("sweep finished before the signal landed")
        assert process.returncode == 130, stderr
        assert "interrupted" in stderr
        assert not list(cache_dir.glob("*.corrupt"))


# --------------------------------------------------------------------------- #
# MapRequest plumbing
# --------------------------------------------------------------------------- #
class TestMapRequest:
    def test_from_benchmark_carries_config_and_metadata(self):
        benchmark = _fast_benchmarks(1)[0]
        config = ExperimentConfig(validate=True, extra_cycles=2)
        request = MapRequest.from_benchmark(benchmark, config)
        assert request.verilog == benchmark.verilog
        assert request.arch == benchmark.architecture
        assert request.timeout_seconds == \
            config.timeout_for(benchmark.architecture)
        assert request.extra_cycles == 2 and request.validate
        assert request.benchmark == benchmark.name
        assert request.form == benchmark.form.name
        assert (request.width, request.stages, request.signed) == \
            (benchmark.width, benchmark.stages, benchmark.signed)


# --------------------------------------------------------------------------- #
# Disk cache: fork guard and peek helpers
# --------------------------------------------------------------------------- #
class TestDiskCacheForkSafety:
    def test_forked_child_reopens_and_parent_survives(self, tmp_path):
        cache = DiskSynthesisCache(tmp_path)
        cache.put(("shared",), {"value": 1})

        def child_body(queue):
            # The inherited connection must be replaced, and both read and
            # write must work on the child's own handle.
            value = cache.get(("shared",))
            cache.put(("from-child",), {"value": 2})
            cache.close()
            queue.put(value)

        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=child_body, args=(queue,))
        child.start()
        child.join(30)
        assert child.exitcode == 0
        assert queue.get(timeout=10) == {"value": 1}
        # Parent's connection is untouched: reads still work, the child's
        # write is visible, nothing got quarantined.
        assert cache.get(("from-child",)) == {"value": 2}
        assert not list(tmp_path.glob("*.corrupt"))
        cache.close()

    def test_peek_helpers_see_fresh_writes(self, tmp_path):
        cache = DiskSynthesisCache(tmp_path)
        cache.put(("a",), 1)
        assert peek_entry_count(tmp_path) == 1
        cache.put(("b",), 2)
        # A peek after a write must see the new entry.
        assert peek_entry_count(tmp_path) == 2
        assert peek_schema_version(tmp_path) is not None
        cache.close()

    def test_peek_detects_a_replaced_database(self, tmp_path):
        cache = DiskSynthesisCache(tmp_path)
        cache.put(("a",), 1)
        cache.close()
        assert peek_entry_count(tmp_path) == 1
        # Replace the file wholesale (what quarantine + rebuild does).
        other_dir = tmp_path / "other"
        other = DiskSynthesisCache(other_dir)
        other.put(("x",), 1)
        other.put(("y",), 2)
        other.close()
        os.replace(other_dir / DB_NAME, tmp_path / DB_NAME)
        assert peek_entry_count(tmp_path) == 2


# --------------------------------------------------------------------------- #
# Bench snapshot diff
# --------------------------------------------------------------------------- #
class TestBenchDiff:
    def _snapshot(self, **overrides):
        base = {
            "totals": {"solved_rate": 1.0, "warm_cache_hit_rate": 1.0,
                       "cold_seconds": 10.0, "warm_seconds": 1.0},
            "probe_throughput": {"speedup": 8.0,
                                 "packed_assignments_per_second": 1e6},
            "memory": {"peak_rss_kb": 40000.0, "clause_db_peak": 100},
        }
        for path, value in overrides.items():
            node = base
            parts = path.split(".")
            for part in parts[:-1]:
                node = node[part]
            node[parts[-1]] = value
        return base

    def test_identical_snapshots_have_no_regressions(self):
        old = self._snapshot()
        results = diff_snapshots(old, self._snapshot())
        assert results and not any(entry["regressed"] for entry in results)

    def test_higher_is_better_regression_detected(self):
        results = diff_snapshots(
            self._snapshot(),
            self._snapshot(**{"probe_throughput.speedup": 2.0}))
        regressed = {entry["metric"] for entry in results if entry["regressed"]}
        assert "probe_throughput.speedup" in regressed

    def test_lower_is_better_regression_detected(self):
        results = diff_snapshots(
            self._snapshot(),
            self._snapshot(**{"memory.peak_rss_kb": 80000.0}))  # +100%
        regressed = {entry["metric"] for entry in results if entry["regressed"]}
        assert "memory.peak_rss_kb" in regressed

    def test_within_threshold_changes_pass(self):
        results = diff_snapshots(
            self._snapshot(),
            self._snapshot(**{"totals.cold_seconds": 15.0}))  # +50% < 100%
        assert not any(entry["regressed"] for entry in results)

    def test_missing_sections_are_skipped(self):
        old = self._snapshot()
        del old["probe_throughput"]  # a pre-bitsim archive
        old["serve"] = None  # what older snapshots carry
        results = diff_snapshots(old, self._snapshot())
        metrics = {entry["metric"] for entry in results}
        assert metrics and not any(
            metric.startswith(("probe_throughput.", "serve."))
            for metric in metrics)

    def test_cli_diff_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(self._snapshot()))
        new_path.write_text(json.dumps(self._snapshot()))
        assert main(["bench", "--diff", str(old_path), str(new_path)]) == 0
        new_path.write_text(json.dumps(
            self._snapshot(**{"probe_throughput.speedup": 1.0})))
        assert main(["bench", "--diff", str(old_path), str(new_path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out

    def test_cli_threshold_override(self, tmp_path):
        from repro.cli import main

        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(self._snapshot()))
        new_path.write_text(json.dumps(
            self._snapshot(**{"probe_throughput.speedup": 3.2})))  # -60%
        assert main(["bench", "--diff", str(old_path), str(new_path)]) == 1
        assert main(["bench", "--diff", str(old_path), str(new_path),
                     "--threshold", "probe_throughput.speedup=0.7"]) == 0


class TestBenchRevision:
    def test_uncommitted_tracked_changes_name_the_snapshot_dirty(
            self, tmp_path):
        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=bench", "-c", "user.email=bench@x",
                 *args], cwd=tmp_path, check=True, capture_output=True,
                text=True).stdout.strip()

        git("init", "-q")
        (tmp_path / "tracked.txt").write_text("one\n")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "first")
        head = git("rev-parse", "--short", "HEAD")
        assert git_revision(tmp_path) == head
        (tmp_path / "untracked.txt").write_text("scratch\n")
        assert git_revision(tmp_path) == head  # untracked files do not count
        (tmp_path / "tracked.txt").write_text("two\n")
        assert git_revision(tmp_path) == f"{head}-dirty"
        git("add", "tracked.txt")  # staged but uncommitted is still dirty
        assert git_revision(tmp_path) == f"{head}-dirty"
        git("commit", "-q", "-m", "second")
        assert git_revision(tmp_path) == git("rev-parse", "--short", "HEAD")
