"""Tests for the distributed sweep: the TCP coordinator/worker protocol,
work-stealing leases, exactly-once merge, artifact resume, and the
failure matrix (worker death, slow-worker races, bad tokens)."""

import json
import logging
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine.distributed import (
    PROTOCOL_VERSION,
    CoordinatorUnreachable,
    SweepCoordinator,
    WorkerRejected,
    parse_address,
    run_distributed_sweep,
    run_worker,
)
from repro.engine.diskcache import peek_entry_count
from repro.engine.parallel import SessionSpec, run_sweep
from repro.engine.service import ServerThread, SolverService
from repro.harness.runner import ExperimentConfig
from repro.workloads.generator import Microbenchmark, WorkloadSpec

from _fixtures import small_workloads as _fast_benchmarks

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="requires the fork start method")


def _serial_records(benchmarks, config):
    return run_sweep(benchmarks, config, workers=1).records


class _WireClient:
    """A raw newline-JSON protocol client (simulates one worker's socket)."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30)
        self.reader = self.sock.makefile("rb")
        self._id = 0

    def send(self, message: dict) -> None:
        self._id += 1
        payload = dict(message, id=self._id)
        self.sock.sendall((json.dumps(payload) + "\n").encode())

    def receive(self) -> dict:
        line = self.reader.readline()
        assert line, "coordinator closed the connection"
        return json.loads(line)

    def request(self, message: dict) -> dict:
        self.send(message)
        return self.receive()

    def hello(self, token: str, worker: str = "wire") -> dict:
        return self.request({"op": "hello", "token": token, "worker": worker,
                             "protocol": PROTOCOL_VERSION})

    def close(self) -> None:
        # An abrupt close: from the coordinator's side this is exactly
        # what a SIGKILLed worker looks like (the kernel closes the
        # socket; no protocol goodbye).
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass


# --------------------------------------------------------------------------- #
# Wire forms
# --------------------------------------------------------------------------- #
class TestWireForms:
    def test_parse_address(self):
        assert parse_address("example.org:4000") == ("example.org", 4000)
        assert parse_address(":4000") == ("127.0.0.1", 4000)
        for bad in ("example.org", "host:", "host:port", "4000"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_microbenchmark_round_trips_through_json(self):
        for benchmark in _fast_benchmarks(3):
            wire = json.loads(json.dumps(benchmark.to_dict()))
            rebuilt = Microbenchmark.from_dict(wire)
            assert rebuilt.name == benchmark.name
            assert rebuilt.verilog == benchmark.verilog  # byte-identical

    def test_workload_spec_round_trips(self):
        spec = WorkloadSpec(name="mul_add", expression="(a * b) + c",
                            inputs=("a", "b", "c"), post_op="add")
        assert WorkloadSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec

    def test_session_spec_round_trips(self):
        spec = SessionSpec(enable_cache=False)
        rebuilt = SessionSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        # Older coordinators still send the retired racing-style,
        # CEGIS-mode and probe-budget fields.
        legacy = dict(spec.to_dict(), portfolio="thread", incremental=True,
                      incremental_verify=True, random_probes=7)
        assert SessionSpec.from_dict(legacy) == spec

    def test_experiment_config_round_trips(self):
        config = ExperimentConfig(template="dsp",
                                  timeout_seconds={"intel-cyclone10lp": 9.0})
        rebuilt = ExperimentConfig.from_dict(
            json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config
        assert rebuilt.timeout_seconds["intel-cyclone10lp"] == 9.0
        # Older coordinators still send the retired racing-style,
        # CEGIS-mode, probe-budget and session (workers, cache_dir) fields.
        legacy = dict(config.to_dict(), portfolio="thread", incremental=True,
                      incremental_verify=True, random_probes=5, workers=2,
                      cache_dir="shared-cache")
        assert ExperimentConfig.from_dict(legacy) == config


# --------------------------------------------------------------------------- #
# Protocol-level failure matrix (manual clients: deterministic, no solving)
# --------------------------------------------------------------------------- #
class TestCoordinatorProtocol:
    def _coordinator(self, benchmarks, config, **kwargs):
        kwargs.setdefault("shard_size", 2)
        return SweepCoordinator(benchmarks, config,
                                SessionSpec(), **kwargs)

    def test_bad_token_is_rejected_and_connection_closed(self):
        benchmarks = _fast_benchmarks(2)
        with self._coordinator(benchmarks, ExperimentConfig()) as coordinator:
            client = _WireClient(coordinator.host, coordinator.port)
            reply = client.request({"op": "hello", "token": "wrong",
                                    "protocol": PROTOCOL_VERSION})
            assert reply["ok"] is False
            assert "token" in reply["error"]
            assert client.reader.readline() == b""  # closed after the reply
            client.close()

    def test_protocol_mismatch_is_rejected(self):
        benchmarks = _fast_benchmarks(2)
        with self._coordinator(benchmarks, ExperimentConfig()) as coordinator:
            client = _WireClient(coordinator.host, coordinator.port)
            reply = client.request({"op": "hello", "token": coordinator.token,
                                    "protocol": PROTOCOL_VERSION + 1})
            assert reply["ok"] is False
            assert "protocol" in reply["error"]
            client.close()

    def test_ops_require_handshake(self):
        benchmarks = _fast_benchmarks(2)
        with self._coordinator(benchmarks, ExperimentConfig()) as coordinator:
            client = _WireClient(coordinator.host, coordinator.port)
            reply = client.request({"op": "next"})
            assert reply["ok"] is False
            assert "hello" in reply["error"]
            client.close()

    def test_worker_death_mid_shard_reassigns_and_merges_once(self):
        benchmarks = _fast_benchmarks(2)
        config = ExperimentConfig()
        serial = _serial_records(benchmarks, config)
        with self._coordinator(benchmarks, config,
                               lease_timeout=60.0) as coordinator:
            victim = _WireClient(coordinator.host, coordinator.port)
            assert victim.hello(coordinator.token, "victim")["ok"]
            shard = victim.request({"op": "next"})["shard"]
            assert shard["id"] == 0
            victim.close()  # dies mid-shard, holding the lease

            survivor = _WireClient(coordinator.host, coordinator.port)
            assert survivor.hello(coordinator.token, "survivor")["ok"]
            # The dead worker's shard comes straight back out of the queue.
            reassigned = None
            for _ in range(100):
                reassigned = survivor.request({"op": "next"})["shard"]
                if reassigned is not None:
                    break
                time.sleep(0.02)
            assert reassigned is not None and reassigned["id"] == 0
            reply = survivor.request({
                "op": "result", "shard": 0,
                "records": [[index, serial[index].to_dict()]
                            for index, _ in enumerate(benchmarks)]})
            assert reply["accepted"] is True
            survivor.close()
            result = coordinator.wait(timeout=10)
        assert [r.comparable() for r in result.records] == \
            [r.comparable() for r in serial]
        assert result.telemetry["shards_retried"] >= 1

    def test_slow_worker_racing_reassignment_merges_exactly_once(self):
        benchmarks = _fast_benchmarks(2)
        config = ExperimentConfig()
        serial = _serial_records(benchmarks, config)
        records = [[index, serial[index].to_dict()]
                   for index, _ in enumerate(benchmarks)]
        with self._coordinator(benchmarks, config,
                               lease_timeout=0.2) as coordinator:
            slow = _WireClient(coordinator.host, coordinator.port)
            assert slow.hello(coordinator.token, "slow")["ok"]
            assert slow.request({"op": "next"})["shard"]["id"] == 0
            time.sleep(0.6)  # no heartbeat: the lease expires

            thief = _WireClient(coordinator.host, coordinator.port)
            assert thief.hello(coordinator.token, "thief")["ok"]
            stolen = thief.request({"op": "next"})["shard"]
            assert stolen is not None and stolen["id"] == 0

            # The slow worker is told its lease is gone ...
            beat = slow.request({"op": "heartbeat", "shard": 0})
            assert beat["abandon"] is True
            # ... but it already finished: the first complete result wins.
            first = slow.request({"op": "result", "shard": 0,
                                  "records": records})
            assert first["accepted"] is True
            # The thief's copy is acknowledged and discarded.
            second = thief.request({"op": "result", "shard": 0,
                                    "records": records})
            assert second["accepted"] is False
            assert second["duplicate"] is True
            # The result's telemetry snapshot predates the duplicate (the
            # sweep completed on the first result); read the live counters.
            live = coordinator.telemetry()
            slow.close()
            thief.close()
            result = coordinator.wait(timeout=10)
        assert [r.comparable() for r in result.records] == \
            [r.comparable() for r in serial]
        assert live["shards_stolen"] >= 1
        assert live["duplicate_results"] == 1

    def test_incomplete_result_is_requeued_not_merged(self):
        benchmarks = _fast_benchmarks(2)
        config = ExperimentConfig()
        serial = _serial_records(benchmarks, config)
        with self._coordinator(benchmarks, config) as coordinator:
            client = _WireClient(coordinator.host, coordinator.port)
            assert client.hello(coordinator.token)["ok"]
            assert client.request({"op": "next"})["shard"]["id"] == 0
            partial = client.request({
                "op": "result", "shard": 0,
                "records": [[0, serial[0].to_dict()]]})  # missing index 1
            assert partial["accepted"] is False
            # The shard comes back; a complete result is then accepted.
            assert client.request({"op": "next"})["shard"]["id"] == 0
            complete = client.request({
                "op": "result", "shard": 0,
                "records": [[index, serial[index].to_dict()]
                            for index, _ in enumerate(benchmarks)]})
            assert complete["accepted"] is True
            client.close()
            result = coordinator.wait(timeout=10)
        assert len(result.records) == len(benchmarks)

    def test_retry_budget_exhaustion_fails_loudly(self):
        benchmarks = _fast_benchmarks(2)
        with self._coordinator(benchmarks, ExperimentConfig(),
                               retry_budget=0) as coordinator:
            client = _WireClient(coordinator.host, coordinator.port)
            assert client.hello(coordinator.token)["ok"]
            assert client.request({"op": "next"})["shard"] is not None
            client.close()  # the requeue exceeds the zero budget
            with pytest.raises(RuntimeError, match="retry budget"):
                coordinator.wait(timeout=10)
            # Surviving workers see the failure, not a hang.
            other = _WireClient(coordinator.host, coordinator.port)
            assert other.hello(coordinator.token)["ok"]
            refused = other.request({"op": "next"})
            assert refused["ok"] is False
            assert "retry budget" in refused["error"]
            other.close()

    def test_idle_worker_hears_done_when_the_last_shard_merges(self):
        """A ``next`` with nothing to lease is held, not answered with a
        ``wait`` for the worker to sleep out: the idle worker's reply is
        ``done`` as soon as the only lease's result merges."""
        benchmarks = _fast_benchmarks(2)
        config = ExperimentConfig()
        serial = _serial_records(benchmarks, config)
        with self._coordinator(benchmarks, config,
                               lease_timeout=8.0) as coordinator:
            busy = _WireClient(coordinator.host, coordinator.port)
            assert busy.hello(coordinator.token, "busy")["ok"]
            assert busy.request({"op": "next"})["shard"]["id"] == 0
            idle = _WireClient(coordinator.host, coordinator.port)
            assert idle.hello(coordinator.token, "idle")["ok"]
            idle.send({"op": "next"})  # nothing to lease: held
            time.sleep(0.1)
            reply = busy.request({
                "op": "result", "shard": 0,
                "records": [[index, serial[index].to_dict()]
                            for index, _ in enumerate(benchmarks)]})
            merged = time.monotonic()
            assert reply["accepted"] is True
            held = idle.receive()
            waited = time.monotonic() - merged
            busy.close()
            idle.close()
            coordinator.wait(timeout=10)
        assert held.get("done") is True, held
        assert waited < 0.5

    def test_old_worker_cache_entries_are_merged_but_not_shipped(self):
        """No cache entry crosses the wire: a ``result`` that still carries
        an old worker's ``cache_entries`` merges like any other, and no
        later ``hello`` reply or telemetry key carries entries."""
        benchmarks = _fast_benchmarks(2)
        config = ExperimentConfig()
        serial = _serial_records(benchmarks, config)
        with self._coordinator(benchmarks, config) as coordinator:
            old = _WireClient(coordinator.host, coordinator.port)
            assert "cache_entries" not in old.hello(coordinator.token, "old")
            assert old.request({"op": "next"})["shard"]["id"] == 0
            reply = old.request({
                "op": "result", "shard": 0,
                "records": [[index, serial[index].to_dict()]
                            for index, _ in enumerate(benchmarks)],
                "cache_entries": [["cache-key-1", "YmxvYg=="]]})
            assert reply["accepted"] is True

            late = _WireClient(coordinator.host, coordinator.port)
            joined = late.hello(coordinator.token, "late")
            assert joined["ok"] is True
            assert "cache_entries" not in joined
            old.close()
            late.close()
            result = coordinator.wait(timeout=10)
        assert [r.comparable() for r in result.records] == \
            [r.comparable() for r in serial]
        assert not [key for key in result.telemetry if "cache_entries" in key]


# --------------------------------------------------------------------------- #
# Artifact resume
# --------------------------------------------------------------------------- #
class TestArtifactResume:
    def _complete_first_shard(self, coordinator, serial):
        client = _WireClient(coordinator.host, coordinator.port)
        assert client.hello(coordinator.token)["ok"]
        shard = client.request({"op": "next"})["shard"]
        reply = client.request({
            "op": "result", "shard": shard["id"],
            "records": [[index, serial[index].to_dict()]
                        for index, _ in shard["items"]]})
        assert reply["accepted"] is True
        client.close()
        return shard["id"]

    def test_restart_resumes_completed_shards_without_recompute(
            self, tmp_path):
        benchmarks = _fast_benchmarks(4)
        config = ExperimentConfig()
        serial = _serial_records(benchmarks, config)
        spec = SessionSpec()

        first = SweepCoordinator(benchmarks, config, spec, shard_size=2,
                                 artifact_dir=tmp_path)
        first.start()
        done_id = self._complete_first_shard(first, serial)
        first.close(linger=0.0)
        assert (tmp_path / f"shard-{done_id:05d}.jsonl").exists()

        second = SweepCoordinator(benchmarks, config, spec, shard_size=2,
                                  artifact_dir=tmp_path)
        with second:
            assert second.telemetry()["shards_resumed"] == 1
            assert second.telemetry()["shards_completed"] == 1
            client = _WireClient(second.host, second.port)
            assert client.hello(second.token)["ok"]
            # Only the other shard is handed out.
            shard = client.request({"op": "next"})["shard"]
            assert shard["id"] != done_id
            reply = client.request({
                "op": "result", "shard": shard["id"],
                "records": [[index, serial[index].to_dict()]
                            for index, _ in shard["items"]]})
            assert reply["accepted"] is True
            client.close()
            result = second.wait(timeout=10)
        assert [r.comparable() for r in result.records] == \
            [r.comparable() for r in serial]

    def test_partial_shard_artifact_is_recomputed(self, tmp_path):
        benchmarks = _fast_benchmarks(4)
        config = ExperimentConfig()
        serial = _serial_records(benchmarks, config)
        spec = SessionSpec()

        first = SweepCoordinator(benchmarks, config, spec, shard_size=2,
                                 artifact_dir=tmp_path)
        first.start()
        done_id = self._complete_first_shard(first, serial)
        first.close(linger=0.0)

        # Truncate the artifact to one record: a torn write / partial disk.
        path = tmp_path / f"shard-{done_id:05d}.jsonl"
        path.write_text(path.read_text().splitlines()[0] + "\n")

        second = SweepCoordinator(benchmarks, config, spec, shard_size=2,
                                  artifact_dir=tmp_path)
        with second:
            assert second.telemetry()["shards_resumed"] == 0

    def test_mismatched_manifest_discards_stale_artifacts(self, tmp_path):
        config = ExperimentConfig()
        benchmarks = _fast_benchmarks(4)
        serial = _serial_records(benchmarks, config)
        spec = SessionSpec()

        first = SweepCoordinator(benchmarks, config, spec, shard_size=2,
                                 artifact_dir=tmp_path)
        first.start()
        self._complete_first_shard(first, serial)
        first.close(linger=0.0)
        assert list(tmp_path.glob("shard-*.jsonl"))

        # A different grid in the same directory: nothing may be resumed.
        other = SweepCoordinator(_fast_benchmarks(2), config, spec,
                                 shard_size=2, artifact_dir=tmp_path)
        other.start()
        try:
            assert other.telemetry()["shards_resumed"] == 0
            assert not list(tmp_path.glob("shard-*.jsonl"))
        finally:
            other.close(linger=0.0)

    def test_stopping_with_a_worker_connected_logs_no_asyncio_error(
            self, tmp_path, caplog):
        """Stopping closes every open connection and awaits its handler;
        a handler left for the loop shutdown to cancel made asyncio log a
        CancelledError traceback.  Both planes stop through the one socket
        layer, so the service is checked the same way."""
        benchmarks = _fast_benchmarks(4)
        config = ExperimentConfig()
        serial = _serial_records(benchmarks, config)
        spec = SessionSpec()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            first = SweepCoordinator(benchmarks, config, spec, shard_size=2,
                                     artifact_dir=tmp_path)
            first.start()
            self._complete_first_shard(first, serial)
            idle = _WireClient(first.host, first.port)
            assert idle.hello(first.token)["ok"]
            first.close(linger=0.0)   # with ``idle`` still connected

            second = SweepCoordinator(benchmarks, config, spec, shard_size=2,
                                      artifact_dir=tmp_path)
            with second:
                assert second.telemetry()["shards_resumed"] == 1

            socket_path = tmp_path / "serve.sock"
            with SolverService(spec, workers=1) as service:
                server = ServerThread(service, socket_path)
                serve_idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                serve_idle.settimeout(30)
                serve_idle.connect(str(socket_path))
                serve_reader = serve_idle.makefile("rb")
                serve_idle.sendall(b'{"id": 1, "op": "ping"}\n')
                assert json.loads(serve_reader.readline())["pong"] is True
                server.close()   # with ``serve_idle`` still connected
        errors = [record.getMessage() for record in caplog.records
                  if record.name == "asyncio"
                  and record.levelno >= logging.ERROR]
        assert not errors
        # Each server closed its idle connection itself.
        assert idle.reader.readline() == b""
        idle.close()
        assert serve_reader.readline() == b""
        serve_reader.close()
        serve_idle.close()


# --------------------------------------------------------------------------- #
# End to end: real worker processes over loopback TCP
# --------------------------------------------------------------------------- #
@needs_fork
class TestEndToEnd:
    def test_distributed_equals_serial(self):
        benchmarks = _fast_benchmarks(4)
        config = ExperimentConfig()
        serial = _serial_records(benchmarks, config)
        result = run_distributed_sweep(benchmarks, config, workers=2,
                                       shard_size=1, timeout=120)
        assert [r.comparable() for r in result.records] == \
            [r.comparable() for r in serial]
        assert result.telemetry["shards_completed"] == len(benchmarks)

    def test_shared_cache_dir_rows_are_counted_once(self, tmp_path):
        benchmarks = _fast_benchmarks(4)
        result = run_distributed_sweep(
            benchmarks, ExperimentConfig(), workers=2,
            session_spec=SessionSpec(cache_dir=str(tmp_path)),
            shard_size=1, timeout=120)
        assert result.cache_stats["entries"] == peek_entry_count(tmp_path) > 0

    def test_sigkilled_worker_is_reassigned(self):
        from repro.engine.distributed import _local_worker_main

        benchmarks = _fast_benchmarks(8)
        config = ExperimentConfig()
        serial = _serial_records(benchmarks, config)
        coordinator = SweepCoordinator(benchmarks, config,
                                       SessionSpec(),
                                       shard_size=1, lease_timeout=10.0)
        coordinator.start()
        context = multiprocessing.get_context("fork")
        survivor = None
        try:
            victim = context.Process(
                target=_local_worker_main,
                args=((coordinator.host, coordinator.port),
                      coordinator.token, "victim"), daemon=True)
            victim.start()
            # Kill the worker the moment it holds a lease (mid-shard).
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if coordinator.telemetry()["active_leases"] >= 1:
                    break
                time.sleep(0.001)
            else:
                pytest.fail("worker never took a lease")
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            assert not victim.is_alive()

            survivor = context.Process(
                target=_local_worker_main,
                args=((coordinator.host, coordinator.port),
                      coordinator.token, "survivor"), daemon=True)
            survivor.start()
            result = coordinator.wait(timeout=120)
        finally:
            if survivor is not None:
                survivor.join(timeout=15)
                if survivor.is_alive():
                    survivor.terminate()
            coordinator.close()
        assert [r.comparable() for r in result.records] == \
            [r.comparable() for r in serial]
        # The killed worker's shard was requeued (on disconnect) and
        # merged exactly once.
        assert result.telemetry["shards_retried"] >= 1
        assert len(result.records) == len(benchmarks)

    def test_bad_token_raises_worker_rejected(self):
        benchmarks = _fast_benchmarks(2)
        config = ExperimentConfig()
        with SweepCoordinator(benchmarks, config,
                              SessionSpec()) as coordinator:
            with pytest.raises(WorkerRejected, match="token"):
                run_worker((coordinator.host, coordinator.port), "wrong")

    def test_unreachable_coordinator_raises_after_backoff(self):
        with pytest.raises(CoordinatorUnreachable):
            run_worker(("127.0.0.1", 1), "token", reconnect_attempts=1,
                       reconnect_backoff=0.01)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestCli:
    def _env(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_worker_against_dead_coordinator_exits_4_with_diagnosis(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep",
             "--worker", "127.0.0.1:1", "--token", "nope",
             "--reconnect-attempts", "0"],
            env=self._env(), capture_output=True, text=True, timeout=120)
        assert completed.returncode == 4
        assert "--coordinator" in completed.stderr

    def test_worker_requires_token(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep",
             "--worker", "127.0.0.1:1"],
            env=self._env(), capture_output=True, text=True, timeout=120)
        assert completed.returncode == 2
        assert "--token" in completed.stderr

    @pytest.mark.parametrize("argv, option", [
        (["--worker", "127.0.0.1:1", "--token", "x",
          "--reconnect-attempts", "0", "--workers", "4"], "--workers"),
        (["--arch", "intel-cyclone10lp", "--count", "1",
          "--shard-size", "2"], "--shard-size"),
    ], ids=["worker-workers", "local-shard-size"])
    def test_a_role_refuses_the_options_it_does_not_read(self, argv, option,
                                                         capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["sweep", *argv])
        assert exited.value.code == 2
        assert option in capsys.readouterr().err

    def test_coordinator_and_worker_flags_conflict(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep",
             "--coordinator", ":0", "--worker", "127.0.0.1:1",
             "--token", "x"],
            env=self._env(), capture_output=True, text=True, timeout=120)
        assert completed.returncode == 2
