#!/usr/bin/env python3
"""The repository benchmark: seeded workloads, checked answers, and a traced
run for per-layer numbers.  ``BENCHMARK.json`` names map-small and
sweep-xilinx; serve-repeat runs by hand, and map-small's traced run also
traces it.

    python3 perfbench/run.py --workload map-small --seed 1 --seconds 35 --trace 0

Run it from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the ``end_to_end`` ones of ``BENCHMARK.json``,
with ``--trace 1`` the ``per_layer`` ones.  End-to-end times and rates are
given at the reference host speed: each is divided by the host factor a
fixed kernel measured next to it (``hostspeed.py``).  A human-readable summary (and,
when tracing, the self-time table) goes to standard error.  The exit code is
1 when any answer contradicts its reference, 2 when the source tree is
missing.  ``perfbench/NOTES.md`` explains the workloads and metrics.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from concurrent.futures import FIRST_COMPLETED, wait  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("map-small", "sweep-xilinx", "serve-repeat")
#: Set-up samples per run of the in-process workloads: this process plus
#: fresh child processes started between passes, so that the samples spread
#: over the run (the host's speed drifts on a scale of seconds).
SETUP_SAMPLES = (5, 9)
SWEEP_WORKERS = 2
SERVE_WORKERS = 2
SERVE_CONNECTIONS = 2
#: map-small reads its peak RSS after this many passes (and makes at least
#: as many).  The library's memo tables grow with each distinct design
#: mapped, so a reading at the end of the run would grow with the number of
#: passes, that is with the mapper's speed.
RSS_PASSES = 3
#: Whole passes a traced run makes of each kind (fixed, so counts repeat).
TRACE_PASSES = {"map-small": 4, "sweep-xilinx": 1, "serve-repeat": 2}
#: A generous per-request bound: no single answer here takes a tenth of it.
REQUEST_TIMEOUT_S = 120.0
#: Host-speed kernel samples (``hostspeed.py``) taken before each map-small
#: request, after each sweep design (in its worker), and before and after
#: each serve pass and each set-up.
KERNEL_PER_REQUEST = 2
KERNEL_PER_DESIGN = 8
KERNEL_AROUND = 16


def new_recorder(args):
    """The span recorder of a traced run (``None`` when not tracing)."""
    if not args.trace:
        return None
    from tracer import SpanRecorder

    return SpanRecorder()


def more_passes(args, done, wall, minimum=1):
    """Whole passes until ``--seconds`` of measured wall time (at least
    ``minimum``); a traced run makes a fixed number so its counts repeat."""
    if args.trace:
        return done < TRACE_PASSES[args.workload]
    return done < minimum or wall < args.seconds


def cpu_jiffies():
    """``(steal, total)`` CPU time of the host over all CPUs from
    ``/proc/stat``, or ``None`` where there is none.  Steal is time the
    hypervisor ran something else while this VM had work: it slows every
    timing here, the service's millisecond round trips most."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(field) for field in handle.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def steal_share(start, end):
    """Share of the host's CPU time stolen between two :func:`cpu_jiffies`
    readings (0.0 where there are none)."""
    if start and end and end[1] > start[1]:
        return (end[0] - start[0]) / (end[1] - start[1])
    return 0.0


def percentile(values, q):
    """The ``q``-th percentile (0–100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Tally:
    """Answers checked against their references."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def fail(self, what):
        self.failed += 1
        print(f"failed: {what}", file=sys.stderr)

    def contradict(self, what):
        self.wrong.append(what)
        print(f"WRONG: {what}", file=sys.stderr)


# --------------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------------- #
def warm_up():
    """Imports, session and primitive-library load, and one warm-up map
    outside the measured loop."""
    from repro.engine.session import MappingSession
    from repro.workloads.generator import LATTICE_FORMS, Microbenchmark

    session = MappingSession(enable_cache=False)
    design = Microbenchmark("lattice-ecp5", LATTICE_FORMS[-1], 8, 0, False)
    session.map_verilog(design.verilog, arch="lattice-ecp5")
    return session


class SetupSamples:
    """Set-up seconds of this process and of fresh ``--setup-probe`` ones."""

    def __init__(self, workload, own):
        self.workload = workload
        self.times = [own]

    def between_passes(self):
        if len(self.times) < SETUP_SAMPLES[1]:
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--setup-probe",
                 "--workload", self.workload],
                capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S,
                check=True)
            self.times.append(float(completed.stdout.strip().splitlines()[-1]))

    def median(self):
        while len(self.times) < SETUP_SAMPLES[0]:
            self.between_passes()
        return statistics.median(self.times)


# --------------------------------------------------------------------------- #
# map-small
# --------------------------------------------------------------------------- #
def map_requests(session, requests, tally, results, speed=None):
    """Map each request serially, sampling the host speed before each one
    when ``speed`` is given; returns the wall seconds spent mapping."""
    busy = 0.0
    for request in requests:
        if speed:
            speed.sample(KERNEL_PER_REQUEST)
        begin = time.perf_counter()
        try:
            result = session.map_verilog(request.design.verilog, arch=request.arch)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            busy += time.perf_counter() - begin
            tally.attempted += 1
            tally.fail(f"{request.design.name} on {request.arch}: {exc!r}")
            continue
        seconds = time.perf_counter() - begin
        busy += seconds
        results.append((request, result.status, result.program, seconds))
    return busy


def check_mappings(results, tally, seed):
    """Reference-check every answer (outside any timed region)."""
    from designs import simulate_matches

    for index, (request, status, program, _) in enumerate(results):
        tally.attempted += 1
        where = f"{request.design.name} on {request.arch}"
        if status not in ("success", "unsat"):
            tally.fail(f"{where}: {status}")
        elif status != request.expected:
            tally.contradict(f"{where}: {status}, expected {request.expected}")
        elif status == "success" and not simulate_matches(
                request.design.verilog, program, seed + index):
            tally.contradict(f"{where}: mapping differs from the source in simulation")


def latency_metrics(latencies_s, pass_rates, native, mapped):
    """Percentiles over every request of the run; throughput is the median
    over passes of requests completed per second of the pass.  Times and
    rates come in at the reference host speed (``hostspeed.py``)."""
    return {"p50_ms": 1000 * percentile(latencies_s, 50),
            "p90_ms": 1000 * percentile(latencies_s, 90),
            "requests_per_s": statistics.median(pass_rates),
            "mapped_frac": mapped / native}


def run_map_small(args, session, tally, setups):
    from designs import map_small_pass

    rng = random.Random(args.seed)
    recorder = new_recorder(args)
    answers, rates, wall, traced_wall, native = [], [], 0.0, 0.0, 0
    while more_passes(args, len(rates), wall, minimum=RSS_PASSES):
        batch = map_small_pass(rng)
        native += sum(1 for r in batch if r.native)
        results, speed = [], HostSpeed()
        seconds = map_requests(session, batch, tally, results, speed)
        factor = speed.factor()
        rates.append(len(results) / seconds * factor)
        wall += seconds
        if recorder:
            # The same pass again, traced, right after its untraced run.
            with recorder:
                traced_wall += map_requests(session, batch, Tally(), [])
        else:
            setups.between_passes()
        # Check the pass now and keep only (request, status, seconds), so
        # the programs are not held for the rest of the run.
        check_mappings(results, tally, args.seed + len(answers))
        answers.extend((r[0], r[1], r[3] / factor) for r in results)
        if len(rates) == RSS_PASSES:
            # The checks never raised the peak (measured: it is set while
            # mapping), so the reading is the mapper's own.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = latency_metrics(
        [a[2] for a in answers], rates, native,
        sum(1 for a in answers if a[0].native and a[1] == "success"))
    values["unsat_p50_ms"] = 1000 * percentile(
        [a[2] for a in answers if a[0].expected == "unsat"], 50)
    values["peak_rss_mb"] = peak_rss_mb
    if recorder:
        values.update(layer_metrics(recorder, args))
        values["trace.overhead_frac"] = traced_wall / wall - 1
    return values


# --------------------------------------------------------------------------- #
# sweep-xilinx
# --------------------------------------------------------------------------- #
class ProgramCapture:
    """Ships each mapped program, and the host speed next to it, out of the
    sweep's forked workers.

    ``run_sweep`` returns records, which carry no program.  While installed,
    ``record_from_result`` — which every worker calls once per design, after
    the design's time is taken — is wrapped to sample the host-speed kernel
    and append ``(benchmark, program, kernel samples)`` to a per-process
    file; the workers inherit the wrapper through ``fork``.  The kernel runs
    in the worker because the host slows a sweep that keeps both CPUs busy
    differently from an idle parent: sampled in the parent around the sweep,
    the factor read 0.70 and 0.97 in two runs of one seed whose raw times
    agreed within 2%.
    Only the sampling, the pickling and the append run inside the timed
    sweep; the check itself runs afterwards.
    """

    def __init__(self):
        import repro.harness.runner as runner

        self.runner = runner
        self.original = runner.record_from_result
        self.prefix = f"capture-{os.getpid()}-"

    def __enter__(self):
        original, prefix = self.original, self.prefix

        def capture(result, **fields):
            speed = HostSpeed()
            speed.sample(KERNEL_PER_DESIGN)
            with open(OUT / f"{prefix}{os.getpid()}.pkl", "ab") as handle:
                pickle.dump((fields["benchmark"], result.program, speed.samples),
                            handle)
            return original(result, **fields)

        self.runner.record_from_result = capture
        return self

    def __exit__(self, *exc_info):
        self.runner.record_from_result = self.original

    def collect(self):
        """Everything the workers wrote since the last call:
        name → ``(program, kernel samples)`` per design of that name."""
        captured = {}
        for path in OUT.glob(f"{self.prefix}*.pkl"):
            with open(path, "rb") as handle:
                while True:
                    try:
                        name, program, samples = pickle.load(handle)
                    except EOFError:
                        break
                    captured.setdefault(name, []).append((program, samples))
            path.unlink()
        return captured


def sweep(requests, workers):
    from repro.engine.parallel import run_sweep
    from repro.harness.runner import ExperimentConfig

    start = time.perf_counter()
    result = run_sweep([r.design for r in requests],
                       ExperimentConfig(use_cache=False), workers=workers)
    return result.records, time.perf_counter() - start


def check_sweep(requests, records, captured, tally, seed):
    """Reference-check every record against its captured program; returns
    the kernel samples the workers took in the pass."""
    from designs import simulate_matches

    speed = HostSpeed()
    for index, (request, record) in enumerate(zip(requests, records)):
        tally.attempted += 1
        name = request.design.name
        program, samples = (captured[name].pop() if captured.get(name)
                            else (None, []))
        speed.samples.extend(samples)
        if record.outcome not in ("success", "unsat"):
            tally.fail(f"{name}: {record.outcome}")
        elif record.outcome != request.expected:
            tally.contradict(f"{name}: {record.outcome}, expected {request.expected}")
        elif record.dsps != 1:
            tally.contradict(f"{name}: {record.dsps} DSPs, expected one")
        elif program is None:
            tally.contradict(f"{name}: no program captured from the worker")
        elif not simulate_matches(request.design.verilog, program, seed + index):
            tally.contradict(f"{name}: mapping differs from the source in simulation")
    return speed


def run_sweep_xilinx(args, tally):
    from designs import sweep_pass

    rng = random.Random(args.seed)
    requests, records, times, rates, wall = [], [], [], [], 0.0
    capture = ProgramCapture()
    while more_passes(args, len(rates), wall):
        batch = sweep_pass(rng)
        with capture:
            batch_records, seconds = sweep(batch, SWEEP_WORKERS)
        speed = check_sweep(batch, batch_records, capture.collect(), tally,
                            args.seed + len(requests))
        factor = speed.factor()
        # The workers ran the kernel inside the pass, each for its own
        # designs: take their share of its time out of the pass wall.
        seconds -= sum(speed.samples) / SWEEP_WORKERS
        rates.append(len(batch_records) / seconds * factor)
        times.extend(r.time_seconds / factor for r in batch_records)
        wall += seconds
        print(f"sweep pass {len(rates)}: {len(batch)} designs in {seconds:.3f} s, "
              f"host factor {factor:.3f}", file=sys.stderr)
        requests.extend(batch)
        records.extend(batch_records)
    values = latency_metrics(times, rates, len(requests),
                             sum(1 for r in records if r.mapped))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if args.trace:
        from tracer import SpanRecorder

        values["engine.parallel.efficiency"] = (
            sum(r.time_seconds for r in records) / (SWEEP_WORKERS * wall))
        # Spans are recorded in this process, so the traced run maps the
        # same designs at workers=1; its untraced twin gives the overhead.
        _, serial_wall = sweep(requests, 1)
        with SpanRecorder() as recorder:
            _, traced_wall = sweep(requests, 1)
        values.update(layer_metrics(recorder, args))
        values["trace.overhead_frac"] = traced_wall / serial_wall - 1
    return values


# --------------------------------------------------------------------------- #
# serve-repeat
# --------------------------------------------------------------------------- #
class Server:
    """A ``lakeroad serve`` subprocess on a unix socket inside ``OUT``."""

    def __init__(self):
        self.socket = os.path.relpath(OUT / f"serve-{os.getpid()}.sock")
        self.log = open(OUT / f"serve-{os.getpid()}.log", "ab")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket", self.socket,
             "--workers", str(SERVE_WORKERS)],
            env=env, stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log)

    def wait_ready(self):
        """Seconds from spawn to the first answered ``ping``."""
        from repro.engine.service import ServiceClient

        with ServiceClient(self.socket, connect_timeout=REQUEST_TIMEOUT_S) as client:
            if not client.ping(timeout=REQUEST_TIMEOUT_S):
                raise RuntimeError("lakeroad serve did not answer ping")
        return time.perf_counter() - self.started

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()
        if os.path.exists(self.socket):
            os.unlink(self.socket)


def closed_loop(socket_path, stream, want_stats=False):
    """Keep one request outstanding per connection until the stream is done.

    One generator thread (this one) sends the next stream request on
    whichever connection just got its answer.  Returns the wall seconds and
    ``(request, first, response, round-trip seconds)`` per request.
    """
    from repro.engine.service import ServiceClient

    clients = [ServiceClient(socket_path) for _ in range(SERVE_CONNECTIONS)]
    pending, answers = {}, []
    remaining = iter(stream)

    def send(client):
        item = next(remaining, None)
        if item is None:
            return
        request, _ = item
        design = request.design
        sent = time.perf_counter()
        future = client.submit({
            "op": "map", "verilog": design.verilog, "arch": request.arch,
            "benchmark": design.name, "form": design.form.name,
            "width": design.width, "stages": design.stages,
            "signed": design.signed})
        stamp = {}
        future.add_done_callback(lambda _, stamp=stamp: stamp.setdefault(
            "at", time.perf_counter()))
        pending[future] = (client, item, sent, stamp)

    try:
        start = time.perf_counter()
        for client in clients:
            send(client)
        while pending:
            done, _ = wait(pending, timeout=REQUEST_TIMEOUT_S,
                           return_when=FIRST_COMPLETED)
            if not done:
                raise RuntimeError("no answer from lakeroad serve in "
                                   f"{REQUEST_TIMEOUT_S:.0f} s")
            for future in done:
                client, (request, first), sent, stamp = pending.pop(future)
                answers.append((request, first, future.result(),
                                stamp["at"] - sent))
                send(client)
        wall = time.perf_counter() - start
        stats = clients[0].stats(timeout=REQUEST_TIMEOUT_S) if want_stats else None
    finally:
        for client in clients:
            client.close()
    return wall, answers, stats


class Pinger(threading.Thread):
    """Control-plane probe for the traced run: one ``ping`` every 20 ms on
    its own connection while the closed loop runs."""

    def __init__(self, socket_path):
        super().__init__(name="perfbench-pinger", daemon=True)
        self.socket_path = socket_path
        self.halt = threading.Event()
        self.samples = []

    def run(self):
        from repro.engine.service import ServiceClient

        with ServiceClient(self.socket_path) as client:
            while not self.halt.wait(0.02):
                begin = time.perf_counter()
                client.ping(timeout=REQUEST_TIMEOUT_S)
                self.samples.append(time.perf_counter() - begin)

    def stop(self):
        self.halt.set()
        self.join(timeout=REQUEST_TIMEOUT_S)


def check_served(answers, tally):
    from designs import design_key, outcome_fields

    seen = {}
    for request, _, response, _ in answers:
        tally.attempted += 1
        name = f"{request.design.name} on {request.arch}"
        if not response.get("ok"):
            tally.fail(f"{name}: {response.get('error')}")
            continue
        record = response["record"]
        if record["outcome"] not in ("success", "unsat"):
            tally.fail(f"{name}: {record['outcome']}")
        elif record["outcome"] != request.expected:
            tally.contradict(f"{name}: {record['outcome']}, expected {request.expected}")
        elif record["dsps"] != 1:
            tally.contradict(f"{name}: {record['dsps']} DSPs, expected one")
        else:
            fields = seen.setdefault(design_key(request.design), outcome_fields(record))
            if fields != outcome_fields(record):
                tally.contradict(f"{name}: a repeat answered differently")


class PassLog:
    """What the serve passes of one kind (untraced or traced) produced.

    ``answers`` keep raw round trips (for the per-layer metrics).  For the
    end-to-end ones, each pass adds its set-up time, round-trip percentiles
    and rate at the reference host speed; the run reports their medians
    over passes, so that one disturbed pass moves no metric."""

    def __init__(self):
        self.answers, self.pings, self.stats = [], [], []
        self.setups, self.p50s, self.p90s, self.rates = [], [], [], []
        self.wall = 0.0


def serve_one_pass(stream, tally, log, recorder=None):
    """One closed-loop pass on a fresh server (a stream repeats designs of
    its own pass only, so a fresh cache keeps passes alike)."""
    from contextlib import nullcontext

    def span(name):
        return recorder.span(name) if recorder else nullcontext()

    speed = HostSpeed()
    speed.sample(KERNEL_AROUND)
    with span("engine.service.spawn"):
        server = Server()
        try:
            setup = server.wait_ready()
        except BaseException:
            server.stop()
            raise
    try:
        pinger = Pinger(server.socket) if recorder else None
        if pinger:
            pinger.start()
        try:
            jiffies = cpu_jiffies()
            with span("engine.service.closed_loop"):
                seconds, batch, stats = closed_loop(
                    server.socket, stream, want_stats=bool(recorder))
            steal = steal_share(jiffies, cpu_jiffies())
        finally:
            if pinger:
                pinger.stop()
                log.pings.extend(pinger.samples)
    finally:
        with span("engine.service.drain"):
            server.stop()
    speed.sample(KERNEL_AROUND)
    factor = speed.factor()
    if stats:
        log.stats.append(stats)
    check_served(batch, tally)
    log.answers.extend(batch)
    log.setups.append(setup / factor)
    round_trips = [answer[3] / factor for answer in batch]
    log.p50s.append(percentile(round_trips, 50))
    log.p90s.append(percentile(round_trips, 90))
    log.rates.append(len(batch) / seconds * factor)
    log.wall += seconds
    print(f"serve pass {len(log.rates)}: p50 {1000 * log.p50s[-1]:.3f} ms, "
          f"p90 {1000 * log.p90s[-1]:.1f} ms, {log.rates[-1]:.1f}/s, host factor "
          f"{factor:.3f}, steal {100 * steal:.1f}%", file=sys.stderr)


def run_serve_repeat(args, tally):
    from designs import serve_pass

    rng = random.Random(args.seed)
    recorder = new_recorder(args)
    run, traced = PassLog(), PassLog()
    while more_passes(args, len(run.rates), run.wall, minimum=3):
        stream = serve_pass(rng)
        serve_one_pass(stream, tally, run)
        if recorder:
            # The same stream again, traced.  The front door and its
            # workers run in the server's processes, out of the recorder's
            # reach: the traced pass times the benchmark's own calls into
            # the service and adds a ping prober.
            with recorder:
                serve_one_pass(stream, Tally(), traced, recorder)
    values = {
        "p50_ms": 1000 * statistics.median(run.p50s),
        "p90_ms": 1000 * statistics.median(run.p90s),
        "requests_per_s": statistics.median(run.rates),
        "mapped_frac": sum(1 for a in run.answers if a[2].get("ok") and
                           a[2]["record"]["outcome"] == "success") / len(run.answers),
        "setup_s": statistics.median(run.setups),
    }
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if recorder:
        values.update(layer_metrics(recorder, args))
        stats = traced.stats
        records = [(a[3], a[2]["record"], a[1]) for a in traced.answers
                   if a[2].get("ok")]
        hits = [rtt for rtt, record, _ in records if record["cache_hit"]]
        solves = [(rtt, record) for rtt, record, first in records
                  if first and not record["cache_hit"]]
        requests = sum(s["requests"] for s in stats)
        values.update({
            "engine.service.hit_p50_ms": 1000 * percentile(hits, 50),
            "engine.service.ping_p50_us": 1e6 * percentile(traced.pings, 50),
            "engine.service.warm_hit_rate":
                sum(s["warm_served"] for s in stats) / requests,
            "engine.service.coalesced": sum(s["coalesced"] for s in stats),
            "engine.service.dispatched": sum(s["dispatched"] for s in stats),
            "engine.service.solve_p50_ms":
                1000 * percentile([r["time_seconds"] for _, r in solves], 50),
            "engine.service.wait_p50_ms":
                1000 * percentile([rtt - r["time_seconds"] for rtt, r in solves], 50),
            "trace.overhead_frac": traced.wall / run.wall - 1,
        })
    return values


# --------------------------------------------------------------------------- #
# Per-layer metrics from a traced run
# --------------------------------------------------------------------------- #
def layer_metrics(recorder, args):
    """Per-layer metrics from the recorder, plus the table on stderr and the
    spans in ``OUT``."""
    from tracer import INCLUSIVE

    table = recorder.table()
    counts = recorder.counts

    def seconds(name):
        row = table.get(name)
        if row is None:
            return 0.0
        return row["incl_s"] if name in INCLUSIVE else row["self_s"]

    lanes = counts.get("bv.bitsim.lanes", 0)
    values = {
        "hdl.import_s": seconds("hdl.import"),
        "core.sketch_gen_s": seconds("core.sketch_gen"),
        "core.lower_s": seconds("core.lower"),
        "engine.session.validate_s": seconds("engine.session.validate"),
        "core.interp.obligations_s": seconds("core.interp.obligations"),
        "smt.blast_s": seconds("smt.blast"),
        "sat.load_s": seconds("sat.load"),
        "sat.load.clauses": table.get("sat.load", {}).get("calls", 0)
        + table.get("sat.load", {}).get("helper_calls", 0),
        "smt.lexmin_s": seconds("smt.lexmin"),
        "smt.lexmin.solves": counts.get("smt.lexmin.solves", 0),
        "sat.search_s": seconds("sat.search"),
        "sat.search.solves": counts.get("sat.search.solves", 0),
        "sat.search.conflicts": counts.get("sat.search.conflicts", 0),
        "smt.verify_s": seconds("smt.verify"),
        "sat.portfolio_s": seconds("sat.portfolio"),
        "bv.bitsim.probe_s": seconds("bv.bitsim.probe"),
        "bv.bitsim.probe_hit_rate":
            counts.get("bv.bitsim.lane_hits", 0) / lanes if lanes else 0.0,
        "smt.cegis.iterations": counts.get("smt.cegis.iterations", 0),
        "other_s": table["other"]["self_s"],
        "trace.wall_s": recorder.wall,
    }
    print(f"traced wall {recorder.wall:.3f} s; self time by layer "
          "(main thread; helper-thread spans listed separately):",
          file=sys.stderr)
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        print(f"  {name:28s} self {row['self_s']:9.4f} s "
              f"{100 * row['self_s'] / recorder.wall:5.1f}%  "
              f"incl {row['incl_s']:9.4f} s  calls {int(row['calls']):8d}  "
              f"helper {row['helper_s']:8.4f} s / {int(row['helper_calls'])}",
              file=sys.stderr)
    recorder.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    return values


# --------------------------------------------------------------------------- #
def report(args, values, tally, jiffies_at_start):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in section:
        name = metric["name"]
        if name not in values and not args.trace:
            raise KeyError(f"workload {args.workload} did not measure {name}")
        metrics[name] = {"value": values.get(name, 0), "unit": metric["unit"]}
    attempted = max(tally.attempted, 1)
    print(f"{args.workload} seed {args.seed}: {tally.attempted} attempted, "
          f"{tally.failed} failed (failed_frac {tally.failed / attempted:.4f}), "
          f"{len(tally.wrong)} wrong (wrong_frac {len(tally.wrong) / attempted:.4f})",
          file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    factors = HostSpeed.history
    print(f"  host factor: median {statistics.median(factors):.3f}, "
          f"{min(factors):.3f}–{max(factors):.3f} over {len(factors)} "
          "measurements (times above are divided by it)", file=sys.stderr)
    jiffies = cpu_jiffies()
    if jiffies_at_start and jiffies and jiffies[1] > jiffies_at_start[1]:
        steal = steal_share(jiffies_at_start, jiffies)
        print(f"  host steal: {100 * steal:.1f}% of CPU time during the run",
              file=sys.stderr)
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 1 if tally.wrong else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no source tree at {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    jiffies = cpu_jiffies()

    if args.workload == "serve-repeat":
        if args.setup_probe:
            parser.error("serve-repeat times its set-up per server")
        tally = Tally()
        return report(args, run_serve_repeat(args, tally), tally, jiffies)

    session = warm_up()
    setup = time.perf_counter() - PROCESS_START
    speed = HostSpeed()
    speed.sample(KERNEL_AROUND)
    setup /= speed.factor()
    if args.setup_probe:
        print(setup)
        return 0
    tally, setups = Tally(), SetupSamples(args.workload, setup)
    if args.workload == "map-small":
        values = run_map_small(args, session, tally, setups)
        if args.trace:
            # serve-repeat is not a workload of BENCHMARK.json (NOTES.md,
            # "Host noise"), so the traced map-small run measures the
            # service's layers: serve-repeat's traced passes, own trace file.
            served = run_serve_repeat(
                argparse.Namespace(**{**vars(args), "workload": "serve-repeat"}),
                tally)
            values.update((name, value) for name, value in served.items()
                          if name.startswith("engine.service."))
            print(f"serve-repeat trace.overhead_frac = "
                  f"{served['trace.overhead_frac']:.4f}", file=sys.stderr)
    else:
        # The sweep's set-up probes run after it: RUSAGE_CHILDREN, which
        # gives the workers' peak RSS, would count them too.
        values = run_sweep_xilinx(args, tally)
    if not args.trace:
        values["setup_s"] = setups.median()
    return report(args, values, tally, jiffies)


if __name__ == "__main__":
    sys.exit(main())
