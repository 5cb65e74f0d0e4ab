"""The ``lakeroad`` command-line interface (Section 2.2).

Usage mirrors the paper::

    lakeroad --template dsp --arch-desc xilinx-ultrascale-plus add_mul_and.v

The CLI is a thin shell over :class:`repro.engine.MappingSession`, which
owns the budget policy, the word-level solver and the synthesis cache.  A
second subcommand drives the evaluation harness::

    lakeroad sweep --arch intel-cyclone10lp --workers 4 --cache-dir .lr-cache

sharding the workload enumeration across worker processes with a shared
persistent synthesis cache (see :mod:`repro.engine.parallel`).  For
backward compatibility a bare Verilog file is treated as the ``map``
subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.arch import available_architectures, load_architecture
from repro.core.templates import available_templates
from repro.engine.session import MappingSession
from repro.engine.stats import solved_here, this_run
from repro.hdl.behavioral import verilog_to_behavioral
from repro.hdl.elaborate import ElaborationError
from repro.hdl.lexer import LexError
from repro.hdl.parser import ParseError

__all__ = ["main", "build_parser", "build_sweep_parser", "build_bench_parser",
           "build_serve_parser", "build_request_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``map`` (default) subcommand parser: map one Verilog file."""
    parser = argparse.ArgumentParser(
        prog="lakeroad",
        description="FPGA technology mapping using sketch-guided program synthesis "
                    "(reproduction of the ASPLOS 2024 Lakeroad paper). "
                    "Run 'lakeroad sweep --help' for the parallel evaluation sweep. "
                    "Exit codes: 0 mapped (structural Verilog on stdout), "
                    "1 input error (unknown --arch-desc, a --module the "
                    "file lacks, Verilog the frontend rejects -- such as a "
                    "declared range other than [N-1:0], or an input the "
                    "output never reads that is not a clock -- or an "
                    "--output/--cache-dir path it cannot use), 2 unsat, "
                    "a command-line usage error or a Verilog file that is "
                    "missing or cannot be read, 3 timeout.")
    parser.add_argument("verilog", help="behavioral Verilog file to map")
    parser.add_argument("--template", default="dsp", choices=available_templates(),
                        help="sketch template to use (default: dsp)")
    parser.add_argument("--arch-desc", default="xilinx-ultrascale-plus",
                        help="architecture description name or path "
                             f"(shipped: {', '.join(available_architectures())})")
    parser.add_argument("--module", default=None, help="module name if the file has several")
    parser.add_argument("--timeout", type=float, default=None,
                        help="synthesis timeout in seconds (default: per-architecture)")
    parser.add_argument("--extra-cycles", type=int, default=1,
                        help="extra clock cycles of bounded model checking (default: 1)")
    parser.add_argument("--output", "-o", default=None,
                        help="write the structural Verilog here (default: stdout)")
    parser.add_argument("--no-validate", action="store_true",
                        help="skip post-synthesis simulation validation")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the session's synthesis cache")
    parser.add_argument("--cache-dir", default=None,
                        help="persist the synthesis cache here (shared across runs)")
    parser.add_argument("--stats", action="store_true",
                        help="print cache statistics, the layers that "
                             "decided the candidate and verification "
                             "queries, and the solver counters")
    return parser


def build_sweep_parser() -> argparse.ArgumentParser:
    """The ``sweep`` subcommand parser: a sharded evaluation sweep."""
    from repro.workloads.generator import ARCHITECTURE_WORKLOADS

    architectures = sorted(ARCHITECTURE_WORKLOADS)
    parser = argparse.ArgumentParser(
        prog="lakeroad sweep",
        description="Run the Lakeroad mapper over sampled microbenchmarks, "
                    "sharded across worker processes with an optional "
                    "persistent synthesis cache. "
                    "Exit codes: 0 swept (unmappable designs are records, "
                    "not errors), 1 input error (a --jsonl, --stats-json or "
                    "--cache-dir path it cannot use, checked before any "
                    "design is mapped) or a failed distributed run, 2 "
                    "command-line usage error, 130 interrupted and drained; "
                    "a --worker node exits 4 when the coordinator is "
                    "unreachable and 5 when it rejects the handshake.")
    parser.add_argument("--arch", action="append",
                        choices=architectures, default=None,
                        help="architecture to sweep (repeatable; default: all "
                             f"of {', '.join(architectures)})")
    parser.add_argument("--count", type=int, default=8,
                        help="stratified sample size per architecture (default: 8)")
    parser.add_argument("--max-width", type=int, default=None,
                        help="cap benchmark bitwidths (default: 8; with "
                             "--full, no cap unless given)")
    parser.add_argument("--seed", type=int, default=0,
                        help="sampling seed (default: 0)")
    parser.add_argument("--full", action="store_true",
                        help="run the complete enumeration instead of a "
                             "sample (capped by an explicit --max-width)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes to shard across (default: 1)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent synthesis cache directory shared by "
                             "workers and later runs (default: in-memory only)")
    parser.add_argument("--template", default="dsp", choices=available_templates(),
                        help="sketch template to use (default: dsp)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-query timeout override in seconds "
                             "(default: laptop-scale per-architecture budgets)")
    parser.add_argument("--validate", action="store_true",
                        help="simulation-validate every mapped design")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable synthesis caching entirely")
    parser.add_argument("--jsonl", default=None,
                        help="dump the raw MappingRecords to this JSON-lines file")
    parser.add_argument("--stats-json", default=None,
                        help="write a machine-readable sweep summary here")
    distributed = parser.add_argument_group(
        "distributed mode",
        "serve the sweep to TCP worker nodes (--coordinator) or be one "
        "(--worker); see EXPERIMENTS.md for topology and tuning.  An "
        "option the chosen role does not read is a usage error")
    distributed.add_argument("--coordinator", metavar="HOST:PORT", default=None,
                             help="serve shards to remote workers on this "
                                  "address (port 0 picks a free port)")
    distributed.add_argument("--worker", metavar="HOST:PORT", default=None,
                             help="pull shards from the coordinator at this "
                                  "address instead of generating a grid")
    distributed.add_argument("--token", default=None,
                             help="shared secret for the worker handshake "
                                  "(coordinator generates and prints one "
                                  "when omitted)")
    distributed.add_argument("--worker-name", default=None,
                             help="name this worker reports (default: "
                                  "hostname-pid)")
    distributed.add_argument("--shard-size", type=int, default=4,
                             help="benchmarks per shard the coordinator "
                                  "hands out (default: 4)")
    distributed.add_argument("--lease-timeout", type=float, default=30.0,
                             help="seconds without a heartbeat before a "
                                  "shard is reassigned (default: 30)")
    distributed.add_argument("--retry-budget", type=int, default=3,
                             help="reassignments per shard before the sweep "
                                  "fails loudly (default: 3)")
    distributed.add_argument("--artifact-dir", default=None,
                             help="directory for per-shard JSONL artifacts; "
                                  "a restarted coordinator resumes completed "
                                  "shards from here")
    distributed.add_argument("--reconnect-attempts", type=int, default=5,
                             help="worker reconnect budget (exponential "
                                  "backoff) before giving up (default: 5)")
    return parser


def build_bench_parser() -> argparse.ArgumentParser:
    """The ``bench`` subcommand parser: a performance snapshot."""
    from repro.workloads.generator import ARCHITECTURE_WORKLOADS

    architectures = sorted(ARCHITECTURE_WORKLOADS)
    parser = argparse.ArgumentParser(
        prog="lakeroad bench",
        description="Measure probe throughput (scalar vs packed) and an "
                    "end-to-end cold+warm mapping sweep, and write "
                    "the snapshot to BENCH_<rev>.json. "
                    "Exit codes: 0 written (or --diff found no "
                    "regression), 1 an --output-dir it cannot create "
                    "(checked before any design is mapped) or a --diff "
                    "regression, 2 command-line usage error (an empty "
                    "sample included).")
    parser.add_argument("--arch", action="append", dest="architectures",
                        choices=architectures, default=None,
                        help="architecture to bench (repeatable; default: all "
                             f"of {', '.join(architectures)})")
    parser.add_argument("--count", type=int, default=4,
                        help="stratified sample size per architecture (default: 4)")
    parser.add_argument("--max-width", type=int, default=8,
                        help="cap benchmark bitwidths (default: 8)")
    parser.add_argument("--seed", type=int, default=0,
                        help="sampling seed (default: 0)")
    parser.add_argument("--template", default="dsp", choices=available_templates(),
                        help="sketch template to use (default: dsp)")
    parser.add_argument("--throughput-assignments", type=int, default=4096,
                        help="assignments for the scalar-vs-packed throughput "
                             "measurement (default: 4096)")
    parser.add_argument("--output-dir", default=".",
                        help="directory for BENCH_<rev>.json (default: .)")
    parser.add_argument("--diff", nargs=2, metavar=("OLD.json", "NEW.json"),
                        default=None,
                        help="compare two BENCH_<rev>.json snapshots instead "
                             "of running the bench; exits nonzero on a "
                             "regression beyond the per-metric thresholds")
    parser.add_argument("--threshold", action="append", default=None,
                        metavar="METRIC=FRACTION",
                        help="override a diff threshold, e.g. "
                             "totals.cold_seconds=2.0 (repeatable; run "
                             "--diff with an unknown metric to list them)")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``serve`` subcommand parser: the warm solver-worker pool."""
    from repro.engine.service import DEFAULT_SOCKET

    parser = argparse.ArgumentParser(
        prog="lakeroad serve",
        description="Run the long-lived mapping service: a pool of worker "
                    "processes with warm sessions behind a deduplicating, "
                    "caching front door on a unix socket; a request that "
                    "still needs a solve goes to an idle worker, each "
                    "worker solving one request at a time. "
                    "Query it with 'lakeroad request'; stop it with "
                    "SIGINT/SIGTERM (in-flight requests drain first). "
                    "Exit codes: 0 after a drained shutdown, 1 input error "
                    "(a --socket or --cache-dir path it cannot use, checked "
                    "before any worker starts), 2 command-line usage error.")
    parser.add_argument("--socket", default=DEFAULT_SOCKET,
                        help=f"unix socket path (default: {DEFAULT_SOCKET})")
    parser.add_argument("--workers", type=int, default=2,
                        help="solver worker processes (default: 2)")
    parser.add_argument("--max-pending", type=int, default=None,
                        help="global cap on admitted-but-unfinished map "
                             "requests; beyond it clients get a structured "
                             "'overloaded' rejection with a retry hint "
                             "(default: 256)")
    parser.add_argument("--client-queue", type=int, default=None,
                        help="per-client cap on admitted-but-unfinished map "
                             "requests (default: 64)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent synthesis cache: the workers write "
                             "each solve to it and the front door reads it "
                             "(default: only the front door's in-memory "
                             "cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable synthesis caching (dedup still applies)")
    return parser


def build_request_parser() -> argparse.ArgumentParser:
    """The ``request`` subcommand parser: query a running service."""
    from repro.engine.service import DEFAULT_SOCKET

    parser = argparse.ArgumentParser(
        prog="lakeroad request",
        description="Send one map request to a running 'lakeroad serve' "
                    "and print the MappingRecord as JSON. Exit codes mirror "
                    "'lakeroad map': 0 success, 1 the server could not map "
                    "the request (e.g. Verilog the frontend rejects; one "
                    "'request failed: ...' line) or stayed overloaded "
                    "after --retries, 2 unsat, a command-line usage "
                    "error or a Verilog file that is missing or cannot "
                    "be read (a directory, unreadable, not UTF-8; one "
                    "'cannot read ...' line), 3 timeout; 4 means no "
                    "server answers on "
                    "--socket, 6 that the client-side --deadline expired "
                    "first.")
    parser.add_argument("verilog", help="behavioral Verilog file to map")
    parser.add_argument("--socket", default=DEFAULT_SOCKET,
                        help=f"unix socket path (default: {DEFAULT_SOCKET})")
    parser.add_argument("--template", default="dsp", choices=available_templates(),
                        help="sketch template to use (default: dsp)")
    parser.add_argument("--arch-desc", default="xilinx-ultrascale-plus",
                        help="architecture description name "
                             f"(shipped: {', '.join(available_architectures())})")
    parser.add_argument("--module", default=None,
                        help="module name if the file has several")
    parser.add_argument("--timeout", type=float, default=None,
                        help="synthesis timeout in seconds (default: "
                             "per-architecture)")
    parser.add_argument("--extra-cycles", type=int, default=1,
                        help="extra clock cycles of bounded model checking "
                             "(default: 1)")
    parser.add_argument("--validate", action="store_true",
                        help="simulation-validate the mapped design")
    parser.add_argument("--deadline", type=float, default=600.0,
                        help="client-side wall-clock limit in seconds; a "
                             "request still unanswered when it expires "
                             "exits with code 6 instead of blocking on a "
                             "saturated server (default: 600)")
    parser.add_argument("--retries", type=int, default=3,
                        help="bounded retries when the server answers with "
                             "a structured 'overloaded' rejection, sleeping "
                             "its retry_after_ms hint between attempts "
                             "(default: 3)")
    parser.add_argument("--stats", action="store_true",
                        help="also print the service's front-door statistics")
    return parser


def build_cache_parser() -> argparse.ArgumentParser:
    """The ``cache`` subcommand parser: persistent-cache management."""
    parser = argparse.ArgumentParser(
        prog="lakeroad cache",
        description="Inspect and manage a persistent synthesis cache "
                    "directory (see --cache-dir on map/sweep).")
    parser.add_argument("action", choices=("stats", "prune", "clear"),
                        help="stats: entry count, on-disk size and lifetime "
                             "hit rate; prune: "
                             "LRU-trim by --max-entries/--max-age-days; "
                             "clear: drop every entry")
    parser.add_argument("--cache-dir", required=True,
                        help="the synthesis cache directory to operate on")
    parser.add_argument("--max-entries", type=int, default=None,
                        help="prune: keep at most this many entries "
                             "(least recently used go first)")
    parser.add_argument("--max-age-days", type=float, default=None,
                        help="prune: drop entries unused for this many days")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "sweep":
        return _main_sweep(argv[1:])
    if argv and argv[0] == "cache":
        return _main_cache(argv[1:])
    if argv and argv[0] == "bench":
        return _main_bench(argv[1:])
    if argv and argv[0] == "serve":
        return _main_serve(argv[1:])
    if argv and argv[0] == "request":
        return _main_request(argv[1:])
    if argv and argv[0] == "map":
        argv = argv[1:]
    return _main_map(argv)


# --------------------------------------------------------------------------- #
# lakeroad map (the historical default)
# --------------------------------------------------------------------------- #
def _input_error(command: str, error) -> int:
    """Report input ``lakeroad <command>`` rejects in one line; exit code 1."""
    # args[0] is the bare message (a KeyError's str() is its quoted repr).
    if isinstance(error, Exception) and error.args:
        error = error.args[0]
    print(f"lakeroad {command}: error: {error}", file=sys.stderr)
    return 1


def _read_verilog(parser, command: str, path: str) -> str:
    """The text of the Verilog file ``lakeroad <command>`` was given.

    A missing file is a usage error (``parser.error``); one that exists but
    cannot be read as UTF-8 text (a directory, an unreadable file, other
    bytes) is reported in one ``lakeroad <command>: error: cannot read ...``
    line.  Both exit with code 2.
    """
    source_path = Path(path)
    if not source_path.exists():
        parser.error(f"no such file: {path}")
    try:
        return source_path.read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror or exc
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text (byte {exc.start})"
    parser.exit(2, f"lakeroad {command}: error: cannot read {path}: {reason}\n")


def _reject_negative(parser, args, *options: str) -> None:
    """``parser.error`` (exit 2) on the first of ``options`` given a negative
    or NaN value; an option left unset (``None``) passes."""
    for option in options:
        value = getattr(args, option[2:].replace("-", "_"))
        if value is not None and not value >= 0:
            parser.error(f"{option} must be non-negative")


def _path_problem(cache_dir: Optional[str] = None,
                  outputs: Sequence[Optional[str]] = (),
                  output_dir: Optional[str] = None) -> Optional[str]:
    """Why a command could not use its cache directory, an output path or
    its output directory.

    Returns None when every path is usable.  Commands call this before any
    work starts, so a mistyped path fails at once instead of after a whole
    sweep whose records it would lose.  The directories are created here,
    as the cache or the writer would create them.
    """
    for role, directory in (("cache", cache_dir), ("output", output_dir)):
        if directory is None:
            continue
        try:
            Path(directory).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return f"cannot create {role} directory {directory}: {exc.strerror}"
    for output in outputs:
        if output is None:
            continue
        target = Path(output)
        if target.is_dir():
            return f"cannot create {output}: it is a directory"
        if not target.parent.is_dir():
            return f"cannot create {output}: no directory {target.parent}"
        if not os.access(target.parent, os.W_OK | os.X_OK):
            return f"cannot create {output}: {target.parent} is not writable"
    return None


def _print_counters(counters) -> None:
    """Print a solver counters map (:mod:`repro.engine.stats`) to stderr."""
    print("solver counters:", file=sys.stderr)
    for key, value in counters.items():
        shown = f"{value:,.2f}" if isinstance(value, float) else value
        print(f"  {key}: {shown}", file=sys.stderr)


def _main_map(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.no_cache and args.cache_dir:
        parser.error("--no-cache and --cache-dir are contradictory: a "
                     "disabled cache never persists anything")
    _reject_negative(parser, args, "--timeout", "--extra-cycles")
    source = _read_verilog(parser, "map", args.verilog)

    problem = _path_problem(args.cache_dir, [args.output])
    if problem:
        return _input_error("map", problem)
    try:
        design = verilog_to_behavioral(source, args.module)
    except (LexError, ParseError, ElaborationError) as exc:
        return _input_error("map", exc)
    try:
        architecture = load_architecture(args.arch_desc)
    except (KeyError, ValueError) as exc:
        return _input_error("map", exc)
    session = MappingSession(enable_cache=not args.no_cache,
                             cache_dir=args.cache_dir)
    result = session.map_design(
        design,
        template=args.template,
        arch=architecture,
        timeout_seconds=args.timeout,
        extra_cycles=args.extra_cycles,
        validate=not args.no_validate,
    )

    print(f"status: {result.status} ({result.time_seconds:.2f}s)", file=sys.stderr)
    if args.stats:
        print(f"cache: {session.cache_stats()}", file=sys.stderr)
        if solved_here(result):
            if result.synthesis is not None:
                print(f"candidate strategy: "
                      f"{result.synthesis.candidate_strategy}", file=sys.stderr)
                print(f"verify strategy: {result.synthesis.verify_strategy}",
                      file=sys.stderr)
            _print_counters(this_run([result]))
        else:
            print("solver: answered from the cache; no solve ran",
                  file=sys.stderr)
    if result.status == "success":
        if result.resources is not None:
            print(f"resources: {result.resources}", file=sys.stderr)
        if result.validated is not None:
            print(f"simulation validation: {'passed' if result.validated else 'FAILED'}",
                  file=sys.stderr)
        if args.output:
            Path(args.output).write_text(result.verilog or "")
        else:
            print(result.verilog or "")
        return 0
    if result.status == "unsat":
        print("UNSAT: the sketch cannot implement this design on the target primitive",
              file=sys.stderr)
        return 2
    print("timeout: synthesis did not finish within the budget", file=sys.stderr)
    return 3


# --------------------------------------------------------------------------- #
# lakeroad sweep
# --------------------------------------------------------------------------- #
def _install_sigterm_as_interrupt():
    """Route SIGTERM through KeyboardInterrupt so `kill` gets the same
    graceful drain as Ctrl-C.  Returns the previous handler (restore it when
    done); a no-op outside the main thread or on platforms without SIGTERM."""
    import signal as signal_mod
    import threading

    if threading.current_thread() is not threading.main_thread():
        return None

    def _raise_interrupt(signum, frame):
        raise KeyboardInterrupt

    try:
        return signal_mod.signal(signal_mod.SIGTERM, _raise_interrupt)
    except (OSError, ValueError):  # pragma: no cover - exotic platforms
        return None


def _restore_sigterm(previous) -> None:
    import signal as signal_mod

    if previous is None:
        return
    try:
        signal_mod.signal(signal_mod.SIGTERM, previous)
    except (OSError, ValueError):  # pragma: no cover
        pass


#: The sweep options each role does not read; giving one is a usage error.
#: A worker takes its grid, config and session spec from the coordinator.
_UNREAD_SWEEP_OPTIONS = {
    "a --worker node": ("--workers", "--timeout", "--template", "--validate",
                        "--no-cache", "--arch", "--count", "--seed", "--full",
                        "--max-width", "--jsonl", "--stats-json",
                        "--shard-size", "--lease-timeout", "--retry-budget"),
    "a --coordinator": ("--workers", "--worker-name", "--reconnect-attempts"),
    "a local sweep": ("--token", "--worker-name", "--shard-size",
                      "--lease-timeout", "--retry-budget", "--artifact-dir",
                      "--reconnect-attempts"),
}


def _refuse_unread(parser, argv, args, role: str) -> None:
    """``parser.error`` (exit 2) on the first option on the command line
    (abbreviated or not, whatever its value) that ``role`` does not read."""
    parser.set_defaults(**dict.fromkeys(vars(args), None))
    given = {dest for dest, value in vars(parser.parse_args(argv)).items()
             if value is not None}
    for option in _UNREAD_SWEEP_OPTIONS[role]:
        if option[2:].replace("-", "_") in given:
            parser.error(f"{option} is not read by {role}")


#: The usage error of a ``sweep`` or ``bench`` whose sample has no design.
_EMPTY_SAMPLE = ("the requested sample is empty (raise --count/--max-width; "
                 "the narrowest enumerated benchmarks are 8 bits wide)")


def _main_sweep(argv) -> int:
    from repro.engine.parallel import SessionSpec, SweepInterrupted, run_sweep
    from repro.harness.runner import ExperimentConfig, records_to_jsonl
    from repro.workloads.generator import (
        ARCHITECTURE_WORKLOADS,
        enumerate_workloads,
        sample_workloads,
    )

    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    _reject_negative(parser, args, "--timeout")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.coordinator and args.worker:
        parser.error("--coordinator and --worker are mutually exclusive: a "
                     "node is one or the other")
    _refuse_unread(parser, argv, args,
                   "a --worker node" if args.worker
                   else "a --coordinator" if args.coordinator
                   else "a local sweep")
    if args.worker:
        return _sweep_worker(args, parser)
    if args.no_cache and args.cache_dir:
        parser.error("--no-cache and --cache-dir are contradictory: a "
                     "disabled cache never persists anything")
    problem = _path_problem(args.cache_dir, [args.jsonl, args.stats_json])
    if problem:
        return _input_error("sweep", problem)
    architectures = args.arch or sorted(ARCHITECTURE_WORKLOADS)

    benchmarks = []
    for architecture in architectures:
        if args.full:
            benchmarks.extend(enumerate_workloads(architecture,
                                                  args.max_width))
        else:
            benchmarks.extend(sample_workloads(
                architecture, args.count, seed=args.seed,
                max_width=8 if args.max_width is None else args.max_width))
    if not benchmarks:
        parser.error(_EMPTY_SAMPLE)

    config = ExperimentConfig(validate=args.validate, template=args.template)
    if args.timeout is not None:
        config.timeout_seconds = {arch: args.timeout for arch in architectures}
    spec = SessionSpec(cache_dir=args.cache_dir,
                       enable_cache=not args.no_cache)

    interrupted = False
    if args.coordinator:
        from repro.engine.distributed import SweepCoordinator, parse_address

        try:
            host, port = parse_address(args.coordinator)
        except ValueError as exc:
            parser.error(str(exc))
        coordinator = SweepCoordinator(
            benchmarks, config, spec, host=host, port=port, token=args.token,
            shard_size=args.shard_size, lease_timeout=args.lease_timeout,
            retry_budget=args.retry_budget, artifact_dir=args.artifact_dir)
        try:
            host, port = coordinator.start()
        except RuntimeError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        telemetry = coordinator.telemetry()
        resumed = telemetry["shards_resumed"]
        print(f"coordinator: serving {telemetry['shards']} shard(s) "
              f"({len(benchmarks)} benchmark(s)) on {host}:{port}"
              + (f", {resumed} resumed from {args.artifact_dir}"
                 if resumed else ""), file=sys.stderr)
        print(f"worker command: lakeroad sweep --worker {host}:{port} "
              f"--token {coordinator.token}", file=sys.stderr)
        previous_handler = _install_sigterm_as_interrupt()
        try:
            while True:
                try:
                    result = coordinator.wait(timeout=0.5)
                    break
                except TimeoutError:
                    continue
        except KeyboardInterrupt:
            done = coordinator.telemetry()["shards_completed"]
            print(f"coordinator interrupted after {done}/"
                  f"{telemetry['shards']} shard(s)"
                  + (f" — completed shards stay in {args.artifact_dir} "
                     "for a resumed run" if args.artifact_dir else ""),
                  file=sys.stderr)
            coordinator.close(linger=0.0)
            return 130
        except RuntimeError as exc:
            print(f"distributed sweep failed: {exc}", file=sys.stderr)
            coordinator.close(linger=0.0)
            return 1
        finally:
            _restore_sigterm(previous_handler)
        coordinator.close()
    else:
        previous_handler = _install_sigterm_as_interrupt()
        try:
            result = run_sweep(benchmarks, config, workers=args.workers,
                               session_spec=spec)
        except SweepInterrupted as stop:
            # Drained shutdown: workers finished their in-flight benchmark
            # and flushed their caches; report what completed and exit 130
            # (the conventional interrupted-by-signal code).
            interrupted = True
            result = stop.result
            print(f"sweep interrupted — drained {len(result.records)}/"
                  f"{len(benchmarks)} completed record(s)", file=sys.stderr)
        finally:
            _restore_sigterm(previous_handler)

    outcomes = result.outcome_counts()
    counters = result.stats
    print(f"swept {len(result.records)} benchmarks over "
          f"{', '.join(architectures)} with {result.workers} worker(s)",
          file=sys.stderr)
    print(f"outcomes: {outcomes}", file=sys.stderr)
    print(f"record cache hits: {result.record_cache_hits}/{len(result.records)} "
          f"({result.hit_rate:.0%})", file=sys.stderr)
    print(f"cache: {result.cache_stats}", file=sys.stderr)
    _print_counters(counters)
    distributed_telemetry = getattr(result, "telemetry", None)
    if distributed_telemetry:
        print(f"distributed: {distributed_telemetry['shards_completed']}/"
              f"{distributed_telemetry['shards']} shard(s) over "
              f"{len(distributed_telemetry['workers'])} worker(s), "
              f"{distributed_telemetry['shards_stolen']} stolen, "
              f"{distributed_telemetry['shards_retried']} retried, "
              f"{distributed_telemetry['duplicate_results']} duplicate(s), "
              f"straggler p95 "
              f"{distributed_telemetry['straggler_p95_seconds']:.2f}s",
              file=sys.stderr)

    if args.jsonl:
        records_to_jsonl(result.records, args.jsonl)
        print(f"records written to {args.jsonl}", file=sys.stderr)
    if args.stats_json:
        summary = {
            "total": len(result.records),
            "interrupted": interrupted,
            "workers": result.workers,
            "architectures": architectures,
            "outcomes": outcomes,
            "record_cache_hits": result.record_cache_hits,
            "hit_rate": result.hit_rate,
            "cache": result.cache_stats,
            **counters,
        }
        if distributed_telemetry:
            summary["distributed"] = distributed_telemetry
        Path(args.stats_json).write_text(json.dumps(summary, indent=2) + "\n")
    # The sweep succeeded as a harness run even if some designs were
    # unmappable; only an empty record set is an error (caught above).
    return 130 if interrupted else 0


#: Distinct exit codes for the networked subcommands: 4 means "the peer is
#: unreachable" (vs 1, a request that reached a server and failed there),
#: 5 means "the coordinator rejected this worker's handshake" and 6 means
#: "the client-side deadline expired before the (reachable) server
#: answered" — a saturated server, not a missing one.
EXIT_UNREACHABLE = 4
EXIT_REJECTED = 5
EXIT_DEADLINE = 6


def _sweep_worker(args, parser) -> int:
    """``lakeroad sweep --worker HOST:PORT``: one worker node."""
    from repro.engine.distributed import (
        CoordinatorUnreachable,
        WorkerRejected,
        parse_address,
        run_worker,
    )

    if not args.token:
        parser.error("--worker requires --token (the coordinator prints it "
                     "on startup)")
    try:
        address = parse_address(args.worker)
    except ValueError as exc:
        parser.error(str(exc))
    extra = {}
    if args.cache_dir:
        # Override the coordinator's spec path — worker machines need not
        # share the coordinator's filesystem layout.
        extra["cache_dir"] = args.cache_dir
    try:
        stats = run_worker(address, args.token,
                           worker_name=args.worker_name,
                           artifact_dir=args.artifact_dir,
                           reconnect_attempts=args.reconnect_attempts,
                           **extra)
    except CoordinatorUnreachable as exc:
        print(f"cannot reach a sweep coordinator at {args.worker}: {exc}",
              file=sys.stderr)
        print("is `lakeroad sweep --coordinator` running there, and the "
              "port reachable from this machine?", file=sys.stderr)
        return EXIT_UNREACHABLE
    except WorkerRejected as exc:
        print(f"coordinator at {args.worker} rejected this worker: {exc}",
              file=sys.stderr)
        print("check --token against the value the coordinator printed",
              file=sys.stderr)
        return EXIT_REJECTED
    except RuntimeError as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1
    print(f"worker done: contributed {stats['shards']} shard(s) / "
          f"{stats['records']} record(s); {stats['abandoned']} abandoned, "
          f"{stats['duplicates']} duplicate(s), "
          f"{stats['reconnects']} reconnect(s)", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------- #
# lakeroad bench
# --------------------------------------------------------------------------- #
def _main_bench_diff(args, parser) -> int:
    from repro.harness.bench import DEFAULT_DIFF_THRESHOLDS, diff_snapshots

    thresholds = dict(DEFAULT_DIFF_THRESHOLDS)
    for override in args.threshold or ():
        metric, _, fraction = override.partition("=")
        if metric not in thresholds:
            parser.error(f"unknown diff metric {metric!r}; known metrics: "
                         f"{', '.join(sorted(thresholds))}")
        try:
            allowed = float(fraction)
        except ValueError:
            parser.error(f"--threshold needs METRIC=FRACTION, got {override!r}")
        thresholds[metric] = (thresholds[metric][0], allowed)

    old_path, new_path = args.diff
    try:
        old = json.loads(Path(old_path).read_text())
        new = json.loads(Path(new_path).read_text())
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read snapshot: {exc}")

    results = diff_snapshots(old, new, thresholds)
    regressions = [entry for entry in results if entry["regressed"]]
    for entry in results:
        marker = "REGRESSED" if entry["regressed"] else "ok"
        print(f"{entry['metric']}: {entry['old']:.4g} -> {entry['new']:.4g} "
              f"({entry['change']:+.1%}, {entry['direction']} is better, "
              f"allowed {entry['allowed']:.0%}) {marker}")
    print(f"{len(results)} metric(s) compared, "
          f"{len(regressions)} regression(s)", file=sys.stderr)
    return 1 if regressions else 0


def _main_bench(argv) -> int:
    from repro.harness.bench import bench_sample, run_bench, write_snapshot

    parser = build_bench_parser()
    args = parser.parse_args(argv)
    if args.diff is not None:
        return _main_bench_diff(args, parser)
    if args.throughput_assignments < 1:
        parser.error("--throughput-assignments must be at least 1")
    if not bench_sample(args.architectures, args.count, args.seed,
                        args.max_width):
        parser.error(_EMPTY_SAMPLE)
    problem = _path_problem(output_dir=args.output_dir)
    if problem:
        return _input_error("bench", problem)

    snapshot = run_bench(architectures=args.architectures,
                         count=args.count, seed=args.seed,
                         max_width=args.max_width, template=args.template,
                         throughput_assignments=args.throughput_assignments)
    path = write_snapshot(snapshot, args.output_dir)

    totals = snapshot["totals"]
    throughput = snapshot["probe_throughput"]
    print(f"revision: {snapshot['revision']}", file=sys.stderr)
    print(f"solved: {totals['solved']}/{totals['benchmarks']} "
          f"({totals['solved_rate']:.0%}) in {totals['cold_seconds']:.2f}s cold, "
          f"{totals['warm_seconds']:.2f}s warm "
          f"({totals['warm_cache_hit_rate']:.0%} cache hits)", file=sys.stderr)
    _print_counters(snapshot["solver"])
    print(f"probe throughput: "
          f"{throughput['packed_assignments_per_second']:,.0f}/s packed vs "
          f"{throughput['scalar_assignments_per_second']:,.0f}/s scalar "
          f"({throughput['speedup']:.1f}x)", file=sys.stderr)
    print(str(path))
    return 0


# --------------------------------------------------------------------------- #
# lakeroad serve / request
# --------------------------------------------------------------------------- #
def _main_serve(argv) -> int:
    from repro.engine.parallel import SessionSpec
    from repro.engine.service import SolverService, run_server

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.no_cache and args.cache_dir:
        parser.error("--no-cache and --cache-dir are contradictory: a "
                     "disabled cache never persists anything")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.max_pending is not None and args.max_pending < 1:
        parser.error("--max-pending must be at least 1")
    if args.client_queue is not None and args.client_queue < 1:
        parser.error("--client-queue must be at least 1")
    problem = _path_problem(args.cache_dir, [args.socket])
    if problem:
        return _input_error("serve", problem)

    spec = SessionSpec(cache_dir=args.cache_dir,
                       enable_cache=not args.no_cache)
    qos = {}
    if args.max_pending is not None:
        qos["max_pending"] = args.max_pending
    if args.client_queue is not None:
        qos["client_queue"] = args.client_queue
    service = SolverService(spec, workers=args.workers, **qos)
    print(f"lakeroad serve: {args.workers} warm worker(s) on {args.socket} "
          "(SIGINT/SIGTERM drains and exits)", file=sys.stderr)
    try:
        run_server(service, args.socket)
    finally:
        service.close()
        stats = service.stats()
        print(f"served {stats['requests']} request(s): "
              f"{stats['coalesced']} coalesced, "
              f"{stats['front_memory_hits'] + stats['front_disk_hits']} "
              f"front-door hit(s), {stats['worker_cache_hits']} worker "
              f"cache hit(s), {stats['worker_restarts']} worker restart(s) "
              f"({stats['warm_hit_rate']:.0%} warm); "
              f"{stats['rejections']} rejection(s)", file=sys.stderr)
    return 0


def _main_request(argv) -> int:
    from concurrent.futures import TimeoutError as FutureTimeoutError

    from repro.engine.service import ServiceClient

    parser = build_request_parser()
    args = parser.parse_args(argv)
    _reject_negative(parser, args, "--timeout", "--extra-cycles", "--retries")
    source = _read_verilog(parser, "request", args.verilog)

    payload = {
        "op": "map",
        "verilog": source,
        "template": args.template,
        "arch": args.arch_desc,
        "extra_cycles": args.extra_cycles,
        "validate": args.validate,
    }
    if args.module:
        payload["module"] = args.module
    if args.timeout is not None:
        payload["timeout"] = args.timeout

    if args.deadline <= 0:
        parser.error("--deadline must be positive")
    try:
        with ServiceClient(args.socket, connect_timeout=5.0) as client:
            response = client.request(payload, timeout=args.deadline,
                                      retry_overloaded=args.retries)
            stats = client.stats() if args.stats else None
    except FutureTimeoutError:
        # The server accepted the connection but did not answer in time —
        # it is saturated or solving something hard, not unreachable.
        print(f"request to {args.socket} exceeded the client deadline "
              f"({args.deadline:g}s); the server is reachable but "
              "saturated (raise --deadline, or retry later)",
              file=sys.stderr)
        return EXIT_DEADLINE
    except (OSError, ConnectionError) as exc:
        print(f"cannot reach a lakeroad serve on {args.socket}: {exc}",
              file=sys.stderr)
        print("is `lakeroad serve` running with the same --socket path?",
              file=sys.stderr)
        return EXIT_UNREACHABLE

    if not response.get("ok"):
        if response.get("error") == "overloaded":
            print(f"request rejected after {args.retries} retry(ies): the "
                  "server is over its pending cap "
                  f"(retry_after_ms={response.get('retry_after_ms')})",
                  file=sys.stderr)
            return 1
        print(f"request failed: {response.get('error')}", file=sys.stderr)
        return 1
    record = response["record"]
    print(json.dumps(record, indent=2))
    if stats is not None:
        print(f"service: {json.dumps(stats)}", file=sys.stderr)
    outcome = record.get("outcome")
    if outcome == "success":
        return 0
    if outcome == "unsat":
        return 2
    return 3


# --------------------------------------------------------------------------- #
# lakeroad cache
# --------------------------------------------------------------------------- #
def _main_cache(argv) -> int:
    from repro.engine.diskcache import (
        DB_NAME,
        SCHEMA_VERSION,
        DiskSynthesisCache,
        peek_entry_count,
        peek_schema_version,
    )

    parser = build_cache_parser()
    args = parser.parse_args(argv)
    directory = Path(args.cache_dir)
    if not (directory / DB_NAME).exists():
        print(f"no synthesis cache database under {directory}", file=sys.stderr)
        return 1
    if args.action == "prune" and args.max_entries is None \
            and args.max_age_days is None:
        parser.error("prune needs --max-entries and/or --max-age-days")
    stored_version = peek_schema_version(directory)
    if stored_version != SCHEMA_VERSION and args.action != "clear":
        # Opening the cache for stats/prune would run the schema migration,
        # which drops every (unreadable-by-this-version) entry — far too
        # destructive for an inspection command.
        print(f"cache database has schema version {stored_version}, this "
              f"version reads {SCHEMA_VERSION}; its entries are unusable "
              "here.  Run 'lakeroad cache clear' to reset it.",
              file=sys.stderr)
        return 1
    # Count before constructing: on an old-schema database the constructor
    # itself drops the entries table, and clear must still report honestly
    # how many entries the reset discarded.
    cleared = peek_entry_count(directory) or 0

    cache = DiskSynthesisCache(directory)
    try:
        if args.action == "stats":
            entries = len(cache)
            size = cache.size_bytes()
            print(f"entries: {entries}")
            print(f"size: {size} bytes ({size / 1e6:.2f} MB)")
            lifetime = cache.lifetime_stats()
            hits = lifetime["lifetime_hits"]
            misses = lifetime["lifetime_misses"]
            total = hits + misses
            rate = f" ({hits / total:.0%} hit rate)" if total else ""
            print(f"lifetime: {hits} hits, {misses} misses{rate}")
            return 0
        if args.action == "prune":
            max_age = args.max_age_days * 86400.0 \
                if args.max_age_days is not None else None
            removed = cache.prune(max_entries=args.max_entries,
                                  max_age_seconds=max_age)
            print(f"pruned {removed} entries; {len(cache)} remain "
                  f"({cache.size_bytes() / 1e6:.2f} MB on disk)")
            return 0
        cache.clear()
        print(f"cleared {cleared} entries")
        return 0
    finally:
        cache.close()


if __name__ == "__main__":
    sys.exit(main())
