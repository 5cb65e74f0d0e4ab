"""Seeded, deterministic load generator for the service QoS layer.

Used two ways:

* **Imported by the QoS test-suite** (``tests/test_service_qos.py``): the
  profile/plan machinery produces a reproducible request schedule (which
  designs, in what order, with what think times) from one integer seed,
  and the drivers replay it either directly against a
  :class:`~repro.engine.service.SolverService` (``drive_service``) or over
  the socket layer (``drive_socket``).  ``make_fake_serve`` swaps the
  worker-side solve for a deterministic stand-in so scheduling tests do
  not depend on real solver wall-clock.
* **Run as a script by the CI ``qos-smoke`` job**: drives a flooder plus
  steady clients against a live ``lakeroad serve`` socket and, with
  ``--check``, asserts the QoS contract — zero starvation, bounded steady
  p95, at least one structured rejection for the flooder.

Every request targets a *distinct* design by construction: the front door
admits coalesced duplicates and cache hits for free, so identical repeats
would carry no load at all.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_OPS = ("&", "|", "^", "+")

#: Fast architecture/template pair for real-solve smoke runs (~10 ms each).
DEFAULT_ARCH = "intel-cyclone10lp"
DEFAULT_TEMPLATE = "dsp"


def design_verilog(index: int, flavor: str = "q") -> str:
    """A small combinational design, distinct per ``(flavor, index)``.

    Width and both operators cycle with the index, and the trailing
    operand differs per flavor, so no two generated designs share a
    program fingerprint (64 distinct designs per flavor before the cycle
    repeats — callers should keep per-client index ranges disjoint).
    """
    width = 2 + (index % 4)
    op1 = _OPS[(index // 4) % 4]
    op2 = _OPS[(index // 16) % 4]
    tail = "a" if flavor == "q" or flavor.endswith("a") else "b"
    name = f"{flavor}{index}"
    return (f"module {name}(input [{width - 1}:0] a, "
            f"input [{width - 1}:0] b, output [{width - 1}:0] out);\n"
            f"  assign out = (a {op1} b) {op2} {tail};\n"
            f"endmodule\n")


def client_seed(seed: int, name: str) -> int:
    """A stable per-client sub-seed (crc32, not ``hash`` — the latter is
    salted per interpreter run and would unseed the schedule)."""
    return (int(seed) * 1_000_003 + zlib.crc32(name.encode())) & 0xFFFFFFFF


# --------------------------------------------------------------------------- #
# Profiles and deterministic plans
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Profile:
    """One client's traffic shape.

    ``kind`` is ``"flooder"`` (pipeline every request at once, never
    retry), ``"steady"`` (one request at a time with think-time gaps), or
    ``"bursty"`` (bursts of ``burst`` concurrent requests separated by
    gaps).  ``base``/``flavor`` select this client's design range; keep
    ranges disjoint across profiles so clients never coalesce with each
    other unless a test wants them to.
    """

    name: str
    kind: str = "steady"
    requests: int = 8
    think_seconds: float = 0.01
    burst: int = 4
    retries: int = 0
    base: int = 0
    flavor: str = "q"
    #: Fake-solve delay hint carried in the request's ``form`` metadata
    #: (see :func:`make_fake_serve`); ``None`` leaves ``form`` empty.
    delay: Optional[float] = None


@dataclass(frozen=True)
class Step:
    """One planned request: which design, after how long a pause."""

    design_index: int
    think_seconds: float


@dataclass
class Outcome:
    """One request's fate as observed by the load generator."""

    client: str
    design_index: int
    status: str                # "ok" | "rejected" | "error"
    latency_seconds: float
    attempts: int = 1
    detail: str = ""


def plan(profile: Profile, seed: int) -> List[Step]:
    """The deterministic request schedule for one profile.

    Same ``(profile, seed)`` → same steps, independent of interpreter
    hash seeds or prior ``random`` use.  Flooders have zero think time by
    definition; steady/bursty think times jitter uniformly in
    [0.5, 1.5] × ``think_seconds`` from the client's own RNG stream.
    """
    rng = random.Random(client_seed(seed, profile.name))
    steps = []
    for i in range(profile.requests):
        if profile.kind == "flooder":
            think = 0.0
        else:
            think = profile.think_seconds * rng.uniform(0.5, 1.5)
        steps.append(Step(design_index=profile.base + i, think_seconds=think))
    return steps


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def summarize(outcomes: Dict[str, List[Outcome]]) -> Dict[str, Dict[str, Any]]:
    """Per-client served/rejected/error counts and latency percentiles."""
    summary: Dict[str, Dict[str, Any]] = {}
    for client, results in outcomes.items():
        latencies = [o.latency_seconds for o in results if o.status == "ok"]
        summary[client] = {
            "requests": len(results),
            "served": sum(1 for o in results if o.status == "ok"),
            "rejected": sum(1 for o in results if o.status == "rejected"),
            "errors": sum(1 for o in results if o.status == "error"),
            "p50_latency_seconds": percentile(latencies, 0.50),
            "p95_latency_seconds": percentile(latencies, 0.95),
            "max_latency_seconds": max(latencies, default=0.0),
        }
    return summary


# --------------------------------------------------------------------------- #
# Deterministic worker stand-in (in-process tests)
# --------------------------------------------------------------------------- #
def encode_delay(delay: Optional[float]) -> str:
    """The ``form`` metadata carrying a fake-solve delay (metadata fields
    never enter the solve key, so delay hints cannot split coalescing)."""
    return "" if delay is None else f"delay={delay:.6f}"


def make_fake_serve(default_delay: float = 0.0, gate=None
                    ) -> Callable:
    """A deterministic replacement for ``repro.engine.parallel.map_request``.

    Monkeypatch it onto that module **before** constructing the
    ``SolverService`` — the fork start method snapshots the patched module
    into every worker.  The stand-in honours a per-request delay from
    :func:`encode_delay` metadata (falling back to ``default_delay``) and,
    when ``gate`` (a ``multiprocessing.Event``) is given, blocks every
    solve until the test releases it — the saturation lever for
    backpressure and control-plane tests.
    """
    from repro.harness.runner import MappingRecord

    def fake_serve(session, request):
        if gate is not None:
            gate.wait()
        delay = default_delay
        if request.form.startswith("delay="):
            delay = float(request.form.split("=", 1)[1])
        if delay > 0:
            time.sleep(delay)
        return MappingRecord(tool="fake", architecture=request.arch,
                             benchmark=request.benchmark,
                             form=request.form,
                             width=request.width or 1,
                             stages=request.stages, signed=request.signed,
                             outcome="success", time_seconds=delay)

    return fake_serve


# --------------------------------------------------------------------------- #
# Drivers
# --------------------------------------------------------------------------- #
def make_request(profile: Profile, design_index: int,
                 arch: str = DEFAULT_ARCH,
                 template: str = DEFAULT_TEMPLATE,
                 use_cache: Optional[bool] = False):
    """The MapRequest for one planned step (distinct design, labelled
    with the client and index so outcomes are traceable)."""
    from repro.engine.service import MapRequest

    return MapRequest(verilog=design_verilog(design_index, profile.flavor),
                      arch=arch, template=template, use_cache=use_cache,
                      benchmark=f"{profile.name}-{design_index}",
                      form=encode_delay(profile.delay))


def drive_service(service, profiles: Sequence[Profile], seed: int = 0,
                  arch: str = DEFAULT_ARCH, template: str = DEFAULT_TEMPLATE,
                  use_cache: Optional[bool] = False,
                  result_timeout: float = 120.0
                  ) -> Dict[str, List[Outcome]]:
    """Replay every profile's plan directly against a SolverService.

    One thread per profile (clients are concurrent by definition);
    within a profile the plan order is respected exactly.  Rejections
    (:class:`~repro.engine.service.ServiceOverloaded`) become
    ``"rejected"`` outcomes; steady/bursty clients honour
    ``profile.retries`` by sleeping the server's hint between attempts.
    """
    from repro.engine.service import ServiceOverloaded

    outcomes: Dict[str, List[Outcome]] = {p.name: [] for p in profiles}
    lock = threading.Lock()

    def record(outcome: Outcome) -> None:
        with lock:
            outcomes[outcome.client].append(outcome)

    def submit_once(profile: Profile, step: Step):
        request = make_request(profile, step.design_index, arch=arch,
                               template=template, use_cache=use_cache)
        return service.submit(request, client=profile.name)

    def submit_with_retry(profile: Profile, step: Step) -> Outcome:
        started = time.monotonic()
        for attempt in range(profile.retries + 1):
            try:
                future = submit_once(profile, step)
            except ServiceOverloaded as exc:
                if attempt < profile.retries:
                    time.sleep(min(exc.retry_after_ms / 1000.0, 2.0))
                    continue
                return Outcome(profile.name, step.design_index, "rejected",
                               time.monotonic() - started,
                               attempts=attempt + 1, detail=str(exc))
            try:
                future.result(timeout=result_timeout)
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                return Outcome(profile.name, step.design_index, "error",
                               time.monotonic() - started,
                               attempts=attempt + 1, detail=str(exc))
            return Outcome(profile.name, step.design_index, "ok",
                           time.monotonic() - started, attempts=attempt + 1)
        raise AssertionError("unreachable")  # pragma: no cover

    def run_flooder(profile: Profile, steps: List[Step]) -> None:
        fired = []
        for step in steps:
            started = time.monotonic()
            try:
                fired.append((step, started, submit_once(profile, step)))
            except ServiceOverloaded as exc:
                record(Outcome(profile.name, step.design_index, "rejected",
                               time.monotonic() - started, detail=str(exc)))
        for step, started, future in fired:
            try:
                future.result(timeout=result_timeout)
                status, detail = "ok", ""
            except Exception as exc:  # noqa: BLE001
                status, detail = "error", str(exc)
            record(Outcome(profile.name, step.design_index, status,
                           time.monotonic() - started, detail=detail))

    def run_steady(profile: Profile, steps: List[Step]) -> None:
        for step in steps:
            if step.think_seconds:
                time.sleep(step.think_seconds)
            record(submit_with_retry(profile, step))

    def run_bursty(profile: Profile, steps: List[Step]) -> None:
        for start in range(0, len(steps), profile.burst):
            burst = steps[start:start + profile.burst]
            if burst[0].think_seconds:
                time.sleep(burst[0].think_seconds)
            threads = [threading.Thread(
                target=lambda s=step: record(submit_with_retry(profile, s)))
                for step in burst]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

    runners = {"flooder": run_flooder, "steady": run_steady,
               "bursty": run_bursty}
    threads = []
    for profile in profiles:
        runner = runners[profile.kind]
        threads.append(threading.Thread(
            target=runner, args=(profile, plan(profile, seed)),
            name=f"loadgen-{profile.name}"))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for results in outcomes.values():
        results.sort(key=lambda o: o.design_index)
    return outcomes


def drive_socket(socket_path, profiles: Sequence[Profile], seed: int = 0,
                 arch: str = DEFAULT_ARCH, template: str = DEFAULT_TEMPLATE,
                 result_timeout: float = 120.0
                 ) -> Dict[str, List[Outcome]]:
    """Replay every profile's plan over the socket layer.

    Each profile gets its own connection (so per-connection client ids
    and the explicit ``client`` field both see realistic traffic); the
    flooder pipelines its whole plan before collecting any response,
    steady/bursty clients round-trip with ``retry_overloaded``.
    """
    from repro.engine.service import ServiceClient

    outcomes: Dict[str, List[Outcome]] = {p.name: [] for p in profiles}
    lock = threading.Lock()

    def record(outcome: Outcome) -> None:
        with lock:
            outcomes[outcome.client].append(outcome)

    def payload(profile: Profile, step: Step) -> Dict[str, Any]:
        return {"op": "map",
                "verilog": design_verilog(step.design_index, profile.flavor),
                "arch": arch, "template": template, "use_cache": False,
                "client": profile.name,
                "benchmark": f"{profile.name}-{step.design_index}"}

    def classify(response: Dict[str, Any]) -> Tuple[str, str]:
        if response.get("ok"):
            return "ok", ""
        if response.get("error") == "overloaded":
            return "rejected", f"retry_after_ms={response.get('retry_after_ms')}"
        return "error", str(response.get("error"))

    def run_flooder(profile: Profile, steps: List[Step]) -> None:
        with ServiceClient(socket_path) as client:
            started = time.monotonic()
            futures = [(step, client.submit(payload(profile, step)))
                       for step in steps]
            for step, future in futures:
                try:
                    response = future.result(timeout=result_timeout)
                    status, detail = classify(response)
                except Exception as exc:  # noqa: BLE001
                    status, detail = "error", str(exc)
                record(Outcome(profile.name, step.design_index, status,
                               time.monotonic() - started, detail=detail))

    def run_paced(profile: Profile, steps: List[Step]) -> None:
        with ServiceClient(socket_path) as client:
            for step in steps:
                if step.think_seconds:
                    time.sleep(step.think_seconds)
                started = time.monotonic()
                try:
                    response = client.request(
                        payload(profile, step), timeout=result_timeout,
                        retry_overloaded=profile.retries)
                    status, detail = classify(response)
                except Exception as exc:  # noqa: BLE001
                    status, detail = "error", str(exc)
                record(Outcome(profile.name, step.design_index, status,
                               time.monotonic() - started, detail=detail))

    runners = {"flooder": run_flooder, "steady": run_paced,
               "bursty": run_paced}
    threads = [threading.Thread(target=runners[p.kind],
                                args=(p, plan(p, seed)),
                                name=f"loadgen-{p.name}")
               for p in profiles]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for results in outcomes.values():
        results.sort(key=lambda o: o.design_index)
    return outcomes


# --------------------------------------------------------------------------- #
# Script mode (the CI qos-smoke job)
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Seeded QoS load generator against a lakeroad serve "
                    "socket: one flooder plus N steady clients.")
    parser.add_argument("--socket", required=True,
                        help="unix socket path of the running server")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--flood", type=int, default=24,
                        help="flooder request count (pipelined at once)")
    parser.add_argument("--steady-clients", type=int, default=2)
    parser.add_argument("--steady-requests", type=int, default=6)
    parser.add_argument("--think", type=float, default=0.02,
                        help="mean steady think time in seconds")
    parser.add_argument("--arch", default=DEFAULT_ARCH)
    parser.add_argument("--template", default=DEFAULT_TEMPLATE)
    parser.add_argument("--max-p95", type=float, default=30.0,
                        help="--check bound on steady-client p95 seconds")
    parser.add_argument("--check", action="store_true",
                        help="assert the QoS contract (zero starvation, "
                             "bounded steady p95, >=1 flooder rejection)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    profiles = [Profile(name="flooder", kind="flooder", requests=args.flood,
                        retries=0, base=0, flavor="qa")]
    for i in range(args.steady_clients):
        profiles.append(Profile(name=f"steady-{i}", kind="steady",
                                requests=args.steady_requests,
                                think_seconds=args.think, retries=8,
                                base=1000 + 100 * i, flavor="qb"))
    outcomes = drive_socket(args.socket, profiles, seed=args.seed,
                            arch=args.arch, template=args.template)
    summary = summarize(outcomes)
    print(json.dumps(summary, indent=2, sort_keys=True))
    if not args.check:
        return 0
    failures = []
    flooder = summary["flooder"]
    if flooder["rejected"] < 1:
        failures.append("flooder saw no structured rejection "
                        "(is --max-pending low enough?)")
    if flooder["errors"]:
        failures.append(f"flooder hit {flooder['errors']} hard errors "
                        "(rejections must be structured, not dead sockets)")
    for profile in profiles:
        if profile.kind != "steady":
            continue
        client = summary[profile.name]
        if client["served"] != profile.requests:
            failures.append(
                f"{profile.name} starved: served {client['served']} of "
                f"{profile.requests} (rejected={client['rejected']}, "
                f"errors={client['errors']})")
        if client["p95_latency_seconds"] > args.max_p95:
            failures.append(
                f"{profile.name} p95 {client['p95_latency_seconds']:.2f}s "
                f"exceeds the {args.max_p95:.2f}s bound")
    if failures:
        for failure in failures:
            print(f"qos-smoke FAILED: {failure}", file=sys.stderr)
        return 1
    print("qos-smoke OK", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
