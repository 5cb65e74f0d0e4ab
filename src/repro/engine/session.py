"""The mapping engine: one session object owns the map-one-design lifecycle.

A :class:`MappingSession` ties together everything a ``lakeroad``
invocation needs — the vendor primitive library, the synthesis cache and
the budget policy — and exposes ``map_design`` /
``map_verilog``.  The three-step flow of §2.2 (sketch generation → program
synthesis → compilation) lives in :meth:`MappingSession.map_design`;
``repro.lakeroad`` keeps the historical functional API as thin wrappers
over a default session.

Sessions replace the old module-level ``_SHARED_LIBRARY`` singleton: the
library (and every other stateful component) is owned and injectable, so
harness sweeps can share one warm session while tests build isolated ones.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.arch import ArchDescription, load_architecture
from repro.core.interp import interpret
from repro.core.lang import Program
from repro.core.lower import ResourceCount, lower_to_verilog
from repro.core.sketch_gen import DesignInterface, SketchGenerationError, generate_sketch
from repro.core.synthesis import SynthesisOutcome, f_lr_star
from repro.engine import budget as budget_mod
from repro.engine.budget import Budget
from repro.engine.cache import SynthesisCache, program_fingerprint
from repro.engine.stats import new as new_stats
from repro.hdl.behavioral import BehavioralDesign, verilog_to_behavioral
from repro.vendor.library import PrimitiveLibrary

__all__ = ["LakeroadResult", "MappingSession", "synthesis_cache_key",
           "default_session", "reset_default_session"]


def synthesis_cache_key(design: BehavioralDesign, architecture_name: str,
                        template: str, budget: Budget, extra_cycles: int,
                        validate: bool):
    """The canonical synthesis-cache key for one mapping request.

    This is the single definition of what makes two mapping requests "the
    same result": the design's canonical program fingerprint, the target
    architecture/template, the configured budget, the BMC window and the
    validation flag (:meth:`SynthesisCache.key` adds the probe budget,
    which changes the CEGIS trajectory).
    :meth:`MappingSession.map_design` keys its cache with it,
    and the service front door (:mod:`repro.engine.service`) derives the
    identical key for its duplicate-coalescing and pre-dispatch cache
    check — the two must never diverge, or the front door would serve a
    result the session would not have.
    """
    return SynthesisCache.key(program_fingerprint(design.program),
                              architecture_name, template, budget.key(),
                              extra_cycles, validate)


@dataclass
class LakeroadResult:
    """Outcome of one Lakeroad mapping attempt.

    ``status`` is one of ``"success"`` (a structural implementation was
    produced), ``"unsat"`` (the sketch provably cannot implement the
    design), or ``"timeout"`` — the mapping-level vocabulary of
    :mod:`repro.engine.budget`.
    """

    status: str
    design_name: str
    architecture: str
    template: str
    time_seconds: float
    program: Optional[Program] = None
    verilog: Optional[str] = None
    resources: Optional[ResourceCount] = None
    hole_values: Dict[str, int] = field(default_factory=dict)
    synthesis: Optional[SynthesisOutcome] = None
    validated: Optional[bool] = None
    #: Whether this result was served from the session's synthesis cache.
    cache_hit: bool = False

    @property
    def succeeded(self) -> bool:
        return self.status == budget_mod.SUCCESS

    @property
    def stats(self) -> Dict[str, float]:
        """The solve's counters map (zeros when synthesis never ran)."""
        return self.synthesis.stats if self.synthesis is not None \
            else new_stats()


def _resolve_arch(arch) -> ArchDescription:
    if isinstance(arch, ArchDescription):
        return arch
    return load_architecture(str(arch))


def _isolated_copy(result: LakeroadResult) -> LakeroadResult:
    """A copy of a result whose mutable fields are detached.

    The cache and its callers must not alias anything a caller might
    plausibly mutate: ``hole_values``, the resource report and the
    synthesis outcome with its counters map are copied.  ``program`` graphs
    are shared — nodes are frozen dataclasses and programs are treated as
    immutable throughout the codebase.
    """
    return replace(
        result,
        hole_values=dict(result.hole_values),
        resources=replace(result.resources) if result.resources is not None else None,
        synthesis=replace(result.synthesis,
                          hole_values=dict(result.synthesis.hole_values),
                          stats=dict(result.synthesis.stats))
        if result.synthesis is not None else None,
    )


def _validate_by_simulation(candidate: Program, design: BehavioralDesign,
                            at_time: int, cycles: int, seed: int = 0,
                            trials: int = 16) -> bool:
    """Cross-check a synthesized program against the design on random stimulus.

    This mirrors the paper's Verilator validation step: although the output
    is correct by construction, we simulate both programs on random input
    streams and compare the outputs over the checked window.
    """
    rng = random.Random(seed)
    horizon = at_time + cycles + 1
    for _ in range(trials):
        streams = {
            name: [rng.getrandbits(width) for _ in range(horizon)]
            for name, width in design.input_widths.items()
        }
        for t in range(at_time, at_time + cycles + 1):
            if interpret(candidate, streams, t) != interpret(design.program, streams, t):
                return False
    return True


class MappingSession:
    """Owns the full map-one-design lifecycle and its shared state.

    A session owns its primitive library (injectable, so tests can share
    one) and exactly one result store: a bounded
    in-memory :class:`SynthesisCache`, or, given a ``cache_dir``, a
    persistent :class:`~repro.engine.diskcache.DiskSynthesisCache` on its
    own (imported only then, with its ``sqlite3``), so synthesis
    results survive the process and are shared with concurrent sweep
    workers.  ``enable_cache=False`` leaves the store unused.

    How the solvers search is not configurable here: the probe budget is
    :data:`repro.smt.solver.RANDOM_PROBES`, and the CEGIS candidate
    solvers keep their learned databases bounded with LBD-based clause
    reduction at the :class:`~repro.sat.solver.CDCLSolver`
    ``reduce_interval`` / ``max_lbd_keep`` defaults; each mapping's
    reduction telemetry — ``clauses_deleted`` and the ``db_size_peak``
    memory high-water mark — rides in its counters map
    (:mod:`repro.engine.stats`), and ``lakeroad map --stats``/``sweep``
    print it.
    """

    def __init__(self,
                 library: Optional[PrimitiveLibrary] = None,
                 enable_cache: bool = True,
                 cache_dir=None) -> None:
        self.library = library if library is not None else PrimitiveLibrary()
        if cache_dir is not None:
            from repro.engine.diskcache import DiskSynthesisCache

            self.cache = DiskSynthesisCache(cache_dir)
        else:
            self.cache = SynthesisCache()
        self.enable_cache = enable_cache

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def cache_stats(self) -> Dict[str, int]:
        return self.cache.stats()

    def close(self) -> None:
        """Release held resources (the disk cache's sqlite connection).

        In-memory sessions hold nothing that outlives garbage collection;
        disk-cached ones keep a database handle open, so harness code that
        builds sessions per run should close them (or use the session as a
        context manager).  Safe to call more than once.
        """
        close = getattr(self.cache, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "MappingSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #
    def map_verilog(self, source: str, template: str = "dsp",
                    arch="xilinx-ultrascale-plus",
                    module_name: Optional[str] = None,
                    timeout_seconds: Optional[float] = None,
                    extra_cycles: int = 1,
                    validate: bool = True,
                    use_cache: Optional[bool] = None) -> LakeroadResult:
        """Map a behavioral Verilog module (the §2.2 entry point); the
        options are :meth:`map_design`'s."""
        design = verilog_to_behavioral(source, module_name)
        return self.map_design(design, template=template, arch=arch,
                               timeout_seconds=timeout_seconds,
                               extra_cycles=extra_cycles, validate=validate,
                               use_cache=use_cache)

    def map_design(self, design: BehavioralDesign, template: str = "dsp",
                   arch="xilinx-ultrascale-plus",
                   timeout_seconds: Optional[float] = None,
                   extra_cycles: int = 1,
                   validate: bool = True,
                   use_cache: Optional[bool] = None) -> LakeroadResult:
        """Map an imported behavioral design onto the target architecture.

        ``timeout_seconds`` overrides the architecture's budget, which
        starts now, so sketch generation counts against it.
        ``use_cache=False`` skips the session's cache for this one request;
        ``None`` and ``True`` both use it when the session enables caching.
        """
        start = time.monotonic()
        architecture = _resolve_arch(arch)
        # The service front door derives the key's budget from this same
        # call (service._key_and_labels).
        budget = Budget.for_architecture(architecture.name,
                                         override=timeout_seconds).start()

        caching = self.enable_cache and use_cache is not False
        cached = None
        if caching:
            cache_key = synthesis_cache_key(design, architecture.name,
                                            template, budget, extra_cycles,
                                            validate)
            cached = self.cache.get(cache_key)
        if cached is not None:
            # Sign twins share one cache entry: the hit is renamed, and
            # its module lowered below, after the design that asked.
            result = _isolated_copy(cached)
            result.cache_hit = True
            result.design_name = design.name
        else:
            result = self._map_cold(design, template, architecture, budget,
                                    extra_cycles, validate)
        if result.program is not None:
            lowered = lower_to_verilog(
                result.program, f"{design.name}_impl",
                output_name=design.output_name,
                clock_name=design.clock or "clk",
                inputs=design.input_widths.items())
            result.verilog = lowered.verilog
            result.resources = lowered.resources
        result.time_seconds = time.monotonic() - start
        # Timeouts are the one wall-clock-dependent status: caching one
        # would make a transient environmental hiccup sticky for the whole
        # session, so only definitive outcomes (success/unsat) are stored.
        if caching and cached is None and result.status != budget_mod.TIMEOUT:
            self.cache.put(cache_key, _isolated_copy(result))
        return result

    # ------------------------------------------------------------------ #
    def _map_cold(self, design: BehavioralDesign, template: str,
                  architecture: ArchDescription, budget: Budget,
                  extra_cycles: int, validate: bool) -> LakeroadResult:
        """Sketch generation and program synthesis, the first two steps of
        §2.2; :meth:`map_design` compiles the program to Verilog."""
        interface = DesignInterface(input_widths=dict(design.input_widths),
                                   output_width=design.output_width)
        try:
            sketch = generate_sketch(template, architecture, interface, self.library)
        except SketchGenerationError:
            return LakeroadResult(
                status=budget_mod.UNSAT, design_name=design.name,
                architecture=architecture.name, template=template,
                time_seconds=0.0)

        at_time = design.pipeline_depth
        outcome = f_lr_star(sketch, design.program, at_time=at_time,
                            cycles=extra_cycles, budget=budget)

        result = LakeroadResult(
            status=budget_mod.mapping_status(outcome.status),
            design_name=design.name,
            architecture=architecture.name,
            template=template,
            time_seconds=0.0,
            program=outcome.program,
            hole_values=outcome.hole_values,
            synthesis=outcome,
        )
        if outcome.program is not None and validate:
            result.validated = _validate_by_simulation(outcome.program, design,
                                                       at_time, extra_cycles)
        return result


# --------------------------------------------------------------------------- #
# Default session (the functional API's backing instance)
# --------------------------------------------------------------------------- #
_DEFAULT_SESSION: Optional[MappingSession] = None


def default_session() -> MappingSession:
    """The process-wide session backing ``repro.lakeroad``'s functional API."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = MappingSession()
    return _DEFAULT_SESSION


def reset_default_session() -> None:
    """Drop the default session (tests use this to isolate cache state)."""
    global _DEFAULT_SESSION
    _DEFAULT_SESSION = None
