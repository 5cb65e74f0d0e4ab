"""The mapping engine: one session object owns the map-one-design lifecycle.

A :class:`MappingSession` ties together everything a ``lakeroad``
invocation needs — the vendor primitive library, the solver portfolio, the
synthesis cache and the budget policy — and exposes ``map_design`` /
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
from repro.core.lower import LoweredDesign, ResourceCount, lower_to_verilog
from repro.core.sketch_gen import DesignInterface, SketchGenerationError, generate_sketch
from repro.core.synthesis import SynthesisOutcome, f_lr_star
from repro.engine import budget as budget_mod
from repro.engine.budget import Budget
from repro.engine.cache import SynthesisCache, program_fingerprint
from repro.engine.diskcache import DiskSynthesisCache, TieredSynthesisCache
from repro.engine.stats import new as new_stats
from repro.hdl.behavioral import BehavioralDesign, verilog_to_behavioral
from repro.sat.portfolio import SatPortfolio
from repro.smt.solver import SmtSolver
from repro.vendor.library import PrimitiveLibrary

__all__ = ["LakeroadResult", "MappingSession", "synthesis_cache_key",
           "default_session", "reset_default_session"]


def synthesis_cache_key(design: BehavioralDesign, architecture_name: str,
                        template: str, budget: Budget, extra_cycles: int,
                        validate: bool, random_probes: int):
    """The canonical synthesis-cache key for one mapping request.

    This is the single definition of what makes two mapping requests "the
    same result": the design's canonical program fingerprint, the target
    architecture/template, the configured budget, the BMC window, the
    validation flag and the probe budget (which changes the CEGIS
    trajectory).  :meth:`MappingSession.map_design` keys its cache with it,
    and the service front door (:mod:`repro.engine.service`) derives the
    identical key for its duplicate-coalescing and pre-dispatch cache
    check — the two must never diverge, or the front door would serve a
    result the session would not have.
    """
    return SynthesisCache.key(program_fingerprint(design.program),
                              architecture_name, template, budget.key(),
                              extra_cycles, validate, random_probes)


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

    Components are injectable for testing and for alternative deployments
    (e.g. a shared cache across harness shards); by default a session
    creates its own primitive library, a concurrent SAT portfolio, a word
    level solver wired to that portfolio, and a bounded synthesis cache.

    ``cache_dir`` layers a persistent :class:`DiskSynthesisCache` under
    the in-memory LRU so synthesis results survive the process and are
    shared with concurrent sweep workers.

    The CEGIS candidate solvers keep their learned databases bounded with
    LBD-based clause reduction (the :class:`~repro.sat.solver.CDCLSolver`
    ``reduce_interval`` / ``max_lbd_keep`` defaults); each mapping's
    reduction telemetry — ``clauses_deleted`` and the ``db_size_peak``
    memory high-water mark — rides in its counters map
    (:mod:`repro.engine.stats`), and ``lakeroad map --stats``/``sweep``
    print it.
    """

    def __init__(self,
                 library: Optional[PrimitiveLibrary] = None,
                 portfolio: Optional[SatPortfolio] = None,
                 solver: Optional[SmtSolver] = None,
                 cache: Optional[SynthesisCache] = None,
                 enable_cache: bool = True,
                 cache_dir=None,
                 cache_max_entries: Optional[int] = None,
                 random_probes: int = 32) -> None:
        self.library = library if library is not None else PrimitiveLibrary()
        #: Random-probe budget for the packed fast layers (the CEGIS
        #: candidate step and the solver's layer 2 — see
        #: :mod:`repro.bv.bitsim`).  Probes are evaluated 64 lanes per
        #: word-parallel batch; the count changes which CEGIS trajectory
        #: runs, so it participates in the synthesis cache key.
        if random_probes < 0:
            raise ValueError("random_probes must be non-negative")
        self.random_probes = random_probes
        if portfolio is None and solver is not None:
            # Adopt the injected solver's portfolio so portfolio_wins()
            # reports the races that actually ran.
            portfolio = solver.portfolio
        self.portfolio = portfolio if portfolio is not None else SatPortfolio()
        self.solver = solver if solver is not None else SmtSolver(
            portfolio=self.portfolio, random_probes=random_probes)
        if cache is not None and cache_dir is not None:
            raise ValueError("pass either an explicit cache or a cache_dir, "
                             "not both (a silently dropped cache_dir would "
                             "mean nothing ever persists)")
        if cache is None:
            memory = SynthesisCache()
            cache = TieredSynthesisCache(
                memory, DiskSynthesisCache(cache_dir,
                                           max_entries=cache_max_entries)) \
                if cache_dir is not None else memory
        self.cache = cache
        self.enable_cache = enable_cache

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def cache_stats(self) -> Dict[str, int]:
        return self.cache.stats()

    def portfolio_wins(self) -> Dict[str, int]:
        return self.portfolio.win_counts()

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
    def budget_for(self, architecture: str,
                   timeout_seconds: Optional[float] = None) -> Budget:
        """The budget one mapping attempt gets on this session."""
        return Budget.for_architecture(architecture, override=timeout_seconds)

    def map_verilog(self, source: str, template: str = "dsp",
                    arch="xilinx-ultrascale-plus",
                    module_name: Optional[str] = None,
                    timeout_seconds: Optional[float] = None,
                    budget: Optional[Budget] = None,
                    extra_cycles: int = 1,
                    validate: bool = True) -> LakeroadResult:
        """Map a behavioral Verilog module (the §2.2 entry point)."""
        design = verilog_to_behavioral(source, module_name)
        return self.map_design(design, template=template, arch=arch,
                               timeout_seconds=timeout_seconds, budget=budget,
                               extra_cycles=extra_cycles, validate=validate)

    def map_design(self, design: BehavioralDesign, template: str = "dsp",
                   arch="xilinx-ultrascale-plus",
                   timeout_seconds: Optional[float] = None,
                   budget: Optional[Budget] = None,
                   extra_cycles: int = 1,
                   validate: bool = True,
                   use_cache: Optional[bool] = None) -> LakeroadResult:
        """Map an imported behavioral design onto the target architecture."""
        start = time.monotonic()
        architecture = _resolve_arch(arch)
        # A caller-supplied budget that is already running has an unknown
        # amount of its window left, so its results are not comparable to a
        # fresh run with the same configured timeout — never cache those.
        externally_started = budget is not None and budget.started
        if budget is None:
            budget = self.budget_for(architecture.name, timeout_seconds)
        budget.start()

        caching = (self.enable_cache if use_cache is None else use_cache) \
            and not externally_started
        cache_key = None
        if caching:
            cache_key = synthesis_cache_key(design, architecture.name,
                                            template, budget, extra_cycles,
                                            validate, self.random_probes)
            cached = self.cache.get(cache_key)
            if cached is not None:
                hit = _isolated_copy(cached)
                hit.cache_hit = True
                hit.time_seconds = time.monotonic() - start
                return hit

        result = self._map_cold(design, template, architecture, budget,
                                extra_cycles, validate, start)
        # Timeouts are the one wall-clock-dependent status: caching one
        # would make a transient environmental hiccup sticky for the whole
        # session, so only definitive outcomes (success/unsat) are stored.
        if caching and cache_key is not None and result.status != budget_mod.TIMEOUT:
            self.cache.put(cache_key, _isolated_copy(result))
        return result

    # ------------------------------------------------------------------ #
    def _map_cold(self, design: BehavioralDesign, template: str,
                  architecture: ArchDescription, budget: Budget,
                  extra_cycles: int, validate: bool,
                  start: float) -> LakeroadResult:
        """The §2.2 three-step flow: sketch → synthesis → compilation."""
        interface = DesignInterface(input_widths=dict(design.input_widths),
                                   output_width=design.output_width)
        try:
            sketch = generate_sketch(template, architecture, interface, self.library)
        except SketchGenerationError:
            return LakeroadResult(
                status=budget_mod.UNSAT, design_name=design.name,
                architecture=architecture.name, template=template,
                time_seconds=time.monotonic() - start)

        at_time = design.pipeline_depth
        outcome = f_lr_star(sketch, design.program, at_time=at_time,
                            cycles=extra_cycles, budget=budget,
                            solver=self.solver,
                            random_probes=self.random_probes)

        result = LakeroadResult(
            status=budget_mod.mapping_status(outcome.status),
            design_name=design.name,
            architecture=architecture.name,
            template=template,
            time_seconds=time.monotonic() - start,
            hole_values=outcome.hole_values,
            synthesis=outcome,
        )
        if outcome.program is not None:
            result.program = outcome.program
            lowered: LoweredDesign = lower_to_verilog(outcome.program,
                                                      f"{design.name}_impl")
            result.verilog = lowered.verilog
            result.resources = lowered.resources
            if validate:
                result.validated = _validate_by_simulation(outcome.program, design,
                                                           at_time, extra_cycles)
        result.time_seconds = time.monotonic() - start
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
