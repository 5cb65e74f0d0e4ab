"""The pluggable solver-backend registry.

The paper races Bitwuzla, cvc5, Yices2 and STP and takes the first answer
(§4.5).  This reproduction's engines fill those roles; registering them
here makes every SAT strategy a named, configurable member of one portfolio
abstraction instead of a hard-coded list inside ``sat.portfolio``.

A backend's ``run`` callable has the signature::

    run(cnf, deadline, assumptions, should_stop=None) -> SatResult

where ``should_stop`` is an optional zero-argument callable the portfolio
uses to cancel losing members once a race has been decided.  Legacy
three-argument callables are accepted; they simply cannot be cancelled
early.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.sat.cnf import CNF
from repro.sat.dpll import DPLLSolver
from repro.sat.legacy import LegacyCDCLSolver
from repro.sat.solver import CDCLSolver, SatResult

__all__ = [
    "SolverBackend",
    "register_backend",
    "unregister_backend",
    "backend_by_name",
    "available_backends",
    "default_backend_names",
]


@dataclass
class SolverBackend:
    """A named SAT strategy that can join the portfolio race."""

    name: str
    run: Callable[..., SatResult]
    description: str = ""
    #: Backends with ``default=True`` join the default portfolio race.
    default: bool = True
    #: Head start (seconds) the rest of the race gets before this backend
    #: starts; the portfolio caps it at half the remaining budget so the
    #: fallback joins on every budget scale.  Staggered scheduling keeps
    #: cheap queries on the strongest engine only (deterministic and
    #: GIL-friendly) while hard queries are still raced by every member.
    stagger: float = 0.0
    supports_cancellation: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        self.supports_cancellation = _accepts_should_stop(self.run)

    def solve(self, cnf: CNF, deadline: Optional[float],
              assumptions: Sequence[int] = (),
              should_stop: Optional[Callable[[], bool]] = None) -> SatResult:
        if self.supports_cancellation:
            return self.run(cnf, deadline, assumptions, should_stop=should_stop)
        return self.run(cnf, deadline, assumptions)


def _accepts_should_stop(fn: Callable[..., SatResult]) -> bool:
    """Whether ``fn`` takes the cancellation hook.

    The hook is always passed by keyword, so a cancellable backend must
    name the parameter ``should_stop`` (or accept ``**kwargs``); a fourth
    positional parameter under any other name is not treated as the hook.
    """
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    if any(p.kind == inspect.Parameter.VAR_KEYWORD
           for p in signature.parameters.values()):
        return True
    parameter = signature.parameters.get("should_stop")
    return parameter is not None and parameter.kind in (
        inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)


_REGISTRY: Dict[str, SolverBackend] = {}


def register_backend(backend: SolverBackend, replace: bool = False) -> SolverBackend:
    """Add a backend to the registry (and to future default portfolios)."""
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"solver backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def unregister_backend(name: str) -> None:
    _REGISTRY.pop(name, None)


def backend_by_name(name: str) -> SolverBackend:
    if name not in _REGISTRY:
        raise KeyError(f"unknown solver backend {name!r}; known: {available_backends()}")
    return _REGISTRY[name]


def available_backends() -> List[str]:
    return sorted(_REGISTRY)


def default_backend_names() -> List[str]:
    """Backends that participate in the default race, strongest first."""
    ordered = [backend.name for backend in _REGISTRY.values() if backend.default]
    return ordered


# --------------------------------------------------------------------------- #
# Built-in backends
# --------------------------------------------------------------------------- #
def _run_cdcl(cnf: CNF, deadline: Optional[float], assumptions: Sequence[int],
              should_stop: Optional[Callable[[], bool]] = None) -> SatResult:
    return CDCLSolver(cnf, deadline=deadline, should_stop=should_stop).solve(assumptions)


def _run_dpll(cnf: CNF, deadline: Optional[float], assumptions: Sequence[int],
              should_stop: Optional[Callable[[], bool]] = None) -> SatResult:
    return DPLLSolver(cnf, deadline=deadline, should_stop=should_stop).solve(assumptions)


def cdcl_config(**options) -> Callable[..., SatResult]:
    """A CDCL backend body with a fixed solver configuration.

    ``options`` are :class:`~repro.sat.solver.CDCLSolver` keyword knobs
    (``var_decay``, ``default_phase``, ``phase_saving``, ``branching``,
    ``restart_policy``, ``restart_base``, ``reduce_interval``,
    ``max_lbd_keep``) — the levers that make portfolio members behave
    genuinely differently on the same formula.
    """
    def run(cnf: CNF, deadline: Optional[float], assumptions: Sequence[int],
            should_stop: Optional[Callable[[], bool]] = None) -> SatResult:
        return CDCLSolver(cnf, deadline=deadline, should_stop=should_stop,
                          **options).solve(assumptions)
    return run


register_backend(SolverBackend(
    "cdcl", _run_cdcl,
    description="two-watched-literal CDCL with VSIDS and Luby restarts"))
# The fallback members join the race only once a query looks genuinely
# stuck (60 s in, or half the remaining budget, whichever is sooner):
# under the GIL, CPU-bound members time-share a core, so an eager second
# engine roughly halves the primary's throughput — and a race winner's
# model steers CEGIS counterexamples, so eager racing also makes synthesis
# trajectories timing-dependent.  The diversified configurations below
# vary restart cadence, phase polarity and branching order, the axes on
# which CDCL run times diverge by orders of magnitude, so on a stuck query
# the race hedges against any single configuration's pathological case.
register_backend(SolverBackend(
    "dpll", _run_dpll,
    description="iterative DPLL with unit propagation and pure literals",
    stagger=60.0))
register_backend(SolverBackend(
    "cdcl-agile", cdcl_config(restart_base=8, var_decay=0.85,
                              reduce_interval=1000, max_lbd_keep=2),
    description="CDCL with rapid Luby restarts, fast activity decay and "
                "aggressive clause-DB reduction (recovers quickly from "
                "bad early decisions, keeps propagation lean)",
    stagger=60.0))
register_backend(SolverBackend(
    "cdcl-stable", cdcl_config(restart_policy="geometric", restart_base=128,
                               default_phase=True, reduce_interval=4000),
    description="CDCL with long geometric restarts, positive phase init "
                "and a patient clause database (commits to deep searches, "
                "favours sat answers)",
    stagger=60.0))
register_backend(SolverBackend(
    "cdcl-static", cdcl_config(branching="static", phase_saving=False),
    description="CDCL branching in fixed variable order with fixed "
                "negative polarity (finds the lex-smallest model first)",
    stagger=60.0))


def _run_cdcl_legacy(cnf: CNF, deadline: Optional[float],
                     assumptions: Sequence[int],
                     should_stop: Optional[Callable[[], bool]] = None) -> SatResult:
    return LegacyCDCLSolver(cnf, deadline=deadline,
                            should_stop=should_stop).solve(assumptions)


# The flat-arena engine *is* ``cdcl``; the alias exists so experiment
# configurations and the differential fuzz matrix can name the layout
# explicitly when racing it against the retired list-based engine.
register_backend(SolverBackend(
    "cdcl-arena", _run_cdcl,
    description="alias of 'cdcl': flat-arena CDCL with blocker-literal "
                "watchers (the default engine)",
    default=False))
# The pre-arena solver, kept verbatim for one release as the bit-for-bit
# reference trajectory.  Not part of the default race — it answers
# identically to 'cdcl', only slower, so racing both wastes a core.
register_backend(SolverBackend(
    "cdcl-legacy", _run_cdcl_legacy,
    description="retired dict/list CDCL kept one release as the "
                "trajectory-identical differential baseline for the arena "
                "engine",
    default=False))
