"""The stats spine: one counters map for what a synthesis query did.

Every solver tally a mapping reports (:data:`COUNTERS`) travels as one
plain ``dict`` from :class:`~repro.smt.cegis.CegisResult` through
:class:`~repro.core.synthesis.SynthesisOutcome` and
:class:`~repro.harness.runner.MappingRecord` to the sweep summary, the CLI
and ``lakeroad bench``.  They are all tallies of one kind — applications
of the Learn/Forget/Restart/propagate steps of the CDCL transition
system, plus probe and time tallies — so they share three rules, and this
module is the only place that states them:

* **merge** — counters add, except ``*_peak`` high-water marks, which take
  the maximum;
* **cache hits** — a result keeps replaying its own solve's counters (so a
  cached record equals the record of the solve that produced it), but
  anything reporting *this run's* work skips results served from a cache
  (:func:`solved_here`, :func:`this_run`);
* **wall clock** — ``*_seconds`` counters are readings, not outcomes, so
  record equality ignores them (:func:`comparable`).

The two derived rates (:func:`rates`) are computed from the merged totals,
never averaged over per-query rates.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

__all__ = ["COUNTERS", "new", "merge", "rates", "solved_here", "this_run",
           "comparable"]

#: The counters every map starts with, in reporting order:
#:
#: * ``candidate_conflicts`` — SAT conflicts spent in candidate queries;
#: * ``candidate_time_seconds`` / ``verify_time_seconds`` — wall time in
#:   the CEGIS candidate and verification steps;
#: * ``clauses_deleted`` / ``db_size_peak`` — learned clauses dropped by
#:   clause-DB reduction, and the largest learned database, over every
#:   candidate solver the run built;
#: * ``propagations`` / ``watcher_visits`` / ``solver_solve_seconds`` —
#:   trail literals propagated, watcher entries examined and wall seconds
#:   inside ``CDCLSolver.solve``, over the same solvers;
#: * ``probe_lanes_evaluated`` / ``probe_hits`` — packed random-probe
#:   assignments evaluated, and batches with a satisfying lane (candidate
#:   probing and the verification pre-filter);
#: * ``prefilter_cex_found`` — verification counterexamples the packed
#:   pre-filter found without bit-blasting.
COUNTERS = (
    "candidate_conflicts", "candidate_time_seconds", "verify_time_seconds",
    "clauses_deleted", "db_size_peak", "propagations", "watcher_visits",
    "solver_solve_seconds", "probe_lanes_evaluated", "probe_hits",
    "prefilter_cex_found",
)


def new() -> Dict[str, float]:
    """A zeroed counters map (``*_seconds`` counters as floats)."""
    return {key: 0.0 if key.endswith("_seconds") else 0 for key in COUNTERS}


def merge(into: Dict[str, float],
          other: Mapping[str, float]) -> Dict[str, float]:
    """Fold ``other`` into ``into`` and return ``into``: counters add,
    ``*_peak`` counters keep the maximum.  A missing key counts as 0."""
    for key, value in other.items():
        if key.endswith("_peak"):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value
    return into


def rates(counters: Mapping[str, float]) -> Dict[str, float]:
    """Propagation throughput over SAT-solver seconds, and watcher entries
    examined per propagated literal (0.0 when undefined)."""
    seconds = counters.get("solver_solve_seconds", 0.0)
    propagations = counters.get("propagations", 0)
    return {
        "propagations_per_second":
            propagations / seconds if seconds > 0 else 0.0,
        "watcher_visits_per_propagation":
            counters.get("watcher_visits", 0) / propagations
            if propagations else 0.0,
    }


def solved_here(result) -> bool:
    """The cache-hit rule: did ``result``'s solve run in this run?

    A cache hit carries the counters of the solve that first produced it;
    counting them again would claim solver work that never happened.
    """
    return not result.cache_hit


def this_run(results: Iterable) -> Dict[str, float]:
    """The merged counters, plus :func:`rates`, of the results that were
    solved in this run.  Each result has ``cache_hit`` and ``stats``."""
    total = new()
    for result in results:
        if solved_here(result):
            merge(total, result.stats)
    total.update(rates(total))
    return total


def comparable(counters: Mapping[str, float]) -> Dict[str, float]:
    """``counters`` without its wall-clock ``*_seconds`` readings."""
    return {key: value for key, value in counters.items()
            if not key.endswith("_seconds")}
