"""The unified mapping-engine layer.

* :mod:`repro.engine.budget`   -- the single Budget/Outcome model: one
  definition of the ``sat``/``unsat``/``unknown`` and
  ``success``/``unsat``/``timeout`` vocabularies and of the
  per-architecture synthesis timeouts.
* :mod:`repro.engine.stats`    -- the solver counters map every mapping
  result carries, with its merge, cache-hit and wall-clock rules.
* :mod:`repro.engine.cache`    -- the keyed, memoizing in-memory synthesis
  cache.
* :mod:`repro.engine.diskcache`-- the persistent (sqlite) synthesis cache
  shared across processes and runs; a session uses one of the two.
* :mod:`repro.engine.session`  -- :class:`MappingSession`, which owns the
  whole map-one-design lifecycle (§2.2) and the shared state above.
* :mod:`repro.engine.parallel` -- the local worker body and sharded
  sweeps over worker processes, each owning its own session.
* :mod:`repro.engine.service`  -- the long-lived warm worker pool behind
  ``lakeroad serve``: request dedup, front-door caching, fair dispatch
  to idle workers (one request each) and crash recovery over persistent
  sessions; and the one socket layer both network planes serve on.
* :mod:`repro.engine.distributed` -- cross-machine sweeps: a TCP
  coordinator serving shards under work-stealing leases on that socket
  layer, workers built from the wire-form session spec, exactly-once
  deterministic merge.

Everything except ``budget`` is imported lazily: the cache, session and
parallel layers depend on the core/synthesis/harness stack, which in turn
imports :mod:`repro.engine.budget`, and eager re-export would create an
import cycle (e.g. ``import repro.smt`` used to
fail when it was the very first ``repro`` import).
"""

from repro.engine.budget import (
    DEFAULT_TIMEOUTS,
    Budget,
    laptop_timeouts,
    mapping_status,
    timeout_for,
)

__all__ = [
    "Budget",
    "DEFAULT_TIMEOUTS",
    "laptop_timeouts",
    "mapping_status",
    "timeout_for",
    # Lazily resolved (see __getattr__):
    "SynthesisCache",
    "program_fingerprint",
    "DiskSynthesisCache",
    "LakeroadResult",
    "MappingSession",
    "default_session",
    "reset_default_session",
    "SessionSpec",
    "SweepResult",
    "run_sweep",
    "MapRequest",
    "SolverService",
    "ServiceClient",
    "ServerThread",
    "run_server",
    "SweepCoordinator",
    "DistributedSweepResult",
    "run_worker",
    "run_distributed_sweep",
]

_CACHE_EXPORTS = ("SynthesisCache", "program_fingerprint")
_DISKCACHE_EXPORTS = ("DiskSynthesisCache",)
_SESSION_EXPORTS = ("LakeroadResult", "MappingSession", "default_session",
                    "reset_default_session")
_PARALLEL_EXPORTS = ("SessionSpec", "SweepResult", "run_sweep")
_SERVICE_EXPORTS = ("MapRequest", "SolverService", "ServiceClient",
                    "ServerThread", "run_server")
_DISTRIBUTED_EXPORTS = ("SweepCoordinator", "DistributedSweepResult",
                        "run_worker", "run_distributed_sweep")


def __getattr__(name):
    if name in _CACHE_EXPORTS:
        from repro.engine import cache

        return getattr(cache, name)
    if name in _DISKCACHE_EXPORTS:
        from repro.engine import diskcache

        return getattr(diskcache, name)
    if name in _SESSION_EXPORTS:
        from repro.engine import session

        return getattr(session, name)
    if name in _PARALLEL_EXPORTS:
        from repro.engine import parallel

        return getattr(parallel, name)
    if name in _SERVICE_EXPORTS:
        from repro.engine import service

        return getattr(service, name)
    if name in _DISTRIBUTED_EXPORTS:
        from repro.engine import distributed

        return getattr(distributed, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
