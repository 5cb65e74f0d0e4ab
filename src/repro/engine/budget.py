"""The single source of truth for time budgets and outcome statuses.

Before this module existed the repository carried three divergent copies of
the same information: ``lakeroad.DEFAULT_TIMEOUTS``, the defaults inside
``harness.runner.ExperimentConfig`` and the ad-hoc absolute deadlines
threaded through ``smt.cegis.synthesize``.  Everything now derives from the
two tables and the :class:`Budget` object defined here.

Status vocabulary
-----------------

Synthesis-level statuses (``f_lr`` / CEGIS, §3.1):

* ``sat``     -- a completion of the sketch was found,
* ``unsat``   -- no completion exists,
* ``unknown`` -- the budget expired before a definitive answer.

Mapping-level statuses (one ``lakeroad`` invocation, §2.2):

* ``success`` -- a structural implementation was produced,
* ``unsat``   -- the sketch provably cannot implement the design,
* ``timeout`` -- synthesis did not finish within the budget.

:func:`mapping_status` is the one conversion between the two vocabularies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

__all__ = [
    "SAT", "UNSAT", "UNKNOWN",
    "SUCCESS", "TIMEOUT",
    "DEFAULT_TIMEOUTS", "LAPTOP_SCALE", "FALLBACK_TIMEOUT",
    "laptop_timeouts", "timeout_for", "mapping_status",
    "Budget",
]

# --------------------------------------------------------------------------- #
# Statuses
# --------------------------------------------------------------------------- #
SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

SUCCESS = "success"
TIMEOUT = "timeout"


def mapping_status(synthesis_status: str) -> str:
    """Convert an ``f_lr`` status into a mapping (``lakeroad``) status."""
    if synthesis_status == SAT:
        return SUCCESS
    if synthesis_status == UNSAT:
        return UNSAT
    if synthesis_status == UNKNOWN:
        return TIMEOUT
    raise ValueError(f"unknown synthesis status {synthesis_status!r}")


# --------------------------------------------------------------------------- #
# Timeouts
# --------------------------------------------------------------------------- #
#: Per-architecture synthesis timeouts used by the paper's evaluation
#: (seconds): Xilinx 120, Lattice 40, Intel 20 (§5.1).  SOFA, which the
#: paper maps with the LUT templates only, gets the Lattice budget.
DEFAULT_TIMEOUTS: Dict[str, float] = {
    "xilinx-ultrascale-plus": 120.0,
    "lattice-ecp5": 40.0,
    "intel-cyclone10lp": 20.0,
    "sofa": 40.0,
}

#: The laptop-scale harness halves the paper's budgets (see EXPERIMENTS.md).
LAPTOP_SCALE = 0.5

#: Budget for architectures not in the table (e.g. user-supplied files).
FALLBACK_TIMEOUT = 60.0


def laptop_timeouts() -> Dict[str, float]:
    """The default harness budgets: the paper's timeouts at laptop scale."""
    return {name: seconds * LAPTOP_SCALE for name, seconds in DEFAULT_TIMEOUTS.items()}


def timeout_for(architecture: str,
                overrides: Optional[Mapping[str, float]] = None,
                default: float = FALLBACK_TIMEOUT) -> float:
    """The synthesis budget for one architecture.

    ``overrides`` (e.g. an experiment configuration) win over the paper
    table; unknown architectures fall back to ``default``.
    """
    if overrides is not None and architecture in overrides:
        return overrides[architecture]
    return DEFAULT_TIMEOUTS.get(architecture, default)


# --------------------------------------------------------------------------- #
# Budget
# --------------------------------------------------------------------------- #
@dataclass
class Budget:
    """A wall-clock budget for one mapping attempt.

    A budget is created from a per-architecture timeout (or an explicit
    override) and *started* when work begins.  The session hands the
    started budget to ``f_lr_star``, which passes its absolute
    :attr:`deadline` to :func:`~repro.smt.cegis.synthesize`; from there
    down every layer takes only that deadline.  ``timeout_seconds=None``
    means unlimited; a negative or NaN one is a ``ValueError``.
    """

    timeout_seconds: Optional[float] = None
    started_at: Optional[float] = None

    def __post_init__(self) -> None:
        # ``not >= 0`` also refuses NaN, which compares false with
        # everything and would otherwise mean "no limit".
        if self.timeout_seconds is not None and not self.timeout_seconds >= 0:
            raise ValueError(f"a time limit must be a non-negative number, "
                             f"not {self.timeout_seconds!r}")

    @classmethod
    def for_architecture(cls, architecture: str,
                         override: Optional[float] = None) -> "Budget":
        """The canonical budget for an architecture.

        ``override`` is a single explicit timeout (``--timeout``, a
        request's ``timeout_seconds``); without one the paper table
        decides.
        """
        if override is not None:
            return cls(timeout_seconds=float(override))
        return cls(timeout_seconds=timeout_for(architecture))

    @classmethod
    def unlimited(cls) -> "Budget":
        return cls(timeout_seconds=None)

    def start(self) -> "Budget":
        """Start the clock (idempotent); returns ``self`` for chaining."""
        if self.started_at is None:
            self.started_at = time.monotonic()
        return self

    @property
    def started(self) -> bool:
        return self.started_at is not None

    @property
    def deadline(self) -> Optional[float]:
        """Absolute ``time.monotonic`` cutoff, or None when unlimited."""
        if self.timeout_seconds is None:
            return None
        base = self.started_at if self.started_at is not None else time.monotonic()
        return base + self.timeout_seconds

    def remaining(self) -> Optional[float]:
        deadline = self.deadline
        if deadline is None:
            return None
        return deadline - time.monotonic()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def key(self) -> Optional[float]:
        """The cache-key component of this budget (the configured timeout)."""
        return self.timeout_seconds
