"""Racing several SAT strategies under one deadline.

The paper runs Bitwuzla, cvc5, Yices2 and STP in parallel and takes the
first answer (§4.5).  This portfolio really races its members: each one
runs in its own thread on its own copy of the formula, the first definitive
(non-``unknown``) answer wins, and the losers are cancelled through the
solvers' cooperative ``should_stop`` hook.  Per-member win counts are kept
for the portfolio-statistics experiment (§5.1).

Members come from the :mod:`repro.engine.backends` registry, so SAT
strategies are named, pluggable components rather than a hard-coded list.
Weaker members join the race only after a staggered head start (see
``SolverBackend.stagger``): CPU-bound Python threads time-share one core,
so cheap queries stay on the strongest engine alone.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.backends import (
    SolverBackend,
    backend_by_name,
    default_backend_names,
)
from repro.sat.cnf import CNF
from repro.sat.solver import SatResult

__all__ = ["PortfolioMember", "SatPortfolio", "default_portfolio"]

#: A portfolio member is just a solver backend; the alias keeps the
#: historical name used throughout the tests and benchmarks.
PortfolioMember = SolverBackend


def default_portfolio() -> List[PortfolioMember]:
    """The default strategy list (every registered default backend)."""
    return [backend_by_name(name) for name in default_backend_names()]


class SatPortfolio:
    """Race portfolio members, returning the first definitive answer."""

    def __init__(self, members: Optional[List[PortfolioMember]] = None) -> None:
        self.members = members if members is not None else default_portfolio()
        self.wins: Counter = Counter()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def win_counts(self) -> Dict[str, int]:
        """How often each member answered first (since construction)."""
        with self._lock:
            return dict(self.wins)

    def _record_win(self, name: str) -> None:
        with self._lock:
            self.wins[name] += 1

    # ------------------------------------------------------------------ #
    def solve(self, cnf: CNF, deadline: Optional[float] = None,
              assumptions: Sequence[int] = ()) -> Tuple[SatResult, str]:
        """Return ``(result, winning member name)``.

        Every member races in its own thread and the first definitive
        answer wins; a single-member portfolio runs its member on the
        calling thread under the same budget.
        """
        if not self.members:
            return SatResult(status="unknown"), "none"
        if len(self.members) == 1:
            return self._solve_alone(self.members[0], cnf, deadline, assumptions)
        return self._race(cnf, deadline, assumptions)

    # ------------------------------------------------------------------ #
    def _solve_alone(self, member: PortfolioMember, cnf: CNF,
                     deadline: Optional[float],
                     assumptions: Sequence[int]) -> Tuple[SatResult, str]:
        if deadline is not None and time.monotonic() > deadline:
            return SatResult(status="unknown"), "none"
        result = member.solve(cnf, deadline, assumptions)
        if result.is_unknown:
            return result, "none"
        self._record_win(member.name)
        return result, member.name

    def _race(self, cnf: CNF, deadline: Optional[float],
              assumptions: Sequence[int]) -> Tuple[SatResult, str]:
        # A member's head start is capped at half the remaining budget, so
        # staggered fallbacks still join the race on every budget scale
        # ("half the budget gone without an answer" is the signal that the
        # query is hard).
        staggers = {member.name: member.stagger for member in self.members}
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return SatResult(status="unknown"), "none"
            staggers = {member.name: min(member.stagger, remaining / 2)
                        for member in self.members}

        stop_event = threading.Event()
        executor = ThreadPoolExecutor(max_workers=len(self.members),
                                      thread_name_prefix="sat-portfolio")
        futures = {}
        try:
            for member in self.members:
                future = executor.submit(self._run_member, member, cnf,
                                         deadline, assumptions, stop_event,
                                         staggers[member.name])
                futures[future] = member

            last_result = SatResult(status="unknown")
            last_error: Optional[BaseException] = None
            produced_result = False
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    member = futures[future]
                    error = future.exception()
                    if error is not None:
                        # A crashed member loses the race, but the crash is
                        # a solver bug worth hearing about, not a timeout.
                        last_error = error
                        warnings.warn(
                            f"portfolio member {member.name!r} crashed: {error!r}",
                            RuntimeWarning, stacklevel=2)
                        continue
                    produced_result = True
                    result = future.result()
                    last_result = result
                    if not result.is_unknown:
                        stop_event.set()
                        self._record_win(member.name)
                        return result, member.name
            if not produced_result and last_error is not None:
                # Every member crashed: surface the bug instead of
                # disguising it as a timeout.
                raise last_error
            return last_result, "none"
        finally:
            stop_event.set()
            executor.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _run_member(member: PortfolioMember, cnf: CNF, deadline: Optional[float],
                    assumptions: Sequence[int],
                    stop_event: threading.Event,
                    stagger: float) -> SatResult:
        """Run one member in the race, honouring its staggered start.

        ``stop_event.wait`` doubles as the stagger timer: if the race is
        decided during the head start, the member never does any work.  The
        wait is capped at the remaining budget so a timing-out query is not
        held hostage by a sleeping fallback member.  Backends must not
        mutate the shared ``cnf`` (the built-in engines copy internally).
        """
        if stagger > 0:
            wait_seconds = stagger
            if deadline is not None:
                wait_seconds = min(wait_seconds, max(0.0, deadline - time.monotonic()))
            if stop_event.wait(wait_seconds):
                return SatResult(status="unknown")
            if deadline is not None and time.monotonic() >= deadline:
                return SatResult(status="unknown")
        return member.solve(cnf, deadline, assumptions, stop_event.is_set)
