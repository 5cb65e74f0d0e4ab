"""The list-based CDCL solver, kept as the arena solver's reference.

This is the pre-arena implementation of :class:`repro.sat.solver.CDCLSolver`
verbatim: clauses as python lists indexed by position in a growing
``clauses`` list (deletion leaves ``None`` tombstones), watches as a dict of
literal -> clause-index lists, and assignment/level/reason as dicts.  The
flat-arena solver that replaced it is required to be bit-for-bit
trajectory-identical — same conflicts, same decisions, same propagation
counts, same models, same trail — so this module is the reference
implementation the differential fuzz suite and ``benchmarks/
bench_propagation.py`` compare the arena against.

The only additions over the historical code are the cumulative telemetry
counters (``propagations_total``, ``watcher_visits``, ``solve_seconds``)
that the warm solver host reads from whichever engine it drives, two
loading entries: ``add_clauses``, the batch entry point (here a loop over
``add_clause``), and ``load_gates``, the candidate session's (here its
clause list through ``add_clauses``), and the search changes both engines
make together: ``prefer`` and the backtrack below the conflict's level on
an unsat answer under assumptions.  Both engines dropped the historical
UNSAT-core extraction, which nothing read.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sat.cnf import CNF, tseitin_clauses
from repro.sat.solver import (PREFERRED_ACTIVITY, RESTART_BASE, VAR_DECAY,
                              SatResult, _luby)

__all__ = ["LegacyCDCLSolver"]


class _VarOrder:
    """Indexed binary max-heap over a dict of variable activities.

    Priority is highest activity first, ties broken toward the smallest
    variable index: the pick :class:`repro.sat.solver.CDCLSolver`'s order
    is held to.
    """

    __slots__ = ("activity", "heap", "pos")

    def __init__(self, activity: Dict[int, float]) -> None:
        self.activity = activity
        self.heap: List[int] = []
        self.pos: Dict[int, int] = {}

    def _precedes(self, a: int, b: int) -> bool:
        activity = self.activity
        aa = activity.get(a, 0.0)
        ab = activity.get(b, 0.0)
        return aa > ab or (aa == ab and a < b)

    def _sift_up(self, i: int) -> None:
        heap, pos = self.heap, self.pos
        var = heap[i]
        while i > 0:
            parent = (i - 1) >> 1
            if not self._precedes(var, heap[parent]):
                break
            heap[i] = heap[parent]
            pos[heap[i]] = i
            i = parent
        heap[i] = var
        pos[var] = i

    def _sift_down(self, i: int) -> None:
        heap, pos = self.heap, self.pos
        size = len(heap)
        var = heap[i]
        while True:
            left = 2 * i + 1
            if left >= size:
                break
            best = left
            right = left + 1
            if right < size and self._precedes(heap[right], heap[left]):
                best = right
            if not self._precedes(heap[best], var):
                break
            heap[i] = heap[best]
            pos[heap[i]] = i
            i = best
        heap[i] = var
        pos[var] = i

    def insert(self, var: int) -> None:
        if var in self.pos:
            return
        self.heap.append(var)
        self._sift_up(len(self.heap) - 1)

    def bumped(self, var: int) -> None:
        """Re-establish the heap order after ``var``'s activity increased."""
        i = self.pos.get(var)
        if i is not None:
            self._sift_up(i)

    def pop(self) -> Optional[int]:
        heap, pos = self.heap, self.pos
        if not heap:
            return None
        top = heap[0]
        del pos[top]
        last = heap.pop()
        if heap:
            heap[0] = last
            pos[last] = 0
            self._sift_down(0)
        return top


class LegacyCDCLSolver:
    """Conflict-driven clause-learning SAT solver over a :class:`CNF`.

    ``cnf`` may be omitted to start from an empty clause database and grow
    it with :meth:`add_clauses` (the incremental usage).  The constructor
    copies clauses, so the input CNF is never mutated by the solver's watch
    reordering.
    """

    def __init__(self, cnf: Optional[CNF] = None, deadline: Optional[float] = None,
                 *, reduce_interval: int = 2000, max_lbd_keep: int = 3) -> None:
        if reduce_interval < 0:
            raise ValueError("reduce_interval must be >= 0 (0 disables reduction)")
        if max_lbd_keep < 0:
            raise ValueError("max_lbd_keep must be >= 0")
        self.cnf = cnf
        self.deadline = deadline
        self.num_vars = cnf.num_vars if cnf is not None else 0

        #: Learned clauses between database reductions; 0 disables reduction.
        self.reduce_interval = reduce_interval
        #: Glue threshold: learned clauses with LBD <= this are never deleted.
        self.max_lbd_keep = max_lbd_keep

        # Clause database: list of clauses (lists of literals); reduction
        # replaces deleted learned clauses with None tombstones.
        self.clauses: List[Optional[List[int]]] = []
        # Watches: literal -> clause indices watching it.
        self.watches: Dict[int, List[int]] = {}
        # Assignment: var -> bool, plus trail bookkeeping.
        self.assignment: Dict[int, bool] = {}
        self.level: Dict[int, int] = {}
        self.reason: Dict[int, Optional[int]] = {}
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.propagation_head = 0

        # VSIDS over an indexed max-heap (no duplicate entries).
        self.activity: Dict[int, float] = {v: 0.0 for v in range(1, self.num_vars + 1)}
        self.var_inc = 1.0
        self.phase: Dict[int, bool] = {}
        self._order = _VarOrder(self.activity)
        for v in range(1, self.num_vars + 1):
            self._order.insert(v)

        self.stats = SatResult(status="unknown")
        #: Cumulative counters surviving across ``solve`` calls (the
        #: incremental-session statistics).
        self.learned_count = 0
        self.total_conflicts = 0
        self.solve_calls = 0
        #: Cumulative propagation telemetry (trail literals propagated,
        #: watcher entries examined, wall seconds inside ``solve``).
        self.propagations_total = 0
        self.watcher_visits = 0
        self.solve_seconds = 0.0
        # Learned-clause database: clause index -> current LBD, in learning
        # order.  Deleted clauses leave a None tombstone in ``self.clauses``
        # so every surviving index stays valid.
        self._learned: Dict[int, int] = {}
        self._learned_since_reduce = 0
        #: Learned clauses deleted by database reductions (cumulative).
        self.clauses_deleted = 0
        #: Most learned clauses simultaneously alive over the solver's life.
        self.db_size_peak = 0
        #: Learned clauses alive right after the most recent reduction.
        self.db_size_floor = 0
        #: Database reductions performed (cumulative).
        self.reductions = 0
        self._ok = True

        if cnf is not None:
            for clause in cnf.clauses:
                if not self._add_clause(list(clause)):
                    self._ok = False
                    break

    # ------------------------------------------------------------------ #
    # Clause database
    # ------------------------------------------------------------------ #
    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable universe (new AIG nodes in a shared namespace)."""
        for var in range(self.num_vars + 1, num_vars + 1):
            self.activity[var] = 0.0
            self._order.insert(var)
        self.num_vars = max(self.num_vars, num_vars)

    def prefer(self, variables: Iterable[int]) -> None:
        """Give each of ``variables`` that was never bumped the activity
        :data:`~repro.sat.solver.PREFERRED_ACTIVITY`, as the arena engine's
        :meth:`~repro.sat.solver.CDCLSolver.prefer` does."""
        for var in variables:
            if not self.activity.get(var, 0.0):
                self.activity[var] = PREFERRED_ACTIVITY
                self._order.bumped(var)

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add a clause to a (possibly already solved-on) solver.

        This is the incremental entry point: the solver first backtracks to
        decision level 0, then attaches the clause with the root-level
        assignment taken into account — literals already false at level 0
        are dropped (they are false forever), and a clause already satisfied
        at level 0 is skipped entirely.  Returns ``False`` once the clause
        database has become unsatisfiable.
        """
        self._cancel_until(0)
        clause = [int(lit) for lit in literals]
        if clause:
            self.ensure_vars(max(abs(lit) for lit in clause))
        clause = list(dict.fromkeys(clause))
        if any(-lit in clause for lit in clause):
            return self._ok  # tautology
        reduced: List[int] = []
        for lit in clause:
            value = self._value(lit)
            if value is True:
                return self._ok  # satisfied at level 0 forever
            if value is None:
                reduced.append(lit)
        if not reduced:
            self._ok = False
            return False
        if len(reduced) == 1:
            if not self._enqueue(reduced[0], None):
                self._ok = False
            return self._ok
        index = len(self.clauses)
        self.clauses.append(reduced)
        self.watches.setdefault(reduced[0], []).append(index)
        self.watches.setdefault(reduced[1], []).append(index)
        return self._ok

    def add_clauses(self, clauses: Sequence[Sequence[int]]) -> bool:
        """Add clauses in order, one :meth:`add_clause` call each.

        The arena solver's batch entry point, here as the per-clause
        reference: both leave the same database, watches and trail.
        """
        for clause in clauses:
            self.add_clause(clause)
        return self._ok

    def load_gates(self, num_vars: int, gates: Iterable[Tuple[int, int, int]],
                   units: Sequence[int]) -> bool:
        """Load a Tseitin-encoded AND-gate circuit: the arena solver's
        entry, here by the plain route it must match, one
        :meth:`ensure_vars` and :meth:`add_clauses` over
        :func:`~repro.sat.cnf.tseitin_clauses`."""
        self.ensure_vars(num_vars)
        return self.add_clauses(tseitin_clauses(gates, units))

    def _add_clause(self, clause: List[int], learnt: bool = False) -> bool:
        """Construction-time clause attachment (level 0, trail unpropagated)."""
        clause = list(dict.fromkeys(clause))
        if any(-lit in clause for lit in clause):
            return True  # tautology
        if not clause:
            return False
        if len(clause) == 1:
            return self._enqueue(clause[0], None)
        index = len(self.clauses)
        self.clauses.append(clause)
        self.watches.setdefault(clause[0], []).append(index)
        self.watches.setdefault(clause[1], []).append(index)
        return True

    @property
    def learned_alive(self) -> int:
        """Learned clauses currently in the database (watch lists)."""
        return len(self._learned)

    def _clause_lbd(self, clause: Sequence[int]) -> int:
        levels = self.level
        return len({levels.get(abs(lit), 0) for lit in clause})

    def _reduce_db(self) -> None:
        """Delete the worst half of the deletable learned clauses.

        "Worst" is highest LBD first, larger clauses first among equal LBD,
        oldest first among equal size — a deterministic order.  Protected
        (and therefore never deletable): glue clauses (LBD <=
        ``max_lbd_keep``) and locked clauses (the current reason of an
        assigned literal; deleting one would orphan conflict analysis).
        Level-0 units never enter the learned database in the first place
        — they are enqueued directly.
        """
        self._learned_since_reduce = 0
        locked = {index for index in self.reason.values() if index is not None}
        candidates = [(lbd, index) for index, lbd in self._learned.items()
                      if lbd > self.max_lbd_keep and index not in locked]
        if candidates:
            candidates.sort(key=lambda item: (-item[0],
                                              -len(self.clauses[item[1]]),
                                              item[1]))
            clauses = self.clauses
            watches = self.watches
            for _, index in candidates[:len(candidates) // 2]:
                clause = clauses[index]
                # The two watched literals are always in positions 0 and 1.
                watches[clause[0]].remove(index)
                watches[clause[1]].remove(index)
                clauses[index] = None
                del self._learned[index]
                self.clauses_deleted += 1
        self.reductions += 1
        self.db_size_floor = len(self._learned)

    # ------------------------------------------------------------------ #
    # Assignment / trail
    # ------------------------------------------------------------------ #
    def _value(self, lit: int) -> Optional[bool]:
        var = abs(lit)
        if var not in self.assignment:
            return None
        value = self.assignment[var]
        return value if lit > 0 else not value

    def _enqueue(self, lit: int, reason_clause: Optional[int]) -> bool:
        current = self._value(lit)
        if current is not None:
            return current
        var = abs(lit)
        self.assignment[var] = lit > 0
        self.level[var] = self._decision_level()
        self.reason[var] = reason_clause
        self.trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    # ------------------------------------------------------------------ #
    # Propagation
    # ------------------------------------------------------------------ #
    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None.

        This is the solver's hot loop (it dominates wall time on every
        bit-blasted query), so the attribute lookups and the two-watched
        literal value tests are manually inlined with hoisted locals.  The
        logic — and therefore the search trajectory — is identical to the
        straightforward form it replaced.
        """
        assignment = self.assignment
        trail = self.trail
        clauses = self.clauses
        watches = self.watches
        levels = self.level
        reasons = self.reason
        current_level = len(self.trail_lim)
        head = self.propagation_head
        processed = 0
        visits = 0
        result: Optional[int] = None
        while head < len(trail):
            lit = trail[head]
            head += 1
            processed += 1
            false_lit = -lit
            watch_list = watches.get(false_lit)
            if not watch_list:
                continue
            new_watch_list: List[int] = []
            i = 0
            n = len(watch_list)
            visits += n
            conflict: Optional[int] = None
            while i < n:
                clause_index = watch_list[i]
                i += 1
                clause = clauses[clause_index]
                # Ensure the false literal is in position 1.
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                first_var = first if first > 0 else -first
                first_value = assignment.get(first_var)
                if first_value is not None and \
                        (first_value if first > 0 else not first_value):
                    new_watch_list.append(clause_index)
                    continue
                # Look for a replacement watch (any non-false literal).
                found = False
                for k in range(2, len(clause)):
                    other = clause[k]
                    other_var = other if other > 0 else -other
                    other_value = assignment.get(other_var)
                    if other_value is None or \
                            (other_value if other > 0 else not other_value):
                        clause[1] = other
                        clause[k] = false_lit
                        other_watches = watches.get(other)
                        if other_watches is None:
                            watches[other] = [clause_index]
                        else:
                            other_watches.append(clause_index)
                        found = True
                        break
                if found:
                    continue
                new_watch_list.append(clause_index)
                if first_value is not None:
                    # First is false too: conflict.  Copy the remaining
                    # watches back and report.
                    new_watch_list.extend(watch_list[i:])
                    visits -= n - i
                    conflict = clause_index
                    break
                # Unit: enqueue first with this clause as its reason.
                assignment[first_var] = first > 0
                levels[first_var] = current_level
                reasons[first_var] = clause_index
                trail.append(first)
            watches[false_lit] = new_watch_list
            if conflict is not None:
                result = conflict
                break
        self.propagation_head = head
        self.stats.propagations += processed
        self.propagations_total += processed
        self.watcher_visits += visits
        return result

    # ------------------------------------------------------------------ #
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------ #
    def _analyze(self, conflict_index: int) -> tuple[List[int], int]:
        learnt: List[int] = []
        seen: Dict[int, bool] = {}
        counter = 0
        lit = None
        clause = list(self.clauses[conflict_index])
        trail_index = len(self.trail) - 1
        current_level = self._decision_level()

        while True:
            for q in clause:
                if lit is not None and q == lit:
                    continue
                var = abs(q)
                if not seen.get(var) and self.level.get(var, 0) > 0:
                    seen[var] = True
                    self._bump_activity(var)
                    if self.level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Find the next literal on the trail to resolve on.
            while True:
                lit = self.trail[trail_index]
                trail_index -= 1
                if seen.get(abs(lit)):
                    break
            counter -= 1
            if counter == 0:
                break
            reason_index = self.reason[abs(lit)]
            clause = list(self.clauses[reason_index]) if reason_index is not None else []
            if reason_index in self._learned:
                # Glucose's dynamic LBD: a learned clause used in conflict
                # analysis gets its LBD refreshed (it can only tighten as
                # the search settles), promoting useful clauses toward the
                # protected glue tier.
                lbd = self._clause_lbd(clause)
                if lbd < self._learned[reason_index]:
                    self._learned[reason_index] = lbd
        learnt.insert(0, -lit)

        if len(learnt) == 1:
            backjump_level = 0
        else:
            levels = sorted((self.level[abs(q)] for q in learnt[1:]), reverse=True)
            backjump_level = levels[0]
        return learnt, backjump_level

    def _bump_activity(self, var: int) -> None:
        self.activity[var] = self.activity.get(var, 0.0) + self.var_inc
        if self.activity[var] > 1e100:
            # Uniform rescaling preserves the relative order of every
            # *other* pair; the variable just bumped still needs its sift.
            for v in self.activity:
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
        self._order.bumped(var)

    def _decay_activity(self) -> None:
        self.var_inc /= VAR_DECAY

    # ------------------------------------------------------------------ #
    # Backtracking
    # ------------------------------------------------------------------ #
    def _cancel_until(self, target_level: int) -> None:
        if self._decision_level() <= target_level:
            return
        boundary = self.trail_lim[target_level]
        for lit in reversed(self.trail[boundary:]):
            var = abs(lit)
            self.phase[var] = self.assignment[var]
            del self.assignment[var]
            del self.level[var]
            self.reason.pop(var, None)
            self._order.insert(var)
        del self.trail[boundary:]
        del self.trail_lim[target_level:]
        self.propagation_head = min(self.propagation_head, len(self.trail))

    # ------------------------------------------------------------------ #
    # Branching
    # ------------------------------------------------------------------ #
    def _pick_branch_variable(self) -> Optional[int]:
        # Indexed heap: pop until an unassigned variable appears (assigned
        # ones are re-inserted when the trail unwinds past them).
        while True:
            var = self._order.pop()
            if var is None:
                break
            if var not in self.assignment:
                return var
        # Heap exhausted: fall back to a linear scan (rare).
        for var in range(1, self.num_vars + 1):
            if var not in self.assignment:
                return var
        return None

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Decide the clause database under optional assumption literals.

        Identical contract to :meth:`repro.sat.solver.CDCLSolver.solve`
        (this is the reference implementation it was cloned from).
        """
        start = time.monotonic()
        try:
            return self._solve(assumptions)
        finally:
            self.solve_seconds += time.monotonic() - start

    def _solve(self, assumptions: Sequence[int]) -> SatResult:
        self.solve_calls += 1
        self.stats = SatResult(status="unknown")
        if not self._ok:
            self._cancel_until(0)
            self.stats.status = "unsat"
            return self.stats
        if self.propagation_head < len(self.trail):
            # The trail is partly propagated: clauses were added since the
            # last call, or the last call ran out of time.  Restart cleanly
            # from the root so the pending literals propagate from level 0.
            self._cancel_until(0)
        else:
            # Trail reuse: keep the longest prefix of existing decision
            # levels that matches the incoming assumptions (assumption
            # literals already implied by a kept level are skipped).  A
            # sequence of related assumption queries — e.g. the
            # lex-minimization pass growing its prefix one literal at a
            # time — then re-propagates almost nothing: an unsat answer
            # under assumptions leaves the levels below its conflict.
            keep_level = 0
            index = 0
            while index < len(assumptions):
                lit = assumptions[index]
                var = abs(lit)
                if (var in self.assignment and self.level[var] <= keep_level
                        and self._value(lit) is True):
                    index += 1
                    continue
                if (keep_level < self._decision_level()
                        and self.trail[self.trail_lim[keep_level]] == lit):
                    keep_level += 1
                    index += 1
                    continue
                break
            self._cancel_until(keep_level)

        conflict = self._propagate()
        if conflict is not None:
            if self._decision_level() > 0:
                # A kept assumption level conflicts (possible only via trail
                # reuse); fall back to a clean root-level start.
                self._cancel_until(0)
                conflict = self._propagate()
            if conflict is not None:
                # Conflict at level 0: the clause database itself is unsat,
                # for this and every future call.
                self._ok = False
                self.stats.status = "unsat"
                return self.stats

        for lit in assumptions:
            if lit:
                self.ensure_vars(abs(lit))
            value = self._value(lit)
            if value is False:
                self.stats.status = "unsat"
                return self.stats
            if value is None:
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
                if self._propagate() is not None:
                    self.stats.status = "unsat"
                    self._cancel_until(self._decision_level() - 1)
                    return self.stats
        assumption_level = self._decision_level()

        restart_count = 1
        conflicts_until_restart = RESTART_BASE * _luby(restart_count)
        conflicts_since_restart = 0
        check_counter = 0

        while True:
            check_counter += 1
            if check_counter % 64 == 0:
                if self.deadline is not None and time.monotonic() > self.deadline:
                    self.stats.status = "unknown"
                    self.total_conflicts += self.stats.conflicts
                    return self.stats

            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if self._decision_level() <= assumption_level:
                    self.stats.status = "unsat"
                    if assumption_level == 0:
                        self._ok = False
                    else:
                        self._cancel_until(self._decision_level() - 1)
                    self.total_conflicts += self.stats.conflicts
                    return self.stats
                learnt, backjump_level = self._analyze(conflict)
                lbd = self._clause_lbd(learnt)
                backjump_level = max(backjump_level, assumption_level)
                self._cancel_until(backjump_level)
                self.learned_count += 1
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    index = len(self.clauses)
                    self.clauses.append(learnt)
                    self.watches.setdefault(learnt[0], []).append(index)
                    self.watches.setdefault(learnt[1], []).append(index)
                    self._enqueue(learnt[0], index)
                    self._learned[index] = lbd
                    alive = len(self._learned)
                    if alive > self.db_size_peak:
                        self.db_size_peak = alive
                    self._learned_since_reduce += 1
                    if self.reduce_interval and \
                            self._learned_since_reduce >= self.reduce_interval:
                        self._reduce_db()
                self._decay_activity()
                continue

            if conflicts_since_restart >= conflicts_until_restart:
                self.stats.restarts += 1
                restart_count += 1
                conflicts_until_restart = RESTART_BASE * _luby(restart_count)
                conflicts_since_restart = 0
                self._cancel_until(assumption_level)
                continue

            branch_var = self._pick_branch_variable()
            if branch_var is None:
                model = {var: self.assignment[var] for var in range(1, self.num_vars + 1)
                         if var in self.assignment}
                for var in range(1, self.num_vars + 1):
                    model.setdefault(var, False)
                self.stats.status = "sat"
                self.stats.model = model
                self.total_conflicts += self.stats.conflicts
                return self.stats

            self.stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            preferred_phase = self.phase.get(branch_var, False)
            self._enqueue(branch_var if preferred_phase else -branch_var, None)
