"""An incremental CDCL SAT solver on a flat clause arena.

This is the engine behind the reproduction's QF_BV solving (the role
Bitwuzla/STP/Yices2 play in the paper's portfolio).  It implements the
standard modern architecture:

* two-watched-literal unit propagation with MiniSat-style blocker literals,
* first-UIP conflict analysis with clause learning and non-chronological
  backjumping,
* exponential VSIDS activity-based branching with phase saving,
* Luby-sequence restarts,
* glucose-style learned-clause database reduction: every learned clause is
  stamped with its literal-block distance (LBD — the number of distinct
  decision levels among its literals) at learning time, and once
  ``reduce_interval`` new clauses have been learned the worst half of the
  deletable learned database is dropped (highest LBD first).  Glue clauses
  (LBD ≤ ``max_lbd_keep``), clauses currently acting as the reason for an
  assigned literal, and level-0 units are never deleted, so propagation
  and conflict analysis stay sound mid-search.  Learned clauses are redundant (entailed by the problem clauses), so
  deletion can only change the search trajectory, never an answer,
* deadline support so callers can impose per-query timeouts (the paper's
  120 s / 40 s / 20 s per-architecture synthesis budgets).

Memory layout (the flat arena)
------------------------------

All hot state lives in contiguous, integer-indexed stores instead of the
dict-of-lists layout the solver started with (kept as
:class:`repro.sat.legacy.LegacyCDCLSolver`, the reference the
differential suite holds this engine to):

* **clause arena** — one flat int sequence holding every clause as a
  ``[size, lbd, flags]`` header followed by its literal run.  A clause is
  addressed by the arena offset of its first literal, so ``arena[off - 3]``
  is its size, ``arena[off - 2]`` its current LBD and ``arena[off - 1]``
  its flags (``0`` problem, ``1`` learnt, ``-1`` deleted-pending-
  compaction).  The backing store is a plain python list rather than
  ``array('i')``: an ``array`` subscript materializes a fresh int object
  on every read, which benchmarks ~2x slower than a list subscript under
  CPython 3.11's adaptive interpreter, and the propagation loop is all
  reads (see EXPERIMENTS.md).  Deletion is tombstone-free:
  :meth:`CDCLSolver._reduce_db` compacts the arena in place and relocates
  every watcher, reason and learned-table offset through one old→new
  offset map.
* **watcher arrays** — ``watches[lit]`` is a flat python list of
  ``offset, blocker`` pairs, indexed directly by the *literal* (negative
  literals use python's negative indexing into the same list).  The
  blocker is a cached literal of the clause; when it is satisfied and still
  one of the two watched slots, the visit resolves on array reads alone —
  no clause dereference, no watcher movement.
* **assignment / level / reason / trail** — ``vals`` is a literal-indexed
  int list (``1`` true, ``-1`` false, ``0`` unassigned; ``vals[lit]`` and
  ``vals[-lit]`` are kept in lockstep, so sign tests disappear from the
  hot loop), ``levels``/``reasons`` are variable-indexed int lists
  (``reasons[var]`` holds an arena offset or ``-1``; both are read only
  while ``var`` is assigned, so backtracking leaves them), phases live in
  a ``bytearray`` and the trail is a plain int list.
* **VSIDS order** — lazy ``heapq`` heaps, of ``(-activity, var)`` tuples
  for bumped variables and of plain indices for activity-0 ones, plus a
  ``bytearray`` of live flags (:class:`_ArenaVarOrder`); its contract is
  the pick (highest activity, ties to the smallest index), not a heap
  layout.

The propagation loop replays the legacy algorithm *visit for visit*: the
blocker fast path only fires when it is provably equivalent to the legacy
outcome (blocker satisfied **and** still watched), and the slot-0/1
normalization swap is performed even on satisfied visits because clause
literal order feeds conflict analysis.  The search trajectory —
conflicts, decisions, propagations, restarts, learned clauses, models,
the trail — is therefore bit-for-bit identical to
:class:`~repro.sat.legacy.LegacyCDCLSolver`, which the differential fuzz
suite asserts directly.

Clauses arrive by one of two routes.  :meth:`CDCLSolver.add_clauses`
takes clause lists under the level-0 rules.  :meth:`CDCLSolver.load_gates`
takes a Tseitin-encoded AIG as gate triples
(:func:`repro.bv.cnf.tseitin_gates`) and writes them straight into an
empty solver's arena and watcher lists, leaving exactly the state the
clause route leaves for the same encoding; the CEGIS candidate session
loads its solver this way, without building a clause list.

The solver is *incremental*: :meth:`CDCLSolver.add_clauses` (and its
one-clause form :meth:`CDCLSolver.add_clause`) may be called after a
:meth:`CDCLSolver.solve`, and repeated ``solve(assumptions=...)``
calls reuse the learned-clause database, variable activities and saved
phases of earlier calls: every learned clause and level-0 literal is
entailed by the clauses alone, whatever the assumptions were.  An unsat
answer under assumptions names no core.  Lex-min refinement
(:func:`repro.smt.solver.lex_min_model`) runs on this: its assumption
solves share one solver.  A trial reuses the decision levels
of the previous one that match its assumption prefix.  An unsatisfiable
trial whose conflict arose at assumption level ``L`` returns at level
``L - 1``, fully propagated (a backjump to a consistent state), so the next
trial re-propagates nothing below ``L``.  Only a call that ran out of time,
or clauses added since, leave the trail partly propagated; the next solve
then restarts from the root.

Branching, phase and restart behavior is fixed: activities decay by
:data:`VAR_DECAY`, an unsaved phase is negative, and the restart intervals
are :data:`RESTART_BASE` times the Luby sequence.  :meth:`CDCLSolver.prefer`
gives chosen variables the activity :data:`PREFERRED_ACTIVITY`, so they are
decided first until conflicts bump others.  Models are therefore
search-dependent; callers that need a canonical model refine it with
:func:`repro.smt.solver.lex_min_model`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.sat.cnf import CNF, complete_model

__all__ = ["CDCLSolver", "SatResult"]

#: VSIDS decay: every conflict divides the activity increment by this.
VAR_DECAY = 0.95
#: Conflicts before the first restart; later intervals follow Luby.
RESTART_BASE = 32
#: The activity :meth:`CDCLSolver.prefer` gives a variable never bumped:
#: above 0, so it is decided before every other unbumped variable, and
#: far below the first bump (1.0), so VSIDS ranks it by its conflicts.
PREFERRED_ACTIVITY = 1e-6


@dataclass
class SatResult:
    """Outcome of a SAT call."""

    status: str  # "sat", "unsat", or "unknown"
    model: Optional[Dict[int, bool]] = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class _ArenaVarOrder:
    """The VSIDS branching order: two lazy ``heapq`` heaps and live flags.

    The contract is the pick, not a layout: :meth:`CDCLSolver.
    _pick_branch_variable` returns the unassigned variable of highest
    activity, ties to the smallest index.  ``heap`` holds ``(-activity,
    var)`` tuples of variables with a positive activity, so tuple order is
    that priority; ``zeros`` holds plain indices of variables whose
    activity is 0, ordered by index alone.  Every positive activity
    precedes 0, so the pick drains ``heap`` before it reads ``zeros``.  Most
    variables are never bumped, so most entries stay small ints.

    ``live[var]`` is 1 while one of the heaps holds an entry for ``var``
    keyed by its current activity, and every unassigned variable has one.
    An entry goes stale when its variable is bumped (the solver only bumps
    assigned variables and pushes them again when it unassigns them) or
    popped; stale entries are skipped when popped.  Between rescales an
    activity only grows, so a stale entry never sorts before its
    variable's live one.  The rescale changes every key, and
    :meth:`rebuild` re-keys the live entries; it also drops the stale ones
    once they outnumber the variables.  Every push and pop runs in C.
    """

    __slots__ = ("activity", "heap", "zeros", "live")

    def __init__(self, activity: List[float]) -> None:
        self.activity = activity
        self.heap: List[Tuple[float, int]] = []
        self.zeros: List[int] = []
        self.live = bytearray(len(activity))

    def rebuild(self) -> None:
        """Re-key one entry per live variable from the current activities."""
        activity = self.activity
        live = list(compress(range(len(self.live)), self.live))
        self.heap[:] = [(-activity[var], var) for var in live if activity[var]]
        heapify(self.heap)
        # Ascending indices already form a heap.
        self.zeros[:] = [var for var in live if not activity[var]]


class CDCLSolver:
    """Conflict-driven clause-learning SAT solver over a :class:`CNF`.

    ``cnf`` may be omitted to start from an empty clause database and grow
    it with :meth:`add_clauses` (the incremental usage).  The constructor
    copies clause literals into the arena, so the input CNF is never
    mutated by the solver's watch reordering.
    """

    def __init__(self, cnf: Optional[CNF] = None, deadline: Optional[float] = None,
                 *, reduce_interval: int = 2000, max_lbd_keep: int = 3) -> None:
        if reduce_interval < 0:
            raise ValueError("reduce_interval must be >= 0 (0 disables reduction)")
        if max_lbd_keep < 0:
            raise ValueError("max_lbd_keep must be >= 0")
        self.cnf = cnf
        self.deadline = deadline
        self.num_vars = 0

        #: Learned clauses between database reductions; 0 disables reduction.
        self.reduce_interval = reduce_interval
        #: Glue threshold: learned clauses with LBD <= this are never deleted.
        self.max_lbd_keep = max_lbd_keep

        #: The clause arena: ``[size, lbd, flags, lit, lit, ...]`` runs.
        self._arena: List[int] = []
        # Literal-indexed stores sized 2*cap+1: slot ``lit`` for positive
        # literals, python negative indexing for negative ones.  ``_cap``
        # doubles geometrically so growth (a re-layout, since negative
        # indices count from the end) is amortized O(1) per variable.
        self._cap = 0
        self._vals: List[int] = [0]
        self._watches: List[List[int]] = [[]]
        # Variable-indexed stores (slot 0 unused).
        self._levels: List[int] = [0]
        self._reasons: List[int] = [-1]
        self._phase = bytearray(1)  # 0 unset, 1 saved-False, 2 saved-True
        #: VSIDS activities, variable-indexed (the order's keys).
        self.activity: List[float] = [0.0]
        self.var_inc = 1.0
        self._order = _ArenaVarOrder(self.activity)

        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.propagation_head = 0

        self.stats = SatResult(status="unknown")
        #: Cumulative counters surviving across ``solve`` calls (the
        #: incremental-session statistics).
        self.learned_count = 0
        self.total_conflicts = 0
        self.solve_calls = 0
        #: Cumulative propagation telemetry: trail literals propagated,
        #: watcher entries examined, and wall seconds spent inside
        #: ``solve`` — the numerators and denominator of the
        #: ``propagations_per_second`` / ``watcher_visits_per_propagation``
        #: metrics threaded through CEGIS results and the bench snapshot.
        self.propagations_total = 0
        self.watcher_visits = 0
        self.solve_seconds = 0.0
        #: Learned-clause database: arena offset -> current LBD, in
        #: learning order (compaction renumbers offsets but preserves it).
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
            self.ensure_vars(cnf.num_vars)
            for clause in cnf.clauses:
                if not self._add_clause(list(clause)):
                    self._ok = False
                    break

    # ------------------------------------------------------------------ #
    # Variable universe / storage growth
    # ------------------------------------------------------------------ #
    def _grow_to(self, new_cap: int) -> None:
        """Re-layout the literal-indexed stores for a larger capacity."""
        old_vals = self._vals
        old_watches = self._watches
        new_vals = [0] * (2 * new_cap + 1)
        new_watches: List[List[int]] = [[] for _ in range(2 * new_cap + 1)]
        for var in range(1, self.num_vars + 1):
            new_vals[var] = old_vals[var]
            new_vals[-var] = old_vals[-var]
            new_watches[var] = old_watches[var]
            new_watches[-var] = old_watches[-var]
        self._vals = new_vals
        self._watches = new_watches
        delta = new_cap - self._cap
        self._levels.extend([0] * delta)
        self._reasons.extend([-1] * delta)
        self._phase.extend(bytes(delta))
        self.activity.extend([0.0] * delta)
        self._order.live.extend(bytes(delta))
        self._cap = new_cap

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable universe (new AIG nodes in a shared namespace).

        Each new variable has activity 0, so its live order entry is its
        index, appended to ``zeros`` in index order; no entry there is
        larger, so the heap stays valid.
        """
        old = self.num_vars
        if num_vars <= old:
            return
        if num_vars > self._cap:
            self._grow_to(max(num_vars, 2 * self._cap, 16))
        order = self._order
        order.live[old + 1:num_vars + 1] = b"\x01" * (num_vars - old)
        order.zeros.extend(range(old + 1, num_vars + 1))
        self.num_vars = num_vars

    def prefer(self, variables: Iterable[int]) -> None:
        """Give each of ``variables`` that was never bumped the activity
        :data:`PREFERRED_ACTIVITY`.

        Until a conflict bumps other variables, the preferred ones are
        decided first, in index order.  The candidate session prefers the
        hole bits, the only free variables of its CNF: their index order
        is the lex-min order, and an unsaved phase is negative.
        """
        activity = self.activity
        for var in variables:
            if not activity[var]:
                activity[var] = PREFERRED_ACTIVITY
        self._order.rebuild()

    # ------------------------------------------------------------------ #
    # Clause database
    # ------------------------------------------------------------------ #
    def _alloc_clause(self, literals: Sequence[int], lbd: int, learnt: bool) -> int:
        """Append a header+literal run; returns the literal-start offset."""
        arena = self._arena
        off = len(arena) + 3
        arena.append(len(literals))
        arena.append(lbd)
        arena.append(1 if learnt else 0)
        arena.extend(literals)
        return off

    def _attach(self, off: int, first: int, second: int) -> None:
        """Watch slots 0/1, each entry carrying the other watch as blocker."""
        watches = self._watches
        wl = watches[first]
        wl.append(off)
        wl.append(second)
        wl = watches[second]
        wl.append(off)
        wl.append(first)

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add one clause: :meth:`add_clauses` with a one-clause batch."""
        return self.add_clauses((literals,))

    def add_clauses(self, clauses: Sequence[Sequence[int]]) -> bool:
        """Add clauses, in order, to a (possibly already solved-on) solver.

        This is the incremental entry point.  The solver backtracks to
        decision level 0 and grows the variable universe to cover the
        batch, once each; then every clause is attached with the root-level
        assignment taken into account, exactly as if it had been added on
        its own:

        * duplicate literals are dropped;
        * a tautology, or a clause already satisfied at level 0, is skipped;
        * literals already false at level 0 are dropped (false forever);
        * a clause left with one literal enqueues it as a level-0 unit,
          which the clauses after it in the batch already see;
        * a clause left empty makes the database unsatisfiable.

        Units are enqueued, not propagated: the next :meth:`solve`
        propagates them.  An empty batch changes nothing, not even the
        decision levels, so the next solve may still reuse its trail.
        Returns ``False`` once the clause database has become
        unsatisfiable.
        """
        if not clauses:
            return self._ok
        self._cancel_until(0)
        self.ensure_vars(max(map(abs, chain.from_iterable(clauses)), default=0))
        vals = self._vals
        for clause in clauses:
            # Duplicates and complementary pairs only matter among the
            # unassigned literals: a pair decided at level 0 has a true
            # member, so the clause is skipped as satisfied either way.
            reduced: List[int] = []
            for lit in clause:
                value = vals[lit]
                if value == 0:
                    if lit in reduced:
                        continue  # duplicate
                    if -lit in reduced:
                        break  # tautology
                    reduced.append(lit)
                elif value > 0:
                    break  # satisfied at level 0 forever
            else:
                if len(reduced) > 1:
                    self._attach(self._alloc_clause(reduced, 0, False),
                                 reduced[0], reduced[1])
                elif reduced:
                    self._enqueue(reduced[0], -1)
                else:
                    self._ok = False
        return self._ok

    def load_gates(self, num_vars: int, gates: Iterable[Tuple[int, int, int]],
                   units: Sequence[int]) -> bool:
        """Load a Tseitin-encoded AND-gate circuit into this empty solver.

        ``gates`` are ``(out, left, right)`` triples and ``units`` the
        literals asserted true, as :func:`~repro.bv.cnf.tseitin_gates`
        gives them; variable 1 is the constant FALSE.  The solver ends in
        exactly the state ``ensure_vars(num_vars)`` and then
        ``add_clauses(tseitin_clauses(gates, units))``
        (:func:`~repro.sat.cnf.tseitin_clauses`) leave it in: arena,
        watcher lists, trail, heap and verdict; but no clause list is
        built.  Before the units, only variable 1 is assigned, and no gate
        mentions it, so every gate clause is attached as it is: a gate's
        three variables are distinct (:meth:`~repro.bv.aig.AIG.and_gate`
        never builds a node with constant, equal or complementary fan-ins).
        The units then follow :meth:`add_clauses`' level-0 rules: one
        already true is skipped, one already false makes the database
        unsatisfiable.  Returns ``False`` once it is unsatisfiable.
        """
        if self.num_vars:
            raise ValueError("load_gates needs an empty solver")
        self.ensure_vars(num_vars)
        self._enqueue(-1, -1)
        arena = self._arena
        watches = self._watches
        off = 3  # the first gate clause's literals follow its header
        for out, left, right in gates:
            # [-out, left], [-out, right], [out, -left, -right]; each
            # clause watches its first two literals.
            not_out = -out
            not_left = -left
            arena += (2, 0, 0, not_out, left, 2, 0, 0, not_out, right,
                      3, 0, 0, out, not_left, -right)
            watches[not_out] += (off, left, off + 5, right)
            watches[left] += (off, not_out)
            watches[right] += (off + 5, not_out)
            watches[out] += (off + 10, not_left)
            watches[not_left] += (off + 10, out)
            off += 16
        vals = self._vals
        for lit in units:
            value = vals[lit]
            if value == 0:
                self._enqueue(lit, -1)
            elif value < 0:
                self._ok = False
        return self._ok

    def _add_clause(self, clause: List[int]) -> bool:
        """Construction-time clause attachment (level 0, trail unpropagated)."""
        clause = list(dict.fromkeys(clause))
        if any(-lit in clause for lit in clause):
            return True  # tautology
        if not clause:
            return False
        if len(clause) == 1:
            return self._enqueue(clause[0], -1)
        off = self._alloc_clause(clause, 0, False)
        self._attach(off, clause[0], clause[1])
        return True

    def _learn_clause(self, learnt: Sequence[int], lbd: int) -> int:
        """Attach a learned clause (slots 0/1 watched) and track its LBD."""
        off = self._alloc_clause(learnt, lbd, True)
        self._attach(off, learnt[0], learnt[1])
        self._learned[off] = lbd
        alive = len(self._learned)
        if alive > self.db_size_peak:
            self.db_size_peak = alive
        self._learned_since_reduce += 1
        return off

    @property
    def learned_alive(self) -> int:
        """Learned clauses currently in the database (watch lists)."""
        return len(self._learned)

    def clause_literals(self, ref: int) -> List[int]:
        """The literal run of the clause at arena offset ``ref``."""
        arena = self._arena
        return arena[ref:ref + arena[ref - 3]]

    def iter_clause_refs(self) -> Iterator[Tuple[int, int, int, int]]:
        """Walk the arena: yields ``(offset, size, lbd, flags)`` per clause."""
        arena = self._arena
        pos = 0
        total = len(arena)
        while pos < total:
            size = arena[pos]
            yield pos + 3, size, arena[pos + 1], arena[pos + 2]
            pos += size + 3

    def watcher_entries(self) -> Iterator[Tuple[int, int, int]]:
        """Every live watcher as ``(watched literal, offset, blocker)``."""
        watches = self._watches
        for var in range(1, self.num_vars + 1):
            for lit in (var, -var):
                wl = watches[lit]
                for i in range(0, len(wl), 2):
                    yield lit, wl[i], wl[i + 1]

    def _clause_lbd(self, clause: Sequence[int]) -> int:
        levels = self._levels
        return len({levels[lit if lit > 0 else -lit] for lit in clause})

    def _reduce_db(self) -> None:
        """Delete the worst half of the deletable learned clauses.

        "Worst" is highest LBD first, larger clauses first among equal LBD,
        oldest first among equal size — a deterministic order (compaction
        renumbers offsets but preserves their creation order, so the
        tie-break matches the legacy index-based one).  Protected (and
        therefore never deletable): glue clauses (LBD <= ``max_lbd_keep``)
        and locked clauses (the current reason of an assigned literal;
        deleting one would orphan conflict analysis).  Level-0 units never enter the learned database in the
        first place — they are enqueued directly.

        Deletion is tombstone-free: victims are flagged in their headers,
        then one compaction pass slides the survivors down the arena and
        relocates every watcher, reason and learned-table offset.  The
        watcher rewrite replaces the legacy per-clause ``list.remove``
        (O(watch-list length) per deletion, quadratic over a reduction)
        with a single linear sweep over the watcher arrays.
        """
        self._learned_since_reduce = 0
        reasons = self._reasons
        locked = set()
        for lit in self.trail:
            reason_off = reasons[lit if lit > 0 else -lit]
            if reason_off >= 0:
                locked.add(reason_off)
        learned = self._learned
        candidates = [(lbd, off) for off, lbd in learned.items()
                      if lbd > self.max_lbd_keep and off not in locked]
        if candidates:
            arena = self._arena
            candidates.sort(key=lambda item: (-item[0],
                                              -arena[item[1] - 3],
                                              item[1]))
            victims = candidates[:len(candidates) // 2]
            if victims:
                for _, off in victims:
                    arena[off - 1] = -1
                    del learned[off]
                    self.clauses_deleted += 1
                self._compact_arena()
        self.reductions += 1
        self.db_size_floor = len(self._learned)

    def _compact_arena(self) -> None:
        """Slide surviving clauses over deleted ones; relocate all offsets."""
        arena = self._arena
        relocate: Dict[int, int] = {}
        read = 0
        write = 0
        total = len(arena)
        while read < total:
            span = arena[read] + 3
            if arena[read + 2] >= 0:
                if write != read:
                    arena[write:write + span] = arena[read:read + span]
                relocate[read + 3] = write + 3
                write += span
            read += span
        del arena[write:]
        # One linear sweep rewrites every watcher (dropping the victims')
        # and preserves per-list order, exactly like the legacy removal.
        for wl in self._watches:
            if not wl:
                continue
            j = 0
            for i in range(0, len(wl), 2):
                new_off = relocate.get(wl[i])
                if new_off is None:
                    continue
                wl[j] = new_off
                wl[j + 1] = wl[i + 1]
                j += 2
            del wl[j:]
        reasons = self._reasons
        for lit in self.trail:
            var = lit if lit > 0 else -lit
            reason_off = reasons[var]
            if reason_off >= 0:
                reasons[var] = relocate[reason_off]
        self._learned = {relocate[off]: lbd for off, lbd in self._learned.items()}

    # ------------------------------------------------------------------ #
    # Assignment / trail
    # ------------------------------------------------------------------ #
    def _value(self, lit: int) -> Optional[bool]:
        value = self._vals[lit]
        if value == 0:
            return None
        return value > 0

    def _enqueue(self, lit: int, reason_off: int) -> bool:
        vals = self._vals
        current = vals[lit]
        if current != 0:
            return current > 0
        var = lit if lit > 0 else -lit
        vals[lit] = 1
        vals[-lit] = -1
        self._levels[var] = len(self.trail_lim)
        self._reasons[var] = reason_off
        self.trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    # ------------------------------------------------------------------ #
    # Propagation
    # ------------------------------------------------------------------ #
    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting arena offset or None.

        The hot loop.  Every watcher visit first tries the blocker fast
        path: if the cached blocker literal is satisfied *and* is still one
        of the clause's two watched slots, the legacy algorithm would have
        kept the watch untouched — so the visit resolves on three array
        reads (plus the slot-normalization swap legacy performs, because
        clause literal order feeds conflict analysis).  Stale blockers fall
        through to the full visit, which replays the legacy replacement
        search literal for literal; the search trajectory is bit-for-bit
        identical to :class:`~repro.sat.legacy.LegacyCDCLSolver`.
        Surviving watchers are compacted in place (no per-visit list
        allocation).
        """
        vals = self._vals
        arena = self._arena
        watches = self._watches
        trail = self.trail
        levels = self._levels
        reasons = self._reasons
        current_level = len(self.trail_lim)
        start_head = self.propagation_head
        head = start_head
        visits = 0
        result: Optional[int] = None
        n_trail = len(trail)
        while head < n_trail:
            lit = trail[head]
            head += 1
            false_lit = -lit
            wl = watches[false_lit]
            if not wl:
                continue
            n = len(wl)
            visits += n >> 1
            i = 0
            j = 0
            conflict = -1
            while i < n:
                off = wl[i]
                blocker = wl[i + 1]
                if vals[blocker] > 0:
                    if arena[off] == blocker:
                        # Kept watcher: only write it back once a dropped
                        # watcher has opened a gap (j lags i).
                        if j != i:
                            wl[j] = off
                            wl[j + 1] = blocker
                        i += 2
                        j += 2
                        continue
                    if arena[off + 1] == blocker:
                        # Normalize: the false literal moves to slot 1 even
                        # on a satisfied visit (literal order is trajectory-
                        # relevant downstream).
                        arena[off] = blocker
                        arena[off + 1] = false_lit
                        if j != i:
                            wl[j] = off
                            wl[j + 1] = blocker
                        i += 2
                        j += 2
                        continue
                    # Stale blocker (no longer watched): full visit.
                i += 2
                if arena[off] == false_lit:
                    first = arena[off + 1]
                    arena[off] = first
                    arena[off + 1] = false_lit
                else:
                    first = arena[off]
                first_value = vals[first]
                if first_value > 0:
                    # Kept; refresh the blocker to the satisfied literal.
                    wl[j] = off
                    wl[j + 1] = first
                    j += 2
                    continue
                # Look for a replacement watch (any non-false literal).
                k = off + 2
                end = off + arena[off - 3]
                found = False
                while k < end:
                    other = arena[k]
                    if vals[other] >= 0:
                        arena[off + 1] = other
                        arena[k] = false_lit
                        other_wl = watches[other]
                        other_wl.append(off)
                        other_wl.append(first)
                        found = True
                        break
                    k += 1
                if found:
                    continue
                wl[j] = off
                wl[j + 1] = first
                j += 2
                if first_value < 0:
                    # First is false too: conflict.  Slide the remaining
                    # watchers down over the moved ones and report.
                    if j != i:
                        wl[j:] = wl[i:]
                    visits -= (n - i) >> 1
                    conflict = off
                    break
                # Unit: enqueue first with this clause as its reason.
                first_var = first if first > 0 else -first
                vals[first] = 1
                vals[-first] = -1
                levels[first_var] = current_level
                reasons[first_var] = off
                trail.append(first)
                n_trail += 1
            else:
                if j != n:
                    del wl[j:]
            if conflict >= 0:
                result = conflict
                break
        self.propagation_head = head
        processed = head - start_head
        self.stats.propagations += processed
        self.propagations_total += processed
        self.watcher_visits += visits
        return result

    # ------------------------------------------------------------------ #
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------ #
    def _analyze(self, conflict_off: int) -> Tuple[List[int], int]:
        arena = self._arena
        levels = self._levels
        reasons = self._reasons
        trail = self.trail
        learned = self._learned
        learnt: List[int] = [0]  # slot 0 becomes the asserting literal
        backjump_level = 0
        seen = bytearray(len(levels))
        counter = 0
        lit = 0  # no literal is 0, so the conflict clause skips nothing
        clause = arena[conflict_off:conflict_off + arena[conflict_off - 3]]
        trail_index = len(trail) - 1
        current_level = len(self.trail_lim)
        # The VSIDS bump is inlined: the loop is hot (every distinct
        # variable in the implication cone, every conflict), so var_inc is
        # a local, re-synced on the (rare) rescale.  Every variable here is
        # assigned, so the bump only marks its order entry stale:
        # _cancel_until pushes it again, with its new key, on unassign.
        activity = self.activity
        var_inc = self.var_inc
        order_live = self._order.live

        while True:
            for q in clause:
                if q == lit:
                    continue
                var = q if q > 0 else -q
                if seen[var]:
                    continue
                level = levels[var]
                if level > 0:
                    seen[var] = 1
                    bumped = activity[var] + var_inc
                    activity[var] = bumped
                    order_live[var] = 0
                    if bumped > 1e100:
                        # Every key changes, and rounding may tie two
                        # activities, so the order is re-keyed.
                        for v in range(1, len(activity)):
                            activity[v] *= 1e-100
                        var_inc *= 1e-100
                        self.var_inc = var_inc
                        self._order.rebuild()
                    if level >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
                        if level > backjump_level:
                            backjump_level = level
            # Find the next literal on the trail to resolve on.
            while True:
                lit = trail[trail_index]
                trail_index -= 1
                if seen[lit if lit > 0 else -lit]:
                    break
            counter -= 1
            if counter == 0:
                break
            reason_off = reasons[lit if lit > 0 else -lit]
            if reason_off >= 0:
                clause = arena[reason_off:reason_off + arena[reason_off - 3]]
                old_lbd = learned.get(reason_off)
                if old_lbd is not None:
                    # Glucose's dynamic LBD: a learned clause used in
                    # conflict analysis gets its LBD refreshed (it can only
                    # tighten as the search settles), promoting useful
                    # clauses toward the protected glue tier.
                    lbd = self._clause_lbd(clause)
                    if lbd < old_lbd:
                        learned[reason_off] = lbd
                        arena[reason_off - 2] = lbd
            else:
                clause = []
        learnt[0] = -lit
        return learnt, backjump_level

    def _decay_activity(self) -> None:
        self.var_inc /= VAR_DECAY

    # ------------------------------------------------------------------ #
    # Backtracking
    # ------------------------------------------------------------------ #
    def _cancel_until(self, target_level: int) -> None:
        """Unassign every level above ``target_level``, saving phases.

        ``levels`` and ``reasons`` are read only for assigned variables,
        so they are left as they are.
        """
        if len(self.trail_lim) <= target_level:
            return
        boundary = self.trail_lim[target_level]
        vals = self._vals
        phase = self._phase
        trail = self.trail
        order = self._order
        heap = order.heap
        zeros = order.zeros
        live = order.live
        activity = self.activity
        for lit in trail[boundary:]:
            var = lit if lit > 0 else -lit
            phase[var] = 2 if lit > 0 else 1
            vals[var] = 0
            vals[-var] = 0
            if not live[var]:
                live[var] = 1
                key = activity[var]
                if key:
                    heappush(heap, (-key, var))
                else:
                    heappush(zeros, var)
        del trail[boundary:]
        del self.trail_lim[target_level:]
        if self.propagation_head > len(trail):
            self.propagation_head = len(trail)
        if len(heap) + len(zeros) > 2 * self.num_vars:
            order.rebuild()

    # ------------------------------------------------------------------ #
    # Branching
    # ------------------------------------------------------------------ #
    def _pick_branch_variable(self) -> Optional[int]:
        """The unassigned variable of highest activity, ties to the
        smallest index; ``None`` once every variable is assigned."""
        vals = self._vals
        order = self._order
        heap = order.heap
        live = order.live
        while heap:
            var = heappop(heap)[1]
            if live[var]:
                live[var] = 0
                if vals[var] == 0:
                    return var
        # No variable with a positive activity is live now, so a live
        # index in zeros is an activity-0 variable's own entry.
        zeros = order.zeros
        while zeros:
            var = heappop(zeros)
            if live[var]:
                live[var] = 0
                if vals[var] == 0:
                    return var
        return None

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Decide the clause database under optional assumption literals.

        Repeated calls are incremental: learned clauses, variable
        activities and saved phases survive from call to call, and a
        matching assumption prefix reuses the existing trail instead of
        re-propagating it — unless that trail is only partly propagated
        (see :meth:`_solve`).  ``unsat`` under assumptions leaves a fully
        propagated trail (a conflict on assumption level L returns at
        level L - 1); ``unknown`` means the ``deadline`` expired.

        The learned database is kept bounded by LBD-based reduction: every
        ``reduce_interval`` learned clauses, the worst half of the
        deletable clauses (highest LBD first) is deleted, protecting glue
        clauses (LBD ≤ ``max_lbd_keep``), reason clauses of currently
        assigned literals, and level-0 units.  ``reduce_interval=0``
        disables reduction (the pre-reduction unbounded behavior).
        Reduction never changes an answer — learned clauses are entailed —
        and composes with every incremental feature: post-reduce
        :meth:`add_clause` and assumption solves behave exactly as they
        would on an unreduced database.  Cumulative
        telemetry lives in :attr:`clauses_deleted`, :attr:`db_size_peak`,
        :attr:`db_size_floor` and :attr:`reductions`.
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
            vals = self._vals
            levels = self._levels
            keep_level = 0
            index = 0
            while index < len(assumptions):
                lit = assumptions[index]
                var = lit if lit > 0 else -lit
                if (var <= self.num_vars and vals[var] != 0
                        and levels[var] <= keep_level and vals[lit] > 0):
                    index += 1
                    continue
                if (keep_level < len(self.trail_lim)
                        and self.trail[self.trail_lim[keep_level]] == lit):
                    keep_level += 1
                    index += 1
                    continue
                break
            self._cancel_until(keep_level)

        conflict = self._propagate()
        if conflict is not None:
            if len(self.trail_lim) > 0:
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
                self._enqueue(lit, -1)
                if self._propagate() is not None:
                    self.stats.status = "unsat"
                    self._cancel_until(len(self.trail_lim) - 1)
                    return self.stats
        assumption_level = len(self.trail_lim)

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
                if len(self.trail_lim) <= assumption_level:
                    self.stats.status = "unsat"
                    if assumption_level == 0:
                        self._ok = False
                    else:
                        # Keep the propagated levels below the conflict's:
                        # the next assumption solve reuses them.
                        self._cancel_until(len(self.trail_lim) - 1)
                    self.total_conflicts += self.stats.conflicts
                    return self.stats
                learnt, backjump_level = self._analyze(conflict)
                lbd = self._clause_lbd(learnt)
                backjump_level = max(backjump_level, assumption_level)
                self._cancel_until(backjump_level)
                self.learned_count += 1
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                else:
                    off = self._learn_clause(learnt, lbd)
                    self._enqueue(learnt[0], off)
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
                vals = self._vals
                assigned = {var: vals[var] > 0
                            for var in range(1, self.num_vars + 1) if vals[var]}
                self.stats.status = "sat"
                self.stats.model = complete_model(self.num_vars, assigned)
                self.total_conflicts += self.stats.conflicts
                return self.stats

            self.stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            # A saved phase of 2 is True; 0 (unset) and 1 are False.
            self._enqueue(branch_var if self._phase[branch_var] == 2
                          else -branch_var, -1)
